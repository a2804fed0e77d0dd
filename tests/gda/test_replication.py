"""Availability-layer tests: block mirroring, commit lag, CRC32 integrity,
and live failover of a crashed shard."""

import operator
import threading
import zlib

import pytest

from repro.gda import GdaConfig, GdaDatabase, commit, recover, take_checkpoint
from repro.gda import recovery
from repro.gda.checkpoint import snapshot
from repro.gda.consistency import check_consistency
from repro.gda.dptr import unpack_dptr
from repro.gda.retry import RetryPolicy, run_transaction
from repro.gdi import Datatype
from repro.gda import locks
from repro.gdi.errors import GdiChecksumError, GdiCommitUnfinished, GdiLockFailed
from repro.rma import run_spmd
from repro.rma.faults import (
    FaultInjector,
    FaultPlan,
    RmaStaleEpoch,
    RmaTransientError,
)
from repro.rma.membership import SHARD_FAILED, SHARD_REHOSTED
from repro.rma.runtime import RankContext

CFG = GdaConfig(blocks_per_rank=1024, replication=True)


def _make_graph(ctx, db, n=12):
    """Small graph whose vertices spread over every shard."""
    if ctx.rank == 0:
        db.create_label(ctx, "knows")
        db.create_property_type(ctx, "ts", dtype=Datatype.INT64)
    ctx.barrier()
    db.replica(ctx).sync()
    knows = db.label(ctx, "knows")
    ts = db.property_type(ctx, "ts")
    if ctx.rank == 0:
        tx = db.start_transaction(ctx, write=True)
        vs = [tx.create_vertex(i, properties=[(ts, i)]) for i in range(n)]
        for i in range(n - 1):
            tx.create_edge(vs[i], vs[i + 1], label=knows)
        tx.commit()
    ctx.barrier()
    return knows, ts


# -- mirroring data path -----------------------------------------------------
def test_commits_mirror_dirty_blocks_to_backups():
    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        _make_graph(ctx, db)
        repl = db.replication
        assert repl is not None
        # every live block's mirror (on the owner's backup, at the
        # block's own offset) is byte-identical and CRC-consistent
        checked = 0
        for shard in range(ctx.nranks):
            backup = repl.membership.backup_of(shard)
            for idx, (crc, nbytes) in sorted(repl.meta[shard].items()):
                data = ctx.get(
                    db.blocks.data_win, shard, idx * db.config.block_size, nbytes
                )
                mirror = ctx.get(
                    repl.mirror_win, backup, idx * db.config.block_size, nbytes
                )
                assert mirror == data
                assert zlib.crc32(mirror) & 0xFFFFFFFF == crc
                checked += 1
        assert checked > 0
        return checked

    rt, res = run_spmd(3, prog)
    totals = [rt.trace.counters[r].snapshot() for r in range(3)]
    assert sum(t["mirrored_blocks"] for t in totals) > 0
    assert sum(t["mirrored_bytes"] for t in totals) > 0


def test_replication_off_by_default_no_mirror_traffic():
    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=1024))
        _make_graph(ctx, db)
        assert db.replication is None
        assert db.lock_tables is None  # no ledger of lock tables

    rt, _ = run_spmd(2, prog)
    assert all(
        rt.trace.counters[r].mirrored_blocks == 0 for r in range(2)
    )


def test_backups_at_most_one_commit_behind():
    """The commit-intent protocol proves backups lag by at most one
    commit; at quiescence the replication log has fully caught up."""

    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        _, ts = _make_graph(ctx, db)
        repl = db.replication
        if ctx.rank == 0:
            for i in range(6):
                tx = db.start_transaction(ctx, write=True)
                tx.find_vertex(i).set_property(ts, 1000 + i)
                tx.commit()
                # commit returned: its mirrors are flushed
                assert repl.commit_lag(db, ctx.rank) == 0
                assert repl.intent[ctx.rank] is None
        ctx.barrier()
        return [repl.commit_lag(db, r) for r in range(ctx.nranks)]

    _, res = run_spmd(3, prog)
    assert all(lag == 0 for lags in res for lag in lags)


# -- CRC32 integrity ---------------------------------------------------------
def test_injected_corruption_detected_on_read():
    """The `corrupt` fault kind flips a byte in a live block's payload;
    the per-block CRC32 catches it on the next read."""
    state = {}

    def build(ctx):
        db = GdaDatabase.create(ctx, CFG)
        _make_graph(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx)
            prim = tx.find_vertex(0).vid
            tx.commit()
            d = unpack_dptr(prim)
            # a byte inside the stored payload (past the 40 B header)
            state.update(db=db, rank=d.rank, off=d.offset + 41)

    rt, _ = run_spmd(3, build)

    def read_back(ctx):
        db = state["db"]
        if ctx.rank == 0:
            ctx.barrier()  # ops tick the injector past corrupt_at_op
            tx = db.start_transaction(ctx)
            with pytest.raises(GdiChecksumError):
                tx.find_vertex(0)
            tx.abort()
        else:
            ctx.barrier()

    plan = FaultPlan(
        corrupt_rank=state["rank"],
        corrupt_at_op=1,
        corrupt_window=".bgdl.data",
        corrupt_offset=state["off"],
    )
    run_spmd(3, read_back, runtime=rt, faults=plan)
    assert rt.trace.counters[state["rank"]].corruptions_injected == 1
    assert rt.trace.counters[0].corruptions_detected == 1


# -- live failover -----------------------------------------------------------
def test_failover_repairs_crashed_shard_and_serves_degraded():
    """Kill one rank; a survivor's fenced operation triggers the heal,
    which rebuilds the dead shard from its mirrors; reads AND writes of
    the dead rank's vertices keep working without a restart."""
    state = {}
    victim = 2

    def build(ctx):
        db = GdaDatabase.create(ctx, CFG)
        _, ts = _make_graph(ctx, db, n=18)
        if ctx.rank == 0:
            state.update(db=db, ts=ts)

    rt, _ = run_spmd(3, build)
    mem = rt.membership
    assert mem is not None

    def degraded(ctx):
        db, ts = state["db"], state["ts"]
        # the victim dies on its first op; survivors' transactions are
        # fenced once, heal the shard, and then run against the new view
        mine = range(9) if ctx.rank == 0 else range(9, 18)

        def bump_mine(tx):
            for i in mine:
                tx.find_vertex(i).set_property(ts, 5000 + i)

        if ctx.rank != victim:
            run_transaction(
                ctx, db, bump_mine, policy=RetryPolicy(max_attempts=6)
            )
        ctx.barrier()  # writes quiesce before the full read pass

        def read_all(tx):
            return [tx.find_vertex(i).property(ts) for i in range(18)]

        out = None
        if ctx.rank != victim:
            out = run_transaction(
                ctx, db, read_all, write=False,
                policy=RetryPolicy(max_attempts=6),
            )
        ctx.barrier()
        if ctx.rank != victim:
            report = check_consistency(ctx, db)
            assert report.ok, report.problems[:5]
        return out

    _, res = run_spmd(
        3,
        degraded,
        runtime=rt,
        faults=FaultPlan(crash_rank=victim, crash_at_op=1),
    )
    assert res[victim] is None  # silent death in degraded mode
    survivors = [r for r in range(3) if r != victim]
    for r in survivors:
        assert res[r] == [5000 + i for i in range(18)]
    assert mem.shard_state(victim) == SHARD_REHOSTED
    assert mem.host_of(victim) == mem.backup_of(victim)
    assert mem.degraded() and mem.epoch >= 2  # failover + repair bumps
    totals = [rt.trace.counters[r].snapshot() for r in range(3)]
    assert sum(t["epoch_fences"] for t in totals) > 0
    assert sum(t["shard_repairs"] for t in totals) == 1


def test_a_failed_repair_returns_the_shard_to_failed_until_a_heal_repairs_it():
    """``heal``'s repair-failure path: the first repair of a crashed
    shard fails its mirror CRC gate while the other survivor is parked
    on it.  The shard goes back to FAILED, the parked healer is
    released, the repairer's ``heal`` re-raises, and the next ``heal``
    rebuilds the shard from the (again intact) mirror.  The failed
    attempt changes nothing before its gate: the dead rank's commit
    intent survives it and no repair is counted."""
    state = {}
    victim = 2

    def build(ctx):
        db = GdaDatabase.create(ctx, CFG)
        _, ts = _make_graph(ctx, db, n=12)
        if ctx.rank == 0:
            state.update(db=db, ts=ts)

    rt, _ = run_spmd(3, build)
    mem, db, ts = rt.membership, state["db"], state["ts"]
    repl = db.replication
    # one mirrored block no longer matches its recorded CRC32
    idx, (crc, nbytes) = min(repl.meta[victim].items())
    repl.meta[victim][idx] = (crc ^ 1, nbytes)
    repl.intent[victim] = sentinel = []  # an intent with nothing to redo

    def repairs():
        return sum(rt.trace.counters[r].shard_repairs for r in range(3))

    repairing, parked, back = (threading.Event() for _ in range(3))
    # lets a waiter go that nothing released, so a lost release fails
    # the test instead of hanging it
    give_up = threading.Event()
    attempts, released = [], []
    wait, repair = mem._healers.wait, repl.repair_shard

    def noting_wait(scheduler, rank, ready):
        if ready():
            return
        # still under the membership lock, so the failing repair cannot
        # abort before this rank sleeps on the condition
        parked.set()
        wait(scheduler, rank, lambda: ready() or give_up.is_set())
        released.append(not give_up.is_set())

    def repair_after_a_waiter_parks(ctx, db_, shard):
        attempts.append(ctx.rank)
        repairing.set()
        try:
            return repair(ctx, db_, shard)
        except GdiChecksumError:
            assert parked.wait(timeout=60)
            repl.meta[victim][idx] = (crc, nbytes)  # the mirror is sound again
            raise

    mem._healers.wait = noting_wait
    repl.repair_shard = repair_after_a_waiter_parks

    def degraded(ctx):
        if ctx.rank != victim:  # notice the crash: its shard is FAILED
            for s in range(ctx.nranks):
                try:
                    ctx.get(db.blocks.system_win, s, 0, 8)
                except RmaStaleEpoch:
                    pass
        ctx.barrier()
        seen = [mem.shard_state(victim)]
        if ctx.rank == 0:
            with pytest.raises(GdiChecksumError):
                db.heal(ctx)
            seen.append(mem.shard_state(victim))
            seen.append((repl.intent[victim] is sentinel, repairs()))
            back.wait(timeout=60)
            with mem._lock:
                give_up.set()
                mem._lock.notify_all()
        elif ctx.rank == 1:
            assert repairing.wait(timeout=60)
            db.heal(ctx)  # parks on rank 0's repair until it aborts
            back.set()
            seen.append(parked.is_set())
        ctx.barrier()
        if ctx.rank == 0:
            db.heal(ctx)
            seen.append((mem.shard_state(victim), repl.intent[victim], repairs()))
        ctx.barrier()
        if ctx.rank != victim:
            seen.append(
                run_transaction(
                    ctx, db,
                    lambda tx: [tx.find_vertex(i).property(ts) for i in range(12)],
                    write=False, policy=RetryPolicy(max_attempts=6),
                )
            )
            seen.append(check_consistency(ctx, db).problems)
        return seen

    _, res = run_spmd(
        3,
        degraded,
        runtime=rt,
        faults=FaultPlan(crash_rank=victim, crash_at_op=1),
    )
    assert res[victim] is None
    values = list(range(12))
    assert res[0] == [
        SHARD_FAILED, SHARD_FAILED, (True, 0), (SHARD_REHOSTED, None, 1), values, []
    ]
    assert res[1] == [SHARD_FAILED, True, values, []]
    assert attempts == [0, 0]  # the failed attempt, then the repair
    assert released == [True]  # the abort, not the test, let it go


def _backout_race(faults):
    """Rank 1 write-locks vertex 0 (homed on rank 0) and holds it while
    rank 2 read-locks it in a lock-mode read transaction, whose failed
    ``FAA(+1)`` rounds are each backed out by a second round.  Rank 1
    then commits and the survivors probe every shard, heal and check.
    Returns each rank's consistency problems and whether rank 0 could
    write-lock the vertex afterwards."""
    state = {}

    def build(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=256, replication=True))
        if ctx.rank == 0:
            db.create_property_type(ctx, "ts", dtype=Datatype.INT64)
            tx = db.start_transaction(ctx, write=True)
            state.update(db=db, vid=tx.create_vertex(0).vid)
            tx.commit()
        ctx.barrier()
        db.replica(ctx).sync()

    rt, _ = run_spmd(3, build, seed=5)
    db = state["db"]
    assert db.blocks.lock_location(state["vid"])[0] == 0

    def race(ctx):
        ts = db.property_type(ctx, "ts")
        if ctx.rank == 1:
            tx = db.start_transaction(ctx, write=True)
            tx.find_vertex(0).set_property(ts, 1)
        ctx.barrier()
        if ctx.rank == 2:
            with db.start_transaction(ctx) as reader:
                with pytest.raises(GdiLockFailed):
                    reader.find_vertex(0)
        ctx.barrier()
        if ctx.rank == 1:
            tx.commit()
        for s in range(ctx.nranks):
            try:
                ctx.get(db.blocks.system_win, s, 0, 8)
            except RmaStaleEpoch:
                pass
        db.heal(ctx)
        ctx.barrier()
        problems = check_consistency(ctx, db).problems
        ctx.barrier()
        wrote = None
        if ctx.rank == 0:
            with db.start_transaction(ctx, write=True) as tx:
                try:
                    tx.find_vertex(0).set_property(ts, 2)
                    tx.commit()
                    wrote = True
                except GdiLockFailed:
                    wrote = False
        return problems, wrote

    return run_spmd(3, race, runtime=rt, faults=faults)[1]


def test_crash_between_read_increment_and_backout_leaks_no_reader(monkeypatch):
    """A rank that dies after its failed ``FAA(+1)`` landed but before
    the round backing it out leaves the +1 on the word; its lock table
    must list it as a back-out hold so the failover healer backs it out,
    or the vertex could never be write-locked again."""
    injector = FaultInjector(FaultPlan(seed=5))
    backouts = []
    round_ = locks._round

    def spy(ctx, win, ops, cas):
        if ctx.rank == 2 and not cas and all(op[2] == -1 for op in ops):
            backouts.append(injector._n_ops + 1)  # the global op it becomes
        return round_(ctx, win, ops, cas)

    monkeypatch.setattr(locks, "_round", spy)
    assert _backout_race(injector) == [([], True), ([], None), ([], None)]
    monkeypatch.undo()
    assert backouts  # the first pass met the write bit and backed out
    res = _backout_race(FaultPlan(seed=5, crash_rank=2, crash_at_op=backouts[0]))
    assert res[2] is None  # the reader died inside its first back-out
    assert res[:2] == [([], True), ([], None)]


def test_repaired_pool_chains_the_complement_of_the_live_set():
    """The repair of a crashed shard rebuilds its free list as the blocks
    its mirror does not hold, in ascending order, whatever order the
    dead rank's list was in."""
    state = {}
    victim = 2

    def build(ctx):
        db = GdaDatabase.create(ctx, CFG)
        _make_graph(ctx, db, n=18)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            for i in (5, 11, 17):  # on the victim's shard
                tx.find_vertex(i).delete()
            tx.commit()
            state["db"] = db
        ctx.barrier()

    rt, _ = run_spmd(3, build)
    mem = rt.membership

    def degraded(ctx):
        db = state["db"]
        if ctx.rank != victim:
            run_transaction(
                ctx,
                db,
                lambda tx: [tx.find_vertex(i) for i in range(18)],
                write=False,
                policy=RetryPolicy(max_attempts=6),
            )
        ctx.barrier()
        if ctx.rank != mem.host_of(victim):
            return None
        return db.blocks.free_list(ctx, victim), set(db.replication.meta[victim])

    _, res = run_spmd(
        3,
        degraded,
        runtime=rt,
        faults=FaultPlan(crash_rank=victim, crash_at_op=1),
    )
    walk, live = res[mem.host_of(victim)]
    assert mem.shard_state(victim) == SHARD_REHOSTED
    assert max(live) + 1 > len(live), "the live set should have a hole"
    n = state["db"].blocks.blocks_per_rank
    assert walk == [i for i in range(n) if i not in live]


def test_a_survivor_fenced_in_write_back_rolls_its_own_commit_forward(
    monkeypatch,
):
    """A logged commit has one fate.  Rank 0 links a vertex of its own
    to one on the victim's shard; the victim dies as rank 0's write-back
    begins, so that stage is fenced past the commit point.  The
    committer heals and rolls its own record forward: the body ran once,
    one commit counts and no restart, its backups are caught up, and the
    checkpoint plus the log replays to what the survivors hold."""
    state = {}
    victim = 2

    def build(ctx):
        db = GdaDatabase.create(ctx, CFG)
        knows, _ = _make_graph(ctx, db)
        cp = take_checkpoint(ctx, db)
        if ctx.rank == 0:
            state.update(db=db, knows=knows, cp=cp)

    rt, _ = run_spmd(3, build, seed=3)
    db, injector = state["db"], FaultInjector(FaultPlan(seed=3))
    write_back = commit.write_back

    def dying_write_back(plan):
        injector.dead.add(victim)
        write_back(plan)

    monkeypatch.setattr(commit, "STAGES", tuple(
        dying_write_back if stage is write_back else stage
        for stage in commit.STAGES
    ))
    bodies = []

    def link(tx):
        bodies.append(tx)
        tx.create_edge(tx.find_vertex(0), tx.find_vertex(5), label=state["knows"])

    def degraded(ctx):
        if ctx.rank == victim:
            while True:  # busy on its own shard until rank 0 kills it
                ctx.get(db.blocks.system_win, victim, 0, 8)
        if ctx.rank == 0:
            stats = db.stats[0]
            before = stats.committed, stats.aborted, stats.restarts
            run_transaction(ctx, db, link, policy=RetryPolicy(max_attempts=6))
            after = stats.committed, stats.aborted, stats.restarts
            assert [b - a for a, b in zip(before, after)] == [1, 0, 0]
        ctx.barrier()
        if ctx.rank == 1:  # it has not met the failover yet
            with pytest.raises(RmaStaleEpoch):
                ctx.get(db.blocks.system_win, victim, 0, 8)
            db.heal(ctx)
        lags = [db.replication.commit_lag(db, r) for r in range(2)]
        snap = snapshot(ctx, db)
        return lags, sorted(snap["light_edges"], key=repr)

    _, res = run_spmd(3, degraded, runtime=rt, faults=injector)
    assert res[victim] is None
    assert len(bodies) == 1
    assert res[0] == res[1] and res[0][0] == [0, 0]
    assert rt.trace.counters[0].snapshot()["epoch_fences"] == 1

    def twin(ctx):
        db2 = GdaDatabase.create(ctx, CFG)
        recover(ctx, db2, state["cp"], db.commit_log)
        return sorted(snapshot(ctx, db2)["light_edges"], key=repr)

    _, twins = run_spmd(3, twin)
    assert twins[0] == res[0][1]


def _tear(monkeypatch, name, times):
    """Rebind commit stage ``name`` to raise ``RmaTransientError`` on its
    first ``times`` calls: ``publish`` once it ran, any other stage
    before it runs."""
    real, calls = getattr(commit, name), []

    def torn(plan):
        calls.append(list(plan.tx._locks._held.values()))
        if name == "publish" or len(calls) > times:
            real(plan)
        if len(calls) <= times:
            raise RmaTransientError(f"{name} torn")

    monkeypatch.setattr(commit, "STAGES", tuple(
        torn if stage is real else stage for stage in commit.STAGES
    ))
    return calls


def _one_rank_update(monkeypatch, name, times):
    """Replication off, one rank: a write transaction that updates a
    vertex and links two others runs under ``run_transaction`` with commit
    stage ``name`` torn ``times`` times.  Returns the database, its
    checkpoint, the bodies run, the commit/abort/restart deltas, the
    error raised (or None) and the live content."""
    state = {}

    def build(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=1024))
        _make_graph(ctx, db)
        state.update(db=db, cp=take_checkpoint(ctx, db))

    rt, _ = run_spmd(1, build)
    db, bodies = state["db"], []
    held = _tear(monkeypatch, name, times)

    def update(tx):
        bodies.append(tx)
        tx.find_vertex(3).set_property(db.property_type(tx.ctx, "ts"), 33)
        tx.create_edge(
            tx.find_vertex(0), tx.find_vertex(5), label=db.label(tx.ctx, "knows")
        )

    def run(ctx):
        stats = db.stats[0]
        before = stats.committed, stats.aborted, stats.restarts
        try:
            run_transaction(ctx, db, update)
            error = None
        except GdiCommitUnfinished as exc:
            error = exc
        after = stats.committed, stats.aborted, stats.restarts
        assert db.mvcc.watermark == db.mvcc.last_issued  # ts retired
        # a redo borrows the committer's lock table and never gives back
        # its words: each torn try sees the very entries the commit took
        assert all(
            len(h) == len(held[0]) and all(map(operator.is_, h, held[0]))
            for h in held[: times + 1]
        )
        assert check_consistency(ctx, db).problems == []
        deltas = [b - a for a, b in zip(before, after)]
        return deltas, error, _content(snapshot(ctx, db))

    _, [(deltas, error, content)] = run_spmd(1, run, runtime=rt)
    return db, state["cp"], bodies, deltas, error, content


def _content(snap):
    return snap["vertices"], sorted(snap["light_edges"], key=repr)


def _twin(nranks, cp, log):
    def twin(ctx):
        db2 = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=1024))
        recover(ctx, db2, cp, log)
        return _content(snapshot(ctx, db2))

    return run_spmd(nranks, twin)[1][0]


@pytest.mark.parametrize(
    "name,times", [("write_back", 1), ("publish", 1), ("write_back", 3)]
)
def test_a_transient_fault_past_the_commit_point_rolls_forward(
    monkeypatch, name, times
):
    """With replication off, a transient fault that escapes a stage past
    the commit point is finished by the committer's roll-forward, also
    when it hits the redo's first tries (``times`` 3: the commit's own
    write-back, then the first two redos').  The body runs once, one
    commit counts, no restart, the timestamp is retired, and the log
    replays onto a twin."""
    db, cp, bodies, deltas, error, content = _one_rank_update(
        monkeypatch, name, times
    )
    assert error is None and len(bodies) == 1 and deltas == [1, 0, 0]
    assert content[0][3]["props"] == [("ts", (33).to_bytes(8, "little"))]
    assert (0, 5, True, "knows") in content[1]
    assert _twin(1, cp, db.commit_log) == content


def test_a_roll_forward_that_gives_up_is_not_retried(monkeypatch):
    """A redo torn on every try gives up with ``GdiCommitUnfinished``,
    which ``run_transaction`` does not retry (the record is logged: a
    second run would apply it twice).  The timestamp is still retired
    and the locks given back; the record stays in the log."""
    db, _, bodies, deltas, error, content = _one_rank_update(
        monkeypatch, "write_back", 100
    )
    assert isinstance(error, GdiCommitUnfinished)
    assert isinstance(error.__cause__, RmaTransientError)
    assert len(bodies) == 1 and deltas == [0, 1, 0]
    assert db.commit_log.tail(len(db.commit_log) - 1)[0].entries


def test_a_survivor_cannot_take_a_torn_vertex_before_its_roll_forward(
    monkeypatch,
):
    """Rank 0 updates a vertex on the victim's shard; the victim dies as
    rank 0's write-back begins.  The repair sets rank 0's write lock on
    the rebuilt shard again, so rank 1, racing for the vertex between
    the repair and rank 0's redo, cannot take it.  Rank 1's own update
    then lands after the rolled-forward one, as in the checkpoint plus
    the log."""
    state = {}
    victim = 2

    def build(ctx):
        db = GdaDatabase.create(ctx, CFG)
        _, ts = _make_graph(ctx, db)
        cp = take_checkpoint(ctx, db)
        if ctx.rank == 0:
            with db.start_transaction(ctx) as tx:
                torn = next(
                    i for i in range(12)
                    if unpack_dptr(tx.find_vertex(i).vid).rank == victim
                )
            state.update(db=db, ts=ts, cp=cp, torn=torn)

    rt, _ = run_spmd(3, build, seed=3)
    db, ts, torn = state["db"], state["ts"], state["torn"]
    injector = FaultInjector(FaultPlan(seed=3))
    write_back, replay = commit.write_back, recovery.replay_entries_idempotent

    def dying_write_back(plan):
        injector.dead.add(victim)
        write_back(plan)

    def paused_replay(ctx, db, entries, committer=None):
        if committer is not None:
            db.heal(ctx)  # rank 0, fenced first, repairs the shard
            ctx.barrier()  # rank 1 races for the vertex
            ctx.barrier()
        return replay(ctx, db, entries, committer)

    monkeypatch.setattr(commit, "STAGES", tuple(
        dying_write_back if stage is write_back else stage
        for stage in commit.STAGES
    ))
    monkeypatch.setattr(recovery, "replay_entries_idempotent", paused_replay)

    def setter(value):
        return lambda tx: tx.find_vertex(torn).set_property(ts, value)

    def degraded(ctx):
        if ctx.rank == victim:
            while True:  # busy on its own shard until rank 0 kills it
                ctx.get(db.blocks.system_win, victim, 0, 8)
        if ctx.rank == 0:
            run_transaction(ctx, db, setter(100))
        else:
            ctx.barrier()
            with pytest.raises(RmaStaleEpoch):
                ctx.get(db.blocks.system_win, victim, 0, 8)
            db.heal(ctx)
            with db.start_transaction(ctx, write=True) as tx:
                with pytest.raises(GdiLockFailed):
                    setter(200)(tx)
            ctx.barrier()
            run_transaction(ctx, db, setter(200))
        ctx.barrier()
        assert check_consistency(ctx, db).problems == []
        return _content(snapshot(ctx, db))

    _, res = run_spmd(3, degraded, runtime=rt, faults=injector)
    assert res[victim] is None and res[0] == res[1]
    assert res[0][0][torn]["props"] == [("ts", (200).to_bytes(8, "little"))]
    assert _twin(3, state["cp"], db.commit_log) == res[0]


def test_a_word_forgotten_while_the_repair_sets_it_is_backed_out(monkeypatch):
    """The repair's last round sets each lock word of the rebuilt shard
    to what live lock tables hold of it.  A table may forget such a word
    before that round lands (the shard is unserviceable to its rank, so
    the word holds nothing for it); the repair then backs the word out
    again, and no lock word leaks."""
    state = {}
    victim = 2

    def build(ctx):
        db = GdaDatabase.create(ctx, CFG)
        _make_graph(ctx, db)
        if ctx.rank == 0:
            with db.start_transaction(ctx) as tx:
                app = next(
                    i for i in range(12)
                    if unpack_dptr(tx.find_vertex(i).vid).rank == victim
                )
            state.update(db=db, app=app)

    rt, _ = run_spmd(3, build, seed=3)
    db, app = state["db"], state["app"]
    injector, readers = FaultInjector(FaultPlan(seed=3)), []
    faa_batch = RankContext.faa_batch

    def forget_first(ctx, win, ops):
        if readers and win is db.blocks.system_win:
            tx, vid = readers.pop()  # rank 1 forgets its word: no op
            tx._locks.drop(vid)
        return faa_batch(ctx, win, ops)

    def degraded(ctx):
        if ctx.rank == 1:
            tx = db.start_transaction(ctx)
            readers.append((tx, tx.find_vertex(app).vid))  # a read lock
        ctx.barrier()
        if ctx.rank == victim:
            while True:  # busy on its own shard until rank 0 kills it
                ctx.get(db.blocks.system_win, victim, 0, 8)
        if ctx.rank == 0:
            monkeypatch.setattr(RankContext, "faa_batch", forget_first)
            injector.dead.add(victim)
            with pytest.raises(RmaStaleEpoch):
                ctx.get(db.blocks.system_win, victim, 0, 8)
            db.heal(ctx)  # repairs the shard
            monkeypatch.undo()
        ctx.barrier()
        if ctx.rank == 1:
            assert not readers and not tx._locks._held
            tx.commit()
        db.heal(ctx)
        ctx.barrier()
        return check_consistency(ctx, db).problems

    _, res = run_spmd(3, degraded, runtime=rt, faults=injector)
    assert res == [[], [], None]
