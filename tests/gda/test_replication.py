"""Availability-layer tests: block mirroring, commit lag, CRC32 integrity,
and live failover of a crashed shard."""

import threading
import zlib

import pytest

from repro.gda import GdaConfig, GdaDatabase
from repro.gda.consistency import check_consistency
from repro.gda.dptr import unpack_dptr
from repro.gda.retry import RetryPolicy, run_transaction
from repro.gdi import Datatype
from repro.gda import locks
from repro.gdi.errors import GdiChecksumError, GdiLockFailed
from repro.rma import run_spmd
from repro.rma.faults import FaultInjector, FaultPlan, RmaStaleEpoch
from repro.rma.membership import SHARD_FAILED, SHARD_REHOSTED

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
