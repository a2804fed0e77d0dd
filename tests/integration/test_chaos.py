"""Seeded chaos storms: concurrent OLTP under fault injection.

Each storm runs the write-heavy OLTP mix on every rank while the fault
injector fires transient failures and slows a straggler, with the
interleaving scheduler serializing operations in a seeded pseudo-random
order.  Afterwards every structural invariant must hold: consistency
check OK (which includes lock-word leak detection), and zero block leaks
(allocated == reachable).

The heavy storms (more seeds, bigger graph, rank crash + recovery,
failover) run across a seed matrix in tier-1.
"""

import itertools

import pytest

from repro.gda import (
    GdaConfig,
    GdaDatabase,
    RetryPolicy,
    recover,
    run_transaction,
    take_checkpoint,
)
from repro.gda import database_impl
from repro.gda.checkpoint import snapshot
from repro.gda.consistency import check_consistency
from repro.gda.recovery import CommitLog
from repro.generator import KroneckerParams, build_lpg, default_schema
from repro.rma import run_spmd
from repro.rma.executor import SpmdError
from repro.rma.faults import FaultPlan, RmaStaleEpoch
from repro.rma.membership import SHARD_REPAIRING
from repro.workloads.oltp import MIXES, OpType, WorkloadMix, run_oltp_rank

NRANKS = 3
CFG = GdaConfig(blocks_per_rank=4096)
PARAMS = KroneckerParams(scale=5, edge_factor=3, seed=7)
SCHEMA = default_schema(n_vertex_labels=2, n_edge_labels=2, n_properties=3)
RETRY = RetryPolicy(max_attempts=6)

def _assert_clean(ctx, db):
    report = check_consistency(ctx, db)
    assert report.ok, report.problems[:5]
    assert report.blocks_allocated == report.blocks_reachable
    return report


def _storm_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        transient_rate=0.03,
        op_backoff_base=5e-7,
        stragglers={1: 1.5},
    )


def _oltp_storm(ctx, seed: int, n_ops: int, params=PARAMS):
    db = GdaDatabase.create(ctx, CFG)
    g = build_lpg(ctx, db, params, SCHEMA)
    res = run_oltp_rank(
        ctx, g, MIXES["WI"], n_ops, seed=seed, ops_per_txn=2, retry=RETRY
    )
    ctx.barrier()
    _assert_clean(ctx, db)
    return db, res


@pytest.mark.parametrize("seed", range(10))
def test_chaos_storm_ends_consistent(seed):
    def prog(ctx):
        db, res = _oltp_storm(ctx, seed, n_ops=16)
        return res.n_failed

    rt, res = run_spmd(NRANKS, prog, seed=seed, faults=_storm_plan(seed))
    # the storm really stormed: injected faults and straggler slowdowns
    # are visible in the trace, and the graph still checked out clean
    totals = [rt.trace.counters[r].snapshot() for r in range(NRANKS)]
    assert sum(t["faults_injected"] for t in totals) > 0
    assert totals[1]["straggler_time"] > 0.0


@pytest.mark.parametrize("seed", range(100, 120))
def test_chaos_storm_heavy(seed):
    params = KroneckerParams(scale=6, edge_factor=4, seed=31)

    def prog(ctx):
        db, res = _oltp_storm(ctx, seed, n_ops=60, params=params)
        return res.n_failed, db.stats[ctx.rank].restarts

    rt, res = run_spmd(NRANKS, prog, seed=seed, faults=_storm_plan(seed))
    assert sum(rt.trace.counters[r].snapshot()["faults_injected"] for r in range(NRANKS)) > 0


def _crash_storm(seed: int):
    """Storm, checkpoint mid-flight, storm more, crash a rank, recover.

    Verifies the replay path against live execution: recovering from the
    mid-storm checkpoint plus the log records committed before the final
    quiescent point must reproduce the final quiescent snapshot exactly.
    """
    state = {}

    def build_and_storm(ctx):
        db = GdaDatabase.create(ctx, CFG)
        g = build_lpg(ctx, db, PARAMS, SCHEMA)
        run_oltp_rank(
            ctx, g, MIXES["WI"], 12, seed=seed, ops_per_txn=2, retry=RETRY
        )
        ctx.barrier()
        cp1 = take_checkpoint(ctx, db)  # mid-storm checkpoint
        run_oltp_rank(
            ctx, g, MIXES["WI"], 12, seed=seed + 1, ops_per_txn=2, retry=RETRY
        )
        ctx.barrier()
        cp2 = take_checkpoint(ctx, db)  # quiescent ground truth
        if ctx.rank == 0:
            state.update(db=db, g=g, cp1=cp1, cp2=cp2)

    rt, _ = run_spmd(
        NRANKS, build_and_storm, seed=seed, faults=_storm_plan(seed)
    )

    def doomed(ctx):
        run_oltp_rank(
            ctx,
            state["g"],
            MIXES["WI"],
            40,
            seed=seed + 2,
            ops_per_txn=2,
            retry=RETRY,
        )
        ctx.barrier()

    with pytest.raises(SpmdError):
        run_spmd(
            NRANKS,
            doomed,
            runtime=rt,
            faults=FaultPlan(seed=seed, crash_rank=2, crash_at_op=40),
        )

    db = state["db"]
    # log records committed before the ground-truth checkpoint
    surviving = CommitLog()
    for rec in db.commit_log.tail(0)[: state["cp2"].log_pos]:
        surviving.append(rec.rank, rec.entries)

    def recover_prog(ctx):
        db2 = GdaDatabase.create(ctx, CFG)
        recover(ctx, db2, state["cp1"], surviving)
        _assert_clean(ctx, db2)
        return snapshot(ctx, db2)

    _, recovered = run_spmd(NRANKS, recover_prog)
    assert _canon(recovered[0]) == _canon(state["cp2"].snap)

    # recovering from the later checkpoint plus the full log (including
    # transactions committed during the doomed phase before the crash)
    # must also yield a consistent database
    def recover_full(ctx):
        db2 = GdaDatabase.create(ctx, CFG)
        recover(ctx, db2, state["cp2"], db.commit_log)
        _assert_clean(ctx, db2)

    run_spmd(NRANKS, recover_full)


def _canon(snap):
    return {
        "labels": set(snap["labels"]),
        "ptypes": sorted(p["name"] for p in snap["ptypes"]),
        "vertices": snap["vertices"],
        "light_edges": sorted(snap["light_edges"], key=repr),
        "heavy_edges": sorted(
            (
                (s, d, dr, sorted(ls), sorted(ps))
                for s, d, dr, ls, ps in snap["heavy_edges"]
            ),
            key=repr,
        ),
    }


def test_chaos_crash_and_recover():
    _crash_storm(seed=1)


@pytest.mark.parametrize("seed", range(200, 210))
def test_chaos_crash_and_recover_matrix(seed):
    _crash_storm(seed)


# -- live failover under replication -----------------------------------------
RCFG = GdaConfig(blocks_per_rank=4096, replication=True)
VICTIM = 2

#: WI with the delete share folded into updates: vertex deletion inside an
#: active failover window is documented-unsupported (the repair can leak
#: the tombstoned blocks), so the failover storms drive a no-delete variant.
WI_NODEL = WorkloadMix(
    "WI-nodel",
    {
        OpType.GET_PROPS: 0.091,
        OpType.GET_EDGES: 0.109,
        OpType.ADD_VERTEX: 0.20,
        OpType.UPD_PROP: 0.20,
        OpType.ADD_EDGE: 0.40,
    },
)


def _replicated_graph(ctx, seed: int):
    db = GdaDatabase.create(ctx, RCFG)
    g = build_lpg(ctx, db, PARAMS, SCHEMA)
    run_oltp_rank(
        ctx, g, WI_NODEL, 12, seed=seed, ops_per_txn=2, retry=RETRY
    )
    ctx.barrier()
    return db, g


def _probe_and_heal(ctx, db):
    """Touch every shard so an undetected crash is noticed, then heal."""
    for s in range(ctx.nranks):
        try:
            ctx.get(db.blocks.system_win, s, 0, 8)
        except RmaStaleEpoch:
            pass
    db.heal(ctx)
    ctx.barrier()


def _failover_storm(seed: int, crash_at_op: int = 40):
    """The acceptance scenario: kill one rank mid-OLTP-storm (at global
    op ``crash_at_op``); the
    survivors keep serving in degraded mode (no restart), and their final
    quiescent state equals a fault-free twin recovered from checkpoint +
    commit log — the killed rank's unlogged in-flight batches are
    excluded on both sides by construction."""
    state = {}

    def build(ctx):
        db, g = _replicated_graph(ctx, seed)
        cp = take_checkpoint(ctx, db)
        if ctx.rank == 0:
            state.update(db=db, g=g, cp=cp)

    rt, _ = run_spmd(NRANKS, build, seed=seed)

    def degraded(ctx):
        db, g = state["db"], state["g"]
        run_oltp_rank(
            ctx, g, WI_NODEL, 30, seed=seed + 1, ops_per_txn=2, retry=RETRY
        )
        ctx.barrier()
        _probe_and_heal(ctx, db)
        _assert_clean(ctx, db)
        repl = db.replication
        for r in range(ctx.nranks):
            if r != VICTIM:  # quiescent survivors are fully mirrored
                assert repl.commit_lag(db, r) == 0
        return _canon(snapshot(ctx, db))

    _, res = run_spmd(
        NRANKS,
        degraded,
        runtime=rt,
        faults=FaultPlan(seed=seed, crash_rank=VICTIM, crash_at_op=crash_at_op),
    )
    assert res[VICTIM] is None  # silent death, survivors never restarted
    survivors = [r for r in range(NRANKS) if r != VICTIM]
    assert res[survivors[0]] == res[survivors[1]]
    totals = [rt.trace.counters[r].snapshot() for r in range(NRANKS)]
    assert sum(t["epoch_fences"] for t in totals) > 0
    assert sum(t["shard_repairs"] for t in totals) == 1
    assert rt.membership.degraded()

    def twin(ctx):
        db2 = GdaDatabase.create(ctx, RCFG)
        recover(ctx, db2, state["cp"], state["db"].commit_log)
        _assert_clean(ctx, db2)
        return _canon(snapshot(ctx, db2))

    _, twins = run_spmd(NRANKS, twin)
    assert twins[0] == res[survivors[0]]
    return rt, res


def test_failover_storm_survivors_match_twin():
    _failover_storm(seed=4)


def test_failover_storm_replays_bit_identically(monkeypatch):
    """A seed fixes the whole failover, heal waits included: two runs
    of one seeded storm end with the same per-rank clocks, trace
    counters and survivor snapshots.  The second run numbers its
    databases from 10**6, as in a process that made many before: the
    broadcast of a database's name must cost the same either way."""
    rt1, res1 = _failover_storm(seed=4)
    monkeypatch.setattr(database_impl, "_db_counter", itertools.count(10**6))
    rt2, res2 = _failover_storm(seed=4)
    assert rt1.clocks == rt2.clocks
    assert rt1.trace.summary() == rt2.trace.summary()
    assert res1 == res2


def test_heal_waiter_parks_until_the_repair_publishes():
    """Both survivors of a seeded crash read the whole graph; the first
    one fenced repairs the victim's shard, issuing ops, while the other
    waits in ``heal``.  The waiter is parked, so the repair's ops are
    granted without it and each survivor heals once, for its one fence."""
    state = {}

    def build(ctx):
        db, g = _replicated_graph(ctx, seed=4)
        if ctx.rank == 0:
            state.update(db=db, g=g)

    rt, _ = run_spmd(NRANKS, build, seed=4)
    db, g = state["db"], state["g"]
    heals = [0] * NRANKS
    entered_during_repair = []
    heal = db.heal

    def counted_heal(ctx):
        heals[ctx.rank] += 1
        if rt.membership.shard_state(VICTIM) == SHARD_REPAIRING:
            entered_during_repair.append(ctx.rank)
        heal(ctx)

    db.heal = counted_heal

    def read_all(tx):
        return sum(tx.find_vertex(v) is not None for v in range(g.n_vertices))

    def degraded(ctx):
        return run_transaction(ctx, db, read_all, write=False, policy=RETRY)

    _, res = run_spmd(
        NRANKS,
        degraded,
        runtime=rt,
        faults=FaultPlan(seed=4, crash_rank=VICTIM, crash_at_op=1),
    )
    survivors = [r for r in range(NRANKS) if r != VICTIM]
    assert res[VICTIM] is None
    assert res[survivors[0]] == res[survivors[1]] == g.n_vertices
    totals = [rt.trace.counters[r].snapshot() for r in range(NRANKS)]
    assert sum(t["shard_repairs"] for t in totals) == 1
    assert len(entered_during_repair) == 1  # one survivor waited
    for r in survivors:
        assert heals[r] == totals[r]["epoch_fences"] == 1, (heals, r)


@pytest.mark.parametrize("seed", range(300, 306))
def test_failover_storm_matrix(seed):
    _failover_storm(seed)


def test_failover_storm_repairer_gives_back_its_words_on_the_shard_it_repairs():
    """At op 55 of seed 304 the repair's redo transaction and its sweep
    read lock vertices of the shard being rebuilt: the words they took on
    the fresh segment are theirs to give back, so none is left set."""
    _failover_storm(304, crash_at_op=55)


def test_failover_storm_promotes_the_dead_committers_staged_mirror():
    """At op 60 of seed 305 the victim dies inside its own logged commit,
    after its mirror iputs landed and before their CRCs were published:
    blocks 2 and 5 of its shard carry its staged bytes, not the recorded
    ones.  The promotion gate accepts a staged CRC, and rolling the
    commit forward leaves the survivors equal to the twin."""
    _failover_storm(305, crash_at_op=60)


@pytest.mark.parametrize("scenario", ["commit", "checkpoint", "collective-tx"])
@pytest.mark.parametrize("seed", [21, 22])
def test_failover_crash_during(scenario, seed):
    """Crash the victim inside a specific protocol window — a block
    commit, a checkpoint collective, or a collective read transaction —
    then prove the survivors heal to an identical consistent state."""
    state = {}

    def build(ctx):
        db, g = _replicated_graph(ctx, seed)
        if ctx.rank == 0:
            state.update(db=db, g=g)

    rt, _ = run_spmd(NRANKS, build, seed=seed)

    def doomed(ctx):
        db, g = state["db"], state["g"]
        if scenario == "commit":
            if ctx.rank == VICTIM:
                p_ts = g.ptypes.get("p_ts")
                for i in range(50):  # dies inside one of these commits
                    tx = db.start_transaction(ctx, write=True)
                    v = tx.find_vertex(i % g.n_vertices)
                    if v is not None and p_ts is not None:
                        v.set_property(p_ts, i)
                    tx.commit()
            else:
                run_oltp_rank(
                    ctx, g, MIXES["RM"], 10, seed=seed, retry=RETRY
                )
        elif scenario == "checkpoint":
            take_checkpoint(ctx, db)
        else:  # a collective read transaction (snapshot sweep)
            snapshot(ctx, db)
        ctx.barrier()

    try:
        run_spmd(
            NRANKS,
            doomed,
            runtime=rt,
            faults=FaultPlan(
                seed=seed,
                crash_rank=VICTIM,
                crash_at_op=25 if scenario == "commit" else 60,
            ),
        )
    except SpmdError:
        pass  # an asymmetric abort is tolerated; the heal pass must still work

    def verify(ctx):
        db, g = state["db"], state["g"]
        _probe_and_heal(ctx, db)
        run_oltp_rank(
            ctx, g, WI_NODEL, 10, seed=seed + 9, ops_per_txn=2, retry=RETRY
        )
        ctx.barrier()
        _assert_clean(ctx, db)
        return _canon(snapshot(ctx, db))

    _, res = run_spmd(NRANKS, verify, runtime=rt)  # victim stays dead
    assert res[VICTIM] is None
    survivors = [r for r in range(NRANKS) if r != VICTIM]
    assert res[survivors[0]] == res[survivors[1]]
    assert rt.membership.degraded()
    totals = [rt.trace.counters[r].snapshot() for r in range(NRANKS)]
    assert sum(t["shard_repairs"] for t in totals) == 1
