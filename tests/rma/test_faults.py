"""Unit tests for the seeded fault-injection substrate."""

import numpy as np
import pytest

from repro.rma import RmaRuntime, run_spmd
from repro.rma.executor import SpmdError
from repro.rma.faults import (
    FaultInjector,
    FaultPlan,
    RmaRankDead,
    RmaTransientError,
    backoff_delay,
)


# -- backoff_delay ----------------------------------------------------------
def test_backoff_zero_base_disabled():
    assert backoff_delay(0.0, 5) == 0.0
    assert backoff_delay(-1.0, 5) == 0.0


def test_backoff_is_deterministic():
    a = backoff_delay(1e-6, 3, seed=7, token=42)
    b = backoff_delay(1e-6, 3, seed=7, token=42)
    assert a == b


def test_backoff_jitter_window_and_cap():
    base, cap = 1e-6, 100e-6
    for attempt in range(12):
        for token in range(8):
            d = backoff_delay(base, attempt, cap=cap, seed=1, token=token)
            ceiling = min(cap, base * 2.0 ** attempt)
            assert ceiling / 2 <= d <= ceiling


def test_backoff_tokens_desynchronize():
    delays = {backoff_delay(1e-6, 4, seed=0, token=t) for t in range(16)}
    assert len(delays) > 1  # different contenders draw different jitter


# -- transient faults -------------------------------------------------------
def _hammer(ctx):
    win = ctx.rt.window("w")
    peer = (ctx.rank + 1) % ctx.rt.nranks
    for i in range(40):
        ctx.put(win, peer, 8 * ctx.rank, i.to_bytes(8, "little"))
        ctx.get(win, peer, 8 * ctx.rank, 8)
    return ctx.get(win, peer, 8 * ctx.rank, 8)


def _make_rt(nranks, plan):
    rt = RmaRuntime(nranks, faults=FaultInjector(plan) if plan else None)
    rt.allocate_window("w", 256)
    return rt


def test_transients_absorbed_and_counted():
    plan = FaultPlan(seed=3, transient_rate=0.2)
    rt = _make_rt(2, plan)
    _, results = run_spmd(2, _hammer, runtime=rt)
    # data survives: the substrate retried failed attempts transparently
    assert results == [(39).to_bytes(8, "little")] * 2
    snap = [rt.trace.counters[r].snapshot() for r in range(2)]
    assert sum(s["faults_injected"] for s in snap) > 0
    assert sum(s["op_retries"] for s in snap) > 0
    assert sum(s["backoff_time"] for s in snap) > 0.0


def test_transients_cost_simulated_time():
    rt_clean = _make_rt(2, None)
    run_spmd(2, _hammer, runtime=rt_clean)
    rt_faulty = _make_rt(2, FaultPlan(seed=3, transient_rate=0.3))
    run_spmd(2, _hammer, runtime=rt_faulty)
    assert max(rt_faulty.clocks) > max(rt_clean.clocks)


def test_fault_storm_is_deterministic():
    def storm():
        rt = _make_rt(2, FaultPlan(seed=11, transient_rate=0.25))
        run_spmd(2, _hammer, runtime=rt)
        return [rt.trace.counters[r].snapshot() for r in range(2)]

    assert storm() == storm()


def test_retry_budget_exhaustion_escalates():
    # rate 1.0: every attempt fails, so the budget always runs out
    plan = FaultPlan(seed=0, transient_rate=1.0, op_retry_limit=3)
    rt = _make_rt(1, plan)
    with pytest.raises(SpmdError) as ei:
        run_spmd(1, _hammer, runtime=rt)
    assert isinstance(ei.value.original, RmaTransientError)
    assert rt.trace.counters[0].faults_injected == 3


# -- stragglers -------------------------------------------------------------
def test_straggler_charged_extra_time():
    rt = _make_rt(2, FaultPlan(stragglers={1: 3.0}))
    run_spmd(2, _hammer, runtime=rt)
    assert rt.trace.counters[1].straggler_time > 0.0
    assert rt.trace.counters[0].straggler_time == 0.0
    assert rt.clocks[1] > rt.clocks[0]


# -- rank crashes -----------------------------------------------------------
def test_crash_kills_origin_and_targets():
    plan = FaultPlan(crash_rank=1, crash_at_op=5)
    rt = _make_rt(2, plan)
    with pytest.raises(SpmdError) as ei:
        run_spmd(2, _hammer, runtime=rt)
    assert isinstance(ei.value.original, RmaRankDead)
    assert 1 in rt.faults.dead


def test_crash_poisons_collectives():
    def prog(ctx):
        win = ctx.rt.window("w")
        for i in range(30):
            ctx.put(win, ctx.rank, 0, b"\x00" * 8)
        ctx.barrier()

    rt = _make_rt(2, FaultPlan(crash_rank=0, crash_at_op=10))
    with pytest.raises(SpmdError):
        run_spmd(2, prog, runtime=rt)


def test_dead_target_fails_nonblocking_requests():
    def prog(ctx):
        win = ctx.rt.window("w")
        if ctx.rank == 0:
            req = ctx.iget(win, 1, 0, 8)
            ctx.rt.faults.dead.add(1)  # crash strikes before the flush
            with pytest.raises(RmaRankDead):
                req.wait()
            assert req.failed
            req.wait()  # idempotent: a faulted request stays faulted
            with pytest.raises(Exception):
                req.result()

    rt = _make_rt(2, FaultPlan())
    run_spmd(2, prog, runtime=rt)


def test_mid_collective_crash_aborts_all_participants_deterministically():
    """Satellite regression: a rank dying before it reaches a collective
    used to strand the waiters; now every participant deterministically
    observes RmaRankDead (no membership view -> the generation aborts)."""

    def prog(ctx):
        win = ctx.rt.window("w")
        try:
            if ctx.rank == 0:
                for _ in range(20):  # dies at global op 10, pre-barrier
                    ctx.put(win, ctx.rank, 0, b"\x00" * 8)
            ctx.barrier()
        except RmaRankDead:
            return "dead"
        return "ok"

    def once():
        rt = _make_rt(3, FaultPlan(crash_rank=0, crash_at_op=10))
        _, results = run_spmd(3, prog, runtime=rt, seed=5)
        return results

    results = once()
    assert results == ["dead"] * 3  # all participants, incl. survivors
    assert once() == results  # deterministic across replays


def test_mid_collective_crash_excluded_with_membership():
    """With a membership view the dead rank is excluded and the
    collective completes over the live view instead of aborting."""
    from repro.rma.membership import ClusterMembership

    def prog(ctx):
        win = ctx.rt.window("w")
        if ctx.rank == 0:
            for _ in range(20):
                ctx.put(win, ctx.rank, 0, b"\x00" * 8)
        gathered = ctx.allgather(ctx.rank)
        ctx.barrier()
        return gathered

    rt = _make_rt(3, FaultPlan(crash_rank=0, crash_at_op=10))
    rt.membership = ClusterMembership(3)
    _, results = run_spmd(3, prog, runtime=rt, seed=5)
    assert results[0] is None  # the victim died silently
    assert results[1] == results[2] == [1, 2]  # live-view contributions
    assert rt.membership.degraded()
    assert 0 not in rt.membership.live


def test_alltoallv_skips_the_rows_of_an_excluded_source():
    """A routed exchange over the live view: the crashed rank's rows
    never arrive, every live source's do, in source-rank order."""
    from repro.rma.membership import ClusterMembership

    def prog(ctx):
        win = ctx.rt.window("w")
        if ctx.rank == 0:
            for _ in range(20):
                ctx.put(win, ctx.rank, 0, b"\x00" * 8)
        (src,) = ctx.alltoallv(np.arange(3), np.full(3, ctx.rank))
        return src.tolist()

    rt = _make_rt(3, FaultPlan(crash_rank=0, crash_at_op=10))
    rt.membership = ClusterMembership(3)
    _, results = run_spmd(3, prog, runtime=rt, seed=5)
    assert results == [None, [1, 2], [1, 2]]


# -- payload corruption ------------------------------------------------------
def test_corruption_flips_one_byte_and_is_counted():
    def prog(ctx):
        win = ctx.rt.window("w")
        if ctx.rank == 1:
            ctx.put(win, 1, 0, bytes(range(64)))
        ctx.barrier()
        for _ in range(5):  # push the op counter past corrupt_at_op
            ctx.get(win, ctx.rank, 0, 8)
        ctx.barrier()
        return ctx.get(win, 1, 0, 64)

    plan = FaultPlan(
        corrupt_rank=1, corrupt_at_op=8, corrupt_window="w", corrupt_offset=5
    )
    rt = _make_rt(2, plan)
    _, results = run_spmd(2, prog, runtime=rt, seed=3)
    expect = bytearray(range(64))
    expect[5] ^= 0x5A
    assert results[0] == bytes(expect)
    assert rt.trace.counters[1].corruptions_injected == 1


def test_injector_op_count_advances():
    """Every one-sided operation advances the global counter that
    schedules a crash: rank 1 dies at the second operation, not before."""
    inj = FaultInjector(FaultPlan(crash_rank=1, crash_at_op=2))
    rt = RmaRuntime(2, faults=inj)
    win = rt.allocate_window("w", 64)
    rt.context(0).put(win, 0, 0, b"x" * 8)
    assert inj.dead == set()
    rt.context(0).get(win, 0, 0, 8)
    assert inj.dead == {1}
