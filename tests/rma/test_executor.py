"""Tests for the SPMD executors and the interleaving scheduler."""

import threading

import pytest

from repro.rma import (
    InterleavingScheduler,
    RmaRuntime,
    SpmdError,
    ThreadExecutor,
    run_spmd,
)
from repro.rma.parking import Parking


class TestThreadExecutor:
    def test_results_in_rank_order(self):
        _, res = run_spmd(5, lambda ctx: ctx.rank * 10)
        assert res == [0, 10, 20, 30, 40]

    def test_args_per_rank(self):
        rt = RmaRuntime(3)
        res = ThreadExecutor().run(
            rt, lambda ctx, a, b: a + b, args_per_rank=[(1, 2), (3, 4), (5, 6)]
        )
        assert res == [3, 7, 11]

    def test_exception_wrapped_with_rank(self):
        def prog(ctx):
            if ctx.rank == 2:
                raise ValueError("boom")
            return ctx.rank

        with pytest.raises(SpmdError) as ei:
            run_spmd(4, prog)
        assert ei.value.rank == 2
        assert isinstance(ei.value.original, ValueError)

    def test_first_failing_rank_reported(self):
        def prog(ctx):
            raise RuntimeError(f"r{ctx.rank}")

        with pytest.raises(SpmdError) as ei:
            run_spmd(3, prog)
        assert ei.value.rank == 0  # lowest rank wins deterministically

    def test_runtime_reuse_across_phases(self):
        rt = RmaRuntime(2)

        def phase1(ctx):
            win = ctx.win_allocate("shared", 64)
            ctx.put(win, 0, 0, bytes([ctx.rank + 1]))
            ctx.barrier()
            return True

        def phase2(ctx):
            win = ctx.rt.window("shared")
            return ctx.get(win, 0, 0, 1)

        ThreadExecutor().run(rt, phase1)
        res = ThreadExecutor().run(rt, phase2)
        assert res[0] == res[1]
        assert res[0] in (b"\x01", b"\x02")

    def test_runtime_rank_mismatch_rejected(self):
        rt = RmaRuntime(2)
        with pytest.raises(ValueError):
            run_spmd(3, lambda ctx: None, runtime=rt)


class TestInterleavingScheduler:
    def test_single_thread_passthrough(self):
        sched = InterleavingScheduler(seed=1)
        sched.step(0)  # must not deadlock
        sched.step(0)

    def test_stop_releases_waiters(self):
        sched = InterleavingScheduler(seed=0)
        entered = threading.Event()
        done = threading.Event()

        def waiter():
            # occupy the scheduler with a rank that never gets picked
            # once stopped
            entered.set()
            sched.step(1)
            done.set()

        # stop first, then the step must fall straight through
        sched.stop()
        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        assert entered.wait(1)
        assert done.wait(1)

    def test_different_seeds_yield_different_interleavings(self):
        def prog(ctx):
            win = ctx.win_allocate("w", 8)
            # all ranks must be alive before anyone issues ops: the
            # scheduler only interleaves among concurrently waiting
            # ranks, so without this barrier a loaded machine can start
            # the threads sequentially and serialize every seed the
            # same way
            ctx.barrier()
            order = []
            for _ in range(5):
                old = ctx.faa(win, 0, 0, 1)
                order.append(old)
            ctx.barrier()
            return tuple(order)

        outcomes = set()
        for seed in range(8):
            _, res = run_spmd(3, prog, seed=seed)
            outcomes.add(tuple(res))
        # across several seeds at least two distinct interleavings occur
        assert len(outcomes) >= 2

    def test_scheduler_preserves_correctness(self):
        def prog(ctx):
            win = ctx.win_allocate("w", 8)
            for _ in range(20):
                ctx.faa(win, 0, 0, 1)
            ctx.barrier()
            return ctx.aget(win, 0, 0)

        for seed in (0, 7, 42):
            _, res = run_spmd(3, prog, seed=seed)
            assert all(v == 60 for v in res)

    def test_failed_rank_stops_scheduler(self):
        def prog(ctx):
            win = ctx.win_allocate("w", 8)
            if ctx.rank == 0:
                raise RuntimeError("die")
            for _ in range(3):
                ctx.faa(win, 0, 0, 1)
            return True

        with pytest.raises(SpmdError):
            run_spmd(3, prog, seed=5)  # must not hang

    def test_parked_rank_is_runnable_again_when_release_returns(self):
        """A parked rank stops holding up grant rounds, and the releaser
        makes it runnable again before it can issue its own next op."""
        sched = InterleavingScheduler(seed=0)
        for r in (0, 1):
            sched.register(r)
        parking, ready = Parking(), []

        def waiter():
            with parking.cond:
                parking.wait(sched, 1, lambda: bool(ready))

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        # rank 0's round closes only once rank 1 is parked
        stepper = threading.Thread(target=sched.step, args=(0,), daemon=True)
        stepper.start()
        stepper.join(timeout=10)
        assert not stepper.is_alive()
        with parking.cond:
            ready.append(True)
            parking.release()
            assert sched._blocked == set()
        t.join(timeout=10)
        assert not t.is_alive()


class TestClockSemantics:
    def test_ranks_advance_independently(self):
        rt = RmaRuntime(3)
        win = rt.allocate_window("w", 64)
        rt.context(1).put(win, 2, 0, b"y")
        assert rt.clocks[1] > 0
        assert rt.clocks[0] == 0
        assert rt.clocks[2] == 0  # one-sided: target pays nothing


def test_same_seed_replays_the_same_interleaving_after_a_barrier():
    """The rank that completes a barrier must not get a head start: every
    parked peer is runnable again before it returns, so the seed alone —
    not the OS wake-up order — decides who wins each op-grant round."""

    def prog(ctx):
        win = ctx.win_allocate("w", 8)
        ctx.barrier()
        order = tuple(ctx.faa(win, 0, 0, 1) for _ in range(5))
        ctx.barrier()
        return order

    outcomes = {tuple(run_spmd(3, prog, seed=5)[1]) for _ in range(20)}
    assert len(outcomes) == 1
