"""SPMD executors for the simulated RMA substrate.

GDI-RMA code is written SPMD-style: one function, executed by every rank,
receiving its :class:`~repro.rma.runtime.RankContext`.  Two executors run
such programs:

* :class:`ThreadExecutor` — one OS thread per rank.  Concurrency (and thus
  contention on the lock-free structures) is real; this is the default for
  integration tests and benchmarks.
* :class:`InterleavingScheduler` + :func:`run_spmd` with a ``seed`` — rank
  threads additionally rendezvous with a seeded scheduler before every
  one-sided operation, which serializes operations in a pseudo-random but
  reproducible-in-distribution order.  Property-based tests use many seeds
  to explore interleavings of the lock-free DHT, block allocator, and
  reader-writer locks.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from .costmodel import UNIFORM, MachineProfile
from .faults import FaultInjector, FaultPlan, RmaRankDead
from .runtime import RankContext, RmaRuntime

__all__ = [
    "SpmdError",
    "ThreadExecutor",
    "InterleavingScheduler",
    "run_spmd",
]


class SpmdError(RuntimeError):
    """Wraps the first exception raised by any rank of an SPMD program."""

    def __init__(self, rank: int, original: BaseException) -> None:
        super().__init__(f"rank {rank} failed: {original!r}")
        self.rank = rank
        self.original = original


def _mix(seed: int, round_no: int, rank: int) -> int:
    """Cheap deterministic integer hash used for scheduler picks."""
    x = (seed * 0x9E3779B97F4A7C15 + round_no * 0xBF58476D1CE4E5B9 + rank + 1) & (
        (1 << 64) - 1
    )
    x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & ((1 << 64) - 1)
    x ^= x >> 29
    return x


class InterleavingScheduler:
    """Serializes one-sided operations in a seeded pseudo-random order.

    Each rank calls :meth:`step` (via the runtime hook) before every
    one-sided operation and blocks until picked.  A grant round closes
    only once every *runnable* registered rank is waiting — ranks parked
    (:mod:`repro.rma.parking`), dead or done with their SPMD body are
    excluded — and the pick among them is a deterministic
    hash of ``(seed, round)``.  Gating rounds on the full runnable set
    is what makes the interleaving a pure function of the seed: picking
    among whichever ranks happened to have arrived would let the OS
    scheduler (a late-woken thread misses a round) leak real-time
    nondeterminism into the serialization order.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._cond = threading.Condition()
        self._waiting: set[int] = set()
        self._active: set[int] = set()
        self._blocked: set[int] = set()
        self._round = 0
        self._stopped = False

    def register(self, rank: int) -> None:
        """Declare ``rank``'s thread live: rounds now wait for it."""
        with self._cond:
            self._active.add(rank)
            self._cond.notify_all()

    def deregister(self, rank: int) -> None:
        """Declare ``rank`` finished (or dead): stop waiting for it."""
        with self._cond:
            self._active.discard(rank)
            self._blocked.discard(rank)
            self._waiting.discard(rank)
            self._cond.notify_all()

    def block(self, rank: int) -> None:
        """Mark ``rank`` parked (:mod:`repro.rma.parking`, its only
        caller): it cannot issue ops, so rounds must not stall on it."""
        with self._cond:
            self._blocked.add(rank)
            self._cond.notify_all()

    def unblock(self, rank: int) -> None:
        with self._cond:
            self._blocked.discard(rank)
            self._cond.notify_all()

    def step(self, rank: int) -> None:
        with self._cond:
            self._waiting.add(rank)
            self._cond.notify_all()
            while True:
                if self._stopped:
                    self._waiting.discard(rank)
                    return
                # unregistered callers (no executor) fall back to picking
                # among present waiters; under an executor every runnable
                # rank must have arrived before the round closes
                runnable = (self._active - self._blocked) or self._waiting
                if self._waiting >= runnable:
                    pick = min(
                        self._waiting,
                        key=lambda r: _mix(self.seed, self._round, r),
                    )
                    if pick == rank:
                        self._waiting.discard(rank)
                        self._round += 1
                        self._cond.notify_all()
                        return
                self._cond.wait()

    def stop(self) -> None:
        """Release all waiters unconditionally (used on failure)."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()

    def restart(self) -> None:
        """Re-arm a scheduler stopped by a failed phase (no waiters exist
        between phases, so flipping the flag back is safe)."""
        with self._cond:
            self._stopped = False


class ThreadExecutor:
    """Runs an SPMD function with one OS thread per rank.

    If any rank raises, the collective engine is poisoned (so peers blocked
    in a collective abort instead of hanging) and the first failure is
    re-raised as :class:`SpmdError`.
    """

    def run(
        self,
        runtime: RmaRuntime,
        fn: Callable[..., Any],
        args_per_rank: Sequence[tuple] | None = None,
    ) -> list:
        nranks = runtime.nranks
        results: list[Any] = [None] * nranks
        failures: list[tuple[int, BaseException]] = []
        failures_lock = threading.Lock()

        def body(rank: int) -> None:
            ctx = runtime.context(rank)
            args = args_per_rank[rank] if args_per_rank is not None else ()
            try:
                results[rank] = fn(ctx, *args)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                if (
                    isinstance(exc, RmaRankDead)
                    and getattr(runtime, "membership", None) is not None
                    and runtime.faults is not None
                    and rank in runtime.faults.dead
                ):
                    # degraded mode: the planned crash victim dies silently;
                    # survivors keep serving through the failover instead of
                    # the whole SPMD run aborting
                    results[rank] = None
                    return
                with failures_lock:
                    failures.append((rank, exc))
                runtime.collectives.poison(exc)
                if runtime.scheduler is not None:
                    runtime.scheduler.stop()
            finally:
                # a crash shows to parked peers before rounds stop waiting
                runtime.collectives.rank_exited()
                if runtime.scheduler is not None:
                    runtime.scheduler.deregister(rank)

        threads = [
            threading.Thread(target=body, args=(r,), daemon=True)
            for r in range(nranks)
        ]
        # every rank joins the runnable set before any thread starts:
        # registration racing the first grant rounds would let thread
        # start order (an OS artifact) decide which ranks those rounds
        # wait for, leaking real time into the serialization order
        if runtime.scheduler is not None:
            for r in range(nranks):
                runtime.scheduler.register(r)
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if failures:
            failures.sort(key=lambda f: f[0])
            rank, exc = failures[0]
            raise SpmdError(rank, exc) from exc
        return results


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *,
    profile: MachineProfile = UNIFORM,
    log_ops: bool = False,
    seed: int | None = None,
    args_per_rank: Sequence[tuple] | None = None,
    runtime: RmaRuntime | None = None,
    faults: "FaultPlan | FaultInjector | None" = None,
) -> tuple[RmaRuntime, list]:
    """Run ``fn(ctx, *args)`` on every rank and return (runtime, results).

    Parameters
    ----------
    seed:
        If given, operations are serialized by an
        :class:`InterleavingScheduler` with this seed (interleaving
        exploration mode); if ``None``, ranks run freely.
    runtime:
        Reuse an existing runtime (e.g. to run several phases against the
        same windows); otherwise a fresh one is created.
    faults:
        A :class:`~repro.rma.faults.FaultPlan` (wrapped into a fresh
        injector) or a ready :class:`~repro.rma.faults.FaultInjector`
        attached to the runtime before the program starts.  With a reused
        runtime this arms (or replaces) its injector for this phase.
    """
    if isinstance(faults, FaultPlan):
        faults = FaultInjector(faults)
    if runtime is None:
        scheduler = InterleavingScheduler(seed) if seed is not None else None
        runtime = RmaRuntime(
            nranks,
            profile=profile,
            log_ops=log_ops,
            scheduler=scheduler,
            faults=faults,
        )
    else:
        if runtime.nranks != nranks:
            raise ValueError(
                f"runtime has {runtime.nranks} ranks, requested {nranks}"
            )
        if faults is not None:
            runtime.faults = faults
        # a previous phase may have ended in an abort: clear the stale
        # poison / half-entered generations and revive the scheduler so
        # the next phase starts from a clean rendezvous
        runtime.collectives.reset_for_new_run()
        if runtime.scheduler is not None:
            runtime.scheduler.restart()
    results = ThreadExecutor().run(runtime, fn, args_per_rank)
    return runtime, results
