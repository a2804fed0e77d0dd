"""SPMD executors for the simulated RMA substrate.

GDI-RMA code is written SPMD-style: one function, executed by every rank,
receiving its :class:`~repro.rma.runtime.RankContext`.  Two executors run
such programs:

* :class:`ThreadExecutor` — one OS thread per rank.  Concurrency (and thus
  contention on the lock-free structures) is real; this is the default for
  integration tests and benchmarks.
* :class:`InterleavingScheduler` + :func:`run_spmd` with a ``seed`` — a rank
  thread sleeps on its own gate before every one-sided operation, and the
  scheduler opens one gate at a time in an order that replays exactly
  from the seed.  Property-based tests use many seeds to explore
  interleavings of the lock-free DHT, block allocator, and RW locks.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

import numpy as np

from .costmodel import UNIFORM, MachineProfile
from .faults import FaultInjector, FaultPlan, RmaRankDead, _mix64_column
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


class InterleavingScheduler:
    """Serializes one-sided operations in a seeded pseudo-random order.

    Each rank calls :meth:`step` (via the runtime hook) before every
    one-sided operation and sleeps on its own gate until picked.  A grant
    round closes only once every *runnable* registered rank is gated —
    ranks parked (:mod:`repro.rma.parking`), dead or done with their SPMD
    body are excluded — and only the gate of the pick opens: the gated
    rank with the smallest ``_mix64(seed, round, rank)``.  Gating rounds
    on the full runnable set is what makes the interleaving a pure
    function of the seed: picking among whichever ranks happened to have
    arrived would let the OS scheduler (a late-woken thread misses a
    round) leak real-time nondeterminism into the serialization order.
    Only an arrival, a park or an exit can close a round; the rank that
    closes it opens the pick's gate, and no other rank wakes.
    Unregistered callers (no executor) are granted among the gated.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._lock = threading.Lock()
        self._gates: dict[int, Any] = {}  # gated rank -> its held lock
        self._active: set[int] = set()
        self._blocked: set[int] = set()
        self._round = 0
        self._stopped = False

    def register(self, rank: int) -> None:
        """Declare ``rank``'s thread live: rounds now wait for it."""
        with self._lock:
            self._active.add(rank)

    def deregister(self, rank: int) -> None:
        """Declare ``rank`` finished (or dead): stop waiting for it."""
        with self._lock:
            self._active.discard(rank)
            self._blocked.discard(rank)
            self._grant()

    def block(self, rank: int) -> None:
        """Mark ``rank`` parked (:mod:`repro.rma.parking`, its only
        caller): it cannot issue ops, so rounds must not stall on it."""
        with self._lock:
            self._blocked.add(rank)
            self._grant()

    def unblock(self, rank: int) -> None:
        with self._lock:
            self._blocked.discard(rank)

    def step(self, rank: int) -> None:
        gate = threading.Lock()
        gate.acquire()
        with self._lock:
            if self._stopped:
                return
            self._gates[rank] = gate
            self._grant()
        gate.acquire()  # until a grant (or stop) releases it

    def _grant(self) -> None:
        """Open the pick's gate for every round that closes now (one,
        under an executor); the caller holds ``_lock``."""
        gates = self._gates
        while gates:
            runnable = (self._active - self._blocked) or gates.keys()
            if not gates.keys() >= runnable:
                return
            ranks = np.fromiter(gates, np.int64, len(gates))
            pick = ranks[_mix64_column(self.seed, self._round, ranks).argmin()]
            self._round += 1
            gates.pop(int(pick)).release()

    def stop(self) -> None:
        """Release all waiters unconditionally (used on failure)."""
        with self._lock:
            self._stopped = True
            while self._gates:
                self._gates.popitem()[1].release()

    def restart(self) -> None:
        """Re-arm a scheduler stopped by a failed phase (no waiters exist
        between phases, so flipping the flag back is safe)."""
        with self._lock:
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
