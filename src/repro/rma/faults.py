"""Deterministic fault injection for the simulated RMA substrate.

The paper's reliability story (failed transactions in Figure 4, the
transaction-critical error class of Section 3.3, checkpoint-based
durability) is only meaningful if the substrate can actually fail.  This
module provides a seeded fault model that the runtime consults before
every one-sided operation:

* **transient operation failures** — with probability ``transient_rate``
  an attempt fails; the substrate absorbs up to ``op_retry_limit``
  bounded retries per operation, charging each wasted attempt's modeled
  cost plus a seeded exponential backoff through the cost model.
  Exhausting the budget raises :class:`RmaTransientError` (retryable at
  the transaction layer).
* **stragglers** — designated ranks run slower: every operation they
  issue is charged ``factor`` times its modeled cost.
* **rank crashes** — once the global operation counter reaches
  ``crash_at_op``, ``crash_rank`` is marked dead; any subsequent
  operation issued by it raises :class:`RmaRankDead`.  What an op
  *targeting* the dead rank sees depends on whether the runtime carries
  a :class:`~repro.rma.membership.ClusterMembership`: without one the
  crash is fatal (:class:`RmaRankDead`; the run aborts and recovery must
  rebuild from a checkpoint plus the commit-log tail, see
  :mod:`repro.gda.recovery`).  With one, the dead rank's shard fails
  over to its backup, the membership epoch bumps, and stale operations
  are **fenced** with :class:`RmaStaleEpoch` — a *retryable* error the
  existing transaction retry machinery absorbs after the GDA layer heals
  the shard from its block mirrors (:mod:`repro.gda.replication`).
* **payload corruption** — once the counter reaches ``corrupt_at_op``,
  bits are flipped in ``corrupt_rank``'s segment of a window, proving
  that the per-block CRC32 checksums of the GDA layer detect silent
  corruption on read and on failover promotion.

Everything is a pure function of ``(FaultPlan.seed, global op number,
origin rank)``, so a storm replays identically under the
:class:`~repro.rma.executor.InterleavingScheduler`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .membership import SHARD_NORMAL
from .runtime import RmaError

__all__ = [
    "RmaTransientError",
    "RmaStaleEpoch",
    "RmaRankDead",
    "FaultPlan",
    "FaultInjector",
    "backoff_delay",
]


class RmaTransientError(RmaError):
    """A one-sided operation failed after exhausting substrate retries.

    Retryable: the operation had no effect, so the caller (typically the
    transaction retry helper) may back off and restart its unit of work.
    """


class RmaStaleEpoch(RmaTransientError):
    """The operation carried a stale membership epoch and was fenced.

    Raised when an op targets a shard that failed over or was rehosted
    since the issuer last adopted an epoch, or a shard whose repair is
    still in flight.  Subclasses :class:`RmaTransientError` so the
    existing transaction retry machinery absorbs it: the aborted
    transaction heals the shard (``GdaDatabase.heal``), adopts the new
    epoch, and restarts against the reconfigured view.
    """


class RmaRankDead(RmaError):
    """A rank has crashed; the operation touched it and cannot complete.

    Fatal: no retry can succeed.  The surviving state must be recovered
    into a fresh runtime from the last checkpoint plus the commit log.
    (With a membership view and a live backup, ops targeting the dead
    rank's *shard* get the retryable :class:`RmaStaleEpoch` instead;
    RmaRankDead remains for the dead issuer itself and for the
    no-backup fallback.)
    """


_MASK64 = (1 << 64) - 1
_K_SEED, _K_A, _K_MUL = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix64(seed: int, a: int, b: int) -> int:
    """Deterministic 64-bit hash: fault draws and the scheduler's picks."""
    x = (seed * _K_SEED + a * _K_A + b + 1) & _MASK64
    x ^= x >> 31
    x = (x * _K_MUL) & _MASK64
    x ^= x >> 29
    return x


def _mix64_column(seed: int, a: int, b: np.ndarray) -> np.ndarray:
    """:func:`_mix64` of every element of the integer column ``b`` at once
    (uint64 array arithmetic wraps mod 2**64, as the masks do)."""
    x = b.astype(np.uint64) + np.uint64((seed * _K_SEED + a * _K_A + 1) & _MASK64)
    x ^= x >> np.uint64(31)
    x *= np.uint64(_K_MUL)
    return x ^ (x >> np.uint64(29))


def _uniform(seed: int, a: int, b: int) -> float:
    """Deterministic uniform draw in [0, 1) keyed by ``(seed, a, b)``."""
    return _mix64(seed, a, b) / float(1 << 64)


def backoff_delay(
    base: float,
    attempt: int,
    *,
    cap: float = 1e-3,
    factor: float = 2.0,
    seed: int = 0,
    token: int = 0,
) -> float:
    """Seeded exponential backoff with jitter, in simulated seconds.

    The ceiling doubles (``factor``) per attempt up to ``cap``; the
    returned delay is jittered into ``[ceiling/2, ceiling]`` by a
    deterministic hash of ``(seed, attempt, token)``, so concurrent
    contenders desynchronize without any shared random state.
    """
    if base <= 0.0:
        return 0.0
    ceiling = min(cap, base * (factor ** attempt))
    return ceiling * (0.5 + 0.5 * _uniform(seed, attempt, token))


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of one fault storm.

    Attributes
    ----------
    seed:
        Root of all fault/backoff randomness; same plan + same schedule
        seed = same storm.
    transient_rate:
        Per-attempt probability that a one-sided operation fails
        transiently (0 disables).  Draws are keyed on the issuing rank's
        own op index so the schedule replays identically regardless of
        cross-rank thread interleaving.
    op_retry_limit:
        Substrate-level retry budget per operation before the failure
        escalates to :class:`RmaTransientError`.
    op_backoff_base / op_backoff_cap:
        Exponential backoff window between substrate retries (seconds).
    stragglers:
        ``rank -> slowdown factor`` (>= 1.0); every op issued by a
        straggler is charged ``factor`` times its modeled cost.
    crash_rank / crash_at_op:
        When the global operation counter reaches ``crash_at_op``,
        ``crash_rank`` dies; ``None`` disables crashing.
    corrupt_rank / corrupt_at_op:
        When the counter reaches ``corrupt_at_op``, a byte in
        ``corrupt_rank``'s segment of a window is bit-flipped (once);
        ``None`` disables corruption.
    corrupt_window:
        Substring selecting which window to corrupt (e.g. ``".blocks.data"``);
        ``None`` picks the largest allocated window.
    corrupt_offset:
        Byte offset inside the chosen segment to flip; ``None`` draws a
        seeded offset.
    """

    seed: int = 0
    transient_rate: float = 0.0
    op_retry_limit: int = 12
    op_backoff_base: float = 1e-6
    op_backoff_cap: float = 100e-6
    stragglers: Mapping[int, float] = field(default_factory=dict)
    crash_rank: int | None = None
    crash_at_op: int | None = None
    corrupt_rank: int | None = None
    corrupt_at_op: int | None = None
    corrupt_window: str | None = None
    corrupt_offset: int | None = None


class FaultInjector:
    """Runtime hook evaluating a :class:`FaultPlan` before each operation.

    One injector serves all ranks of a runtime; the operation counter and
    the dead set are shared (a crash is a global event).  Pass it to
    :class:`~repro.rma.runtime.RmaRuntime` (or ``run_spmd(faults=...)``).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.dead: set[int] = set()
        self._n_ops = 0
        self._origin_ops: dict[int, int] = {}
        self._corrupt_done = False
        self._lock = threading.Lock()

    # -- internals ---------------------------------------------------------
    def _tick(self, rt) -> int:
        """Advance the global op counter and trigger scheduled faults."""
        p = self.plan
        corrupt_now = False
        with self._lock:
            self._n_ops += 1
            n = self._n_ops
            if (
                p.crash_rank is not None
                and p.crash_at_op is not None
                and n >= p.crash_at_op
            ):
                self.dead.add(p.crash_rank)
            if (
                p.corrupt_rank is not None
                and p.corrupt_at_op is not None
                and n >= p.corrupt_at_op
                and not self._corrupt_done
            ):
                self._corrupt_done = True
                corrupt_now = True
        if corrupt_now:
            self._apply_corruption(rt)
        return n

    def _apply_corruption(self, rt) -> None:
        """Flip one byte in the victim rank's segment of a window."""
        p = self.plan
        with rt._windows_lock:
            wins = [w for w in rt._windows.values() if not w.freed]
        if p.corrupt_window is not None:
            wins = [w for w in wins if p.corrupt_window in w.name]
        if not wins:
            return  # nothing allocated yet; corruption is lost, not deferred
        win = max(wins, key=lambda w: w.size)
        if p.corrupt_offset is not None:
            off = p.corrupt_offset
        else:
            off = 1 + _mix64(p.seed, 0xC0FFEE, p.corrupt_rank) % max(
                1, win.size - 1
            )
        raw = win.read(p.corrupt_rank, off, 1)
        win.write(p.corrupt_rank, off, bytes([raw[0] ^ 0x5A]))
        rt.trace.record_corruption(p.corrupt_rank)

    def check_alive(self, *ranks: int) -> None:
        """Raise :class:`RmaRankDead` if any of ``ranks`` has crashed."""
        for r in ranks:
            if r in self.dead:
                raise RmaRankDead(f"rank {r} crashed")

    def _inject(self, rt, n: int, origin: int, opcost: float) -> None:
        p = self.plan
        factor = p.stragglers.get(origin)
        if factor is not None and factor > 1.0:
            extra = (factor - 1.0) * opcost
            rt._charge(origin, extra)
            rt.trace.record_straggler(origin, extra)
        if p.transient_rate <= 0.0:
            return
        # transient draws are keyed on the *issuer's own* op index, not the
        # global counter: the global numbering depends on how the OS
        # interleaves rank threads (even under the interleaving scheduler
        # the grant order follows the arrival pattern), which would make
        # the fault schedule — and thus terminal outcomes — irreproducible
        # across same-seed replays.  Crash/corruption stay on the global
        # counter: they model cluster-time events, not per-link noise.
        with self._lock:
            k = self._origin_ops.get(origin, 0) + 1
            self._origin_ops[origin] = k
        for attempt in range(p.op_retry_limit):
            if _uniform(p.seed, k, (origin << 16) ^ attempt) >= p.transient_rate:
                return  # this attempt goes through
            rt.trace.record_fault(origin)
            if attempt + 1 >= p.op_retry_limit:
                raise RmaTransientError(
                    f"op {k} from rank {origin} failed "
                    f"{p.op_retry_limit} attempts"
                )
            delay = backoff_delay(
                p.op_backoff_base,
                attempt,
                cap=p.op_backoff_cap,
                seed=p.seed,
                token=(k << 8) ^ origin,
            )
            # the wasted attempt costs the op itself plus the backoff
            rt._charge(origin, opcost + delay)
            rt.trace.record_retry(origin)
            rt.trace.record_backoff(origin, delay)

    # -- membership-aware liveness / fencing -------------------------------
    def _guard(self, rt, origin: int, targets) -> None:
        """Liveness + epoch-fence check for one op issue.

        Without a membership view this is the legacy behavior: any dead
        participant is fatal (:class:`RmaRankDead`).  With one, the
        issuer's epoch is checked against each target shard's
        reconfiguration history and a crash of the *target* becomes a
        fenced, retryable :class:`RmaStaleEpoch` whenever a live backup
        can take over.
        """
        if origin in self.dead:
            raise RmaRankDead(f"rank {origin} crashed")
        mem = getattr(rt, "membership", None)
        if mem is None:
            self.check_alive(*targets)
            return
        # every op heartbeats its issuer; stale heartbeats raise suspicion,
        # confirmed against the injector's ground truth (no false positives)
        mem.heartbeat(origin, rt.clocks[origin])
        for s in mem.suspects(rt.clocks[origin]):
            if s in self.dead:
                mem.note_failure(s)
        for t in targets:
            if t == origin:
                continue
            state = mem.shard_state(t)
            if state == SHARD_NORMAL:
                if t in self.dead:
                    # first op-failure evidence: initiate the failover
                    if mem.note_failure(t):
                        rt.trace.record_fence(origin)
                        raise RmaStaleEpoch(
                            f"shard {t} failed over to rank "
                            f"{mem.host_of(t)} (epoch {mem.epoch}); "
                            f"heal and retry"
                        )
                    raise RmaRankDead(
                        f"rank {t} crashed and its backup "
                        f"{mem.backup_of(t)} is dead too"
                    )
                continue
            if not mem.serviceable(t, origin):
                rt.trace.record_fence(origin)
                raise RmaStaleEpoch(
                    f"shard {t} is {state} (epoch {mem.epoch}); "
                    f"heal and retry"
                )
            if not mem.check_epoch(origin, t):
                rt.trace.record_fence(origin)
                raise RmaStaleEpoch(
                    f"op carried stale epoch for rehosted shard {t}; "
                    f"adopted epoch {mem.epoch}, retry"
                )

    def pending_fate(self, rt, origin: int, target: int) -> str | None:
        """Fate of a pending non-blocking op at completion time.

        Returns ``None`` (completes normally), ``"stale"`` (shard
        reconfigured under the op: fenced, retryable), or ``"dead"``
        (unreachable, fatal).
        """
        if target not in self.dead:
            return None
        mem = getattr(rt, "membership", None)
        if mem is None:
            return "dead"
        state = mem.shard_state(target)
        if state == SHARD_NORMAL:
            return "stale" if mem.note_failure(target) else "dead"
        if mem.serviceable(target, origin) and mem.check_epoch(origin, target):
            return None
        return "stale"

    # -- runtime hooks ------------------------------------------------------
    def before_batch(self, rt, origin: int, targets, opcost: float) -> None:
        """Called by the runtime before every issue — a scalar verb, a
        batched one or a flush: one doorbell, one fault draw."""
        n = self._tick(rt)
        self._guard(rt, origin, targets)
        self._inject(rt, n, origin, opcost)
