"""Scalable reader-writer locks for ACI (paper Section 5.6).

One 64-bit lock word per vertex, located in the BGDL *system* window at the
offset corresponding to the vertex's primary block.  The word packs a write
bit and a reader counter:

* bit 62 — write bit (a process holds the write lock),
* bits 0..61 — reader count.

Acquisition is try-lock style with bounded retries: GDA transactions that
cannot obtain a lock fail (the paper reports failed-transaction percentages
rather than blocking forever), and the GDI user starts a new transaction.
Between attempts the contender backs off with a seeded exponential delay
charged to its simulated clock (``ctx.charge``), so retries neither spin
back-to-back (which would inflate CAS contention) nor come free in the
cost model.  ``backoff_base = 0`` disables the backoff.

Protocol (all via remote atomics, two network ops worst case per attempt):

* **read acquire** — FAA(+1); if the fetched word had the write bit set,
  FAA(-1) to back out and retry.
* **write acquire** — CAS(0 → WRITE_BIT); succeeds only with no readers
  and no writer.
* **upgrade read→write** — CAS(1 → WRITE_BIT): we are the sole reader and
  atomically become the writer.
* **releases** — FAA(-1) / CAS(WRITE_BIT → 0).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple

from ..rma.faults import backoff_delay
from ..rma.runtime import RankContext
from ..rma.window import Window

__all__ = [
    "RWLock",
    "LockTimeout",
    "LockRegistry",
    "WRITE_BIT",
    "acquire_read_batch",
    "acquire_write_batch",
    "upgrade_batch",
    "release_batch",
]

WRITE_BIT = 1 << 62


class LockTimeout(RuntimeError):
    """Raised when a lock cannot be obtained within the retry budget.

    Transactions translate this into a transaction-critical error and
    abort, which is what produces the "failed transactions" percentages in
    the paper's Figure 4.
    """


class _Mode(NamedTuple):
    """One way of taking a lock word: its atomic, success test and undo."""

    #: the public scalar verb of the mode (looked up per call, so a probe
    #: patched over it still sees the retries of a batch)
    verb: str
    #: ``CAS(expect -> WRITE_BIT)``, held iff the word was ``expect``;
    #: ``None`` is the read side: ``FAA(+1)``, held unless the write bit
    #: was set (and then backed out with ``FAA(-1)``)
    expect: int | None
    #: FAA delta that gives a held lock of this mode back
    undo: int
    busy: str


_READ = _Mode("acquire_read", None, -1, "read lock at rank {} offset {} busy")
_WRITE = _Mode(
    "acquire_write", 0, -WRITE_BIT, "write lock at rank {} offset {} busy"
)
_UPGRADE = _Mode(
    "upgrade", 1, 1 - WRITE_BIT,
    "upgrade at rank {} offset {} failed (concurrent readers or writer)",
)


@dataclass
class RWLock:
    """A distributed reader-writer lock at a fixed (window, rank, offset).

    The object is a cheap addressing handle; all state is the remote word.
    """

    window: Window
    rank: int
    offset: int
    max_retries: int = 64
    #: seeded exponential backoff between attempts (0 = spin, the
    #: pre-backoff behaviour kept for unit tests exercising raw retries)
    backoff_base: float = 0.0
    backoff_cap: float = 20e-6
    seed: int = 0

    def _backoff(self, ctx: RankContext, attempt: int) -> None:
        """Charge one seeded backoff delay between lock attempts.

        Pure simulated time — no extra one-sided operations, so the
        work-depth guarantees of the lock protocol are unchanged.
        """
        if self.backoff_base <= 0.0:
            return
        delay = backoff_delay(
            self.backoff_base,
            attempt,
            cap=self.backoff_cap,
            seed=self.seed,
            token=(self.rank << 32) ^ self.offset ^ (ctx.rank << 8),
        )
        ctx.charge(delay)
        ctx.rt.trace.record_backoff(ctx.rank, delay)

    def _acquire(self, ctx: RankContext, mode: _Mode) -> None:
        """Bounded retry of one mode's atomic, backing off between tries."""
        win, rank, offset = self.window, self.rank, self.offset
        for attempt in range(self.max_retries):
            if mode.expect is None:
                if not ctx.faa(win, rank, offset, 1) & WRITE_BIT:
                    return
                ctx.faa(win, rank, offset, -1)  # back out
            elif ctx.cas(win, rank, offset, mode.expect, WRITE_BIT) == mode.expect:
                return
            ctx.rt.trace.record_lock_conflict(ctx.rank, rank)
            if attempt + 1 < self.max_retries:
                self._backoff(ctx, attempt)
        raise LockTimeout(mode.busy.format(rank, offset))

    # -- read side --------------------------------------------------------
    def acquire_read(self, ctx: RankContext) -> None:
        self._acquire(ctx, _READ)

    def release_read(self, ctx: RankContext) -> None:
        old = ctx.faa(self.window, self.rank, self.offset, -1)
        if old & WRITE_BIT or (old & ~WRITE_BIT) <= 0:
            raise RuntimeError("release_read without a held read lock")

    # -- write side -------------------------------------------------------
    def acquire_write(self, ctx: RankContext) -> None:
        self._acquire(ctx, _WRITE)

    def release_write(self, ctx: RankContext) -> None:
        # FAA, not CAS: while we hold the write bit, readers may be
        # mid-backoff (their transient +1/-1 pairs race with the release),
        # so the word is WRITE_BIT plus a small transient reader count.
        old = ctx.faa(self.window, self.rank, self.offset, -WRITE_BIT)
        if not old & WRITE_BIT:
            ctx.faa(self.window, self.rank, self.offset, WRITE_BIT)  # undo
            raise RuntimeError("release_write without the write lock held")

    # -- upgrade / downgrade -----------------------------------------------
    def upgrade(self, ctx: RankContext) -> None:
        """Atomically turn a held read lock into the write lock.

        Succeeds only while we are the sole reader; under contention the
        caller's transaction must abort (lock-order-free deadlock
        avoidance).
        """
        self._acquire(ctx, _UPGRADE)

    def downgrade(self, ctx: RankContext) -> None:
        """Turn the held write lock into a read lock without a gap."""
        old = ctx.faa(self.window, self.rank, self.offset, 1 - WRITE_BIT)
        if not old & WRITE_BIT:
            ctx.faa(self.window, self.rank, self.offset, WRITE_BIT - 1)  # undo
            raise RuntimeError("downgrade without the write lock held")

    # -- introspection -----------------------------------------------------
    def peek(self, ctx: RankContext) -> tuple[bool, int]:
        """(write bit set?, reader count) — diagnostics and tests only."""
        word = ctx.aget(self.window, self.rank, self.offset)
        return bool(word & WRITE_BIT), word & ~WRITE_BIT


def _one_window(locks: list[RWLock]) -> bool:
    """Whether a vector is worth one batched atomic: two or more words,
    all in one window."""
    return len(locks) > 1 and len({id(lk.window) for lk in locks}) == 1


def _acquire_batch(ctx: RankContext, locks: list[RWLock], mode: _Mode) -> None:
    """Take every word of ``locks`` in ``mode``, all or nothing.

    The optimistic atomics for the whole vector ride one doorbell batch
    (one full atomic round per distinct target NIC); each contended word
    is then retried through the scalar bounded-retry path (per-lock
    backoff budget).  On :class:`LockTimeout` every word this call took
    has been given back; what the caller held before is untouched.
    """
    if not _one_window(locks):
        for lk in locks:
            getattr(lk, mode.verb)(ctx)
        return
    win = locks[0].window
    if mode.expect is None:
        olds = ctx.faa_batch(win, [(lk.rank, lk.offset, 1) for lk in locks])
        won = [not old & WRITE_BIT for old in olds]
    else:
        olds = ctx.cas_batch(
            win, [(lk.rank, lk.offset, mode.expect, WRITE_BIT) for lk in locks]
        )
        won = [old == mode.expect for old in olds]
    held = [lk for lk, ok in zip(locks, won) if ok]
    contended = [lk for lk, ok in zip(locks, won) if not ok]
    if contended and mode.expect is None:  # the failed +1s landed: back out
        ctx.faa_batch(win, [(lk.rank, lk.offset, -1) for lk in contended])
    try:
        for lk in contended:
            getattr(lk, mode.verb)(ctx)
            held.append(lk)
    except LockTimeout:
        if held:
            ctx.faa_batch(win, [(lk.rank, lk.offset, mode.undo) for lk in held])
        raise


def acquire_read_batch(ctx: RankContext, locks: list[RWLock]) -> None:
    """Acquire read locks on all ``locks``: one batch of ``FAA(+1)``."""
    _acquire_batch(ctx, locks, _READ)


def acquire_write_batch(ctx: RankContext, locks: list[RWLock]) -> None:
    """Acquire write locks on all ``locks``: one batch of
    ``CAS(0 -> WRITE_BIT)``."""
    _acquire_batch(ctx, locks, _WRITE)


def upgrade_batch(ctx: RankContext, locks: list[RWLock]) -> None:
    """Upgrade held read locks to write locks: one batch of
    ``CAS(1 -> WRITE_BIT)``.  On timeout the words this call upgraded
    are downgraded back (gap-free FAA), so the caller still holds
    exactly its read locks."""
    _acquire_batch(ctx, locks, _UPGRADE)


def release_batch(
    ctx: RankContext, locks: list[tuple[RWLock, bool]]
) -> None:
    """Release a mixed vector of ``(lock, is_write)`` in one FAA batch.

    Both release directions are FAAs (see :meth:`RWLock.release_write`
    for why the write release is not a CAS), so the whole vector rides
    one batched atomic round.  The scalar paths' held-lock sanity checks
    are preserved per element.
    """
    if len(locks) < 2 or not _one_window([lk for lk, _ in locks]):
        for lk, is_write in locks:
            (lk.release_write if is_write else lk.release_read)(ctx)
        return
    win = locks[0][0].window
    olds = ctx.faa_batch(
        win,
        [
            (lk.rank, lk.offset, -WRITE_BIT if is_write else -1)
            for lk, is_write in locks
        ],
    )
    for (lk, is_write), old in zip(locks, olds):
        if is_write:
            if not old & WRITE_BIT:
                ctx.faa(win, lk.rank, lk.offset, WRITE_BIT)  # undo
                raise RuntimeError(
                    "release_write without the write lock held"
                )
        elif old & WRITE_BIT or (old & ~WRITE_BIT) <= 0:
            raise RuntimeError("release_read without a held read lock")


class LockRegistry:
    """Per-owner bookkeeping of currently held lock words (failover aid).

    The lock word itself carries no owner identity (a reader count and a
    write bit), so when a rank crashes nobody can tell from the word alone
    which +1s and write bits the dead rank will never release.  The
    registry records, Python-side, which ``(rank, offset)`` words each
    owner rank currently holds and in which mode; the failover healer uses
    :meth:`purge` to FAA the dead rank's contributions back out, restoring
    invariant 5 (all lock words zero when no transaction is open).

    This is the repository's established substitution idiom for structures
    the paper keeps in NIC-accessible memory but whose content is only
    consulted on the control path (compare ``VertexDirectory``): the data
    plane is untouched, only crash cleanup consults the registry.
    """

    #: lock modes mirrored from the transaction layer
    READ = 1
    WRITE = 2

    def __init__(self) -> None:
        self._held: dict[int, dict[tuple[int, int], int]] = {}
        self._mu = threading.Lock()

    def note_acquire(self, owner: int, rank: int, offset: int, mode: int) -> None:
        with self._mu:
            self._held.setdefault(owner, {})[(rank, offset)] = mode

    def note_release(self, owner: int, rank: int, offset: int) -> None:
        with self._mu:
            locks = self._held.get(owner)
            if locks is not None:
                locks.pop((rank, offset), None)

    def purge(self, owner: int) -> list[tuple[int, int, int]]:
        """Remove and return ``(rank, offset, mode)`` for all locks held by
        ``owner`` (used once when ``owner`` is declared dead)."""
        with self._mu:
            locks = self._held.pop(owner, {})
        return [(r, o, m) for (r, o), m in locks.items()]

    def held_by(self, owner: int) -> list[tuple[int, int, int]]:
        with self._mu:
            locks = self._held.get(owner, {})
            return [(r, o, m) for (r, o), m in locks.items()]
