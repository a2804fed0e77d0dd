"""Scalable reader-writer locks for ACI (paper Section 5.6).

One 64-bit lock word per vertex, located in the BGDL *system* window at the
offset corresponding to the vertex's primary block.  The word packs a write
bit and a reader counter:

* bit 62 — write bit (a process holds the write lock),
* bits 0..61 — reader count.

Acquisition is try-lock style with bounded retries: GDA transactions that
cannot obtain a lock fail (the paper reports failed-transaction percentages
rather than blocking forever), and the GDI user starts a new transaction.

One protocol takes a vector of words, and the scalar verbs of
:class:`RWLock` are its one-word calls.  Each attempt issues one atomic per
word still wanted (one batched round; a one-word round is the scalar
atomic), backs the failed read increments out, and counts a conflict per
contended word.  It then waits one seeded exponential backoff (the first
contended word's delay, charged to the simulated clock) and retries only
the contended words, each for up to ``max_retries`` attempts in all:

* **read acquire** — FAA(+1); if the fetched word had the write bit set,
  FAA(-1) to back out.
* **write acquire** — CAS(0 → WRITE_BIT); succeeds only with no readers
  and no writer.
* **upgrade read→write** — CAS(1 → WRITE_BIT): we are the sole reader and
  atomically become the writer.
* **give-back** — one FAA per word of what its mode took: -1 (read),
  -WRITE_BIT (write) or 1 - WRITE_BIT (upgrade: a gap-free downgrade).

The word does not record who holds it; the caller does.  ``note`` hears
every word a round took and every failed read increment while its back-out
round is in flight (a :data:`BACKOUT` hold), so a call that raises leaves
the caller's record exact.  A transaction's lock table is that one record;
the failover healer backs out what a dead rank's open tables hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from ..rma.faults import backoff_delay
from ..rma.runtime import RankContext
from ..rma.window import Window

__all__ = [
    "RWLock", "LockTimeout", "WRITE_BIT", "READ", "WRITE", "UPGRADE", "BACKOUT",
    "acquire_read_batch", "acquire_write_batch", "upgrade_batch", "release_batch",
]

WRITE_BIT = 1 << 62

#: cap of the seeded backoff between attempts: ~10 lock-hold times, enough
#: to desynchronize contenders, yet a whole retry budget stays well < 1 ms
_BACKOFF_CAP = 20e-6


class LockTimeout(RuntimeError):
    """Raised when a lock cannot be obtained within the retry budget.

    Transactions translate this into a transaction-critical error and
    abort, which is what produces the "failed transactions" percentages in
    the paper's Figure 4.
    """


class _Mode(NamedTuple):
    """One way of taking a lock word: its atomic, success test and
    give-back."""

    #: ``CAS(expect -> WRITE_BIT)``, held iff the word was ``expect``;
    #: ``None`` is the read side: ``FAA(+1)``, held unless the write bit
    #: was set (and then backed out with ``FAA(-1)``)
    expect: int | None
    #: FAA delta that gives back what a take in this mode took
    undo: int
    busy: str
    #: raised by a give-back of a word that did not hold it
    misuse: str


READ = _Mode(
    None, -1, "read lock at rank {} offset {} busy",
    "release_read without a held read lock",
)
WRITE = _Mode(
    0, -WRITE_BIT, "write lock at rank {} offset {} busy",
    "release_write without the write lock held",
)
UPGRADE = _Mode(
    1, 1 - WRITE_BIT,
    "upgrade at rank {} offset {} failed (concurrent readers or writer)",
    "downgrade without the write lock held",
)
#: a failed read increment while the round backing it out is in flight;
#: its give-back is -1 without READ's check (the word has a writer's bit)
BACKOUT = _Mode(None, -1, "", "")

#: ``note(positions, mode)``: the words at ``positions`` (in the vector
#: passed) are now held in ``mode``, or no longer (``None``)
Note = Callable[[list[int], "_Mode | None"], None]


def _untracked(got: list[int], mode: _Mode | None) -> None:
    """The ``note`` of the scalar :class:`RWLock` verbs: their word is the
    caller's once the call returns."""


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
    seed: int = 0

    def _backoff(self, ctx: RankContext, attempt: int) -> None:
        """Charge one seeded backoff delay between lock attempts.

        Pure simulated time — no extra one-sided operations, so the
        work-depth guarantees of the lock protocol are unchanged.
        """
        delay = backoff_delay(
            self.backoff_base,
            attempt,
            cap=_BACKOFF_CAP,
            seed=self.seed,
            token=(self.rank << 32) ^ self.offset ^ (ctx.rank << 8),
        )
        ctx.charge(delay)
        ctx.rt.trace.record_backoff(ctx.rank, delay)

    def acquire_read(self, ctx: RankContext) -> None:
        _acquire(ctx, [self], READ, _untracked)

    def release_read(self, ctx: RankContext) -> None:
        release_batch(ctx, [(self, READ)])

    def acquire_write(self, ctx: RankContext) -> None:
        _acquire(ctx, [self], WRITE, _untracked)

    def release_write(self, ctx: RankContext) -> None:
        release_batch(ctx, [(self, WRITE)])

    def upgrade(self, ctx: RankContext) -> None:
        """Atomically turn a held read lock into the write lock.

        Succeeds only while we are the sole reader; under contention the
        caller's transaction must abort (lock-order-free deadlock
        avoidance).
        """
        _acquire(ctx, [self], UPGRADE, _untracked)

    def downgrade(self, ctx: RankContext) -> None:
        """Turn the held write lock into a read lock without a gap."""
        release_batch(ctx, [(self, UPGRADE)])

    # -- introspection -----------------------------------------------------
    def peek(self, ctx: RankContext) -> tuple[bool, int]:
        """(write bit set?, reader count) — diagnostics and tests only."""
        word = ctx.aget(self.window, self.rank, self.offset)
        return bool(word & WRITE_BIT), word & ~WRITE_BIT


def _round(ctx: RankContext, win: Window, ops: list[tuple], cas: bool) -> list[int]:
    """Issue one round of lock atomics and return the fetched words:
    ``(rank, offset, delta)`` FAAs or ``(rank, offset, expect, new)``
    CASes.  A one-op round is the scalar atomic, so a one-word call is op
    for op, clock and counters the scalar protocol."""
    if len(ops) == 1:
        return [ctx.cas(win, *ops[0]) if cas else ctx.faa(win, *ops[0])]
    return ctx.cas_batch(win, ops) if cas else ctx.faa_batch(win, ops)


def _acquire(ctx: RankContext, locks: list[RWLock], mode: _Mode, note: Note) -> None:
    """The lock protocol (see the module docstring): take every word of
    ``locks`` (one window; the first handle's retry budget) in ``mode``;
    ``note`` as :func:`acquire_read_batch` describes it."""
    if not locks:
        return
    first = locks[0]
    win, tries, expect = first.window, first.max_retries, mode.expect
    held = WRITE if mode is UPGRADE else mode
    cas = expect is not None
    take = [
        (lk.rank, lk.offset, expect, WRITE_BIT) if cas else (lk.rank, lk.offset, 1)
        for lk in locks
    ]
    wanted: "range | list[int]" = range(len(locks))  # positions in ``locks``
    ops = take
    for attempt in range(tries):
        got: list[int] = []
        missed: list[int] = []
        for i, old in zip(wanted, _round(ctx, win, ops, cas)):
            won = old == expect if cas else not old & WRITE_BIT
            (got if won else missed).append(i)
        if got:
            note(got, held)
        if not missed:
            return
        wanted = missed
        ops = [take[i] for i in wanted]
        if not cas:  # the failed +1s landed: the caller's till backed out
            note(wanted, BACKOUT)
            _round(ctx, win, [(r, o, -1) for r, o, _ in ops], False)
            note(wanted, None)
        for i in wanted:
            ctx.rt.trace.record_lock_conflict(ctx.rank, locks[i].rank)
        if attempt + 1 < tries:
            locks[wanted[0]]._backoff(ctx, attempt)
    lk = locks[wanted[0]]
    raise LockTimeout(mode.busy.format(lk.rank, lk.offset))


def acquire_read_batch(ctx: RankContext, locks: list[RWLock], note: Note) -> None:
    """Acquire read locks on all ``locks`` (``FAA(+1)`` rounds).

    ``note(positions, mode)`` hears, before any further op, the positions
    in ``locks`` of the words each round took (``mode`` READ here, WRITE
    for a take or an upgrade) and of the failed increments around their
    back-out round (BACKOUT before it, ``None`` once it landed).  The
    caller owns what it heard held and gives it back itself
    (:func:`release_batch`), also when the call raises.
    """
    _acquire(ctx, locks, READ, note)


def acquire_write_batch(ctx: RankContext, locks: list[RWLock], note: Note) -> None:
    """Acquire write locks on all ``locks`` (``CAS(0 -> WRITE_BIT)``)."""
    _acquire(ctx, locks, WRITE, note)


def upgrade_batch(ctx: RankContext, locks: list[RWLock], note: Note) -> None:
    """Upgrade held read locks to write locks (``CAS(1 -> WRITE_BIT)``);
    the caller downgrades what a failed call upgraded (``UPGRADE``
    give-back)."""
    _acquire(ctx, locks, UPGRADE, note)


def release_batch(ctx: RankContext, locks: list[tuple[RWLock, _Mode]]) -> None:
    """Give back each ``(lock, mode)`` word: what a take in ``mode`` took.

    Every give-back is an FAA (a write release is not a CAS: while we
    hold the write bit, readers mid-backoff have transient +1/-1 pairs on
    the word), so the whole vector is one FAA round.  A word that did not
    hold what is given back raises ``RuntimeError`` (a write bit given
    back in error is restored first).  A BACKOUT word is not checked.
    """
    if not locks:
        return
    win = locks[0][0].window
    ops = [(lk.rank, lk.offset, mode.undo) for lk, mode in locks]
    for (lk, mode), old in zip(locks, _round(ctx, win, ops, False)):
        if mode is READ:
            if old & WRITE_BIT or (old & ~WRITE_BIT) <= 0:
                raise RuntimeError(mode.misuse)
        elif mode is not BACKOUT and not old & WRITE_BIT:
            ctx.faa(win, lk.rank, lk.offset, -mode.undo)  # restore
            raise RuntimeError(mode.misuse)

