"""Scalable reader-writer locks for ACI (paper Section 5.6).

One 64-bit lock word per vertex, in the BGDL *system* window at the offset
of the vertex's primary block, so a lock is an address ``(rank, offset)``
(:meth:`~repro.gda.blocks.BlockManager.lock_location`).  The word packs a
write bit and a reader counter:

* bit 62 — write bit (a process holds the write lock),
* bits 0..61 — reader count.

Acquisition is try-lock style with bounded retries: GDA transactions that
cannot obtain a lock fail (the paper reports failed-transaction percentages
rather than blocking forever), and the GDI user starts a new transaction.

One protocol takes a vector of words; a one-word call is the scalar
protocol.  Each attempt issues one atomic per word still wanted (one
batched round; a one-word round is the scalar atomic), backs the failed
read increments out, and counts a conflict per contended word.  It then
waits one seeded exponential backoff (the first contended word's delay,
charged to the simulated clock) and retries only the contended words,
each for up to ``tries`` attempts in all:

* **read acquire** — FAA(+1); if the fetched word had the write bit set,
  FAA(-1) to back out.
* **write acquire** — CAS(0 → WRITE_BIT); succeeds only with no readers
  and no writer.
* **upgrade read→write** — CAS(1 → WRITE_BIT): we are the sole reader and
  atomically become the writer.
* **give-back** — one FAA per word of what its mode took: -1 (read),
  -WRITE_BIT (write) or 1 - WRITE_BIT (upgrade: a gap-free downgrade).

The word does not record who holds it; the caller's ledger does, and the
acquire verbs write it themselves: ``held[key] = (mode, epoch, (rank,
offset))`` for every word a round took as soon as the round returns, and
a :data:`BACKOUT` hold for every failed read increment while its back-out
round is in flight (removed once it lands), so a call that raises leaves
the ledger exact.  A transaction's lock table is that one record; the
failover healer backs out what a dead rank's open tables hold.
"""

from __future__ import annotations

from typing import Any, Hashable, NamedTuple

from ..rma.faults import backoff_delay
from ..rma.runtime import RankContext
from ..rma.window import Window

__all__ = [
    "LockTimeout", "WRITE_BIT", "READ", "WRITE", "UPGRADE", "BACKOUT",
    "acquire_read_batch", "acquire_write_batch", "upgrade_batch", "release_batch",
]

WRITE_BIT = 1 << 62

#: seeded exponential backoff between attempts, pure simulated time (never
#: extra one-sided operations); its cap of ~10 lock-hold times desynchronizes
#: contenders, yet a whole retry budget stays well < 1 ms
_BACKOFF_BASE = 2e-6
_BACKOFF_SEED = 0
_BACKOFF_CAP = 20e-6

#: a lock word's address in the system window: ``(rank, offset)``
Word = tuple[int, int]


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

#: ``key -> (mode, epoch, word)``: the caller's record of the words it holds
Ledger = dict[Hashable, tuple[_Mode, Any, Word]]


def _round(ctx: RankContext, win: Window, ops: list[tuple], cas: bool) -> list[int]:
    """Issue one round of lock atomics and return the fetched words:
    ``(rank, offset, delta)`` FAAs or ``(rank, offset, expect, new)``
    CASes.  A one-op round is the scalar atomic, so a one-word call is op
    for op, clock and counters the scalar protocol."""
    if len(ops) == 1:
        return [ctx.cas(win, *ops[0]) if cas else ctx.faa(win, *ops[0])]
    return ctx.cas_batch(win, ops) if cas else ctx.faa_batch(win, ops)


def _acquire(
    ctx: RankContext, win: Window, want: dict[Hashable, Word], mode: _Mode,
    held: Ledger, epoch: Any, tries: int,
) -> None:
    """The lock protocol (see the module docstring): take every word of
    ``want`` (ledger key -> word) in ``mode``, each for up to ``tries``
    attempts, writing ``held`` as the module docstring says."""
    if not want:
        return
    keys, words = list(want), list(want.values())
    expect = mode.expect
    took = WRITE if mode is UPGRADE else mode
    cas = expect is not None
    take = [(r, o, expect, WRITE_BIT) if cas else (r, o, 1) for r, o in words]
    wanted: "range | list[int]" = range(len(words))  # positions in ``words``
    ops = take
    for attempt in range(tries):
        missed: list[int] = []
        for i, old in zip(wanted, _round(ctx, win, ops, cas)):
            if old == expect if cas else not old & WRITE_BIT:
                held[keys[i]] = (took, epoch, words[i])
            else:
                missed.append(i)
        if not missed:
            return
        wanted = missed
        ops = [take[i] for i in wanted]
        if not cas:  # the failed +1s landed: the caller's till backed out
            for i in wanted:
                held[keys[i]] = (BACKOUT, epoch, words[i])
            _round(ctx, win, [(r, o, -1) for r, o, _ in ops], False)
            for i in wanted:
                del held[keys[i]]
        for i in wanted:
            ctx.rt.trace.record_lock_conflict(ctx.rank, words[i][0])
        if attempt + 1 < tries:
            rank, offset = words[wanted[0]]
            delay = backoff_delay(
                _BACKOFF_BASE, attempt, cap=_BACKOFF_CAP, seed=_BACKOFF_SEED,
                token=(rank << 32) ^ offset ^ (ctx.rank << 8),
            )
            ctx.charge(delay)
            ctx.rt.trace.record_backoff(ctx.rank, delay)
    raise LockTimeout(mode.busy.format(*words[wanted[0]]))


def acquire_read_batch(
    ctx: RankContext, win: Window, want: dict, held: Ledger, epoch: Any, tries: int
) -> None:
    """Acquire read locks on the words of ``want`` (ledger key -> word;
    ``FAA(+1)`` rounds), writing ``held`` as the module docstring says.
    The caller owns what its ledger lists and gives it back itself
    (:func:`release_batch`), also when the call raises."""
    _acquire(ctx, win, want, READ, held, epoch, tries)


def acquire_write_batch(
    ctx: RankContext, win: Window, want: dict, held: Ledger, epoch: Any, tries: int
) -> None:
    """Acquire write locks on the words of ``want`` (``CAS(0 -> WRITE_BIT)``)."""
    _acquire(ctx, win, want, WRITE, held, epoch, tries)


def upgrade_batch(
    ctx: RankContext, win: Window, want: dict, held: Ledger, epoch: Any, tries: int
) -> None:
    """Upgrade held read locks to write locks (``CAS(1 -> WRITE_BIT)``);
    the caller downgrades what a failed call upgraded (``UPGRADE``
    give-back)."""
    _acquire(ctx, win, want, UPGRADE, held, epoch, tries)


def release_batch(
    ctx: RankContext, win: Window, words: list[tuple[Word, _Mode]]
) -> None:
    """Give back each ``(word, mode)``: what a take in ``mode`` took.

    Every give-back is an FAA (a write release is not a CAS: while we
    hold the write bit, readers mid-backoff have transient +1/-1 pairs on
    the word), so the whole vector is one FAA round.  A word that did not
    hold what is given back raises ``RuntimeError`` (a write bit given
    back in error is restored first).  A BACKOUT word is not checked.
    """
    if not words:
        return
    ops = [(r, o, mode.undo) for (r, o), mode in words]
    for (word, mode), old in zip(words, _round(ctx, win, ops, False)):
        if mode is READ:
            if old & WRITE_BIT or (old & ~WRITE_BIT) <= 0:
                raise RuntimeError(mode.misuse)
        elif mode is not BACKOUT and not old & WRITE_BIT:
            ctx.faa(win, *word, -mode.undo)  # restore
            raise RuntimeError(mode.misuse)
