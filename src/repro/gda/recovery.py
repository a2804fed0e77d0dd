"""Crash recovery: per-rank commit log, checkpoints, and replay.

The paper's system is fully in-memory; durability of committed data comes
from checkpointing the distributed state plus an in-memory commit log for
the tail (Section 3.3 discusses the ACID "D" as an implementation
choice).  This module provides the machinery the rank-crash fault model
(:mod:`repro.rma.faults`) is recovered with:

* :class:`CommitLog` — a global, thread-safe, totally ordered log of
  commit records.  Every committing write transaction appends one record
  *while still holding its write locks*, so the sequence order is a valid
  serialization order of the committed transactions.
* :class:`Checkpoint` / :func:`take_checkpoint` — a consistent snapshot
  (:func:`repro.gda.checkpoint.snapshot`) paired with the commit-log
  position at capture time.
* :func:`recover` — a collective that rebuilds a database into a fresh
  (post-crash) runtime: restore the checkpoint, then replay the log tail
  record by record through ordinary write transactions.  After recovery,
  ``snapshot(recovered)`` equals the snapshot of a fault-free twin that
  executed the same committed transactions, and
  :func:`repro.gda.consistency.check_consistency` passes.
* :func:`replay_entries_idempotent` — the roll-forward of a record torn
  past its commit point (by its committer, or the healer for a dead one).
  It and :func:`recover` run the same applier; they differ only in what
  an unmet precondition means (``_UNMET``).

Replay entry vocabulary (everything is identified by *application* IDs and
metadata *names*, never internal DPtrs, which differ after restore):

=====================  ==============================================
``("del_v", app)``                      delete vertex + incident edges
``("new_v", app, labels, props)``       create vertex (post-image)
``("upd_v", app, labels, props)``       replace labels/props (post-image)
``("edge+", src, dst, directed, lbl)``  add a lightweight edge
``("edge-", src, dst, directed, lbl)``  remove a lightweight edge
``("hedge+", src, dst, directed, labels, props)``  add a heavy edge
``("hedge-", src, dst, directed)``      remove a heavy edge
``("hedge*", src, dst, directed, labels, props)``  heavy edge post-image
=====================  ==============================================

Known limitation: labels and property types referenced by the tail must
already exist at checkpoint time (metadata changes are eventually
consistent and not logged); replay creates missing *labels* on demand but
cannot reconstruct full property-type specifications.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from ..gdi.errors import GdiNotFound, GdiStateError, GdiTransactionCritical
from ..rma.faults import RmaTransientError
from ..rma.runtime import RankContext
from .holder import DIR_IN, DIR_OUT, DIR_UNDIR, EdgeSlot

if TYPE_CHECKING:  # pragma: no cover
    from .database_impl import GdaDatabase

__all__ = [
    "CommitRecord",
    "CommitLog",
    "Checkpoint",
    "take_checkpoint",
    "recover",
    "replay_entries_idempotent",
]


@dataclass(frozen=True)
class CommitRecord:
    """One committed write transaction's replayable effect."""

    seq: int  # global sequence number (serialization order)
    rank: int  # committing rank (diagnostics only)
    entries: tuple  # replay entries, see module docstring


class CommitLog:
    """Thread-safe, totally ordered in-memory commit log.  A record is
    appended at its commit point and never taken back (:mod:`.commit`)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[CommitRecord] = []

    def append(self, rank: int, entries: tuple) -> int:
        """Append one record; returns its sequence number.

        Callers must still hold the transaction's write locks so that the
        assigned sequence order is a valid serialization order.
        """
        with self._lock:
            seq = len(self._records)
            self._records.append(CommitRecord(seq=seq, rank=rank, entries=entries))
            return seq

    def position(self) -> int:
        """Current log length; records with ``seq >= position`` come later."""
        with self._lock:
            return len(self._records)

    def tail(self, since: int) -> list[CommitRecord]:
        """All records appended at or after position ``since``, in order."""
        with self._lock:
            return list(self._records[since:])

    def __len__(self) -> int:
        return self.position()

    def __iter__(self) -> Iterator[CommitRecord]:
        return iter(self.tail(0))


@dataclass(frozen=True)
class Checkpoint:
    """A consistent snapshot plus the commit-log position it covers."""

    snap: dict[str, Any]
    log_pos: int


def take_checkpoint(ctx: RankContext, db: "GdaDatabase") -> Checkpoint:
    """Collectively capture a checkpoint of an idle database.

    Must be called with no transactions open anywhere, like
    :func:`repro.gda.checkpoint.snapshot` itself.
    """
    from .checkpoint import snapshot

    # The log position must be read while no rank can be committing: after
    # the entry barrier every rank is inside this call, and none can leave
    # (and resume mutating) before the snapshot's final rendezvous — which
    # it only reaches after every position read below.  Reading the
    # position *after* the snapshot instead would race: peers exit the
    # snapshot's last collective and may commit again before this rank's
    # (unscheduled, pure-Python) position read, silently advancing log_pos
    # past the captured state.
    ctx.barrier()
    pos = db.commit_log.position()
    snap = snapshot(ctx, db)
    if ctx.rank == 0:
        # nothing was open, so nothing pins the GC floor: a checkpoint
        # doubles as a full reclamation pass
        db.mvcc.collect(ctx)
    return Checkpoint(snap=snap, log_pos=pos)


def recover(
    ctx: RankContext,
    db: "GdaDatabase",
    checkpoint: Checkpoint,
    commit_log: CommitLog,
) -> dict[int, int]:
    """Collectively rebuild ``checkpoint`` + the log tail into empty ``db``.

    ``db`` is a fresh database in a fresh (post-crash) runtime;
    ``commit_log`` is the surviving log of the crashed instance.  The
    checkpoint is restored first, then rank 0 replays the tail, one
    ordinary write transaction per commit record (the sequence order is a
    serialization order, so sequential replay reproduces the committed
    state).  Replay is strict: an entry whose precondition does not hold
    raises (see ``_UNMET``).  Returns the application-ID -> internal-ID
    map of the restored vertices.
    """
    from .checkpoint import restore

    vid_map = restore(ctx, db, checkpoint.snap)
    if ctx.rank == 0:
        for rec in commit_log.tail(checkpoint.log_pos):
            _apply(db.start_transaction(ctx, write=True), rec.entries, False)
    ctx.barrier()
    return vid_map


def replay_entries_idempotent(
    ctx: RankContext, db: "GdaDatabase", entries: tuple, committer=None
) -> None:
    """Roll a commit that a fault tore past its commit point forward.

    Any part of it may have landed: a rebuilt shard holds its mirrored
    image, healthy shards may carry the commit's writes and publications.
    Each entry is applied *tolerantly* (the second column of ``_UNMET``):
    effects present are skipped, missing prerequisites are recreated from
    the post-images the entries carry.  The redo neither re-logs nor
    counts in any rank's statistics, and is tried up to eight times.  A
    live ``committer`` (the torn transaction) heals before each try and
    lends the redo its lock table, whose words the redo never gives back,
    and its cache, whose post-images count each lightweight edge half.

    Exactness caveat: for a dead committer the two halves of a lightweight
    edge are settled against each other, so where they agree ``edge+``
    counts as applied and ``edge-`` as not: a torn commit adding a further
    identical parallel edge may lose that copy, one removing one of two
    may remove both (the log carries their exact multiplicity).
    """
    from .transaction_impl import Transaction

    db.replica(ctx).sync()
    for attempt in range(8):
        try:
            if committer is not None:
                db.heal(ctx)
            tx = Transaction(db, ctx, write=True, collective=False)
            tx._no_log = True
            if committer is not None:
                tx._locks = tx._view.locks = committer._locks
            return _apply(tx, entries, True, committer and committer._vertices)
        except (GdiTransactionCritical, RmaTransientError):
            if attempt == 7:
                raise
        finally:
            if committer is None:
                tx._locks.release_all()


# -- replay ----------------------------------------------------------------
# Every entry kind names one target (a vertex, each half of a lightweight
# edge, a heavy edge) that it needs present (removals, post-images) or
# absent (adds).  What an unmet precondition means is the whole difference
# between offline recovery (strict: the log replays onto exactly the state
# it was written against) and the roll-forward (tolerant: any part of the
# record may be applied).  An exception type is raised; ``None`` skips the
# entry (applied, or moot); a kind runs that kind's mutation instead: its
# own where strict replay does not check (``create_vertex`` rejects a
# duplicate itself, a second identical edge is a legal parallel edge),
# another's where the redo rebuilds the target from its post-image.
_UNMET = {
    # kind       strict          tolerant
    "del_v": (GdiStateError, None),
    "new_v": ("new_v", "upd_v"),
    "upd_v": (GdiStateError, "new_v"),
    "edge+": ("edge+", None),
    "edge-": (GdiStateError, None),
    "hedge+": ("hedge+", None),
    "hedge-": (GdiStateError, None),
    "hedge*": (GdiStateError, "hedge+"),
    "endpoint": (GdiNotFound, None),  # of any edge kind
}
_WANTS_ABSENT = ("new_v", "hedge+")


def _apply(tx, entries: tuple, tolerant: bool, post=None) -> None:
    """Apply one record's entries in write transaction ``tx``."""
    with tx:  # aborted if an entry raises
        for entry in entries:
            _apply_entry(tx, entry, tolerant, post)
        tx.commit()


def _apply_entry(tx, entry: tuple, tolerant: bool, post) -> None:
    """Resolve the entry's target, settle its precondition, mutate."""
    kind = entry[0]
    unmet = _UNMET[kind][tolerant]
    on_vertex = kind.endswith("_v")
    ends = target = None
    met = True
    if not on_vertex:
        a = tx.find_vertex(entry[1])
        b = a if entry[2] == entry[1] else tx.find_vertex(entry[2])
        ends = a, b
        if a is None or b is None:
            met, unmet = False, _UNMET["endpoint"][tolerant]
        elif not kind.startswith("h"):
            return _settle_halves(tx, a, b, entry, tolerant, post)
    if met and unmet != kind:  # what nothing hangs on is not looked up
        target = tx.find_vertex(entry[1]) if on_vertex else _find_edge(tx, a, b, entry)
        met = (target is None) == (kind in _WANTS_ABSENT)
    run = kind if met else unmet
    if isinstance(run, type):
        raise run(f"replay {entry[:3]}: vertex, endpoint or edge missing")
    if run is not None:
        _run_mutation(run, tx, ends, target, entry)


def _settle_halves(tx, a, b, entry: tuple, tolerant: bool, post) -> None:
    """A lightweight edge is a slot per endpoint (one for an undirected
    self-loop), and a torn commit may have landed one alone: a half is
    short of (``edge+``) or over (``edge-``) its count in ``post[vid]``,
    else the rarer (both if none is there) or commoner (both if both are)."""
    kind, directed = entry[0], entry[3]
    lid = _label(tx, entry[4]).int_id if entry[4] else 0
    halves = [(a, EdgeSlot(b.vid, lid, DIR_OUT if directed else DIR_UNDIR))]
    if directed or a is not b:
        halves.append((b, EdgeSlot(a.vid, lid, DIR_IN if directed else DIR_UNDIR)))
    counts = [end._txv.holder.edges.count(slot) for end, slot in halves]
    add = kind == "edge+"
    guess = max(max(counts), 1) if add else max(min(counts) - 1, 0)
    for (end, slot), n in zip(halves, counts):
        mine = post.get(end._txv.vid) if post else None
        want = guess if mine is None else mine.holder.edges.count(slot)
        met = n < want if add else n > want
        run = kind if met else _UNMET[kind][tolerant]
        if isinstance(run, type):
            raise run(f"replay {entry[:3]}: edge missing")
        if run is not None:
            holder = tx._mutate(end._txv)
            (holder.add_slot if run == "edge+" else holder.remove_slot)(slot)


def _find_edge(tx, a, b, entry: tuple):
    """The heavy edge ``a -> b`` the entry is about, or None."""
    directed = entry[3]
    ends = {(a.vid, b.vid)} if directed else {(a.vid, b.vid), (b.vid, a.vid)}
    for e in a.edges():
        s = e._slot
        if s.heavy and s.direction != DIR_IN:
            h = tx._load_edge_holder(s.dptr).holder
            if h.directed == directed and (h.src, h.dst) in ends:
                return e
    return None


def _run_mutation(kind: str, tx, ends, target, entry: tuple) -> None:
    if kind == "del_v":
        tx.delete_vertex(target)
    elif kind == "hedge-":
        tx.delete_edge(target)
    elif kind.endswith("_v"):  # new_v / upd_v: vertex post-image
        if kind == "new_v":
            target = tx.create_vertex(entry[1])
        _splice(tx, tx._mutate(target._txv), *entry[2:])
    else:  # hedge+ / hedge*: heavy-edge post-image
        if kind == "hedge+":
            target = tx.create_edge(*ends, directed=entry[3], force_heavy=True)
        tx._mutate(ends[0]._txv)  # take the source vertex's write lock
        txe = tx._load_edge_holder(target._slot.dptr)
        _splice(tx, txe.holder, *entry[4:])
        txe.dirty = True


def _label(tx, name: str):
    """The label of that name; one born after the checkpoint (metadata
    changes are not logged) is created on demand."""
    label = tx.db.replica(tx.ctx).labels.by_name(name)
    return label if label is not None else tx.db.create_label(tx.ctx, name)


def _splice(tx, holder, label_names, props) -> None:
    """Post-image onto a holder; payload blobs are stored verbatim."""
    holder.labels = [_label(tx, n).int_id for n in label_names]
    holder.properties = [
        (tx.db.property_type(tx.ctx, n).int_id, blob) for n, blob in props
    ]
