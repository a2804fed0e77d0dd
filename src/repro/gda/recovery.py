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
* :func:`replay_entries_idempotent` — the failover redo of one record
  that may be partly applied.  It and :func:`recover` run the same
  applier; they differ only in what an unmet precondition means
  (``_UNMET``).

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

from ..gdi.errors import GdiNotFound, GdiStateError
from ..rma.runtime import RankContext
from .holder import DIR_IN, DIR_OUT, DIR_UNDIR

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
    """Thread-safe, totally ordered in-memory commit log."""

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

    def mark_aborted(self, seq: int) -> None:
        """Tombstone a record whose commit failed after the log append.

        The log-first commit protocol (replication) appends the record
        *before* applying the writes; when the apply then fails (fenced
        mid-commit by a failover, lock trouble, out of memory) the
        transaction aborts and its record must not replay.  The record is
        replaced by an empty tombstone so sequence numbers stay stable.
        """
        with self._lock:
            old = self._records[seq]
            self._records[seq] = CommitRecord(
                seq=seq, rank=old.rank, entries=()
            )

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
        tail = commit_log.tail(checkpoint.log_pos)
        _replay(ctx, db, [r.entries for r in tail if r.entries], redo=False)
    ctx.barrier()
    return vid_map


def replay_entries_idempotent(
    ctx: RankContext, db: "GdaDatabase", entries: tuple
) -> None:
    """Roll a possibly-torn commit's entries forward (failover redo).

    A crashed rank may have applied any part of its in-flight commit
    before dying: its own shard is rebuilt from the mirror (pre-commit
    image) while healthy shards may already carry the commit's writes and
    publications.  Each entry is therefore applied *tolerantly* (the
    second column of ``_UNMET``): effects already present are skipped,
    missing prerequisites are recreated from the post-images the entries
    carry.  The redo transaction does not re-log (the record is already
    in the commit log under the dead rank's sequence number).

    Exactness caveat: an ``edge+`` matching an existing edge counts as
    applied, so a torn commit adding a further identical parallel edge may
    lose that copy (the log itself carries their exact multiplicity).
    """
    _replay(ctx, db, [entries], redo=True)


# -- replay ----------------------------------------------------------------
# Every entry kind names one target (a vertex, a lightweight slot, a heavy
# edge) that it needs present (removals, post-images) or absent (adds).
# What it means when that precondition is unmet is the whole difference
# between offline recovery (strict: the log replays onto exactly the state
# it was written against) and failover redo (tolerant: any part of the
# record may already be applied).  An exception type is raised; ``None``
# skips the entry (already applied, or moot); a kind runs that kind's
# mutation instead: its own where strict replay does not check at all
# (``create_vertex`` rejects a duplicate itself, a second identical edge
# is a legal parallel edge), another's where the redo rebuilds the target
# from the post-image the entry carries.
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
_WANTS_ABSENT = ("new_v", "edge+", "hedge+")


def _replay(
    ctx: RankContext, db: "GdaDatabase", records: "list[tuple]", redo: bool
) -> None:
    """Apply each record's entries in one write transaction of its own.

    ``redo`` says the records are already in the commit log and may be
    partly applied: entries are applied tolerantly and nothing is logged.
    """
    db.replica(ctx).sync()
    for entries in records:
        tx = db.start_transaction(ctx, write=True)
        tx._no_log = redo
        try:
            for entry in entries:
                _apply_entry(tx, entry, redo)
            tx.commit()
        except BaseException:
            if tx.open:
                tx.abort()
            raise


def _apply_entry(tx, entry: tuple, tolerant: bool) -> None:
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
    if met and unmet != kind:  # what nothing hangs on is not looked up
        if on_vertex:
            target = tx.find_vertex(entry[1])
        else:
            target = _find_edge(tx, a, b, entry)
        met = (target is None) == (kind in _WANTS_ABSENT)
    run = kind if met else unmet
    if isinstance(run, type):
        raise run(f"replay {entry[:3]}: vertex, endpoint or edge missing")
    if run is not None:
        _run_mutation(run, tx, ends, target, entry)


def _find_edge(tx, a, b, entry: tuple):
    """The edge ``a -> b`` the entry is about, or None."""
    directed = entry[3]
    if not entry[0].startswith("h"):  # the slot with this direction and label
        want = (
            DIR_OUT if directed else DIR_UNDIR,
            b.vid,
            _label(tx, entry[4]).int_id if entry[4] else 0,
        )
        for e in a.edges():
            s = e._slot
            if not s.heavy and (s.direction, s.dptr, s.label_id) == want:
                return e
        return None
    for e in a.edges():  # the heavy edge between the two
        s = e._slot
        if not s.heavy or s.direction == DIR_IN:
            continue
        h = tx._load_edge_holder(s.dptr).holder
        if h.directed == directed and (
            (h.src, h.dst) == (a.vid, b.vid)
            or (not directed and (h.src, h.dst) == (b.vid, a.vid))
        ):
            return e
    return None


def _run_mutation(kind: str, tx, ends, target, entry: tuple) -> None:
    if kind == "del_v":
        tx.delete_vertex(target)
    elif kind in ("edge-", "hedge-"):
        tx.delete_edge(target)
    elif kind == "edge+":
        label = _label(tx, entry[4]) if entry[4] else None
        tx.create_edge(*ends, directed=entry[3], label=label)
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
