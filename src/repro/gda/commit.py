"""The write half of ``GDI_CloseTransaction``: a staged commit.

:func:`run` walks :data:`STAGES` in order over one :class:`CommitPlan`;
the order is the protocol, and each stage says why it sits where it
does.  :func:`append_log` is the commit point, and a logged commit has
one fate: it is applied.  A duplicate application ID or a holder too
large to address refuses a commit before it (running out of blocks for a
grown holder still surfaces in :func:`write_back`).  A fence or an
escaped transient fault in a later stage is finished by the committer
itself (:func:`roll_forward`); a committer that died leaves its commit
to the failover healer, which rolls it forward the same way.

A write transaction remembers one pre-image per vertex — the holder as
read (:attr:`_TxVertex.loaded`), sharing the fetched bytes — and three
flags.  The stages derive the rest, for dirty vertices only, by one rule:
a part of the live holder that is *still the object read is unchanged*,
so it is the pre-image's — the same slot-region buffer (a slot change
rebinds it, never edits it), or an entry stream still in wire form.  An
untouched slot region yields no edge entries; an untouched entry stream
is logged from the pre-image, written back as read, and moves no label
count and no index posting.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..gdi.errors import GdiCommitUnfinished, GdiNonUniqueId
from ..rma.faults import RmaRankDead, RmaStaleEpoch, RmaTransientError
from .dptr import unpack_dptr
from .holder import (
    DIR_IN,
    DIR_MASK,
    DIR_OUT,
    DIR_UNDIR,
    KIND_VERTEX,
    SLOT_HEAVY,
    EdgeHolder,
    StoredHolder,
    VertexHolder,
)

if TYPE_CHECKING:  # pragma: no cover
    from .transaction_impl import Transaction

__all__ = ["CommitPlan", "STAGES", "run", "roll_forward", "release_created"]


@dataclass
class CommitPlan:
    """What one commit will do; each stage fills in what later ones read."""

    tx: "Transaction"
    #: every cached vertex, deleted ones first (their freed blocks can
    #: then be reused by holders that grew)
    ordered: "list[_TxVertex]" = field(default_factory=list)
    #: created or dirty vertices that outlive the commit
    survivors: "list[_TxVertex]" = field(default_factory=list)
    #: ``(stored, encoding)`` of each survivor, then of each heavy edge
    #: holder rewritten (:meth:`HolderStorage.encode`)
    writes: list = field(default_factory=list)
    edge_writes: list = field(default_factory=list)
    log_entries: tuple = ()
    seq: "int | None" = None  # commit-log sequence number, once appended
    ts: int = 0  # MVCC commit timestamp, 0 when nothing is versioned


def run(tx: "Transaction") -> None:
    plan = CommitPlan(tx)
    try:
        for stage in STAGES:
            stage(plan)
    except BaseException as exc:
        if plan.seq is not None and isinstance(exc, RmaTransientError):
            roll_forward(plan)
            return
        if plan.ts and not isinstance(exc, RmaRankDead):
            # never pin the watermark; a dead committer's timestamp is
            # retired by the healer once its commit is rolled forward
            tx.db.mvcc.note_applied(plan.ts)
        raise


def roll_forward(plan: CommitPlan) -> None:
    """Finish a commit torn past its commit point by a fence or an
    escaped transient fault, on the live committer.

    The record's own entries are re-applied tolerantly, as the healer
    rolls a dead committer's forward, under this transaction's lock table
    and against its cached post-images, each try after a heal (a dead
    committer's words were write locks on vertices this one could not
    hold, so the repair never waits on its locks; the repair re-sets this
    one's words on the shard it rebuilds).  Then the mirror high-water
    mark reaches the record.  The timestamp is retired whatever happens,
    unless this rank died: the healer then finishes the commit.  A redo
    that gives up raises :class:`GdiCommitUnfinished`, which no retry
    loop takes for a restart: that would apply the record twice.
    """
    from .recovery import replay_entries_idempotent

    tx = plan.tx
    try:
        replay_entries_idempotent(tx.ctx, tx.db, plan.log_entries, tx)
        mirror(plan)
    except RmaRankDead:
        raise
    except Exception as exc:
        if plan.ts:
            tx.db.mvcc.note_applied(plan.ts)
        raise GdiCommitUnfinished(
            f"logged commit {plan.seq} was not rolled forward: {exc!r}"
        ) from exc
    finish(plan)


def _vanishes(entry) -> bool:
    """Created and deleted inside this transaction: never existed."""
    return entry.created and entry.deleted


# -- stages ---------------------------------------------------------------
def validate_created_ids(plan: CommitPlan) -> None:
    """Final uniqueness check of created application IDs, one batched
    DHT lookup for all of them."""
    tx = plan.tx
    created_ids = list(tx._created_app_ids)
    if not created_ids:
        return
    found = tx.db.dht.lookup_many(tx.ctx, created_ids)
    for app_id, existing in zip(created_ids, found):
        if existing is not None and not tx._deleted_in_txn(existing):
            release_created(tx)
            tx._fail("nonunique")
            raise GdiNonUniqueId(
                f"application ID {app_id} concurrently created"
            )


def derive_log_entries(plan: CommitPlan) -> None:
    """Partition the vertex cache and derive the replayable commit-log
    entries (no writes yet)."""
    tx = plan.tx
    replica = tx.db.replica(tx.ctx)
    deletes: list[tuple] = []
    upserts: list[tuple] = []
    plan.ordered = sorted(tx._vertices.values(), key=lambda t: not t.deleted)
    for txv in plan.ordered:
        if _vanishes(txv):
            continue
        if txv.deleted:
            deletes.append(("del_v", txv.holder.app_id))
        elif txv.created or txv.dirty:
            plan.survivors.append(txv)
            holder = txv.holder
            if holder._entry_buf is not None:
                # untouched: decode the pre-image's stream instead, so the
                # live holder is written back as the bytes it was read as
                holder = txv.loaded.holder
            upserts.append(
                (
                    "new_v" if txv.created else "upd_v",
                    holder.app_id,
                    tuple(replica.label_by_id(l).name for l in holder.labels),
                    tuple(
                        (replica.ptype_by_id(pid).name, bytes(blob))
                        for pid, blob in holder.properties
                    ),
                )
            )
    edge_rm, edge_add = _edge_log_entries(tx, replica, plan.survivors)
    plan.log_entries = tuple(deletes + upserts + edge_rm + edge_add)


def encode_holders(plan: CommitPlan) -> None:
    """Encode every holder the commit writes back, and plan its blocks,
    once and before the commit point: one too large to address fails the
    transaction with nothing logged (:class:`~repro.gdi.errors.GdiNoMemory`)."""
    encode = plan.tx.db.storage.encode
    plan.writes = [(t.stored, encode(t.holder)) for t in plan.survivors]
    plan.edge_writes = [
        (t.stored, encode(t.holder))
        for t in plan.tx._edges.values()
        if t.dirty and not t.deleted
    ]


def append_log(plan: CommitPlan) -> None:
    """Publish the commit intent, append the record, note its sequence,
    then draw the MVCC timestamp.

    No one-sided operation separates the first three steps, so a crashed
    rank left its intent published exactly when its last record may be
    only partially applied — the failover healer rolls that record
    forward idempotently, which is what bounds backups to at most one
    commit behind.  The timestamp is allocated right after the append,
    while every write lock is still held, so timestamp order is the
    serialization order.  Failover redo replays (``_no_log``) skip the
    append and re-install under a fresh timestamp.
    """
    tx = plan.tx
    rank = tx.ctx.rank
    repl = tx.db.replication
    if plan.log_entries and not tx._no_log:
        if repl is not None:
            repl.begin_commit(rank, plan.log_entries)
        plan.seq = tx.db.log_commit(rank, plan.log_entries)
        if repl is not None:
            repl.note_logged(rank, plan.seq)
    if (
        plan.survivors
        or any(txv.deleted and not txv.created for txv in plan.ordered)
        or any(e.created or e.dirty or e.deleted for e in tx._edges.values())
    ):
        plan.ts = tx.db.mvcc.begin_commit(rank)


def install_versions(plan: CommitPlan) -> None:
    """Chain-install the pre-image of everything this commit changes,
    BEFORE any live block is touched.

    One rule for vertices and edge holders: a deleted or dirty object
    installs the state it was loaded with, a created one installs
    "absent"; whatever outlives the commit is stamped with its timestamp.
    """
    tx, ts = plan.tx, plan.ts
    if not ts:
        return
    mvcc = tx.db.mvcc
    installed = 0
    changed = [("v", txv.vid, txv) for txv in plan.ordered]
    changed += [("e", txe.dptr, txe) for txe in tx._edges.values()]
    for tag, oid, entry in changed:
        if _vanishes(entry) or not (
            entry.deleted or entry.created or entry.dirty
        ):
            continue
        image = None if entry.created else entry.loaded
        installed += mvcc.versions.install((tag, oid), ts, image)
        if not entry.deleted:
            entry.stored.version = ts
        elif tag == "v":
            mvcc.note_unpublished(
                entry.holder.app_id, oid, unpack_dptr(oid).rank, ts
            )
    if installed:
        tx.ctx.rt.trace.record_versions_installed(tx.ctx.rank, installed)


def apply_edge_holders(plan: CommitPlan) -> None:
    """Heavy edge holders first so endpoint slots never dangle: all
    deleted ones clear their headers in one batched flush, all dirty
    ones write back in another."""
    tx = plan.tx
    deletes = []
    for txe in tx._edges.values():
        if txe.deleted:
            if txe.created:
                tx.db.blocks.release_block(tx.ctx, txe.stored.primary)
            else:
                deletes.append(txe.stored)
    tx.db.storage.delete_many(tx.ctx, deletes)
    tx.db.storage.rewrite_many(tx.ctx, plan.edge_writes)


def unpublish_deleted(plan: CommitPlan) -> None:
    """Unpublish deleted vertices (DHT, directory, indexes) BEFORE
    freeing their blocks: a concurrent create may otherwise reuse the
    primary block and have its fresh directory entry removed by this
    very deletion."""
    tx = plan.tx
    ctx, db = tx.ctx, tx.db
    freed = []
    for txv in plan.ordered:
        if not txv.deleted:
            continue
        if txv.created:
            db.blocks.release_block(ctx, txv.stored.primary)
            continue
        db.dht.delete(ctx, txv.holder.app_id)
        db.directory.remove(ctx, txv.vid, labels=txv.loaded.holder.labels)
        _apply_index_updates(tx, txv, deleted=True)
        freed.append(txv.stored)
    db.storage.delete_many(ctx, freed)


def write_back(plan: CommitPlan) -> None:
    """One batched write-back for every created/dirty vertex holder:
    block writes of all holders coalesce per home rank and complete at a
    single flush (the deletions already freed their blocks, so grown
    holders can reuse them)."""
    plan.tx.db.storage.rewrite_many(plan.tx.ctx, plan.writes)


def publish(plan: CommitPlan) -> None:
    """DHT, directory and index publication, after the write-back."""
    tx = plan.tx
    ctx, db = tx.ctx, tx.db
    for txv in plan.survivors:
        holder = txv.holder
        if txv.created:
            db.dht.insert(ctx, holder.app_id, txv.vid)
            db.directory.add(ctx, txv.vid, labels=holder.labels)
        elif holder._entry_buf is None:  # else untouched: same labels
            db.directory.update_labels(
                ctx, txv.vid, txv.loaded.holder.labels, holder.labels
            )
        _apply_index_updates(tx, txv)


def mirror(plan: CommitPlan) -> None:
    if plan.tx.db.replication is not None:
        plan.tx.db.replication.commit_mirrors(plan.tx.ctx, plan.seq)


def finish(plan: CommitPlan) -> None:
    """Fully applied (and mirrored): the timestamp is retired."""
    tx = plan.tx
    if plan.ts:
        tx.db.mvcc.note_applied(plan.ts)
        plan.ts = 0  # retired once, even if the collection below raises
        tx.db.mvcc.maybe_collect(tx.ctx)


STAGES = (
    validate_created_ids,
    derive_log_entries,
    encode_holders,
    append_log,  # the commit point
    install_versions,
    apply_edge_holders,
    unpublish_deleted,
    write_back,
    publish,
    mirror,
    finish,
)


# -- leaving a transaction early ------------------------------------------
def release_created(tx: "Transaction") -> None:
    """Give back the blocks of everything the transaction created."""
    mem = tx._mem
    created = [
        t.stored.primary for t in tx._vertices.values() if t.created
    ] + [t.stored.primary for t in tx._edges.values() if t.created]
    for primary in created:
        if (
            mem is not None
            and mem.rehosted_at[unpack_dptr(primary).rank] > tx._start_epoch
        ):
            # The shard was rebuilt after this transaction allocated
            # the block: the free-list reconstruction (complement of
            # the mirrored live set) already reclaimed it, a release
            # now would double-free.
            continue
        try:
            tx.db.blocks.release_block(tx.ctx, primary)
        except RmaStaleEpoch:
            # Fenced: the shard reconfigured since the allocation, so
            # the rebuild reclaimed the block (see above).
            pass


# -- what a transaction remembers per cached object until it commits ------
@dataclass
class _TxVertex:
    """Transaction-cache entry of one vertex: holder, pre-image, flags."""

    vid: int
    stored: StoredHolder
    dirty: bool = False
    created: bool = False
    deleted: bool = False
    #: the holder as a write transaction read it (:func:`frozen_copy`);
    #: ``None`` for a vertex created here and in read transactions.  Commit
    #: derives the edge log, label and index diffs and MVCC version from it.
    loaded: "StoredHolder | None" = None
    #: edge index name -> did a slot match at load; the one before-image
    #: evaluated eagerly, because its answer for a heavy slot needs the
    #: edge holder before this transaction may delete it
    edge_index_preimage: dict[str, bool] = field(default_factory=dict)

    @property
    def holder(self) -> VertexHolder:
        return self.stored.holder  # type: ignore[return-value]


@dataclass
class _TxEdge:
    """Transaction-cache entry of one heavyweight edge holder."""

    dptr: int
    stored: StoredHolder
    dirty: bool = False
    created: bool = False
    deleted: bool = False
    #: as :attr:`_TxVertex.loaded`
    loaded: "StoredHolder | None" = None

    @property
    def holder(self) -> EdgeHolder:
        return self.stored.holder  # type: ignore[return-value]


def capture_preimages(tx: "Transaction", txv: "_TxVertex") -> None:
    """Keep the holder a write transaction just fetched as the pre-image
    its commit diffs against: O(1), a fresh fetch is still wire bytes."""
    txv.loaded = frozen_copy(txv.stored)
    if tx.db.edge_indexes:
        txv.edge_index_preimage = {
            name: idx.source_matches(tx, txv)
            for name, idx in tx.db.edge_indexes.items()
        }


def frozen_copy(stored: StoredHolder) -> StoredHolder:
    """Copy a holder deep enough to serve as a pre-image.

    The committing transaction mutates the label and property lists of
    its cached holders in place, so the image must own those containers.
    Property blobs and the slot region are shared: the transaction layer
    replaces them, it never mutates them.  Block lists are dropped — an
    image is only ever *served*, never rewritten.
    """
    h = stored.holder
    if h.kind == KIND_VERTEX:
        # the slot region and a stream still in wire form are immutable
        # bytes: shared as they are
        ch = VertexHolder._from_wire(h.app_id, h._entry_buf, h._slot_buf)
        if h._entry_buf is None:
            ch.labels = list(h.labels)
            ch.properties = list(h.properties)
    else:
        ch = EdgeHolder(
            src=h.src,
            dst=h.dst,
            directed=h.directed,
            labels=list(h.labels),
            properties=list(h.properties),
        )
    return StoredHolder(
        holder=ch,
        primary=stored.primary,
        parts=stored.parts,
        version=stored.version,
    )


# -- helpers of the stages ------------------------------------------------
def _edge_log_entries(
    tx: "Transaction", replica, survivors: "list[_TxVertex]"
) -> tuple[list[tuple], list[tuple]]:
    """Replayable edge entries: each survivor's slots diffed *by value*,
    as a multiset, against the slots it was loaded with.

    A slot region that is still the buffer read is unchanged and skipped
    outright.
    Removals come in pre-image slot order, additions in live slot order
    (a seeded run logs the same bytes); a slot removed and re-added
    identically nets to nothing.  Each logical edge is emitted exactly
    once, from its canonical side, matching
    :func:`repro.gda.checkpoint.snapshot`: the OUT slot for directed
    edges, the smaller application-ID endpoint for undirected ones.
    Edges whose other endpoint is deleted in this transaction are
    skipped — their ``del_v`` entry removes incident edges on replay.
    Heavyweight edges are logged from the cached edge holders instead.
    """
    edge_rm: list[tuple] = []
    edge_add: list[tuple] = []

    def emit(out: list[tuple], tag: str, app: int, value: tuple) -> None:
        dptr, label_id, flags = value
        direction = flags & DIR_MASK
        if flags & SLOT_HEAVY or direction == DIR_IN:
            return
        if tx._deleted_in_txn(dptr):
            return
        other_app = _log_app_of(tx, dptr)
        if direction == DIR_UNDIR and app > other_app:
            return  # the smaller endpoint's side emits
        label_name = replica.label_by_id(label_id).name if label_id else None
        out.append((tag, app, other_app, direction == DIR_OUT, label_name))

    for txv in survivors:
        holder = txv.holder
        # (created here: loaded with no slots)
        pre = txv.loaded.holder if txv.loaded is not None else VertexHolder(0)
        if holder._slot_buf is pre._slot_buf:
            continue  # still the bytes it was read as
        # Both multisets are built at C speed; only the (value, count)
        # pairs they disagree on are walked
        was, now = Counter(pre._slot_values()), Counter(holder._slot_values())
        surplus = {v: now[v] - was[v] for v, _ in was.items() ^ now.items()}
        for value in filter(surplus.__contains__, pre._slot_values()):
            if surplus[value] < 0:
                surplus[value] += 1
                emit(edge_rm, "edge-", holder.app_id, value)
        for value in filter(surplus.__contains__, holder._slot_values()):
            if surplus[value] > 0:
                surplus[value] -= 1
                emit(edge_add, "edge+", holder.app_id, value)
    for txe in tx._edges.values():
        h = txe.holder
        if _vanishes(txe):
            continue
        if not (txe.created or txe.deleted or txe.dirty):
            continue
        if tx._deleted_in_txn(h.src) or tx._deleted_in_txn(h.dst):
            continue  # del_v covers the removal on replay
        src_app = _log_app_of(tx, h.src)
        dst_app = _log_app_of(tx, h.dst)
        if txe.deleted:
            edge_rm.append(("hedge-", src_app, dst_app, h.directed))
            continue
        label_names = tuple(replica.label_by_id(l).name for l in h.labels)
        props = tuple(
            (replica.ptype_by_id(pid).name, bytes(blob))
            for pid, blob in h.properties
        )
        tag = "hedge+" if txe.created else "hedge*"
        edge_add.append((tag, src_app, dst_app, h.directed, label_names, props))
    return edge_rm, edge_add


def _log_app_of(tx: "Transaction", vid: int) -> int:
    """Application ID of ``vid`` for commit logging.

    Served from the transaction cache (``create_edge``, ``delete_edge``
    and ``delete_vertex`` cache both endpoints).  The storage read is the
    last resort; ``EdgeHandle.set_property`` on a heavy edge reaches it
    (``hedge*`` loads no far endpoint).
    """
    txv = tx._vertices.get(vid)
    if txv is not None:
        return txv.holder.app_id
    return tx.db.storage.read(tx.ctx, vid).holder.app_id


def _apply_index_updates(
    tx: "Transaction", txv: "_TxVertex", deleted: bool = False
) -> None:
    """Index postings: matched as loaded → matches now (deleted: nothing)."""
    holder = txv.holder
    if tx.db.indexes and (deleted or holder._entry_buf is None):
        # else the entry stream is untouched: it matches what it matched
        dtype_of, pre = tx.db.replica(tx.ctx).dtype_of, txv.loaded
        for idx in tx.db.indexes.values():
            before = pre is not None and idx.matches(pre.holder, dtype_of)
            after = not deleted and idx.matches(holder, dtype_of)
            idx.update_on_commit(tx.ctx, txv.vid, before, after)
    for name, eidx in tx.db.edge_indexes.items():
        before = txv.edge_index_preimage.get(name, False)
        after = not deleted and eidx.source_matches(tx, txv)
        eidx.update_on_commit(tx.ctx, txv.vid, before, after)
