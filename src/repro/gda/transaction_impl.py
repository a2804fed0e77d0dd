"""GDA transactions: 2-phase RW locking, local caches, commit/abort.

Implements Sections 3.3-3.5 and 5.6 of the paper:

* **Local transactions** run on one process; **collective transactions**
  actively involve every rank (OLAP/OLSP).  Both come in read-only and
  write flavours.
* All changes are **visible only locally** until commit: the transaction
  state caches vertex/edge holders in hash maps keyed by internal ID and
  tracks dirty holders in a vector, exactly the bookkeeping structure mix
  the paper calls out as a major design choice.
* **ACI** via two-phase reader-writer locking with one lock word per
  vertex (:mod:`repro.gda.locks`).  Lock acquisition is try-lock with a
  bounded retry budget; exhaustion raises
  :class:`~repro.gdi.errors.GdiLockFailed`, a transaction-critical error —
  the transaction is guaranteed to fail and the caller must abort and
  start a new one.  These aborts are the paper's "failed transactions".
* Collective *read* transactions are lock-free: GDI read transactions may
  assume no participant modifies the data (Section 3.3).  Collective
  *write* transactions (bulk ingestion) are also lock-free but require
  ranks to mutate disjoint vertices, which the bulk loader guarantees by
  exchanging data so that every vertex is only touched by its home rank.
* **Handles** (Section 3.5) are opaque per-process objects; vertex and
  edge handles are only valid inside their transaction (volatile IDs,
  Section 3.4).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from ..gdi.constants import EdgeOrientation, Multiplicity, SizeType
from ..gdi.constraint import Constraint, LabelCondition
from ..gdi.errors import (
    GdiChecksumError,
    GdiInvalidArgument,
    GdiLockFailed,
    GdiNonUniqueId,
    GdiNotFound,
    GdiObjectMismatch,
    GdiReadOnly,
    GdiSizeLimit,
    GdiStaleDptr,
    GdiStateError,
)
from ..gdi.types import Datatype, decode_value, encode_value, value_nbytes
from ..rma.faults import RmaStaleEpoch
from ..rma.membership import SHARD_FAILED, SHARD_REPAIRING
from ..rma.runtime import RankContext
from .dptr import pack_edge_uid, unpack_dptr, unpack_edge_uid
from .holder import (
    DIR_IN,
    DIR_MASK,
    DIR_OUT,
    DIR_UNDIR,
    KIND_VERTEX,
    NEED_ALL,
    NEED_ENTRIES,
    NEED_IDENT,
    NEED_TOPO,
    SLOT_HEAVY,
    EdgeHolder,
    EdgeSlot,
    HolderBatch,
    StoredHolder,
    VertexHolder,
    csr_indptr,
    ragged_index,
)
from .locks import (
    LockRegistry,
    LockTimeout,
    RWLock,
    acquire_read_batch,
    acquire_write_batch,
    release_batch,
    upgrade_batch,
)
from .metadata import Label, PropertyType

if TYPE_CHECKING:  # pragma: no cover
    from .database_impl import GdaDatabase

__all__ = [
    "Transaction",
    "VertexHandle",
    "VertexScan",
    "EdgeHandle",
    "VolatileVertexId",
]


@dataclass(frozen=True)
class VolatileVertexId:
    """A volatile internal vertex ID (Section 3.4).

    Valid only inside the transaction that produced it; using it in any
    other transaction raises :class:`~repro.gdi.errors.GdiStateError`.
    """

    token: int
    txn: int  # identity of the owning transaction

_LOCK_NONE, _LOCK_READ, _LOCK_WRITE = 0, 1, 2


@dataclass
class _TxVertex:
    """Transaction-cache entry of one vertex."""

    vid: int
    stored: StoredHolder
    lock_mode: int = _LOCK_NONE
    #: membership epoch at lock acquisition; a shard rehosted after this
    #: epoch rebuilt its lock words, so the release must be skipped
    lock_epoch: int = 0
    dirty: bool = False
    created: bool = False
    deleted: bool = False
    index_preimage: dict[str, bool] = field(default_factory=dict)
    edge_index_preimage: dict[str, bool] = field(default_factory=dict)
    #: edge-slot list as loaded (write txns only) — identity-diffed at
    #: commit to derive the replayable commit-log edge entries
    edge_preimage: "list[EdgeSlot] | None" = None
    #: label ids as loaded (write txns only) — diffed at commit to keep
    #: the directory's per-label histogram current
    label_preimage: "list[int] | None" = None
    #: holder state as loaded, copied deep enough to be immutable under
    #: this transaction's own mutations — installed in the MVCC version
    #: chain at commit (write txns with MVCC enabled only)
    mvcc_preimage: "StoredHolder | None" = None

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
    #: (src_app, dst_app) when supplied by the bulk loader, so commit
    #: logging needs no remote reads to resolve application IDs
    app_ids: "tuple[int, int] | None" = None
    #: holder state as loaded (see :attr:`_TxVertex.mvcc_preimage`)
    mvcc_preimage: "StoredHolder | None" = None

    @property
    def holder(self) -> EdgeHolder:
        return self.stored.holder  # type: ignore[return-value]


def _frozen_copy(stored: StoredHolder) -> StoredHolder:
    """Copy a holder deep enough to serve as an MVCC pre-image.

    The committing transaction mutates its cached holders in place
    (labels/properties/edge-slot lists), so the chain image must own
    those containers.  Slot objects and property blobs are shared: the
    transaction layer replaces them, it never mutates them.  Block lists
    are dropped — an image is only ever *served*, never rewritten.
    """
    h = stored.holder
    if h.kind == 1:
        ch = VertexHolder(
            app_id=h.app_id,
            labels=list(h.labels),
            properties=list(h.properties),
        )
        if h._edges is not None:
            ch._edges = list(h._edges)
        else:  # still in wire form; the buffer is immutable bytes
            ch._edges = None
            ch._slot_buf = h._slot_buf
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


class Transaction:
    """One GDI transaction bound to a database and a rank context."""

    def __init__(
        self,
        db: "GdaDatabase",
        ctx: RankContext,
        *,
        write: bool,
        collective: bool,
        snapshot: bool = False,
    ) -> None:
        self.db = db
        self.ctx = ctx
        self.write = write
        self.collective = collective
        #: MVCC snapshot read mode: resolve every holder read against a
        #: frozen watermark instead of taking read locks (lock-free, so
        #: an OLTP storm never blocks — and is never blocked by — this
        #: transaction).  Requires ``db.mvcc`` (GdaConfig.mvcc).
        self.snapshot = bool(snapshot) and not write and db.mvcc is not None
        self._snap = None
        self._commit_ts: int | None = None
        if self.snapshot:
            if collective:
                # every participant must read at the same watermark:
                # rank 0 begins the snapshot and broadcasts the handle,
                # the others join it (each rank holds its own refcount)
                snap0 = db.mvcc.begin_snapshot() if ctx.rank == 0 else None
                snap0 = ctx.bcast(snap0, root=0)
                self._snap = (
                    snap0 if ctx.rank == 0 else db.mvcc.share(snap0)
                )
            else:
                self._snap = db.mvcc.begin_snapshot()
        self.open = True
        self.failed = False
        self.fail_cause: str | None = None  # per-cause abort accounting
        self._vertices: dict[int, _TxVertex] = {}
        #: vid -> (batch, row, parts): vertices a bulk scan read that are
        #: still rows of its columnar batch (see :meth:`_keep_columnar`)
        self._scanned: dict[int, tuple[HolderBatch, int, int]] = {}
        self._edges: dict[int, _TxEdge] = {}
        self._dirty_order: list[int] = []  # the paper's dirty-block vector
        self._created_app_ids: dict[int, int] = {}  # app_id -> vid
        self._volatile_ids: dict[int, int] = {}  # volatile token -> vid
        self._bulk_slot_apps: dict[int, int] = {}  # id(slot) -> other app ID
        #: availability-layer state (all inert without a membership view)
        self._mem = getattr(ctx.rt, "membership", None)
        self._start_epoch = self._mem.epoch if self._mem is not None else 0
        self._no_log = False  # failover redo replays without re-logging
        self._logged_seq: int | None = None  # set between log append + apply

    # -- context manager: abort on error, commit must be explicit ----------
    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.open:
            self.abort()

    # -- guards --------------------------------------------------------------
    def _check_open(self) -> None:
        if not self.open:
            raise GdiStateError("transaction already closed")
        if self.failed:
            raise GdiStateError(
                "transaction failed; abort it and start a new one"
            )

    def _check_write(self) -> None:
        if not self.write:
            raise GdiReadOnly("mutation inside a read-only transaction")

    def _fail(self, cause: str = "other") -> None:
        self.failed = True
        if self.fail_cause is None:
            self.fail_cause = cause

    def _deleted_in_txn(self, vid: int) -> bool:
        """Is ``vid`` a vertex this transaction has marked deleted?

        Allows re-creating an application ID whose old vertex is deleted
        within the same transaction (delete + create in one unit).
        """
        txv = self._vertices.get(vid)
        return txv is not None and txv.deleted

    def _acquire_or_fail(self, home: int) -> int:
        """Allocate a primary block or fail the transaction (no memory)."""
        from .blocks import OutOfBlocksError
        from ..gdi.errors import GdiNoMemory

        try:
            return self.db.blocks.acquire_block_anywhere(self.ctx, home)
        except OutOfBlocksError as exc:
            self._fail("nomem")
            raise GdiNoMemory(str(exc)) from exc

    # -- locking ---------------------------------------------------------------
    def _lock_of(self, vid: int) -> RWLock:
        rank, offset = self.db.blocks.lock_location(vid)
        cfg = self.db.config
        return RWLock(
            self.db.blocks.system_win,
            rank=rank,
            offset=offset,
            max_retries=cfg.lock_max_retries,
            backoff_base=cfg.lock_backoff_base,
            backoff_cap=cfg.lock_backoff_cap,
        )

    def _ensure_lock(self, txv: _TxVertex, want_write: bool) -> None:
        if self.collective or self.snapshot or txv.created:
            # collective and snapshot txns are lock-free; created
            # vertices are private until commit
            return
        want = _LOCK_WRITE if want_write else _LOCK_READ
        if txv.lock_mode >= want:
            return
        lock = self._lock_of(txv.vid)
        try:
            if txv.lock_mode == _LOCK_NONE:
                if want_write:
                    lock.acquire_write(self.ctx)
                else:
                    lock.acquire_read(self.ctx)
            else:  # read -> write upgrade
                lock.upgrade(self.ctx)
        except LockTimeout as exc:
            self._fail("lock")
            raise GdiLockFailed(str(exc)) from exc
        txv.lock_mode = want
        if self._mem is not None:
            txv.lock_epoch = self._mem.epoch
        reg = self.db.lock_registry
        if reg is not None:
            lrank, loff = self.db.blocks.lock_location(txv.vid)
            reg.note_acquire(
                self.ctx.rank,
                lrank,
                loff,
                LockRegistry.WRITE if want_write else LockRegistry.READ,
            )

    def _note_locked(self, txvs: "list[_TxVertex]", want: int) -> None:
        reg = self.db.lock_registry
        for txv in txvs:
            txv.lock_mode = want
            if reg is not None:
                lrank, loff = self.db.blocks.lock_location(txv.vid)
                reg.note_acquire(
                    self.ctx.rank,
                    lrank,
                    loff,
                    LockRegistry.WRITE
                    if want == _LOCK_WRITE
                    else LockRegistry.READ,
                )

    def _ensure_locks(self, txvs: "list[_TxVertex]", want_write: bool) -> None:
        """Batched :meth:`_ensure_lock` over already-cached vertices.

        Splits the vector into fresh acquisitions (one batched-atomic
        round via ``acquire_*_batch``) and read->write upgrades (one
        batched CAS round via ``upgrade_batch``).  Falls back to the
        scalar path when a membership view is armed (failover epochs
        must be captured per lock) or the vector degenerates.
        """
        if self.collective or self.snapshot:
            return
        want = _LOCK_WRITE if want_write else _LOCK_READ
        todo: list[_TxVertex] = []
        seen: set[int] = set()
        for txv in txvs:
            if txv.created or txv.lock_mode >= want or txv.vid in seen:
                continue
            seen.add(txv.vid)
            todo.append(txv)
        if not todo:
            return
        if self._mem is not None or len(todo) == 1:
            for txv in todo:
                self._ensure_lock(txv, want_write)
            return
        fresh = [t for t in todo if t.lock_mode == _LOCK_NONE]
        upg = [t for t in todo if t.lock_mode == _LOCK_READ]
        try:
            if fresh:
                locks = [self._lock_of(t.vid) for t in fresh]
                if want_write:
                    acquire_write_batch(self.ctx, locks)
                else:
                    acquire_read_batch(self.ctx, locks)
                self._note_locked(fresh, want)
            if upg:
                upgrade_batch(self.ctx, [self._lock_of(t.vid) for t in upg])
                self._note_locked(upg, want)
        except LockTimeout as exc:
            self._fail("lock")
            raise GdiLockFailed(str(exc)) from exc

    def _undo_lock(self, vid: int, mode: int, lock_epoch: int) -> None:
        """Release one held lock word, failover-aware.

        A shard rebuilt by a failover repair after this lock was acquired
        had its lock words zeroed, so our contribution is already gone;
        issuing the release anyway would corrupt the fresh word.
        """
        if mode == _LOCK_NONE:
            return
        lrank, loff = self.db.blocks.lock_location(vid)
        reg = self.db.lock_registry
        if reg is not None:
            reg.note_release(self.ctx.rank, lrank, loff)
        mem = self._mem

        def rebuilt() -> bool:
            return mem is not None and (
                mem.shard_state(lrank) in (SHARD_FAILED, SHARD_REPAIRING)
                or mem.rehosted_at[lrank] > lock_epoch
            )

        if rebuilt():
            return
        lock = self._lock_of(vid)
        try:
            if mode == _LOCK_READ:
                lock.release_read(self.ctx)
            else:
                lock.release_write(self.ctx)
        except RmaStaleEpoch:
            # Fenced exactly once per reconfiguration (adopt-once); the
            # epoch is adopted now.  Re-check whether the word survived
            # the reconfiguration before re-issuing.
            if rebuilt():
                return
            if mode == _LOCK_READ:
                lock.release_read(self.ctx)
            else:
                lock.release_write(self.ctx)

    def _release_locks(self) -> None:
        if self.snapshot:
            return  # never held any
        # With no membership view armed the failover-aware release checks
        # are no-ops, and every release direction is an FAA — the whole
        # vector rides one batched atomic round per distinct lock shard.
        if self._mem is None and not self.collective:
            reg = self.db.lock_registry
            pending: list[tuple[RWLock, bool]] = []
            for txv in self._vertices.values():
                if txv.created:
                    continue
                mode, txv.lock_mode = txv.lock_mode, _LOCK_NONE
                if mode == _LOCK_NONE:
                    continue
                if reg is not None:
                    lrank, loff = self.db.blocks.lock_location(txv.vid)
                    reg.note_release(self.ctx.rank, lrank, loff)
                pending.append(
                    (self._lock_of(txv.vid), mode == _LOCK_WRITE)
                )
            release_batch(self.ctx, pending)
            return
        for txv in self._vertices.values():
            if txv.created:
                continue
            mode, txv.lock_mode = txv.lock_mode, _LOCK_NONE
            self._undo_lock(txv.vid, mode, txv.lock_epoch)

    # -- vertex loading ------------------------------------------------------------
    def _load_vertex(
        self,
        vid: int,
        for_write: bool,
        expected_app_id: int | None = None,
        need: int = NEED_ALL,
    ) -> _TxVertex:
        return self.load_vertices(
            [vid],
            for_write=for_write,
            expected_app_ids=[expected_app_id],
            need=need,
        )[0]  # type: ignore[return-value]

    def load_vertices(
        self,
        vids: list[int],
        for_write: bool = False,
        expected_app_ids: list[int | None] | None = None,
        missing_ok: bool = False,
        need: int = NEED_ALL,
    ) -> "list[_TxVertex | None]":
        """Read-pipeline many vertices into the transaction cache at once.

        All uncached holders are fetched with the batched storage path
        (holder and block reads coalesce per home rank and complete in a
        fixed number of flush rounds).  Per-element validation matches the
        scalar path: a vanished holder raises :class:`GdiNotFound` (or
        yields ``None`` with ``missing_ok``), a non-vertex holder raises
        :class:`GdiObjectMismatch`, and an ``expected_app_ids`` mismatch —
        the block was recycled between translate and associate — counts as
        a read miss.  Locks are taken *before* the batched read (2PL) and
        rolled back for any element that fails validation.

        ``need`` is a holder-parts projection mask (see
        :mod:`repro.gda.holder`): read-only callers that will only follow
        edges pass ``NEED_TOPO`` and skip the property bytes entirely.
        Write transactions always load full holders (preimages and
        rewrites need the complete payload); cached entries missing a
        requested part are hydrated in place with one batched re-read.
        """
        self._load(vids, for_write, expected_app_ids, missing_ok, need)
        loaded = map(self._cached, vids)
        return [
            None if txv is None or txv.deleted else txv for txv in loaded
        ]

    def _cached(self, vid: int) -> "_TxVertex | None":
        """The cache entry of ``vid``; a row a bulk scan left in its
        columnar batch becomes an entry on this first touch."""
        txv = self._vertices.get(vid)
        if txv is None and vid in self._scanned:
            batch, row, _ = self._scanned[vid]
            txv = self._vertices[vid] = _TxVertex(vid=vid, stored=batch[row])
        return txv

    def _load(
        self,
        vids: list[int],
        for_write: bool,
        expected_app_ids: list[int | None] | None,
        missing_ok: bool,
        need: int,
    ) -> None:
        """Bring ``vids`` into the transaction cache (see
        :meth:`load_vertices`, which also hands back the entries)."""
        self._check_open()
        if for_write:
            self._check_write()
        if self.write:
            # preimage capture and commit rewrites need whole holders
            need = NEED_ALL
        if self.snapshot:
            # full-span reads carry the CRC end to end, so a torn read
            # under a concurrent lock-free rewrite surfaces as a checksum
            # failure and retries against the version chain
            need = NEED_ALL
        need |= NEED_IDENT
        if expected_app_ids is None:
            expected_app_ids = [None] * len(vids)
        fetch_idx: list[int] = []
        placeholders: dict[int, _TxVertex] = {}
        expected_by_vid: dict[int, int] = {}
        hydrate: list[_TxVertex] = []
        hydrate_ids: set[int] = set()
        # Pass 1: serve cache hits (and fail fast on in-txn deletions)
        # before taking any new locks.  Lock ensures for the hits are
        # themselves batched (fresh acquisitions and read->write
        # upgrades each ride one atomic round).
        cached: list[_TxVertex] = []
        reloc = self.db.relocations
        scanned = self._scanned
        for i, vid in enumerate(vids):
            if reloc and vid in reloc:
                # the DPTR predates a rebalance: the vertex vacated this
                # block, and reading through it would return whatever
                # lives there now (stale-DPTR hazard, Section 3.4)
                raise GdiStaleDptr(
                    f"internal ID {vid:#x} predates a vertex relocation "
                    f"(placement epoch {self.db.placement_epoch}); "
                    "re-translate the application ID or use volatile IDs",
                    fresh_vid=reloc[vid],
                )
            txv = self._vertices.get(vid)
            if txv is None and vid in scanned:
                if (scanned[vid][2] & need) == need:
                    continue  # cached, still a row of its columnar batch
                txv = self._cached(vid)
            if txv is not None:
                if txv.deleted:
                    if missing_ok:
                        continue
                    raise GdiNotFound(
                        f"vertex {vid:#x} deleted in this transaction"
                    )
                cached.append(txv)
                if (
                    txv.stored.parts & need
                ) != need and vid not in hydrate_ids:
                    hydrate.append(txv)
                    hydrate_ids.add(vid)
            else:
                fetch_idx.append(i)
                if expected_app_ids[i] is not None:
                    expected_by_vid.setdefault(vid, expected_app_ids[i])
        if cached:
            self._ensure_locks(cached, for_write)
        if hydrate:
            self._hydrate_parts(hydrate, need)
        # Pass 2: lock *before* reading so the fetched holders are stable
        # (2PL); a lock failure mid-batch rolls back the locks already
        # taken for this batch (they are not yet owned by the cache).
        if self.snapshot:
            # Lock-free watermark reads: no locks, no placeholders owned;
            # chain-covered vids are served from their pre-images, the
            # rest from the live blocks after version validation.
            if fetch_idx:
                err = self._snapshot_load(
                    list(dict.fromkeys(vids[i] for i in fetch_idx)),
                    need,
                    expected_by_vid,
                    missing_ok,
                )
                if err is not None:
                    raise err
            return
        for i in fetch_idx:
            vid = vids[i]
            if vid not in placeholders:
                # duplicates in this batch: one lock, one fetch
                placeholders[vid] = _TxVertex(vid=vid, stored=None)  # type: ignore[arg-type]
        if (
            not self.collective
            and self._mem is None
            and len(placeholders) > 1
        ):
            # Fast path: no failover bookkeeping armed, so the optimistic
            # acquisitions for the whole batch ride one doorbell batch of
            # atomics (all-or-nothing; the helper rolls back on timeout).
            locks = [self._lock_of(v) for v in placeholders]
            try:
                if for_write:
                    acquire_write_batch(self.ctx, locks)
                else:
                    acquire_read_batch(self.ctx, locks)
            except LockTimeout as exc:
                self._fail("lock")
                raise GdiLockFailed(str(exc)) from exc
            want = _LOCK_WRITE if for_write else _LOCK_READ
            reg = self.db.lock_registry
            for vid, placeholder in placeholders.items():
                placeholder.lock_mode = want
                if reg is not None:
                    lrank, loff = self.db.blocks.lock_location(vid)
                    reg.note_acquire(
                        self.ctx.rank,
                        lrank,
                        loff,
                        LockRegistry.WRITE if for_write else LockRegistry.READ,
                    )
        else:
            acquired: list[_TxVertex] = []
            for placeholder in placeholders.values():
                try:
                    self._ensure_lock(placeholder, for_write)
                except BaseException:
                    for p in acquired:
                        self._rollback_placeholder_lock(p)
                    raise
                acquired.append(placeholder)
        fetch_vids = list(placeholders)
        if fetch_vids:
            try:
                stored_list = self.db.storage.read_many(
                    self.ctx, fetch_vids, missing_ok=True, need=need
                )
            except BaseException:
                for p in placeholders.values():
                    self._rollback_placeholder_lock(p)
                raise
            error: BaseException | None = None
            for i in self._keep_columnar(
                fetch_vids, stored_list, need, expected_by_vid
            ):
                vid, stored = fetch_vids[i], stored_list[i]
                placeholder = placeholders[vid]
                if stored is None:
                    # The holder vanished between the ID translation and
                    # this read (vertex deleted, block freed): a normal
                    # read-miss outcome.
                    self._rollback_placeholder_lock(placeholder)
                    if not missing_ok and error is None:
                        error = GdiNotFound(
                            f"vertex {vid:#x} no longer exists"
                        )
                    continue
                if stored.holder.kind != 1:
                    self._rollback_placeholder_lock(placeholder)
                    if error is None:
                        error = GdiObjectMismatch(f"{vid:#x} is not a vertex")
                    continue
                expected = expected_by_vid.get(vid)
                if expected is not None and stored.holder.app_id != expected:
                    self._rollback_placeholder_lock(placeholder)
                    if not missing_ok and error is None:
                        error = GdiNotFound(
                            f"vertex {vid:#x} was recycled (expected "
                            f"application ID {expected}, found "
                            f"{stored.holder.app_id})"
                        )
                    continue
                txv = _TxVertex(
                    vid=vid,
                    stored=stored,
                    lock_mode=placeholder.lock_mode,
                    lock_epoch=placeholder.lock_epoch,
                )
                self._vertices[vid] = txv
                if self.write:
                    if self.db.mvcc is not None:
                        # the pre-image this commit will chain-install
                        txv.mvcc_preimage = _frozen_copy(stored)
                    # capture the slot identities for the commit-log diff
                    txv.edge_preimage = list(stored.holder.edges)
                    txv.label_preimage = list(stored.holder.labels)
                    # index preimages are only consulted by the commit
                    # apply phase, so read transactions skip them (their
                    # holders may be projections without entries anyway)
                    txv.index_preimage = self._index_matches(stored.holder)
                    txv.edge_index_preimage = self._edge_index_matches(txv)
            if error is not None:
                raise error

    def _keep_columnar(
        self,
        vids: "list[int]",
        stored_list,
        need: int,
        expected_by_vid: "dict[int, int]",
        watermark: int | None = None,
    ) -> "Iterable[int]":
        """Cache the rows of a columnar read that need no per-row work
        without decoding them; returns the rows that still need it.

        A lock-free read-only transaction owes a freshly read vertex
        nothing but a cache entry, so the rows of a
        :class:`~repro.gda.holder.HolderBatch` that hold a vertex (no
        newer than ``watermark`` for a snapshot) are noted as
        ``vid -> (batch, row, parts)`` and become cache entries when
        something first touches them (:meth:`_cached`).  Holes, edge
        holders and too-new versions — and every row of a small or
        locking read — go through the caller's per-row path.
        """
        if (
            not isinstance(stored_list, HolderBatch)
            or self.write
            or not (self.collective or self.snapshot)
            or expected_by_vid
        ):
            return range(len(vids))
        ok = stored_list.kind == KIND_VERTEX
        if watermark is not None:
            ok &= stored_list.version <= watermark
        rows = np.flatnonzero(ok).tolist()
        self._scanned.update(
            (vids[row], (stored_list, row, need)) for row in rows
        )
        if watermark is not None:
            self.ctx.rt.trace.record_snapshot_read(self.ctx.rank, len(rows))
        return np.flatnonzero(~ok).tolist()

    def _rollback_placeholder_lock(self, placeholder: _TxVertex) -> None:
        if self.collective or self.snapshot:
            return
        self._undo_lock(
            placeholder.vid, placeholder.lock_mode, placeholder.lock_epoch
        )

    # -- snapshot (MVCC) reads ---------------------------------------------
    def _snapshot_load(
        self,
        fetch_vids: "list[int]",
        need: int,
        expected_by_vid: "dict[int, int]",
        missing_ok: bool,
    ) -> BaseException | None:
        """Batched lock-free vertex load at the snapshot watermark.

        Visibility rule (:mod:`repro.mvcc.versions`): a chain entry with
        ``boundary_ts > W`` serves the vid's state at ``W``; otherwise
        the live blocks are authoritative, validated by the version
        stamped in the holder header being ``<= W``.  A too-new version,
        a reused block, or a checksum failure all mean a commit after
        the watermark is (re)writing the holder — its pre-image is
        already installed (install-before-rewrite), so the vid simply
        re-resolves against the chain on the next attempt.  Returns the
        first per-element validation error instead of raising so the
        caller keeps the scalar path's error precedence.
        """
        mvcc = self.db.mvcc
        w = self._snap.watermark
        trace = self.ctx.rt.trace
        rank = self.ctx.rank
        error: BaseException | None = None

        def miss(why: str) -> None:
            nonlocal error
            if not missing_ok and error is None:
                error = GdiNotFound(why)

        def serve(vid: int, stored: StoredHolder) -> None:
            nonlocal error
            expected = expected_by_vid.get(vid)
            if expected is not None and stored.holder.app_id != expected:
                # the block was recycled relative to the caller's ID
                # translation: that vertex did not live here at W
                miss(
                    f"vertex {vid:#x} was recycled (expected application "
                    f"ID {expected}, found {stored.holder.app_id})"
                )
                return
            self._vertices[vid] = _TxVertex(vid=vid, stored=stored)

        pending = list(fetch_vids)
        for _ in range(4):
            # one pass over the chains, under one lock, finds the vids a
            # pre-image serves; the live blocks are authoritative for the rest
            images = mvcc.versions.resolve_many(
                (("v", vid) for vid in pending), w
            )
            live = pending
            if images:
                live = []
                for vid in pending:
                    if ("v", vid) not in images:
                        live.append(vid)
                        continue
                    trace.record_snapshot_read(rank)
                    image = images[("v", vid)]
                    if image is None:
                        miss(
                            f"vertex {vid:#x} absent at snapshot "
                            f"watermark {w}"
                        )
                    else:
                        serve(vid, image)
            if not live:
                return error
            try:
                stored_list = self.db.storage.read_many(
                    self.ctx, live, missing_ok=True, need=need
                )
            except GdiChecksumError:
                pending = live  # torn read under a concurrent rewrite
                continue
            pending = []
            for i in self._keep_columnar(
                live, stored_list, need, expected_by_vid, watermark=w
            ):
                vid, stored = live[i], stored_list[i]
                if stored is None:
                    if mvcc.versions.covered(("v", vid), w):
                        # deleted by a commit > W between our chain pass
                        # and the read; the fresh entry serves W
                        pending.append(vid)
                        continue
                    # no chain entry and no live holder: never existed
                    # at W, or was deleted at a commit <= W
                    miss(f"vertex {vid:#x} no longer exists")
                    continue
                if stored.version > w:
                    pending.append(vid)  # rewritten after W: re-resolve
                    continue
                if stored.holder.kind != 1:
                    if mvcc.versions.covered(("v", vid), w):
                        pending.append(vid)  # block reused; chain serves
                    elif error is None:
                        error = GdiObjectMismatch(f"{vid:#x} is not a vertex")
                    continue
                trace.record_snapshot_read(rank)
                serve(vid, stored)
            if not pending:
                return error
        raise GdiStateError(
            f"snapshot read of {len(pending)} vid(s) did not stabilize "
            f"after 4 attempts (watermark {w})"
        )

    @property
    def snapshot_watermark(self) -> int | None:
        """The frozen watermark of a snapshot transaction, else ``None``."""
        return self._snap.watermark if self._snap is not None else None

    def visible_vertices(self, live_vids, shard: int) -> "list[int]":
        """Snapshot-aware vid enumeration for directory sweeps.

        The live directory misses vertices deleted after the watermark
        (the unpublish tombstones recover them) and includes vertices
        created after it (those resolve to absent through the chain, so
        callers must associate with ``missing_ok=True`` and drop the
        ``None`` results).  Outside snapshot mode this is the identity.
        """
        vids = list(live_vids)
        if not self.snapshot:
            return vids
        extra = self.db.mvcc.deleted_vids(shard, self._snap.watermark)
        if extra:
            seen = set(vids)
            vids.extend(v for v in extra if v not in seen)
        return vids

    def _close_snapshot(self) -> None:
        if self._snap is not None:
            self._snap.close()
            self._snap = None

    # -- part hydration (projected reads) ---------------------------------
    def _ensure_parts(self, txv: _TxVertex, need: int) -> None:
        """Hydrate one cached vertex so the requested parts are present."""
        if txv.created or txv.deleted:
            return
        if (txv.stored.parts & need) == need:
            return
        self._hydrate_parts([txv], need)

    def _hydrate_parts(self, txvs: "list[_TxVertex]", need: int) -> None:
        """Batched in-place hydration of cached projection holders.

        Re-reads only the missing payload parts (the holders are stable:
        this transaction holds their locks, or runs collectively under
        the no-concurrent-writer contract) and merges them into the
        *existing* holder objects, so handles and edge-slot identities
        held by the caller stay valid.
        """
        want = [
            t
            for t in txvs
            if not t.created and (t.stored.parts & need) != need
        ]
        if not want:
            return
        masks = [
            ((need & ~t.stored.parts) | NEED_IDENT) for t in want
        ]
        fresh_list = self.db.storage.read_many(
            self.ctx, [t.vid for t in want], missing_ok=False, need=masks
        )
        for txv, fresh in zip(want, fresh_list):
            holder = txv.stored.holder
            fholder = fresh.holder
            got = fresh.parts
            if got & NEED_ENTRIES and not txv.stored.parts & NEED_ENTRIES:
                holder.labels = fholder.labels
                holder.properties = fholder.properties
            if (
                got & NEED_TOPO
                and not txv.stored.parts & NEED_TOPO
                and holder._edges is None
            ):
                if fholder._edges is not None:
                    holder._edges = fholder._edges
                else:
                    holder._slot_buf = fholder._slot_buf
            txv.stored.data_blocks = fresh.data_blocks
            txv.stored.index_blocks = fresh.index_blocks
            txv.stored.parts |= got

    def _index_matches(self, holder) -> dict[str, bool]:
        dtype_of = self.db.replica(self.ctx).dtype_of
        return {
            name: idx.matches(holder, dtype_of)
            for name, idx in self.db.indexes.items()
        }

    def _edge_index_matches(self, txv: _TxVertex) -> dict[str, bool]:
        if not self.db.edge_indexes:
            return {}
        return {
            name: idx.source_matches(self, txv)
            for name, idx in self.db.edge_indexes.items()
        }

    def _mark_dirty(self, txv: _TxVertex) -> None:
        if not txv.dirty:
            txv.dirty = True
            self._dirty_order.append(txv.vid)

    def read_holder(self, vid: int) -> StoredHolder:
        """Raw holder access (index building, analytics fast paths)."""
        return self._load_vertex(vid, for_write=False).stored

    # -- ID translation (Section 3.4) --------------------------------------------------
    def translate_vertex_id(self, app_id: int, volatile: bool = False):
        """``GDI_TranslateVertexID``: application ID -> internal ID.

        GDI offers two internal-ID flavours (Section 3.4):

        * **permanent** (default here): the raw 64-bit DPtr, shareable
          across transactions — fewer translations, but pins the vertex's
          placement;
        * **volatile** (``volatile=True``): a :class:`VolatileVertexId`
          valid *only inside this transaction*, which lets the
          implementation relocate data between transactions (dynamic load
          balancing) without fear of stale IDs.
        """
        self._check_open()
        app_id = int(app_id)  # accept numpy integers
        if app_id in self._created_app_ids:
            vid = self._created_app_ids[app_id]
        else:
            vid = self.db.dht.lookup(self.ctx, app_id)
            if vid is None and self.snapshot:
                # deleted after the watermark: the unpublish tombstone
                # recovers the vid that carried the ID at the snapshot
                vid = self.db.mvcc.lookup_unpublished(
                    app_id, self._snap.watermark
                )
            if vid is None:
                raise GdiNotFound(f"no vertex with application ID {app_id}")
        if not volatile:
            return vid
        token = VolatileVertexId(token=len(self._volatile_ids), txn=id(self))
        self._volatile_ids[token.token] = vid
        return token

    def _resolve_vid(self, vid) -> int:
        if isinstance(vid, VolatileVertexId):
            if vid.txn != id(self):
                raise GdiStateError(
                    "volatile internal ID used outside the transaction "
                    "that obtained it (Section 3.4)"
                )
            return self._volatile_ids[vid.token]
        return vid

    def find_vertex(self, app_id: int) -> "VertexHandle | None":
        """Convenience: translate + associate, ``None`` if absent.

        Validates that the holder still belongs to ``app_id``, guarding
        against the translate/associate race with a concurrent delete
        that recycled the primary block.
        """
        return self.find_vertices([app_id])[0]

    def find_vertices(
        self, app_ids: list[int], need: int = NEED_ALL
    ) -> "list[VertexHandle | None]":
        """Batched :meth:`find_vertex`: one handle (or ``None``) per ID.

        Translations resolve through one batched DHT lookup and the
        holders through one pipelined storage read, so the network rounds
        are bounded by chain/indirection depth rather than the ID count.
        ``need`` projects the read onto the holder parts the caller will
        touch (see :meth:`load_vertices`).
        """
        self._check_open()
        app_ids = [int(a) for a in app_ids]
        vids: list[int | None] = [None] * len(app_ids)
        to_lookup: list[int] = []
        for i, app_id in enumerate(app_ids):
            if app_id in self._created_app_ids:
                vids[i] = self._created_app_ids[app_id]
            else:
                to_lookup.append(i)
        if to_lookup:
            found = self.db.dht.lookup_many(
                self.ctx, [app_ids[i] for i in to_lookup]
            )
            for i, vid in zip(to_lookup, found):
                vids[i] = vid
        if self.snapshot:
            # IDs the live DHT no longer maps were deleted after the
            # watermark; the unpublish tombstones recover the vid that
            # carried each one at the snapshot
            for i in to_lookup:
                if vids[i] is None:
                    vids[i] = self.db.mvcc.lookup_unpublished(
                        app_ids[i], self._snap.watermark
                    )
        present = [i for i in range(len(app_ids)) if vids[i] is not None]
        loaded = self.load_vertices(
            [vids[i] for i in present],
            for_write=False,
            expected_app_ids=[app_ids[i] for i in present],
            missing_ok=True,
            need=need,
        )
        out: list[VertexHandle | None] = [None] * len(app_ids)
        for i, txv in zip(present, loaded):
            if txv is not None:
                out[i] = VertexHandle(self, txv)
        if self.snapshot:
            # second chance: a live DHT hit can point at a vertex created
            # after the watermark that reuses a deleted application ID;
            # the tombstoned predecessor is the one visible at W
            again = [
                (i, self.db.mvcc.lookup_unpublished(
                    app_ids[i], self._snap.watermark
                ))
                for i, txv in zip(present, loaded)
                if txv is None
            ]
            again = [(i, alt) for i, alt in again
                     if alt is not None and alt != vids[i]]
            if again:
                reloaded = self.load_vertices(
                    [alt for _, alt in again],
                    for_write=False,
                    expected_app_ids=[app_ids[i] for i, _ in again],
                    missing_ok=True,
                    need=need,
                )
                for (i, _), txv in zip(again, reloaded):
                    if txv is not None:
                        out[i] = VertexHandle(self, txv)
        return out

    # -- vertex CRUD ------------------------------------------------------------------------
    def create_vertex(
        self,
        app_id: int,
        labels: Iterable[Label] = (),
        properties: Iterable[tuple[PropertyType, Any]] = (),
    ) -> "VertexHandle":
        """``GDI_CreateVertex``: new vertex, private until commit."""
        self._check_open()
        self._check_write()
        app_id = int(app_id)  # accept numpy integers
        if app_id in self._created_app_ids and not self._deleted_in_txn(
            self._created_app_ids[app_id]
        ):
            self._fail("nonunique")
            raise GdiNonUniqueId(f"application ID {app_id} created twice")
        existing = self.db.dht.lookup(self.ctx, app_id)
        if existing is not None and not self._deleted_in_txn(existing):
            self._fail("nonunique")
            raise GdiNonUniqueId(f"application ID {app_id} already in use")
        return self._create_checked(app_id, labels, properties)

    def create_vertices(
        self,
        specs: "list[tuple[int, Iterable[Label], Iterable[tuple[PropertyType, Any]]]]",
    ) -> "list[VertexHandle]":
        """Batched ``GDI_CreateVertex``: one DHT probe for all new IDs.

        ``specs`` is ``(app_id, labels, properties)`` triples.  The
        uniqueness prechecks for the whole batch resolve through a single
        batched DHT lookup instead of one round trip per vertex; a
        non-unique ID fails the transaction exactly like the scalar path.
        """
        self._check_open()
        self._check_write()
        app_ids = [int(a) for a, _, _ in specs]
        found = self.db.dht.lookup_many(self.ctx, app_ids)
        handles: list[VertexHandle] = []
        for (app_id, labels, properties), existing in zip(specs, found):
            app_id = int(app_id)
            if app_id in self._created_app_ids and not self._deleted_in_txn(
                self._created_app_ids[app_id]
            ):
                self._fail("nonunique")
                raise GdiNonUniqueId(
                    f"application ID {app_id} created twice"
                )
            if existing is not None and not self._deleted_in_txn(existing):
                self._fail("nonunique")
                raise GdiNonUniqueId(
                    f"application ID {app_id} already in use"
                )
            handles.append(self._create_checked(app_id, labels, properties))
        return handles

    def _create_checked(
        self,
        app_id: int,
        labels: Iterable[Label] = (),
        properties: Iterable[tuple[PropertyType, Any]] = (),
    ) -> "VertexHandle":
        """Create a vertex whose uniqueness precheck already passed."""
        home = self.db.home_rank(app_id)
        primary = self._acquire_or_fail(home)
        # a recycled block is a live vertex again, not a stale DPTR
        self.db.relocations.pop(primary, None)
        holder = VertexHolder(app_id=app_id)
        txv = _TxVertex(
            vid=primary,
            stored=StoredHolder(holder=holder, primary=primary),
            lock_mode=_LOCK_WRITE,
            created=True,
        )
        txv.index_preimage = {name: False for name in self.db.indexes}
        txv.edge_index_preimage = {name: False for name in self.db.edge_indexes}
        self._vertices[primary] = txv
        self._mark_dirty(txv)
        self._created_app_ids[app_id] = primary
        handle = VertexHandle(self, txv)
        for label in labels:
            handle.add_label(label)
        for ptype, value in properties:
            handle.set_property(ptype, value)
        return handle

    def associate_vertex(self, vid, need: int = NEED_ALL) -> "VertexHandle":
        """``GDI_AssociateVertex``: make a handle for an existing vertex.

        Accepts both permanent (raw DPtr) and volatile internal IDs.
        """
        return VertexHandle(
            self,
            self._load_vertex(
                self._resolve_vid(vid), for_write=False, need=need
            ),
        )

    def associate_vertices(
        self, vids, missing_ok: bool = False, need: int = NEED_ALL
    ) -> "VertexScan":
        """Batched ``GDI_AssociateVertex``: one pipelined read for all IDs.

        Neighborhood expansions (analytics, GNN sampling, BI traversals)
        use this to fetch a whole frontier's holders with coalesced
        per-rank messages instead of one round trip per vertex.  With
        ``missing_ok`` deleted/recycled vertices yield ``None`` instead of
        raising, matching the scalar try/except-``GdiNotFound`` idiom.
        ``need`` projects the fetch onto the holder parts the caller will
        touch (see :meth:`load_vertices`).

        The result is a sequence of handles (``None`` where a vertex is
        missing) that also answers whole-batch questions as arrays — see
        :class:`VertexScan`.
        """
        if isinstance(vids, np.ndarray):
            vids = vids.tolist()
        resolved = [self._resolve_vid(v) for v in vids]
        self._load(resolved, False, None, missing_ok, need)
        return VertexScan(self, resolved)

    def delete_vertex(self, handle: "VertexHandle") -> None:
        """``GDI_FreeVertex`` (delete): remove vertex and incident edges.

        Expensive by design: every incident edge's counterpart slot on the
        neighboring vertex must be removed, which write-locks each
        neighbor (Figure 5 shows vertex deletion as the slowest OLTP op).
        All neighbors are write-locked and fetched in one batched load
        instead of one round trip per incident edge.
        """
        self._check_open()
        self._check_write()
        txv = handle._txv
        self._ensure_lock(txv, want_write=True)
        slots = list(txv.holder.edges)
        # resolve the far endpoints first (heavy slots read their edge
        # holder), then pull every distinct neighbor in one batched load
        others: list[int] = []
        for slot in slots:
            other_vid = self._slot_other_endpoint(txv.vid, slot)
            others.append(other_vid)
            if slot.heavy:
                self._mark_edge_holder_deleted(slot.dptr)
        distinct = sorted({o for o in others if o != txv.vid})
        if distinct:
            self.load_vertices(distinct, for_write=True)
        for slot, other_vid in zip(slots, others):
            if other_vid != txv.vid:
                other = self._vertices[other_vid]
                self._remove_reciprocal_slot(other, txv.vid, slot)
                self._mark_dirty(other)
        txv.holder.edges.clear()
        txv.deleted = True
        self._mark_dirty(txv)

    # -- vertex mutation helpers (used by VertexHandle) ---------------------------------------
    def _mutate(self, txv: _TxVertex) -> VertexHolder:
        self._check_open()
        self._check_write()
        if txv.deleted:
            raise GdiNotFound("vertex deleted in this transaction")
        self._ensure_lock(txv, want_write=True)
        self._ensure_parts(txv, NEED_ALL)
        self._mark_dirty(txv)
        return txv.holder

    # -- edges ------------------------------------------------------------------------------------
    def create_edge(
        self,
        src: "VertexHandle",
        dst: "VertexHandle",
        *,
        label: Label | None = None,
        directed: bool = True,
        labels: Iterable[Label] = (),
        properties: Iterable[tuple[PropertyType, Any]] = (),
        force_heavy: bool = False,
    ) -> "EdgeHandle":
        """``GDI_CreateEdge``.

        Becomes a *lightweight* edge (stored inline in the source holder,
        at most one label, no properties — Section 5.4.2) whenever
        possible; otherwise (or when ``force_heavy``) a heavyweight edge
        holder is created.
        """
        self._check_open()
        self._check_write()
        if src._tx is not self or dst._tx is not self:
            raise GdiObjectMismatch("handles belong to another transaction")
        label_list = list(labels)
        if label is not None:
            label_list.insert(0, label)
        props = [
            (pt, self._encode_property(pt, value)) for pt, value in properties
        ]
        heavy = force_heavy or bool(props) or len(label_list) > 1
        src_holder = self._mutate(src._txv)
        dst_txv = dst._txv
        if heavy:
            home = unpack_dptr(src._txv.vid).rank
            edge_holder = EdgeHolder(
                src=src._txv.vid,
                dst=dst_txv.vid,
                directed=directed,
                labels=[l.int_id for l in label_list],
                properties=[(pt.int_id, blob) for pt, blob in props],
            )
            eptr = self._acquire_or_fail(home)
            self._edges[eptr] = _TxEdge(
                dptr=eptr,
                stored=StoredHolder(holder=edge_holder, primary=eptr),
                created=True,
                dirty=True,
            )
            fwd = EdgeSlot(eptr, 0, (DIR_OUT if directed else DIR_UNDIR) | SLOT_HEAVY)
            rev = EdgeSlot(eptr, 0, (DIR_IN if directed else DIR_UNDIR) | SLOT_HEAVY)
        else:
            lid = label_list[0].int_id if label_list else 0
            fwd = EdgeSlot(dst_txv.vid, lid, DIR_OUT if directed else DIR_UNDIR)
            rev = EdgeSlot(src._txv.vid, lid, DIR_IN if directed else DIR_UNDIR)
        src_holder.edges.append(fwd)
        if dst_txv.vid != src._txv.vid:
            dst_holder = self._mutate(dst_txv)
            dst_holder.edges.append(rev)
        elif directed:
            # directed self-loop: the vertex sees it both outgoing and
            # incoming; undirected self-loops keep a single slot.
            src_holder.edges.append(rev)
        return EdgeHandle(self, src._txv, fwd)

    def associate_edge(self, uid: bytes) -> "EdgeHandle":
        """``GDI_AssociateEdge``: resolve a 12-byte edge UID to a handle."""
        self._check_open()
        vid, slot_idx = unpack_edge_uid(uid)
        txv = self._load_vertex(vid, for_write=False)
        if slot_idx >= len(txv.holder.edges):
            raise GdiNotFound(f"edge slot {slot_idx} out of range")
        return EdgeHandle(self, txv, txv.holder.edges[slot_idx])

    def delete_edge(self, handle: "EdgeHandle") -> None:
        """``GDI_FreeEdge`` (delete): remove both endpoint slots."""
        self._check_open()
        self._check_write()
        txv = handle._base
        slot = handle._slot
        holder = self._mutate(txv)
        removed = _remove_by_identity(holder.edges, slot)
        if not removed:
            raise GdiNotFound("edge already removed in this transaction")
        other_vid = self._slot_other_endpoint(txv.vid, slot)
        if slot.heavy:
            self._mark_edge_holder_deleted(slot.dptr)
        if other_vid != txv.vid:
            other = self._load_vertex(other_vid, for_write=True)
            self._remove_reciprocal_slot(other, txv.vid, slot)
            self._mark_dirty(other)
        elif slot.direction != DIR_UNDIR:
            # directed self-loop: drop the complementary slot too
            self._remove_reciprocal_slot(txv, txv.vid, slot)

    def bulk_append_half_edge(
        self,
        vid: int,
        other_vid: int,
        direction: int,
        label_id: int = 0,
        heavy_dptr: int | None = None,
        other_app_id: int | None = None,
    ) -> None:
        """Bulk-ingestion fast path: append one edge slot to ``vid``.

        Used by the bulk data-loading collectives (Section 4, BULK): the
        loader exchanges edges so that each rank appends only to vertices
        it owns, making lock-free collective write transactions safe.  The
        caller is responsible for appending the reciprocal slot on the
        other endpoint (usually in a second exchange phase).  When
        ``heavy_dptr`` is given the slot references that heavyweight edge
        holder instead of the neighbor vertex.  Pass ``other_app_id``
        (the loader already knows it) so commit logging resolves the
        neighbor's application ID without a remote read.
        """
        if not self.collective:
            raise GdiStateError(
                "bulk_append_half_edge requires a collective transaction"
            )
        txv = self._load_vertex(vid, for_write=True)
        if heavy_dptr is not None:
            slot = EdgeSlot(heavy_dptr, 0, direction | SLOT_HEAVY)
        else:
            slot = EdgeSlot(other_vid, label_id, direction)
            if other_app_id is not None:
                self._bulk_slot_apps[id(slot)] = int(other_app_id)
        txv.holder.edges.append(slot)
        self._mark_dirty(txv)

    def bulk_create_edge_holder(
        self,
        src_vid: int,
        dst_vid: int,
        *,
        directed: bool = True,
        labels: Iterable[Label] = (),
        properties: Iterable[tuple[PropertyType, Any]] = (),
        src_app_id: int | None = None,
        dst_app_id: int | None = None,
    ) -> int:
        """Bulk-ingestion fast path: materialize a heavyweight edge holder.

        Returns its DPtr; the caller routes it to both endpoints' owners,
        which attach the slots with :meth:`bulk_append_half_edge`.  Pass
        the endpoint application IDs (the loader already knows them) so
        commit logging needs no remote reads to resolve them.
        """
        if not self.collective:
            raise GdiStateError(
                "bulk_create_edge_holder requires a collective transaction"
            )
        self._check_open()
        self._check_write()
        props = [
            (pt.int_id, self._encode_property(pt, value))
            for pt, value in properties
        ]
        holder = EdgeHolder(
            src=src_vid,
            dst=dst_vid,
            directed=directed,
            labels=[l.int_id for l in labels],
            properties=props,
        )
        eptr = self._acquire_or_fail(unpack_dptr(src_vid).rank)
        self._edges[eptr] = _TxEdge(
            dptr=eptr,
            stored=StoredHolder(holder=holder, primary=eptr),
            created=True,
            dirty=True,
            app_ids=(
                (int(src_app_id), int(dst_app_id))
                if src_app_id is not None and dst_app_id is not None
                else None
            ),
        )
        return eptr

    def _slot_other_endpoint(self, base_vid: int, slot: EdgeSlot) -> int:
        if not slot.heavy:
            return slot.dptr
        e = self._load_edge_holder(slot.dptr)
        h = e.holder
        return h.dst if h.src == base_vid else h.src

    def _remove_reciprocal_slot(
        self, other: _TxVertex, base_vid: int, slot: EdgeSlot
    ) -> None:
        """Remove one slot on ``other`` matching the reciprocal of ``slot``."""
        want_dir = _reciprocal_direction(slot.direction)
        for cand in other.holder.edges:
            if cand is slot:
                continue
            if slot.heavy:
                if cand.heavy and cand.dptr == slot.dptr:
                    _remove_by_identity(other.holder.edges, cand)
                    return
            elif (
                not cand.heavy
                and cand.dptr == base_vid
                and cand.label_id == slot.label_id
                and cand.direction == want_dir
            ):
                _remove_by_identity(other.holder.edges, cand)
                return
        # The reciprocal slot must exist if the graph is consistent.
        raise GdiStateError(
            f"reciprocal edge slot missing on vertex {other.vid:#x}"
        )

    # -- heavy edge holders -------------------------------------------------------------------------
    def _load_edge_holder(self, eptr: int) -> _TxEdge:
        txe = self._edges.get(eptr)
        if txe is not None:
            if txe.deleted:
                raise GdiNotFound("edge deleted in this transaction")
            return txe
        if self.snapshot:
            return self._snapshot_load_edge(eptr)
        stored = self.db.storage.read(self.ctx, eptr)
        if stored.holder.kind != 2:
            raise GdiObjectMismatch(f"{eptr:#x} is not an edge holder")
        txe = _TxEdge(dptr=eptr, stored=stored)
        if self.write and self.db.mvcc is not None:
            txe.mvcc_preimage = _frozen_copy(stored)
        self._edges[eptr] = txe
        return txe

    def _snapshot_load_edge(self, eptr: int) -> _TxEdge:
        """Lock-free heavyweight-edge load at the snapshot watermark
        (same visibility rule and retry shape as :meth:`_snapshot_load`)."""
        mvcc = self.db.mvcc
        w = self._snap.watermark
        trace = self.ctx.rt.trace
        for _ in range(4):
            hit, image = mvcc.versions.resolve(("e", eptr), w)
            if hit:
                trace.record_snapshot_read(self.ctx.rank)
                if image is None:
                    raise GdiNotFound(
                        f"edge holder {eptr:#x} absent at snapshot "
                        f"watermark {w}"
                    )
                txe = _TxEdge(dptr=eptr, stored=image)
                self._edges[eptr] = txe
                return txe
            try:
                stored = self.db.storage.read_many(
                    self.ctx, [eptr], missing_ok=True
                )[0]
            except GdiChecksumError:
                continue  # torn read: the writer installed its pre-image
            if stored is None:
                if mvcc.versions.covered(("e", eptr), w):
                    continue  # deleted after W mid-read; chain serves
                raise GdiNotFound(
                    f"edge holder {eptr:#x} absent at snapshot watermark {w}"
                )
            if stored.version > w:
                continue  # rewritten after the watermark: re-resolve
            if stored.holder.kind != 2:
                if mvcc.versions.covered(("e", eptr), w):
                    continue  # block reused; the chain serves W
                raise GdiObjectMismatch(f"{eptr:#x} is not an edge holder")
            trace.record_snapshot_read(self.ctx.rank)
            txe = _TxEdge(dptr=eptr, stored=stored)
            self._edges[eptr] = txe
            return txe
        raise GdiStateError(
            f"snapshot read of edge holder {eptr:#x} did not stabilize "
            f"after 4 attempts (watermark {w})"
        )

    def _mark_edge_holder_deleted(self, eptr: int) -> None:
        txe = self._load_edge_holder(eptr)
        txe.deleted = True
        txe.dirty = True

    # -- property encoding with the Section 3.7 hints ---------------------------------------------------
    def _encode_property(self, ptype: PropertyType, value: Any) -> bytes:
        blob = encode_value(ptype.dtype, value)
        n = value_nbytes(ptype.dtype, value)
        if ptype.size_type == SizeType.FIXED and n != ptype.size_limit:
            raise GdiSizeLimit(
                f"{ptype.name}: value size {n} != fixed size {ptype.size_limit}"
            )
        if ptype.size_type == SizeType.MAX and n > ptype.size_limit:
            raise GdiSizeLimit(
                f"{ptype.name}: value size {n} exceeds limit {ptype.size_limit}"
            )
        return blob

    # -- commit / abort ------------------------------------------------------------------------------------
    def commit(self) -> None:
        """``GDI_CloseTransaction``: write back, publish, unlock."""
        self._check_open()
        if self.collective:
            self.ctx.barrier()
        stats = self.db.stats[self.ctx.rank]
        try:
            if self.write:
                self._commit_writes()
        except BaseException:
            self._abort_logged_commit()
            self._release_locks()
            self._close_snapshot()
            self.open = False
            stats.aborted += 1
            if self.failed:
                stats.failed += 1
                stats.count_failure(self.fail_cause or "other")
            raise
        self._release_locks()
        self._close_snapshot()
        self.open = False
        stats.committed += 1
        if self.collective:
            self.db.dht.quiesce(self.ctx)

    def _commit_writes(self) -> None:
        ctx = self.ctx
        # Final uniqueness validation of created application IDs, one
        # batched DHT lookup for all of them.
        created_ids = list(self._created_app_ids)
        if created_ids:
            found = self.db.dht.lookup_many(ctx, created_ids)
            for app_id, existing in zip(created_ids, found):
                if existing is not None and not self._deleted_in_txn(existing):
                    self._rollback_created()
                    self._fail("nonunique")
                    raise GdiNonUniqueId(
                        f"application ID {app_id} concurrently created"
                    )
        replica = self.db.replica(ctx)
        # Entry pass (no writes): partition the vertex cache and derive
        # the replayable commit-log entries before anything is applied.
        deletes: list[tuple] = []
        upserts: list[tuple] = []
        ordered = sorted(self._vertices.values(), key=lambda t: not t.deleted)
        survivors: list[_TxVertex] = []
        for txv in ordered:
            if txv.deleted and txv.created:
                continue
            if txv.deleted:
                deletes.append(("del_v", txv.holder.app_id))
            elif txv.created or txv.dirty:
                survivors.append(txv)
                holder = txv.holder
                upserts.append(
                    (
                        "new_v" if txv.created else "upd_v",
                        holder.app_id,
                        tuple(
                            replica.label_by_id(l).name for l in holder.labels
                        ),
                        tuple(
                            (replica.ptype_by_id(pid).name, bytes(blob))
                            for pid, blob in holder.properties
                        ),
                    )
                )
        edge_rm, edge_add = self._edge_log_entries(replica, survivors)
        log_entries = tuple(deletes + upserts + edge_rm + edge_add)
        # Log-first commit: publish the commit intent, append the record,
        # note its sequence.  No one-sided operation separates the three
        # steps, so a crashed rank left its intent published exactly when
        # its last record may be only partially applied — the failover
        # healer rolls that record forward idempotently, which is what
        # bounds backups to at most one commit behind.
        repl = self.db.replication
        seq: int | None = None
        if log_entries and not self._no_log:
            if repl is not None:
                repl.begin_commit(ctx.rank, log_entries)
            seq = self.db.log_commit(ctx.rank, log_entries)
            self._logged_seq = seq
            if repl is not None:
                repl.note_logged(ctx.rank, seq)
        # MVCC: allocate the commit timestamp (right after the log
        # append, while every write lock is still held, so timestamp
        # order is the serialization order) and install the pre-image
        # version chains BEFORE any live block is touched — a snapshot
        # reader that observes a too-new header version is then
        # guaranteed to find its state in the chain.  Failover redo
        # replays (``_no_log``) re-install under a fresh timestamp.
        mvcc = self.db.mvcc
        ts = 0
        if mvcc is not None:
            mutated = (
                bool(survivors)
                or bool(deletes)
                or any(
                    txe.created or txe.dirty or txe.deleted
                    for txe in self._edges.values()
                )
            )
            if mutated:
                ts = mvcc.begin_commit(ctx.rank)
                self._commit_ts = ts
                installed = 0
                for txv in ordered:
                    if txv.deleted and txv.created:
                        continue
                    if txv.deleted:
                        if mvcc.versions.install(
                            ("v", txv.vid), ts, txv.mvcc_preimage
                        ):
                            installed += 1
                        mvcc.note_unpublished(
                            txv.holder.app_id,
                            txv.vid,
                            unpack_dptr(txv.vid).rank,
                            ts,
                        )
                    elif txv.created:
                        # absent before this commit
                        if mvcc.versions.install(("v", txv.vid), ts, None):
                            installed += 1
                        txv.stored.version = ts
                    elif txv.dirty:
                        if mvcc.versions.install(
                            ("v", txv.vid), ts, txv.mvcc_preimage
                        ):
                            installed += 1
                        txv.stored.version = ts
                for txe in self._edges.values():
                    if txe.created and txe.deleted:
                        continue
                    if txe.deleted:
                        if mvcc.versions.install(
                            ("e", txe.dptr), ts, txe.mvcc_preimage
                        ):
                            installed += 1
                    elif txe.created:
                        if mvcc.versions.install(("e", txe.dptr), ts, None):
                            installed += 1
                        txe.stored.version = ts
                    elif txe.dirty:
                        if mvcc.versions.install(
                            ("e", txe.dptr), ts, txe.mvcc_preimage
                        ):
                            installed += 1
                        txe.stored.version = ts
                if installed:
                    ctx.rt.trace.record_versions_installed(
                        ctx.rank, installed
                    )
        # Apply phase.  Heavy edge holders first so endpoint slots never
        # dangle; all dirty edge holders write back in one batched flush,
        # and all deleted ones clear their headers in another.
        edge_rewrites: list[StoredHolder] = []
        edge_deletes: list[StoredHolder] = []
        for txe in self._edges.values():
            if txe.deleted:
                if txe.created:
                    self.db.blocks.release_block(ctx, txe.stored.primary)
                else:
                    edge_deletes.append(txe.stored)
            elif txe.dirty:
                edge_rewrites.append(txe.stored)
        self.db.storage.delete_many(ctx, edge_deletes)
        self.db.storage.rewrite_many(ctx, edge_rewrites)
        vertex_deletes: list[StoredHolder] = []
        for txv in ordered:
            if txv.deleted and txv.created:
                self.db.blocks.release_block(ctx, txv.stored.primary)
                continue
            if txv.deleted:
                # Unpublish (DHT, directory, indexes) BEFORE freeing the
                # blocks: a concurrent create may otherwise reuse the
                # primary block and have its fresh directory entry removed
                # by this very deletion.
                self.db.dht.delete(ctx, txv.holder.app_id)
                self.db.directory.remove(
                    ctx,
                    txv.vid,
                    labels=(
                        txv.label_preimage
                        if txv.label_preimage is not None
                        else txv.holder.labels
                    ),
                )
                self._apply_index_updates(txv, deleted=True)
                vertex_deletes.append(txv.stored)
        self.db.storage.delete_many(ctx, vertex_deletes)
        # One batched write-back for every created/dirty vertex holder:
        # block writes of all holders coalesce per home rank and complete
        # at a single flush (deletions above already freed their blocks,
        # so grown holders can reuse them).  Publication (DHT, directory,
        # indexes) follows the write-back, as in the scalar path.
        self.db.storage.rewrite_many(
            ctx, [txv.stored for txv in survivors]
        )
        for txv in survivors:
            if txv.created:
                self.db.dht.insert(ctx, txv.holder.app_id, txv.vid)
                self.db.directory.add(
                    ctx, txv.vid, labels=txv.holder.labels
                )
            elif txv.label_preimage is not None:
                self.db.directory.update_labels(
                    ctx, txv.vid, txv.label_preimage, txv.holder.labels
                )
            self._apply_index_updates(txv)
        if repl is not None:
            repl.commit_mirrors(ctx, seq)
        # Fully applied (and mirrored): the record is now permanent, a
        # later failure (e.g. during lock release) must not tombstone it.
        self._logged_seq = None
        if mvcc is not None and ts:
            mvcc.note_applied(ts)
            self._commit_ts = None
            mvcc.maybe_collect(ctx)

    def _abort_logged_commit(self) -> None:
        """Withdraw a commit that failed between log append and apply end.

        The log-first protocol appends the record before applying the
        writes; an apply failure (fenced mid-commit by a failover, lock
        trouble, out of blocks) aborts the transaction, so its record is
        tombstoned (entries cleared) to keep replay equal to the committed
        state, and any staged mirror traffic is withdrawn.
        """
        if self._logged_seq is not None:
            self.db.commit_log.mark_aborted(self._logged_seq)
            self._logged_seq = None
        if self._commit_ts is not None and self.db.mvcc is not None:
            # Retire the timestamp so the watermark is never pinned by an
            # aborted commit.  Its chain entries stay: they correctly
            # record the pre-abort state, and snapshots below the ts read
            # through them even when the apply was partial (the same
            # roll-forward semantics the failover healer provides for
            # the live blocks).
            self.db.mvcc.note_applied(self._commit_ts)
            self._commit_ts = None
        if self.db.replication is not None and self.write:
            self.db.replication.abort_commit(self.ctx)

    def _edge_log_entries(
        self, replica, survivors: "list[_TxVertex]"
    ) -> tuple[list[tuple], list[tuple]]:
        """Replayable edge entries: identity-diff of slots vs. load time.

        Each logical edge is emitted exactly once, from its canonical
        side, matching :func:`repro.gda.checkpoint.snapshot`: the OUT
        slot for directed edges, the smaller application-ID endpoint for
        undirected ones.  Edges whose other endpoint is deleted in this
        transaction are skipped — their ``del_v`` entry removes incident
        edges on replay.  Heavyweight edges are logged from the cached
        edge holders instead of the slots.
        """
        edge_rm: list[tuple] = []
        edge_add: list[tuple] = []

        def emit(out: list[tuple], tag: str, txv: _TxVertex, slot) -> None:
            direction = slot.direction
            if slot.heavy or direction == DIR_IN:
                return
            if self._deleted_in_txn(slot.dptr):
                return
            app = txv.holder.app_id
            other_app = self._bulk_slot_apps.get(id(slot))
            if other_app is None:
                other_app = self._log_app_of(slot.dptr)
            if direction == DIR_UNDIR and app > other_app:
                return  # the smaller endpoint's side emits
            label_name = (
                replica.label_by_id(slot.label_id).name
                if slot.label_id
                else None
            )
            out.append((tag, app, other_app, direction == DIR_OUT, label_name))

        for txv in survivors:
            pre = txv.edge_preimage if txv.edge_preimage is not None else []
            cur = txv.holder.edges
            pre_ids = {id(s) for s in pre}
            cur_ids = {id(s) for s in cur}
            for slot in pre:
                if id(slot) not in cur_ids:
                    emit(edge_rm, "edge-", txv, slot)
            for slot in cur:
                if id(slot) not in pre_ids:
                    emit(edge_add, "edge+", txv, slot)
        for txe in self._edges.values():
            h = txe.holder
            if txe.created and txe.deleted:
                continue
            if not (txe.created or txe.deleted or txe.dirty):
                continue
            if self._deleted_in_txn(h.src) or self._deleted_in_txn(h.dst):
                continue  # del_v covers the removal on replay
            if txe.app_ids is not None:
                src_app, dst_app = txe.app_ids
            else:
                src_app = self._log_app_of(h.src)
                dst_app = self._log_app_of(h.dst)
            if txe.deleted:
                edge_rm.append(("hedge-", src_app, dst_app, h.directed))
                continue
            label_names = tuple(
                replica.label_by_id(l).name for l in h.labels
            )
            props = tuple(
                (replica.ptype_by_id(pid).name, bytes(blob))
                for pid, blob in h.properties
            )
            tag = "hedge+" if txe.created else "hedge*"
            edge_add.append(
                (tag, src_app, dst_app, h.directed, label_names, props)
            )
        return edge_rm, edge_add

    def _log_app_of(self, vid: int) -> int:
        """Application ID of ``vid`` for commit logging.

        Served from the transaction cache in every ordinary path (both
        endpoints of a mutated edge are cached); the storage read is a
        fallback for exotic callers only.
        """
        txv = self._vertices.get(vid)
        if txv is not None:
            return txv.holder.app_id
        return self.db.storage.read(self.ctx, vid).holder.app_id

    def _apply_index_updates(self, txv: _TxVertex, deleted: bool = False) -> None:
        dtype_of = self.db.replica(self.ctx).dtype_of
        for name, idx in self.db.indexes.items():
            before = txv.index_preimage.get(name, False)
            after = False if deleted else idx.matches(txv.holder, dtype_of)
            idx.update_on_commit(self.ctx, txv.vid, before, after)
        for name, eidx in self.db.edge_indexes.items():
            before = txv.edge_index_preimage.get(name, False)
            after = False if deleted else eidx.source_matches(self, txv)
            eidx.update_on_commit(self.ctx, txv.vid, before, after)

    def _rollback_created(self) -> None:
        mem = self._mem
        created = [
            t.stored.primary for t in self._vertices.values() if t.created
        ] + [t.stored.primary for t in self._edges.values() if t.created]
        for primary in created:
            if (
                mem is not None
                and mem.rehosted_at[unpack_dptr(primary).rank]
                > self._start_epoch
            ):
                # The shard was rebuilt after this transaction allocated
                # the block: the free-list reconstruction (complement of
                # the mirrored live set) already reclaimed it, a release
                # now would double-free.
                continue
            try:
                self.db.blocks.release_block(self.ctx, primary)
            except RmaStaleEpoch:
                # Fenced: the shard reconfigured since the allocation, so
                # the rebuild reclaimed the block (see above).
                pass

    def abort(self) -> None:
        """``GDI_AbortTransaction``: discard all local changes."""
        if not self.open:
            raise GdiStateError("transaction already closed")
        self._abort_logged_commit()
        self._rollback_created()
        self._release_locks()
        self._close_snapshot()
        self.open = False
        stats = self.db.stats[self.ctx.rank]
        stats.aborted += 1
        if self.failed:
            stats.failed += 1
            stats.count_failure(self.fail_cause or "other")
        if self.collective:
            self.ctx.barrier()


def _reciprocal_direction(direction: int) -> int:
    if direction == DIR_OUT:
        return DIR_IN
    if direction == DIR_IN:
        return DIR_OUT
    return DIR_UNDIR


def _remove_by_identity(slots: list[EdgeSlot], victim: EdgeSlot) -> bool:
    for i, s in enumerate(slots):
        if s is victim:
            del slots[i]
            return True
    return False


class VertexHandle:
    """Opaque per-process vertex access object (Section 3.5)."""

    __slots__ = ("_tx", "_txv")

    def __init__(self, tx: Transaction, txv: _TxVertex) -> None:
        self._tx = tx
        self._txv = txv

    # handles support assignment/comparison per the spec
    def __eq__(self, other: object) -> bool:
        return isinstance(other, VertexHandle) and other._txv is self._txv

    def __hash__(self) -> int:
        return hash(id(self._txv))

    @property
    def vid(self) -> int:
        """The internal ID (64-bit DPtr) this handle is associated with."""
        return self._txv.vid

    @property
    def app_id(self) -> int:
        return self._holder().app_id

    def _holder(self, need: int = 0) -> VertexHolder:
        """Read access guard: transaction open, vertex not deleted.

        ``need`` names the holder parts this accessor is about to touch;
        vertices loaded through a projected read are hydrated on demand.
        """
        self._tx._check_open()
        if self._txv.deleted:
            raise GdiNotFound("vertex deleted in this transaction")
        if need:
            self._tx._ensure_parts(self._txv, need)
        return self._txv.holder

    # -- labels ------------------------------------------------------------
    def labels(self) -> list[Label]:
        """``GDI_GetAllLabelsOfVertex``."""
        replica = self._tx.db.replica(self._tx.ctx)
        return [
            replica.label_by_id(i)
            for i in self._holder(NEED_ENTRIES).labels
        ]

    def has_label(self, label: Label) -> bool:
        return label.int_id in self._holder(NEED_ENTRIES).labels

    def add_label(self, label: Label) -> None:
        """``GDI_AddLabelToVertex`` (idempotent)."""
        holder = self._tx._mutate(self._txv)
        if label.int_id not in holder.labels:
            holder.labels.append(label.int_id)

    def remove_label(self, label: Label) -> None:
        holder = self._tx._mutate(self._txv)
        try:
            holder.labels.remove(label.int_id)
        except ValueError:
            raise GdiNotFound(
                f"vertex has no label {label.name!r}"
            ) from None

    # -- properties ---------------------------------------------------------
    def properties(self, ptype: PropertyType) -> list[Any]:
        """``GDI_GetPropertiesOfVertex``: all entries of one p-type."""
        return [
            decode_value(ptype.dtype, blob)
            for pid, blob in self._holder(NEED_ENTRIES).properties
            if pid == ptype.int_id
        ]

    def property(self, ptype: PropertyType) -> Any | None:
        """Single-entry convenience; ``None`` if absent."""
        vals = self.properties(ptype)
        return vals[0] if vals else None

    def all_properties(self) -> list[tuple[PropertyType, Any]]:
        replica = self._tx.db.replica(self._tx.ctx)
        out = []
        for pid, blob in self._holder(NEED_ENTRIES).properties:
            pt = replica.ptype_by_id(pid)
            out.append((pt, decode_value(pt.dtype, blob)))
        return out

    def set_property(self, ptype: PropertyType, value: Any) -> None:
        """``GDI_UpdatePropertyOfVertex``: replace all entries by one."""
        blob = self._tx._encode_property(ptype, value)
        holder = self._tx._mutate(self._txv)
        holder.properties = [
            (pid, b) for pid, b in holder.properties if pid != ptype.int_id
        ]
        holder.properties.append((ptype.int_id, blob))

    def add_property(self, ptype: PropertyType, value: Any) -> None:
        """``GDI_AddPropertyToVertex``: append an entry (MULTI p-types)."""
        blob = self._tx._encode_property(ptype, value)
        holder = self._tx._mutate(self._txv)
        if ptype.multiplicity == Multiplicity.SINGLE and any(
            pid == ptype.int_id for pid, _ in holder.properties
        ):
            raise GdiInvalidArgument(
                f"{ptype.name} is single-entry and already present"
            )
        holder.properties.append((ptype.int_id, blob))

    def remove_properties(self, ptype: PropertyType) -> int:
        holder = self._tx._mutate(self._txv)
        before = len(holder.properties)
        holder.properties = [
            (pid, b) for pid, b in holder.properties if pid != ptype.int_id
        ]
        return before - len(holder.properties)

    # -- edges ----------------------------------------------------------------
    def edges(
        self,
        orientation: EdgeOrientation = EdgeOrientation.ANY,
        constraint: Constraint | None = None,
    ) -> list["EdgeHandle"]:
        """``GDI_GetEdgesOfVertex`` with an optional constraint filter."""
        out = []
        for slot in self._holder(NEED_TOPO).edges:
            if not _orientation_matches(slot.direction, orientation):
                continue
            handle = EdgeHandle(self._tx, self._txv, slot)
            if constraint is not None and not handle._satisfies(constraint):
                continue
            out.append(handle)
        return out

    def neighbors(
        self,
        orientation: EdgeOrientation = EdgeOrientation.ANY,
        constraint: Constraint | None = None,
    ) -> list[int]:
        """``GDI_GetNeighborVerticesOfVertex``: neighbor internal IDs.

        Holders still in wire form take a vectorized path over the raw
        slot array (one numpy pass instead of per-slot ``EdgeHandle``
        objects); heavy slots or constraints beyond a single has-label
        fall back to the handle loop, which matches semantics exactly.
        """
        holder = self._holder(NEED_TOPO)
        lid: int | None = None
        if constraint is not None and not constraint.is_true():
            lid = _constraint_label_id(constraint)
            if lid is None:
                return [
                    e.other_endpoint()
                    for e in self.edges(orientation, constraint)
                ]
        if holder._edges is not None:
            # already materialized as slot objects: the scalar loop wins
            return [
                e.other_endpoint()
                for e in self.edges(orientation, constraint)
            ]
        dptr, label, flags = holder.edges_as_arrays()
        if np.any(flags & SLOT_HEAVY):
            return [
                e.other_endpoint()
                for e in self.edges(orientation, constraint)
            ]
        mask = _orientation_mask(flags, orientation)
        if lid is not None:
            mask = mask & (label == lid)
        return dptr[mask].tolist()

    def degree(self, orientation: EdgeOrientation = EdgeOrientation.ANY) -> int:
        holder = self._holder(NEED_TOPO)
        if holder._edges is None:
            _, _, flags = holder.edges_as_arrays()
            return int(np.count_nonzero(_orientation_mask(flags, orientation)))
        return sum(
            1
            for slot in holder.edges
            if _orientation_matches(slot.direction, orientation)
        )

    def delete(self) -> None:
        self._tx.delete_vertex(self)


class VertexScan(Sequence):
    """What :meth:`Transaction.associate_vertices` returns: one position
    per requested vertex ID, readable two ways.

    *As a sequence* it yields a :class:`VertexHandle` per position
    (``None`` where the vertex is missing), created when first asked for.

    *As columns* it answers for all positions at once: :attr:`present`,
    :attr:`app_ids`, :meth:`neighbors` (CSR), :meth:`has_label`,
    :meth:`property`.  Positions whose vertex is still a row of a
    columnar :class:`~repro.gda.holder.HolderBatch` (bulk scans of
    lock-free read transactions) are answered by array operations over
    the batch; every other position — cache entries of locking or write
    transactions, MVCC pre-images, rows with heavy edge slots — is
    answered through its handle, so both views always agree.
    """

    def __init__(self, tx: Transaction, vids: "list[int]") -> None:
        self._tx = tx
        self._vids = vids
        self._layout: "tuple[list, list] | None" = None  # see _sources

    # -- sequence of handles -------------------------------------------------
    def __len__(self) -> int:
        return len(self._vids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return self._handle(self._vids[i])

    def __iter__(self):
        return map(self._handle, self._vids)

    def _handle(self, vid: int) -> "VertexHandle | None":
        txv = self._tx._cached(vid)
        if txv is None or txv.deleted:
            return None
        return VertexHandle(self._tx, txv)

    def take(self, positions: np.ndarray) -> "VertexScan":
        """The scan of just these positions (no new reads)."""
        return VertexScan(
            self._tx, [self._vids[i] for i in positions.tolist()]
        )

    # -- columns ---------------------------------------------------------------
    @property
    def vids(self) -> np.ndarray:
        return np.asarray(self._vids, dtype=np.int64)

    def _sources(self, need: int) -> "tuple[list, list]":
        """Where each position's answer comes from: ``(batches, handles)``
        with ``batches`` a list of ``(batch, positions, rows)`` and
        ``handles`` a list of ``(position, handle)``.

        A position is answered from its batch row only if the batch
        fetched the holder parts in ``need``; a handle hydrates what it
        lacks.  Missing vertices appear in neither list.
        """
        if self._layout is None:
            tx = self._tx
            cache, scanned = tx._vertices, tx._scanned
            groups: dict[int, tuple] = {}
            handles = []
            for pos, vid in enumerate(self._vids):
                if vid in scanned:
                    batch, row, parts = scanned[vid]
                    group = groups.get(id(batch))
                    if group is None:
                        group = groups[id(batch)] = (batch, [], [], parts)
                    group[1].append(pos)
                    group[2].append(row)
                else:
                    txv = cache.get(vid)
                    if txv is not None and not txv.deleted:
                        handles.append((pos, VertexHandle(tx, txv)))
            self._layout = (
                [
                    (b, np.asarray(p, dtype=np.int64), np.asarray(r, dtype=np.int64), parts)
                    for b, p, r, parts in groups.values()
                ],
                handles,
            )
        batches = []
        handles = list(self._layout[1])
        for batch, pos, rows, parts in self._layout[0]:
            if (parts & need) == need:
                batches.append((batch, pos, rows))
            else:
                handles.extend((p, self[p]) for p in pos.tolist())
        return batches, handles

    def _column(self, dtype, need: int, of_batch, of_handle) -> np.ndarray:
        """One value per position: ``of_batch(batch)[rows]`` where the
        vertex is a batch row, ``of_handle(handle)`` elsewhere, zero
        where it is missing."""
        out = np.zeros(len(self._vids), dtype=dtype)
        batches, handles = self._sources(need)
        for batch, pos, rows in batches:
            out[pos] = of_batch(batch)[rows]
        for pos, handle in handles:
            out[pos] = of_handle(handle)
        return out

    @property
    def present(self) -> np.ndarray:
        """Per position: was the vertex found?"""
        return self._column(
            bool, NEED_IDENT, lambda b: b.present, lambda h: True
        )

    @property
    def app_ids(self) -> np.ndarray:
        """Per position: the application ID (0 where missing)."""
        return self._column(
            np.int64, NEED_IDENT, lambda b: b.app_id, lambda h: h.app_id
        )

    def has_label(self, label: Label) -> np.ndarray:
        """Per position: does the vertex carry ``label``?"""
        return self._column(
            bool,
            NEED_ENTRIES,
            lambda b: b.has_label(label.int_id),
            lambda h: h.has_label(label),
        )

    def property(self, ptype: PropertyType) -> "list[Any | None]":
        """Per position: the (first) ``ptype`` value, ``None`` if absent."""
        out: list[Any | None] = [None] * len(self._vids)
        batches, handles = self._sources(NEED_ENTRIES)
        for batch, pos, rows in batches:
            has, offsets, lengths = batch.property_spans(ptype.int_id)
            offset_of = np.full(len(batch), -1, dtype=np.int64)
            offset_of[has] = offsets
            length_of = np.zeros(len(batch), dtype=np.int64)
            length_of[has] = lengths
            at = offset_of[rows]
            found = at >= 0
            buf = memoryview(batch.span)
            for p, a, n in zip(
                pos[found].tolist(),
                at[found].tolist(),
                length_of[rows][found].tolist(),
            ):
                out[p] = decode_value(ptype.dtype, bytes(buf[a : a + n]))
        for pos, handle in handles:
            out[pos] = handle.property(ptype)
        return out

    def neighbors(
        self,
        orientation: EdgeOrientation = EdgeOrientation.ANY,
        label: Label | None = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(indptr, vids)``: the neighbor internal IDs of every
        position as CSR — position ``i`` owns
        ``vids[indptr[i]:indptr[i + 1]]``, in slot order, restricted to
        ``orientation`` and (optionally) to edges labelled ``label``.

        The per-position answer is :meth:`VertexHandle.neighbors`; batch
        rows get it from one mask over the concatenated slot array.
        Rows with a heavy slot (whose neighbor sits behind an edge
        holder) take the handle path.
        """
        n = len(self._vids)
        batches, handles = self._sources(NEED_TOPO)
        owners: list[np.ndarray] = []
        found: list[np.ndarray] = []
        for batch, pos, rows in batches:
            indptr, slots = batch.slot_columns()
            degree = np.diff(indptr)[rows]
            at = ragged_index(indptr[rows], degree)
            owner = np.repeat(pos, degree)
            flags = slots["flags"][at]
            mask = _orientation_mask(flags, orientation)
            if label is not None:
                mask &= slots["label"][at] == label.int_id
            heavy = np.unique(owner[(flags & SLOT_HEAVY) != 0])
            if heavy.size:
                mask &= ~np.isin(owner, heavy)
                handles.extend((p, self[p]) for p in heavy.tolist())
            owners.append(owner[mask])
            found.append(slots["dptr"][at][mask])
        constraint = (
            Constraint.has_label(label.int_id) if label is not None else None
        )
        for pos, handle in handles:
            nbrs = handle.neighbors(orientation, constraint)
            owners.append(np.full(len(nbrs), pos, dtype=np.int64))
            found.append(np.asarray(nbrs, dtype=np.int64))
        owner = np.concatenate(owners) if owners else np.empty(0, np.int64)
        vids = np.concatenate(found) if found else np.empty(0, np.int64)
        if (owner[1:] < owner[:-1]).any():
            # several sources interleave: a stable sort brings the entries
            # into position order and keeps each position's slot order
            vids = vids[np.argsort(owner, kind="stable")]
        return csr_indptr(np.bincount(owner, minlength=n)), vids


def _orientation_matches(direction: int, wanted: EdgeOrientation) -> bool:
    if direction == DIR_OUT:
        return bool(wanted & EdgeOrientation.OUTGOING)
    if direction == DIR_IN:
        return bool(wanted & EdgeOrientation.INCOMING)
    return bool(
        wanted
        & (
            EdgeOrientation.UNDIRECTED
            | EdgeOrientation.OUTGOING
            | EdgeOrientation.INCOMING
        )
    )


def _orientation_mask(flags: np.ndarray, wanted: EdgeOrientation) -> np.ndarray:
    """Vectorized :func:`_orientation_matches` over a slot flags array."""
    d = flags & DIR_MASK
    want_out = bool(wanted & EdgeOrientation.OUTGOING)
    want_in = bool(wanted & EdgeOrientation.INCOMING)
    want_any = want_out or want_in or bool(wanted & EdgeOrientation.UNDIRECTED)
    return (
        ((d == DIR_OUT) & want_out)
        | ((d == DIR_IN) & want_in)
        | ((d == DIR_UNDIR) & want_any)
    )


def _constraint_label_id(constraint: Constraint) -> int | None:
    """The label ID of a plain has-label constraint, else ``None``.

    Only the exact shape produced by :meth:`Constraint.has_label` (one
    conjunction, one present-label condition) is vectorizable against the
    slot label column; anything else goes through full DNF evaluation.
    """
    if len(constraint.conjunctions) != 1:
        return None
    conj = constraint.conjunctions[0]
    if len(conj) != 1:
        return None
    cond = conj[0]
    if (
        isinstance(cond, LabelCondition)
        and cond.present
        and cond.label_id > 0
    ):
        return cond.label_id
    return None


class EdgeHandle:
    """Opaque per-process edge access object.

    Valid only within its transaction (edge UIDs are volatile: the slot
    offset may change when the source holder is rewritten, Section 3.4).
    """

    __slots__ = ("_tx", "_base", "_slot")

    def __init__(self, tx: Transaction, base: _TxVertex, slot: EdgeSlot) -> None:
        self._tx = tx
        self._base = base
        self._slot = slot

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EdgeHandle) and other._slot is self._slot

    def __hash__(self) -> int:
        return hash(id(self._slot))

    @property
    def uid(self) -> bytes:
        """The 12-byte edge UID (Section 5.4.2), relative to the base vertex."""
        for idx, s in enumerate(self._base.holder.edges):
            if s is self._slot:  # identity, not value equality
                return pack_edge_uid(self._base.vid, idx)
        raise GdiNotFound("edge slot no longer present on its base vertex")

    @property
    def heavy(self) -> bool:
        return self._slot.heavy

    @property
    def directed(self) -> bool:
        if self._slot.heavy:
            return self._tx._load_edge_holder(self._slot.dptr).holder.directed
        return self._slot.direction != DIR_UNDIR

    def endpoints(self) -> tuple[int, int]:
        """``GDI_GetVerticesOfEdge``: (origin vid, target vid)."""
        base_vid = self._base.vid
        if self._slot.heavy:
            h = self._tx._load_edge_holder(self._slot.dptr).holder
            return h.src, h.dst
        if self._slot.direction == DIR_IN:
            return self._slot.dptr, base_vid
        return base_vid, self._slot.dptr

    def other_endpoint(self) -> int:
        return self._tx._slot_other_endpoint(self._base.vid, self._slot)

    # -- labels -----------------------------------------------------------
    def labels(self) -> list[Label]:
        """``GDI_GetAllLabelsOfEdge``."""
        replica = self._tx.db.replica(self._tx.ctx)
        return [replica.label_by_id(i) for i in self._label_ids()]

    def _label_ids(self) -> list[int]:
        if self._slot.heavy:
            return list(self._tx._load_edge_holder(self._slot.dptr).holder.labels)
        return [self._slot.label_id] if self._slot.label_id else []

    def has_label(self, label: Label) -> bool:
        return label.int_id in self._label_ids()

    # -- properties (heavyweight edges only, Section 5.4.2) -----------------
    def properties(self, ptype: PropertyType) -> list[Any]:
        if not self._slot.heavy:
            return []  # lightweight edges carry no properties
        holder = self._tx._load_edge_holder(self._slot.dptr).holder
        return [
            decode_value(ptype.dtype, blob)
            for pid, blob in holder.properties
            if pid == ptype.int_id
        ]

    def property(self, ptype: PropertyType) -> Any | None:
        vals = self.properties(ptype)
        return vals[0] if vals else None

    def set_property(self, ptype: PropertyType, value: Any) -> None:
        """``GDI_UpdatePropertyOfEdge`` (heavyweight edges only)."""
        if not self._slot.heavy:
            raise GdiInvalidArgument(
                "lightweight edges cannot carry properties; recreate the "
                "edge with properties to make it heavyweight"
            )
        self._tx._check_write()
        # guard via the source vertex's lock (one lock per vertex, 5.6)
        self._tx._mutate(self._base)
        blob = self._tx._encode_property(ptype, value)
        txe = self._tx._load_edge_holder(self._slot.dptr)
        txe.holder.properties = [
            (pid, b) for pid, b in txe.holder.properties if pid != ptype.int_id
        ]
        txe.holder.properties.append((ptype.int_id, blob))
        txe.dirty = True

    def _satisfies(self, constraint: Constraint) -> bool:
        if self._slot.heavy:
            h = self._tx._load_edge_holder(self._slot.dptr).holder
            labels, props = h.labels, h.properties
        else:
            labels, props = self._label_ids(), []
        return constraint.evaluate(
            labels, props, self._tx.db.replica(self._tx.ctx).dtype_of
        )

    def delete(self) -> None:
        self._tx.delete_edge(self)
