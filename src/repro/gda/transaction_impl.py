"""GDA transactions: 2-phase RW locking, local caches, commit/abort.

Implements Sections 3.3-3.5 and 5.6 of the paper:

* **Local transactions** run on one process; **collective transactions**
  actively involve every rank (OLAP/OLSP).  Both come in read-only and
  write flavours.
* All changes are **visible only locally** until commit: the transaction
  state caches vertex/edge holders in hash maps keyed by internal ID and
  marks the dirty ones, the bookkeeping structure mix the paper calls
  out as a major design choice.
* **ACI** via two-phase reader-writer locking with one lock word per
  vertex (:mod:`repro.gda.locks`), held in a per-transaction lock table.
  Lock acquisition is try-lock with a bounded retry budget; exhaustion
  raises :class:`~repro.gdi.errors.GdiLockFailed`, a transaction-critical
  error — the transaction is guaranteed to fail and the caller must abort
  and start a new one.  These aborts are the paper's "failed
  transactions".
* Collective and snapshot transactions are lock-free; how each kind of
  transaction reads a stable holder is its read view
  (:mod:`repro.gda.readview`).
* Commit is a fixed sequence of stages (:mod:`repro.gda.commit`).
* **Handles** and volatile IDs (Sections 3.4-3.5) live in
  :mod:`repro.gda.handles` and are re-exported here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Container, Iterable

import numpy as np

from ..gdi.errors import (
    GdiLockFailed,
    GdiNoMemory,
    GdiNonUniqueId,
    GdiNotFound,
    GdiObjectMismatch,
    GdiReadOnly,
    GdiStaleDptr,
    GdiStateError,
)
from ..rma.faults import RmaStaleEpoch
from ..rma.membership import STABLE
from ..rma.runtime import RankContext
from . import commit as _commit
from .blocks import OutOfBlocksError
from .commit import _TxEdge, _TxVertex
from .dptr import unpack_dptr, unpack_edge_uid
from .handles import (
    EdgeHandle,
    VertexHandle,
    VertexScan,
    VolatileVertexId,
    encode_property,
    remove_reciprocal_slot,
)
from .holder import (
    DIR_IN,
    DIR_OUT,
    DIR_UNDIR,
    NEED_ALL,
    NEED_IDENT,
    SLOT_HEAVY,
    EdgeHolder,
    EdgeSlot,
    HolderBatch,
    StoredHolder,
    VertexHolder,
)
from .locks import (
    READ,
    UPGRADE,
    WRITE,
    Ledger,
    LockTimeout,
    acquire_read_batch,
    acquire_write_batch,
    release_batch,
    upgrade_batch,
)
from .metadata import Label, PropertyType
from .readview import ReadView

if TYPE_CHECKING:  # pragma: no cover
    from .database_impl import GdaDatabase

__all__ = [
    "Transaction",
    "VertexHandle",
    "VertexScan",
    "EdgeHandle",
    "VolatileVertexId",
]


class _LockTable:
    """The lock words one transaction holds, the only record of who holds
    them: the ledger ``vid -> (mode, epoch, (rank, offset))`` that the
    lock verbs of :mod:`repro.gda.locks` write, ``mode`` one of
    :data:`~repro.gda.locks.READ`, ``WRITE`` and ``BACKOUT``.

    One RW lock word per vertex (Section 5.6), at
    :meth:`~repro.gda.blocks.BlockManager.lock_location`, taken try-lock
    style and kept until the transaction ends (two-phase locking).  With
    replication on, a table holding words is listed in its rank's
    ``db.lock_tables``: the failover healer backs out what a dead rank's
    open tables hold, and sets what live ones hold on its shard again.
    ``epoch`` is the membership epoch read before the call that took the
    word, or by that repair.  Collective and snapshot transactions are
    lock-free: their table stays empty.
    """

    def __init__(self, tx: "Transaction") -> None:
        # no reference back to the owning transaction: the cycle would
        # leave every finished transaction to the cyclic collector
        self._db, self._ctx = tx.db, tx.ctx
        self._mem = tx._mem or STABLE
        self._lock_free = tx.collective or tx.snapshot
        self._held: Ledger = {}
        self._ledger = tx.db.lock_tables and tx.db.lock_tables[tx.ctx.rank]

    def acquire(self, vids: "Iterable[int]", want_write: bool) -> None:
        """Hold every lock in ``vids`` in at least the wanted mode.

        Words not held yet are taken in one call of the lock protocol,
        words held for reading are upgraded in a second when writing is
        wanted; the protocol writes each into the table as it lands.  All
        or nothing: a timeout or a fault gives back exactly what this call
        holds, released or downgraded back to read, through
        :meth:`_give_back`; a timeout then raises :class:`GdiLockFailed`,
        on which the transaction fails itself.
        """
        if self._lock_free:
            return
        blocks, held = self._db.blocks, self._held
        fresh: dict = {}  # vid -> lock word, to take
        ups: dict = {}  # vid -> lock word, to upgrade
        for vid in vids:
            have = held.get(vid)
            if have is None:
                fresh[vid] = blocks.lock_location(vid)
            elif want_write and have[0] is READ:
                ups[vid] = have[2]
        if not fresh and not ups:
            return
        ctx, epoch = self._ctx, self._mem.epoch
        win, tries = blocks.system_win, self._db.config.lock_max_retries
        if not held and self._ledger is not None:
            with self._db.lock_tables_mu:
                self._ledger[self] = None
        try:
            if fresh:
                take = acquire_write_batch if want_write else acquire_read_batch
                take(ctx, win, fresh, held, epoch, tries)
            if ups:
                upgrade_batch(ctx, win, ups, held, epoch, tries)
        except BaseException as exc:
            took = [vid for vid in fresh if vid in held]
            took += [vid for vid in ups if held[vid][0] is WRITE]
            self._give_back(took, downgrade=ups)
            if isinstance(exc, LockTimeout):
                raise GdiLockFailed(str(exc)) from exc
            raise

    def drop(self, vid: int) -> None:
        """Release one held lock word (a no-op for a word not held)."""
        if vid in self._held:
            self._give_back([vid])

    def release_all(self) -> None:
        if self._held:
            self._give_back(list(self._held))

    def _give_back(self, vids: list[int], downgrade: Container[int] = ()) -> None:
        """Give back the held words of ``vids`` in one failover-aware
        round: release each, except that a word in ``downgrade`` (upgraded
        by a call that then failed) goes back to read.

        A word on a shard failed since it was taken, or unserviceable,
        holds nothing: it is forgotten first, with no op in between (the
        repair sets the words left in live tables again).  A stale-epoch
        fence is raised before any word moves and once per
        reconfiguration, so the round is filtered and issued once more.
        The words leave the table only once the round returned: a rank
        that dies inside it still holds them for the failover healer.
        """
        held, mem, rank = self._held, self._mem, self._ctx.rank
        for fenced in (False, True):
            if mem.epoch:  # after a reconfiguration
                for vid in vids:
                    _, epoch, (s, _) = held[vid]
                    if mem.rebuilt_since(s, epoch) or not mem.serviceable(s, rank):
                        del held[vid]
                vids = [vid for vid in vids if vid in held]
            try:
                release_batch(self._ctx, self._db.blocks.system_win, [
                    (held[vid][2], UPGRADE if vid in downgrade else held[vid][0])
                    for vid in vids
                ])
                break
            except RmaStaleEpoch:
                if fenced:
                    raise
        for vid in vids:
            if vid in downgrade:  # a downgrade keeps a read
                held[vid] = (READ, *held[vid][1:])
            else:
                del held[vid]
        if not held and self._ledger is not None:
            with self._db.lock_tables_mu:
                self._ledger.pop(self, None)


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
        self.db, self.ctx = db, ctx
        self.write = write
        self.collective = collective
        #: MVCC snapshot read mode, chosen per transaction: resolve every
        #: holder read against a frozen watermark instead of taking read
        #: locks (lock-free, so an OLTP storm never blocks — and is never
        #: blocked by — this transaction)
        self.snapshot = bool(snapshot) and not write
        self.open = True
        self.failed = False
        self.fail_cause: str | None = None  # per-cause abort accounting
        self._vertices: dict[int, _TxVertex] = {}
        #: vid -> (batch, row, parts): vertices a bulk scan read that are
        #: still rows of its columnar batch (noted by the read view)
        self._scanned: dict[int, tuple[HolderBatch, int, int]] = {}
        self._edges: dict[int, _TxEdge] = {}
        self._created_app_ids: dict[int, int] = {}  # app_id -> vid
        self._volatile_ids: dict[int, int] = {}  # volatile token -> vid
        #: availability-layer state (all inert without a membership view)
        self._mem = getattr(ctx.rt, "membership", None)
        self._start_epoch = self._mem.epoch if self._mem is not None else 0
        self._no_log = False  # failover redo replays without re-logging
        self._locks = _LockTable(self)
        #: locking | lock-free collective | snapshot-at-W, fixed here
        self._view = ReadView(self)
        #: vid -> cache entry, turning a columnar row into one on first touch
        self._cached = self._view.cached

    # -- context manager: abort on error, commit must be explicit ------------
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
            raise GdiStateError("transaction failed; abort it and start a new one")

    def _check_write(self) -> None:
        self._check_open()
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
        try:
            return self.db.blocks.acquire_block_anywhere(self.ctx, home)
        except OutOfBlocksError as exc:
            self._fail("nomem")
            raise GdiNoMemory(str(exc)) from exc

    def _lock_cached(self, txvs: "list[_TxVertex]", want_write: bool) -> None:
        """Lock vertices already in the cache; created ones are private
        until commit and own no lock word yet."""
        try:
            self._locks.acquire([t.vid for t in txvs if not t.created], want_write)
        except GdiLockFailed:
            self._fail("lock")
            raise

    # -- vertex loading ------------------------------------------------------
    def _load_vertex(
        self, vid: int, for_write: bool, need: int = NEED_ALL
    ) -> _TxVertex:
        loaded = self.load_vertices([vid], for_write=for_write, need=need)
        return loaded[0]  # type: ignore[return-value]

    def load_vertices(
        self,
        vids: list[int],
        for_write: bool = False,
        expected_app_ids: "dict[int, int] | None" = None,
        missing_ok: bool = False,
        need: int = NEED_ALL,
    ) -> "list[_TxVertex | None]":
        """Read-pipeline many vertices into the transaction cache at once.

        All uncached holders are fetched with the batched storage path
        (holder and block reads coalesce per home rank and complete in a
        fixed number of flush rounds).  Each element is validated as
        :meth:`ReadView.fetch <repro.gda.readview.ReadView.fetch>`
        describes (``expected_app_ids`` maps a vid to the application ID
        it must carry); a read miss yields ``None`` with ``missing_ok``.

        ``need`` is a holder-parts projection mask (see
        :mod:`repro.gda.holder`): read-only callers that will only follow
        edges pass ``NEED_TOPO`` and skip the property bytes entirely.
        Write transactions always load full holders (the pre-image and
        the rewrite need the complete payload); cached entries missing a
        requested part are hydrated in place with one batched re-read.
        """
        recycled = self._load(vids, for_write, expected_app_ids, missing_ok, need)
        return [
            None if txv is None or txv.deleted or vid in recycled else txv
            for vid, txv in zip(vids, map(self._cached, vids))
        ]

    def _load(
        self,
        vids: list[int],
        for_write: bool,
        expected_app_ids: "dict[int, int] | None",
        missing_ok: bool,
        need: int,
    ) -> "set[int]":
        """Bring ``vids`` into the transaction cache (see
        :meth:`load_vertices`, which also hands back the entries);
        returns those cached as another vertex than the expected one."""
        self._check_open()
        if for_write:
            self._check_write()
        if self.write:
            # the pre-image and the commit rewrite need whole holders
            need = NEED_ALL
        need |= NEED_IDENT
        fetch_vids: list[int] = []
        # Pass 1: serve cache hits (and fail fast on in-txn deletions)
        # before taking any new locks.
        cached: list[_TxVertex] = []
        widen: list[int] = []
        recycled: set[int] = set()
        reloc = self.db.relocations
        scanned = self._scanned
        for vid in vids:
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
                if not expected_app_ids:
                    # cached, still a row of its columnar batch; one that
                    # lacks a part is widened as a column (ReadView.hydrate)
                    if (scanned[vid][2] & need) != need:
                        widen.append(vid)
                    continue
                txv = self._cached(vid)
            if txv is None:
                fetch_vids.append(vid)
                continue
            if txv.deleted:
                if missing_ok:
                    continue
                raise GdiNotFound(
                    f"vertex {vid:#x} deleted in this transaction"
                )
            want = expected_app_ids.get(vid) if expected_app_ids else None
            if want is not None and txv.holder.app_id != want:
                # translated to a reused block: the vertex cached there is
                # valid for its own ID (ReadView.fetch's *recycled* row)
                if not missing_ok:
                    raise GdiNotFound(
                        f"vertex {vid:#x} was recycled (expected application "
                        f"ID {want}, found {txv.holder.app_id})"
                    )
                recycled.add(vid)
                continue
            cached.append(txv)
        if cached or widen:
            self._lock_cached(cached, for_write)
            self._view.hydrate(cached, need, widen)
        # Pass 2: everything else comes through the read view, which
        # makes it stable first (locks before the read under 2PL, the
        # version chains under a snapshot) and drops what it cannot serve.
        if not fetch_vids:
            return recycled
        try:
            for vid, stored in self._view.fetch(
                "v", fetch_vids, for_write, need, expected_app_ids, missing_ok
            ):
                txv = self._vertices[vid] = _TxVertex(vid=vid, stored=stored)
                if self.write:
                    _commit.capture_preimages(self, txv)
        except GdiLockFailed:
            self._fail("lock")
            raise
        return recycled

    @property
    def snapshot_watermark(self) -> int | None:
        """The frozen watermark of a snapshot transaction, else ``None``."""
        return self._view.watermark

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
        extra = self.db.mvcc.deleted_vids(shard, self._view.watermark)
        seen = set(vids)
        # a recycled vid is listed once per deleted incarnation
        vids.extend(v for v in dict.fromkeys(extra) if v not in seen)
        return vids

    def _ensure_parts(self, txv: _TxVertex, need: int) -> None:
        """Hydrate one cached vertex so the requested parts are present."""
        if txv.created or txv.deleted or (txv.stored.parts & need) == need:
            return
        self._view.hydrate([txv], need)

    def _mark_dirty(self, txv: _TxVertex) -> None:
        txv.dirty = True

    # -- ID translation (Section 3.4) ----------------------------------------
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
        vid = self._translate([int(app_id)])[0]  # accept numpy integers
        if vid is None:
            raise GdiNotFound(f"no vertex with application ID {app_id}")
        if not volatile:
            return vid
        token = VolatileVertexId(token=len(self._volatile_ids), txn=id(self))
        self._volatile_ids[token.token] = vid
        return token

    def _translate(self, app_ids: "list[int]") -> "list[int | None]":
        """Internal IDs of ``app_ids`` as this transaction sees them,
        ``None`` where unmapped: its own creations, then one batched DHT
        lookup, then — under a snapshot — the unpublish tombstones, which
        recover the vid that carried an ID deleted after the watermark."""
        created = self._created_app_ids
        if not created and not self.snapshot:
            return self.db.dht.lookup_many(self.ctx, app_ids)
        vids = [created.get(app_id) for app_id in app_ids]
        unknown = [i for i, vid in enumerate(vids) if vid is None]
        if unknown:
            found = self.db.dht.lookup_many(
                self.ctx, [app_ids[i] for i in unknown]
            )
            for i, vid in zip(unknown, found):
                if vid is None and self.snapshot:
                    vid = self._view.unpublished(app_ids[i])
                vids[i] = vid
        return vids

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
        vids = self._translate(app_ids)
        present = [i for i in range(len(app_ids)) if vids[i] is not None]
        loaded = self.load_vertices(
            [vids[i] for i in present],
            expected_app_ids={vids[i]: app_ids[i] for i in present},
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
                (i, self._view.unpublished(app_ids[i]))
                for i, txv in zip(present, loaded)
                if txv is None
            ]
            again = [(i, alt) for i, alt in again
                     if alt is not None and alt != vids[i]]
            if again:
                reloaded = self.load_vertices(
                    [alt for _, alt in again],
                    expected_app_ids={alt: app_ids[i] for i, alt in again},
                    missing_ok=True,
                    need=need,
                )
                for (i, _), txv in zip(again, reloaded):
                    if txv is not None:
                        out[i] = VertexHandle(self, txv)
        return out

    # -- vertex CRUD ---------------------------------------------------------
    def create_vertex(
        self,
        app_id: int,
        labels: Iterable[Label] = (),
        properties: Iterable[tuple[PropertyType, Any]] = (),
    ) -> "VertexHandle":
        """``GDI_CreateVertex``: new vertex, private until commit."""
        return self.create_vertices([(app_id, labels, properties)])[0]

    def create_vertices(
        self,
        specs: "list[tuple[int, Iterable[Label], Iterable[tuple[PropertyType, Any]]]]",
    ) -> "list[VertexHandle]":
        """Batched ``GDI_CreateVertex``: one DHT probe for all new IDs.

        ``specs`` is ``(app_id, labels, properties)`` triples.  The
        uniqueness prechecks for the whole batch resolve through a single
        batched DHT lookup instead of one round trip per vertex; a
        non-unique ID fails the transaction.
        """
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
            primary = self._acquire_or_fail(self.db.home_rank(app_id))
            # a recycled block is a live vertex again, not a stale DPTR
            self.db.relocations.pop(primary, None)
            txv = self._vertices[primary] = _TxVertex(
                vid=primary,
                stored=StoredHolder(
                    holder=VertexHolder(app_id=app_id), primary=primary
                ),
                created=True,
            )
            self._mark_dirty(txv)
            self._created_app_ids[app_id] = primary
            handle = VertexHandle(self, txv)
            for label in labels:
                handle.add_label(label)
            for ptype, value in properties:
                handle.set_property(ptype, value)
            handles.append(handle)
        return handles

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
        if isinstance(vids, np.ndarray) and vids.dtype.kind in "iu":
            resolved = vids.tolist()  # internal IDs: nothing to resolve
        else:
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
        self._check_write()
        txv = handle._txv
        self._lock_cached([txv], want_write=True)
        slots = txv.holder.edges
        # resolve every far endpoint first (heavy slots read their edge
        # holder, and two slots of a directed self-loop share one), only
        # then mark the holders deleted and pull every distinct neighbor
        # in one batched load
        others = [self._slot_other_endpoint(txv.vid, slot) for slot in slots]
        for slot in slots:
            if slot.heavy:
                self._mark_edge_holder_deleted(slot.dptr)
        distinct = sorted({o for o in others if o != txv.vid})
        if distinct:
            self.load_vertices(distinct, for_write=True)
        for slot, other_vid in zip(slots, others):
            if other_vid != txv.vid:
                other = self._vertices[other_vid]
                remove_reciprocal_slot(other, txv.vid, slot)
                self._mark_dirty(other)
        txv.deleted = True
        self._mark_dirty(txv)

    # -- vertex mutation helpers (used by VertexHandle) ----------------------
    def _mutate(self, txv: _TxVertex) -> VertexHolder:
        self._check_write()
        if txv.deleted:
            raise GdiNotFound("vertex deleted in this transaction")
        self._lock_cached([txv], want_write=True)
        self._ensure_parts(txv, NEED_ALL)
        self._mark_dirty(txv)
        return txv.holder

    # -- edges ---------------------------------------------------------------
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
        self._check_write()
        if src._tx is not self or dst._tx is not self:
            raise GdiObjectMismatch("handles belong to another transaction")
        label_list = list(labels)
        if label is not None:
            label_list.insert(0, label)
        props = [
            (pt, encode_property(pt, value)) for pt, value in properties
        ]
        heavy = force_heavy or bool(props) or len(label_list) > 1
        src_holder = self._mutate(src._txv)
        dst_txv = dst._txv
        if heavy:
            eptr = self._new_edge_holder(
                EdgeHolder(
                    src=src._txv.vid,
                    dst=dst_txv.vid,
                    directed=directed,
                    labels=[l.int_id for l in label_list],
                    properties=[(pt.int_id, blob) for pt, blob in props],
                )
            )
            fwd = EdgeSlot(eptr, 0, (DIR_OUT if directed else DIR_UNDIR) | SLOT_HEAVY)
            rev = EdgeSlot(eptr, 0, (DIR_IN if directed else DIR_UNDIR) | SLOT_HEAVY)
        else:
            lid = label_list[0].int_id if label_list else 0
            fwd = EdgeSlot(dst_txv.vid, lid, DIR_OUT if directed else DIR_UNDIR)
            rev = EdgeSlot(src._txv.vid, lid, DIR_IN if directed else DIR_UNDIR)
        src_holder.add_slot(fwd)
        if dst_txv.vid != src._txv.vid:
            self._mutate(dst_txv).add_slot(rev)
        elif directed:
            # directed self-loop: the vertex sees it both outgoing and
            # incoming; undirected self-loops keep a single slot.
            src_holder.add_slot(rev)
        return EdgeHandle(self, src._txv, fwd)

    def associate_edge(self, uid: bytes) -> "EdgeHandle":
        """``GDI_AssociateEdge``: resolve a 12-byte edge UID to a handle."""
        self._check_open()
        vid, slot_idx = unpack_edge_uid(uid)
        txv = self._load_vertex(vid, for_write=False)
        slots = txv.holder.edges
        if slot_idx >= len(slots):
            raise GdiNotFound(f"edge slot {slot_idx} out of range")
        return EdgeHandle(self, txv, slots[slot_idx])

    def delete_edge(self, handle: "EdgeHandle") -> None:
        """``GDI_FreeEdge`` (delete): remove both endpoint slots."""
        self._check_write()
        txv = handle._base
        slot = handle._slot
        if not self._mutate(txv).remove_slot(slot):
            raise GdiNotFound("edge already removed in this transaction")
        other_vid = self._slot_other_endpoint(txv.vid, slot)
        if slot.heavy:
            self._mark_edge_holder_deleted(slot.dptr)
        if other_vid != txv.vid:
            other = self._load_vertex(other_vid, for_write=True)
            remove_reciprocal_slot(other, txv.vid, slot)
            self._mark_dirty(other)
        elif slot.direction != DIR_UNDIR:
            # directed self-loop: drop the complementary slot too
            remove_reciprocal_slot(txv, txv.vid, slot)

    def _new_edge_holder(self, holder: EdgeHolder) -> int:
        """Cache a new heavyweight edge holder, private until commit, in
        a block at its source vertex's home; returns its DPtr."""
        eptr = self._acquire_or_fail(unpack_dptr(holder.src).rank)
        self._edges[eptr] = _TxEdge(
            dptr=eptr,
            stored=StoredHolder(holder=holder, primary=eptr),
            created=True,
            dirty=True,
        )
        return eptr

    def _slot_other_endpoint(self, base_vid: int, slot: EdgeSlot) -> int:
        if not slot.heavy:
            return slot.dptr
        e = self._load_edge_holder(slot.dptr)
        h = e.holder
        return h.dst if h.src == base_vid else h.src

    # -- heavy edge holders --------------------------------------------------
    def _load_edge_holder(self, eptr: int) -> _TxEdge:
        txe = self._edges.get(eptr)
        if txe is None:
            for _, stored in self._view.fetch(
                "e", [eptr], False, NEED_ALL, None, False
            ):
                txe = self._edges[eptr] = _TxEdge(dptr=eptr, stored=stored)
                if self.write:
                    txe.loaded = _commit.frozen_copy(stored)
        elif txe.deleted:
            raise GdiNotFound("edge deleted in this transaction")
        return txe

    def _mark_edge_holder_deleted(self, eptr: int) -> None:
        """Callers resolve the edge's endpoints first, so it is cached."""
        txe = self._edges[eptr]
        txe.deleted = True
        txe.dirty = True

    # -- commit / abort ------------------------------------------------------
    def commit(self) -> None:
        """``GDI_CloseTransaction``: write back, publish, unlock."""
        self._check_open()
        if self.collective:
            self.ctx.barrier()
        try:
            if self.write:
                _commit.run(self)
        except BaseException:
            self._end(committed=False)
            raise
        self._end(committed=True)
        if self.collective:
            self.ctx.barrier()

    def abort(self) -> None:
        """``GDI_AbortTransaction``: discard all local changes."""
        if not self.open:
            raise GdiStateError("transaction already closed")
        _commit.release_created(self)
        self._end(committed=False)
        if self.collective:
            self.ctx.barrier()

    def _end(self, committed: bool) -> None:
        """Close the read view, unlock and count the outcome."""
        self._view.close()
        if self._no_log:  # a redo: its words and count are its caller's
            self.open = False
            return
        self._locks.release_all()
        self.open = False
        stats = self.db.stats[self.ctx.rank]
        if committed:
            stats.committed += 1
            return
        stats.aborted += 1
        if self.failed:
            stats.failed += 1
            stats.count_failure(self.fail_cause or "other")
