"""The GDA database object: window layout, sharding, metadata, indexes.

One :class:`GdaDatabase` corresponds to one ``GDI_Database``.  Creation is
collective; the object bundles

* the BGDL :class:`~repro.gda.blocks.BlockManager` and
  :class:`~repro.gda.holder.HolderStorage` (graph data, sharded),
* the internal :class:`~repro.gda.dht.DistributedHashTable` translating
  application vertex IDs to internal DPtrs (Section 5.7),
* the replicated :class:`~repro.gda.metadata.MetadataStore` with one
  :class:`~repro.gda.metadata.MetadataReplica` per rank (Section 5.8),
* the :class:`~repro.gda.index_impl.VertexDirectory` and explicit
  indexes (Section 3.6),
* per-rank transaction statistics (commits/aborts — the paper's
  failed-transaction percentages come from these counters).

GDI supports multiple parallel databases (Section 3.9): each
:class:`GdaDatabase` allocates its windows under a unique name prefix, so
several instances coexist in one runtime.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import InitVar, dataclass, field

import numpy as np

from ..gdi.constants import EntityType, Multiplicity, SizeType
from ..gdi.constraint import Constraint
from ..gdi.errors import GdiInvalidArgument, GdiNotFound
from ..gdi.types import Datatype
from ..mvcc import SnapshotManager
from ..rma.runtime import RankContext
from .blocks import BlockManager
from .dht import DistributedHashTable
from .holder import DIR_IN, DIR_OUT, DIR_UNDIR, HolderStorage
from .index_impl import ExplicitEdgeIndex, ExplicitIndex, VertexDirectory
from .metadata import Label, MetadataReplica, MetadataStore, PropertyType
from .recovery import CommitLog

__all__ = ["GdaConfig", "GdaDatabase", "TxStats"]

_db_counter = itertools.count()


@dataclass(frozen=True)
class GdaConfig:
    """Tunables of one database instance.

    ``block_size`` is the paper's central communication/memory tradeoff
    (Section 5.5); benchmarks sweep it as an ablation.  There is one
    database configuration as far as isolation goes: every write commit
    installs MVCC pre-images, and each read-only transaction chooses
    between read locks and a snapshot (``snapshot=`` of
    :meth:`GdaDatabase.start_transaction`).
    """

    block_size: int = 512
    blocks_per_rank: int = 4096
    dht_buckets_per_rank: int = 1024
    dht_entries_per_rank: int = 4096
    lock_max_retries: int = 64
    #: primary-backup block replication + live failover (requires the
    #: runtime to carry a :class:`~repro.rma.membership.ClusterMembership`).
    #: Off by default: fault-free workloads pay no mirroring traffic.
    replication: bool = False
    #: accepted for old callers only: every database runs MVCC
    #: (:mod:`repro.mvcc`), so ``False`` is refused
    mvcc: InitVar[bool] = True
    #: applied commits between opportunistic watermark-GC passes.
    mvcc_gc_interval: int = 32

    def __post_init__(self, mvcc: bool) -> None:
        if not mvcc:
            raise ValueError("every database runs MVCC: mvcc must be True")


@dataclass
class TxStats:
    """Per-rank transaction outcome counters."""

    started: int = 0
    committed: int = 0
    aborted: int = 0
    failed: int = 0  # aborted due to a transaction-critical error
    restarts: int = 0  # automatic retries by repro.gda.retry.run_transaction
    by_cause: dict = field(default_factory=dict)  # failure cause -> count

    def count_failure(self, cause: str) -> None:
        self.by_cause[cause] = self.by_cause.get(cause, 0) + 1


class GdaDatabase:
    """One distributed graph database instance (shared across ranks)."""

    def __init__(
        self,
        config: GdaConfig,
        blocks: BlockManager,
        storage: HolderStorage,
        dht: DistributedHashTable,
        nranks: int,
        name: str,
    ) -> None:
        self.config = config
        self.blocks = blocks
        self.storage = storage
        self.dht = dht
        self.nranks = nranks
        self.name = name
        self.metadata = MetadataStore()
        self.replicas = [MetadataReplica(self.metadata) for _ in range(nranks)]
        self.directory = VertexDirectory(nranks)
        self.indexes: dict[str, ExplicitIndex] = {}
        self.edge_indexes: dict[str, ExplicitEdgeIndex] = {}
        self._index_lock = threading.Lock()
        self.stats = [TxStats() for _ in range(nranks)]
        self.commit_log = CommitLog()  # durability: in-memory redo log
        #: :class:`~repro.gda.replication.ReplicationManager` when the
        #: config enables replication; None keeps the seed behavior.
        self.replication = None
        #: with replication, each rank's lock tables that hold words in the
        #: order they took their first (``{table: None}``): the failover
        #: healer backs out a dead rank's; None without replication
        self.lock_tables: list[dict] | None = None
        self.lock_tables_mu = threading.Lock()
        #: stale->fresh internal-ID translation published by the last
        #: rebalance (:func:`repro.gda.relocate.rebalance`): lets reads
        #: through pre-move permanent DPTRs raise a healable
        #: :class:`~repro.gdi.errors.GdiStaleDptr` instead of silently
        #: reading the vacated block.  Composed across rebalances.
        self.relocations: dict[int, int] = {}
        #: bumped once per completed rebalance (diagnostics / tests)
        self.placement_epoch = 0
        #: commit timestamps, version chains and snapshots: a control-path
        #: shared structure like the commit log.  Its floor also returns
        #: the DHT's unlinked entries, which its timestamps tag.
        self.mvcc = SnapshotManager(gc_interval=config.mvcc_gc_interval)
        self.mvcc.reclaim = dht.reclaim
        dht.epochs = self.mvcc

    def note_relocations(self, mapping: dict[int, int]) -> None:
        """Publish one rebalance's ``{old_vid: new_vid}`` map.

        Earlier entries are path-compressed through the new map so a
        DPTR that is two rebalances old still resolves to the current
        location in one lookup.
        """
        if not mapping:
            return
        for old, mid in self.relocations.items():
            if mid in mapping:
                self.relocations[old] = mapping[mid]
        for fresh in mapping.values():
            # a block that is now a live location cannot be a stale key
            self.relocations.pop(fresh, None)
        self.relocations.update(mapping)
        self.placement_epoch += 1
        # version chains and unpublish tombstones follow their vertices
        # to the new placement
        self.mvcc.rekey(mapping)

    def fresh_vid(self, vid: int) -> int | None:
        """Current internal ID of a relocated vertex (None if never moved)."""
        return self.relocations.get(vid)

    # -- construction --------------------------------------------------------
    @classmethod
    def create(
        cls, ctx: RankContext, config: GdaConfig | None = None
    ) -> "GdaDatabase":
        """Collectively create a database (``GDI_CreateDatabase``)."""
        config = config or GdaConfig()
        # the number is the payload: its price is the same for every name
        name = "gdadb%d" % ctx.bcast(
            next(_db_counter) if ctx.rank == 0 else None, root=0
        )
        blocks = BlockManager.create(
            ctx,
            block_size=config.block_size,
            blocks_per_rank=config.blocks_per_rank,
            name_prefix=f"{name}.bgdl",
        )
        dht = DistributedHashTable.create(
            ctx,
            buckets_per_rank=config.dht_buckets_per_rank,
            entries_per_rank=config.dht_entries_per_rank,
            name_prefix=f"{name}.index",
        )
        mirror_win = None
        if config.replication:
            # Backup image of every data block, at the block's own offset
            # in the backup rank's segment.
            mirror_win = ctx.win_allocate(
                f"{name}.mirror", config.block_size * config.blocks_per_rank
            )
        db = None
        if ctx.rank == 0:
            db = cls(
                config=config,
                blocks=blocks,
                storage=HolderStorage(blocks),
                dht=dht,
                nranks=ctx.nranks,
                name=name,
            )
            if config.replication:
                from ..rma.membership import ClusterMembership
                from .replication import ReplicationManager

                mem = getattr(ctx.rt, "membership", None)
                if mem is None:
                    mem = ClusterMembership(ctx.nranks)
                    ctx.rt.membership = mem
                repl = ReplicationManager(mirror_win, mem, blocks, ctx.nranks)
                db.replication = repl
                db.storage.mirror = repl
                db.blocks.on_acquire = repl.note_acquire
                db.blocks.on_release = repl.note_release
                db.dht.enable_mirror()
                db.lock_tables = [{} for _ in range(ctx.nranks)]
        db = ctx.bcast(db, root=0)
        ctx.barrier()
        return db

    # -- metadata (eventually consistent, Section 3.8) -------------------------
    def create_label(self, ctx: RankContext, name: str) -> Label:
        """Create a label; other ranks see it after their next sync."""
        label = self.metadata.create_label(name)
        self.replicas[ctx.rank].sync()
        return label

    def create_property_type(
        self,
        ctx: RankContext,
        name: str,
        *,
        entity_type: EntityType = EntityType.BOTH,
        dtype: Datatype = Datatype.BYTES,
        size_type: SizeType = SizeType.UNBOUNDED,
        size_limit: int = 0,
        multiplicity: Multiplicity = Multiplicity.SINGLE,
    ) -> PropertyType:
        ptype = self.metadata.create_property_type(
            name,
            entity_type=entity_type,
            dtype=dtype,
            size_type=size_type,
            size_limit=size_limit,
            multiplicity=multiplicity,
        )
        self.replicas[ctx.rank].sync()
        return ptype

    def label(self, ctx: RankContext, name: str) -> Label:
        item = self.replicas[ctx.rank].labels.by_name(name)
        if item is None:
            raise GdiNotFound(f"label {name!r} unknown to rank {ctx.rank}")
        return item

    def property_type(self, ctx: RankContext, name: str) -> PropertyType:
        item = self.replicas[ctx.rank].ptypes.by_name(name)
        if item is None:
            raise GdiNotFound(
                f"property type {name!r} unknown to rank {ctx.rank}"
            )
        return item

    def replica(self, ctx: RankContext) -> MetadataReplica:
        return self.replicas[ctx.rank]

    def all_labels(self, ctx: RankContext) -> list[Label]:
        """Labels known to this rank's replica, in creation order."""
        return list(self.replicas[ctx.rank].labels)

    def all_property_types(self, ctx: RankContext) -> list[PropertyType]:
        """Property types known to this rank's replica, in creation order."""
        return list(self.replicas[ctx.rank].ptypes)

    def drop_label(self, ctx: RankContext, label: Label) -> None:
        """Drop a label; propagates to other replicas eventually."""
        self.metadata.drop_label(label.int_id)
        self.replicas[ctx.rank].sync()

    def drop_property_type(self, ctx: RankContext, ptype: PropertyType) -> None:
        """Drop a property type; propagates eventually."""
        self.metadata.drop_property_type(ptype.int_id)
        self.replicas[ctx.rank].sync()

    # -- transactions -----------------------------------------------------------
    def start_transaction(
        self, ctx: RankContext, write: bool = False, snapshot: bool = False
    ):
        """``GDI_StartTransaction``: a local, single-process transaction.

        Reads take read locks (2PL, Section 5.6) unless ``snapshot=True``
        asks for a read-only transaction that reads a frozen watermark
        without touching a lock word (:mod:`repro.mvcc`).
        """
        from .transaction_impl import Transaction

        if snapshot and write:
            raise GdiInvalidArgument("snapshot transactions are read-only")
        self.replicas[ctx.rank].sync()
        self.stats[ctx.rank].started += 1
        return Transaction(
            self,
            ctx,
            write=write,
            collective=False,
            snapshot=snapshot,
        )

    def start_collective_transaction(
        self, ctx: RankContext, write: bool = False, snapshot: bool = False
    ):
        """``GDI_StartCollectiveTransaction``: all ranks participate.

        With ``snapshot=True`` rank 0 freezes one watermark and every
        rank joins it, so a collective OLAP kernel sees a single
        consistent cut while writers keep committing underneath.
        """
        from .transaction_impl import Transaction

        if snapshot and write:
            raise GdiInvalidArgument("snapshot transactions are read-only")
        ctx.barrier()
        self.replicas[ctx.rank].sync()
        self.stats[ctx.rank].started += 1
        return Transaction(
            self,
            ctx,
            write=write,
            collective=True,
            snapshot=snapshot,
        )

    # -- sharding policy ------------------------------------------------------------
    def home_rank(self, app_id: int) -> int:
        """Round-robin vertex distribution (paper Section 6.3)."""
        return app_id % self.nranks

    # -- explicit indexes (Section 3.6) -----------------------------------------------
    def create_index(
        self, ctx: RankContext, name: str, constraint: Constraint
    ) -> ExplicitIndex:
        """Collectively create and build an explicit vertex index."""
        with self._index_lock:
            if ctx.rank == 0 and name in self.indexes:
                raise GdiInvalidArgument(f"index {name!r} already exists")
        ctx.barrier()
        index = None
        if ctx.rank == 0:
            index = ExplicitIndex(
                name=name, constraint=constraint, nranks=self.nranks
            )
            with self._index_lock:
                self.indexes[name] = index
        index = ctx.bcast(index, root=0)
        self.fill_index(ctx, index)
        return index

    def create_edge_index(
        self, ctx: RankContext, name: str, constraint: Constraint
    ) -> ExplicitEdgeIndex:
        """Collectively create and build an explicit *edge* index.

        Stores the source vertices carrying at least one matching edge
        (edge UIDs are volatile, Section 3.4); queries re-resolve the
        matching handles inside the reading transaction.
        """
        with self._index_lock:
            if ctx.rank == 0 and name in self.edge_indexes:
                raise GdiInvalidArgument(f"edge index {name!r} already exists")
        ctx.barrier()
        index = None
        if ctx.rank == 0:
            index = ExplicitEdgeIndex(
                name=name, constraint=constraint, nranks=self.nranks
            )
            with self._index_lock:
                self.edge_indexes[name] = index
        index = ctx.bcast(index, root=0)
        self.fill_index(ctx, index)
        return index

    def fill_index(
        self,
        ctx: RankContext,
        index: "ExplicitIndex | ExplicitEdgeIndex",
        vids: "list[int] | None" = None,
    ) -> None:
        """Collectively post the vertices among this rank's ``vids`` (by
        default all its local vertices) that ``index`` matches: every
        rank scans its own inside a collective read transaction and
        fills its own shard (an index's build, and a bulk load into a
        database that has indexes)."""
        tx = self.start_collective_transaction(ctx, write=False)
        try:
            dtype_of = self.replicas[ctx.rank].dtype_of
            if vids is None:
                vids = self.directory.local_vertices(ctx)
            matched = []
            for vid in vids:
                txv = tx._load_vertex(vid, for_write=False)
                if (
                    index.source_matches(tx, txv)
                    if isinstance(index, ExplicitEdgeIndex)
                    else index.matches(txv.holder, dtype_of)
                ):
                    matched.append(vid)
            index.bulk_add_local(ctx, matched)
            tx.commit()
        except BaseException:
            tx.abort()
            raise

    def index(self, name: str) -> ExplicitIndex:
        with self._index_lock:
            try:
                return self.indexes[name]
            except KeyError:
                raise GdiNotFound(f"no index named {name!r}") from None

    # -- availability: failover healing ------------------------------------------------
    def heal(self, ctx: RankContext) -> None:
        """Repair failed shards from their block mirrors (single-flight).

        Called by the transaction retry machinery after an operation was
        fenced (:class:`~repro.rma.faults.RmaStaleEpoch`).  The first rank
        to claim a failed shard rebuilds it
        (:meth:`~repro.gda.replication.ReplicationManager.repair_shard`);
        everyone else parks, with no bounded wait, until that repair
        publishes or aborts, then adopts the current epoch so the retried
        transaction runs against the reconfigured view.  A repair that
        fails (e.g. a mirror CRC mismatch) returns the shard to FAILED and
        re-raises; its released waiters' retries meet the fence again.
        """
        mem = getattr(ctx.rt, "membership", None)
        if mem is None or self.replication is None:
            return
        for shard in mem.failed_shards():
            if mem.begin_repair(shard, ctx.rank):
                try:
                    self.replication.repair_shard(ctx, self, shard)
                except BaseException:
                    mem.abort_repair(shard)
                    raise
                mem.finish_repair(shard)
        mem.await_repairs(ctx.rt.scheduler, ctx.rank)
        mem.adopt_epoch(ctx.rank)
        # a dead rank never applies its timestamps or closes its pins:
        # retire them so neither the watermark nor the GC floor stays
        # pinned (replayed effects re-install under fresh timestamps)
        self.mvcc.force_apply(set(range(self.nranks)) - mem.live)

    # -- durability (in-memory redo log; the paper's system is in-memory) ----------------
    def log_commit(self, rank: int, entries: tuple) -> int:
        """Append one commit record; returns its global sequence number.

        Called while the committing transaction still holds its write
        locks, so the sequence order is a valid serialization order.
        """
        return self.commit_log.append(rank, entries)

    # -- statistics ----------------------------------------------------------------------
    def total_stats(self) -> TxStats:
        agg = TxStats()
        for s in self.stats:
            agg.started += s.started
            agg.committed += s.committed
            agg.aborted += s.aborted
            agg.failed += s.failed
            agg.restarts += s.restarts
            for cause, n in s.by_cause.items():
                agg.by_cause[cause] = agg.by_cause.get(cause, 0) + n
        return agg

    def num_vertices(self, ctx: RankContext) -> int:
        return self.directory.count(ctx)

    # -- teardown --------------------------------------------------------------------------
    def destroy(self, ctx: RankContext) -> None:
        """Collectively free the database's windows (``GDI_FreeDatabase``).

        Any later access through the freed windows raises; transactions
        must not be open.
        """
        ctx.barrier()
        if ctx.rank == 0:
            for win in (
                self.blocks.data_win,
                self.blocks.usage_win,
                self.blocks.system_win,
                self.dht.table_win,
                self.dht.heap.data_win,
                self.dht.heap.usage_win,
                self.dht.heap.system_win,
            ):
                ctx.rt.free_window(win)
            if self.replication is not None:
                ctx.rt.free_window(self.replication.mirror_win)
        ctx.barrier()


def _route_half_edges(ctx: RankContext, db: GdaDatabase, src, dst, directed, label):
    """The bulk half-edge exchange (Section 4): every edge ``src -> dst``
    becomes the slot its source keeps and, right after it, the one its
    destination keeps (an undirected self-loop has one), each routed to
    its vertex's home rank.  ``directed`` is one flag or one per edge.
    Returns the received half-edges as int64 columns ``(a, b, direction,
    label)``; a ``DIR_IN`` half belongs to ``b``, any other to ``a``.
    """
    directed = np.broadcast_to(np.asarray(directed, dtype=bool), src.shape)
    keep = np.stack([np.ones_like(directed), directed | (src != dst)], 1).ravel()

    def halves(first, second):
        return np.stack([first, second], 1).ravel()[keep]

    return ctx.alltoallv(
        db.home_rank(halves(src, dst)),
        halves(src, np.where(directed, src, dst)),
        halves(dst, np.where(directed, dst, src)),
        halves(
            np.where(directed, DIR_OUT, DIR_UNDIR),
            np.where(directed, DIR_IN, DIR_UNDIR),
        ),
        halves(label, label),
    )
