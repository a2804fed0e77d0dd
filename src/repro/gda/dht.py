"""Lock-free, fully-offloaded distributed hash table (paper Section 5.7).

GDA resolves performance-critical mappings — above all application vertex
ID → internal DPtr — with a DHT whose every operation (including delete)
uses only one-sided communication: puts, gets, atomics, and flushes.  The
design is the paper's Listing 4:

* a sharded **table** of buckets, each an 8-byte distributed pointer to a
  chain of entries,
* a **heap** of fixed 24-byte entries ``[key | value | next]`` allocated
  from a lock-free free list (we reuse :class:`repro.gda.blocks.BlockManager`
  with a 24-byte block size — the heap allocator *is* the BGDL allocator),
* **insert**: write the entry, then CAS it onto the bucket head,
* **lookup**: chase the chain; an entry whose next pointer points to
  itself is being deleted, so the lookup restarts,
* **delete**: two CASes — first mark the victim by pointing its next
  field at itself, then swing the predecessor's pointer past it.

Memory reclamation: Listing 4 frees an entry right after the second CAS,
but a concurrent traversal holding a stale pointer could then wander into
a recycled entry.  An unlinked entry is *parked* instead, tagged with the
last commit timestamp issued at its unlink, and the MVCC GC pass returns
it once the floor (the smallest watermark an open transaction announced)
is strictly above the tag: every transaction open then began after the
unlink (epoch-based reclamation, Hart et al., JPDC 2007; :meth:`reclaim`).
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..rma.runtime import RankContext, RmaError
from ..rma.window import Window
from .blocks import BlockManager
from .dptr import DPTR_NULL, is_null, unpack_dptr

if TYPE_CHECKING:  # pragma: no cover
    from ..mvcc import SnapshotManager

__all__ = ["DistributedHashTable", "ENTRY_BYTES"]

#: Heap entry layout: key (8) | value (8) | next pointer (8).
ENTRY_BYTES = 24
_ENTRY = struct.Struct("<qqq")
assert _ENTRY.size == ENTRY_BYTES
_KEY_OFF = 0
_VAL_OFF = 8
_NEXT_OFF = 16


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: avalanche a key into a bucket hash."""
    x = (x + 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & ((1 << 64) - 1)
    x ^= x >> 31
    return x


@dataclass
class DistributedHashTable:
    """One sharded lock-free hash table over an RMA runtime."""

    table_win: Window
    heap: BlockManager
    buckets_per_rank: int
    nranks: int
    #: the commit timestamps that tag an unlink (``None``: every tag is 0)
    epochs: "SnapshotManager | None" = field(default=None, repr=False)
    #: per heap shard, ``(tag, entry)`` of each unlinked entry not yet freed
    _parked: list[list[tuple[int, int]]] = field(init=False, repr=False)
    #: optional per-bucket-shard mirror ``{key: value}`` maintained by
    #: insert/delete when replication is enabled.  The chain structure
    #: cannot be rebuilt from surviving ranks alone (chains are anchored in
    #: the dead shard's table segment), so failover re-inserts the shard's
    #: key set from this shadow — the same Python-side-with-charged-costs
    #: substitution the directory and index layers use.  ``None`` when
    #: replication is off (zero overhead on the common path).
    _mirror: list[dict[int, int]] | None = field(default=None, repr=False)
    #: guards the parked lists and the mirror
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self) -> None:
        self._parked = [[] for _ in range(self.nranks)]

    @classmethod
    def create(
        cls,
        ctx: RankContext,
        buckets_per_rank: int,
        entries_per_rank: int,
        name_prefix: str = "dht",
    ) -> "DistributedHashTable":
        """Collectively allocate table and heap, init buckets to NULL."""
        table_win = ctx.win_allocate(f"{name_prefix}.table", 8 * buckets_per_rank)
        heap = BlockManager.create(
            ctx,
            block_size=ENTRY_BYTES,
            blocks_per_rank=entries_per_rank,
            name_prefix=f"{name_prefix}.heap",
        )
        # The DHT object carries shared mutable state (the parked lists),
        # so exactly one instance exists: rank 0 builds it, everyone else
        # receives the same object via bcast (windows are shared anyway).
        dht = None
        if ctx.rank == 0:
            dht = cls(table_win, heap, buckets_per_rank, ctx.nranks)
        dht = ctx.bcast(dht, root=0)
        table_win.write(ctx.rank, 0, dht._empty_table())
        ctx.barrier()
        return dht

    # -- addressing ---------------------------------------------------------
    def bucket_of(self, key: int) -> tuple[int, int]:
        """(rank, table-window offset) of the bucket owning ``key``."""
        # int() guards against numpy integer keys, whose fixed width
        # overflows on the 64-bit mask arithmetic below.
        h = _mix64(int(key) & ((1 << 64) - 1))
        global_bucket = h % (self.nranks * self.buckets_per_rank)
        return (
            global_bucket // self.buckets_per_rank,
            8 * (global_bucket % self.buckets_per_rank),
        )

    def _empty_table(self) -> bytes:
        """One shard's bucket array with every chain empty."""
        return DPTR_NULL.to_bytes(8, "little", signed=True) * self.buckets_per_rank

    # -- entry I/O ------------------------------------------------------------
    def _read_entry(self, ctx: RankContext, ptr: int) -> tuple[int, int, int]:
        """Fetch one 24-byte heap entry with a single one-sided get."""
        d = unpack_dptr(ptr)
        return _ENTRY.unpack(
            ctx.get(self.heap.data_win, d.rank, d.offset, ENTRY_BYTES)
        )

    # -- replication support ------------------------------------------------
    def enable_mirror(self) -> None:
        """Arm the per-shard key mirror (before any inserts happen)."""
        if self._mirror is None:
            self._mirror = [dict() for _ in range(self.nranks)]

    def _mirror_set(self, shard: int, key: int, value: int) -> None:
        if self._mirror is not None:
            with self._lock:
                self._mirror[shard][key] = value

    def _mirror_drop(self, shard: int, key: int) -> None:
        if self._mirror is not None:
            with self._lock:
                self._mirror[shard].pop(key, None)

    def rebuild_shard(self, ctx: RankContext, shard: int) -> int:
        """Reconstruct ``shard``'s table and heap segments after a crash.

        Re-initializes the bucket array and the heap free list in place,
        then re-inserts the shard's surviving ``{key: value}`` set from the
        mirror.  Entries that spilled onto other ranks' heaps before the
        crash become unreachable garbage (documented limitation: failover
        assumes the heap was provisioned to avoid spill).  Returns the
        number of re-inserted entries.
        """
        if self._mirror is None:
            raise RuntimeError("DHT mirror not enabled; cannot rebuild")
        ctx.put(self.table_win, shard, 0, self._empty_table())
        self.heap.reset_free_list(ctx, shard)
        with self._lock:
            # the rebuilt heap's parked entries are free already; a new
            # list, so a pass that took some out cannot put them back
            self._parked[shard] = []
            entries = list(self._mirror[shard].items())
        for key, value in entries:
            self.insert(ctx, key, value)
        return len(entries)

    # -- operations (paper Listing 4) -------------------------------------------
    def insert(self, ctx: RankContext, key: int, value: int) -> None:
        """Prepend a (key, value) entry to the key's bucket chain."""
        rank, boff = self.bucket_of(key)
        entry_ptr = self.heap.acquire_block_anywhere(ctx, preferred=rank)
        d, win = unpack_dptr(entry_ptr), self.heap.data_win
        head = ctx.aget(self.table_win, rank, boff)
        while True:
            ctx.iput(win, d.rank, d.offset, _ENTRY.pack(key, value, head))
            ctx.flush(win, d.rank)
            found = ctx.cas(self.table_win, rank, boff, head, entry_ptr)
            if found == head:
                self._mirror_set(rank, key, value)
                return
            head = found  # concurrent insert/delete; retry with fresh head

    def lookup(self, ctx: RankContext, key: int) -> int | None:
        """Return the most recently inserted value for ``key``, else None."""
        return self.lookup_many(ctx, [key])[0]

    def lookup_many(
        self, ctx: RankContext, keys: list[int]
    ) -> list[int | None]:
        """Batched lookup: one value (or ``None``) per key, in key order.

        Wave algorithm: all bucket heads are fetched in one batched read
        (coalesced per owner rank), then each wave fetches the next chain
        entry of every still-unresolved key in one batch.  The number of
        network rounds is the longest chain walked, not the key count.  A
        key whose walk hits a deletion mark (next pointing at itself)
        restarts from its bucket, joining the next wave — the same restart
        rule as the scalar path.
        """
        keys = [int(k) for k in keys]
        results: list[int | None] = [None] * len(keys)
        # the bucket-head read of every key (again on a restart); the
        # pointers come back signed, so NULL is DPTR_NULL itself
        heads = [(rank, boff, 8) for rank, boff in map(self.bucket_of, keys)]
        ptrs = [
            int.from_bytes(b, "little", signed=True)
            for b in ctx.get_batch(self.table_win, heads)
        ]
        active = [i for i, ptr in enumerate(ptrs) if ptr != DPTR_NULL]
        while active:
            specs = []
            for i in active:
                d = unpack_dptr(ptrs[i])
                specs.append((d.rank, d.offset, ENTRY_BYTES))
            blobs = ctx.get_batch(self.heap.data_win, specs)
            nxt_active: list[int] = []
            restart: list[int] = []
            for i, blob in zip(active, blobs):
                k, v, nxt = _ENTRY.unpack(blob)
                if nxt == ptrs[i]:  # entry is being deleted: restart
                    restart.append(i)
                elif k == keys[i]:
                    results[i] = v
                elif nxt != DPTR_NULL:
                    ptrs[i] = nxt
                    nxt_active.append(i)
                # else: chain exhausted — the key is absent.
            if restart:
                blobs = ctx.get_batch(self.table_win, [heads[i] for i in restart])
                for i, b in zip(restart, blobs):
                    results[i] = None
                    ptrs[i] = int.from_bytes(b, "little", signed=True)
                    if ptrs[i] != DPTR_NULL:
                        nxt_active.append(i)
            active = nxt_active
        return results

    def delete(self, ctx: RankContext, key: int) -> bool:
        """Unlink and park the first entry matching ``key``.

        Returns ``True`` if an entry was deleted.  Implements the two-CAS
        protocol: CAS 1 marks the victim (next := self), CAS 2 swings the
        predecessor pointer past it.  If the predecessor changes (it was
        itself deleted or a new entry was inserted), the unlink re-walks
        the chain from the bucket, which is the restart the paper
        describes.
        """
        while True:
            outcome = self._try_delete(ctx, key)
            if outcome is not None:
                return outcome

    def _try_delete(self, ctx: RankContext, key: int) -> bool | None:
        """One delete attempt; ``None`` means restart from the bucket."""
        rank, boff = self.bucket_of(key)
        ptr = ctx.aget(self.table_win, rank, boff)
        while not is_null(ptr):
            k, _, nxt = self._read_entry(ctx, ptr)
            if nxt == ptr:
                return None  # concurrent deletion in the chain: restart
            if k == key:
                # CAS 1: mark the victim by pointing next at itself.
                d = unpack_dptr(ptr)
                found = ctx.cas(
                    self.heap.data_win, d.rank, d.offset + _NEXT_OFF, nxt, ptr
                )
                if found != nxt:
                    return None  # lost the race (or successor deleted)
                self._unlink(ctx, rank, boff, ptr, nxt)
                self._park(ptr)
                self._mirror_drop(rank, key)
                return True
            ptr = nxt  # no predecessor kept: the unlink re-walks
        return False

    def _unlink(
        self, ctx: RankContext, rank: int, boff: int, victim: int, nxt: int
    ) -> None:
        """CAS 2 (with helping re-walks): bypass the marked ``victim``."""
        while True:
            # find the word that currently points at `victim`
            prev = (self.table_win, rank, boff)
            cur = ctx.aget(*prev)
            while cur != victim and not is_null(cur):
                _, _, cnxt = self._read_entry(ctx, cur)
                if cnxt == cur:
                    break  # a marked entry in the path: re-walk
                d = unpack_dptr(cur)
                prev = (self.heap.data_win, d.rank, d.offset + _NEXT_OFF)
                cur = cnxt
            if is_null(cur):
                return  # victim no longer reachable: already bypassed
            if cur == victim and ctx.cas(*prev, victim, nxt) == victim:
                return

    # -- memory reclamation -------------------------------------------------------
    def _park(self, ptr: int) -> None:
        # the tag is read after the unlink: a transaction that may still
        # hold ``ptr`` announced a watermark no newer than it
        tag = self.epochs.last_issued if self.epochs is not None else 0
        with self._lock:
            self._parked[unpack_dptr(ptr).rank].append((tag, ptr))

    def parked_count(self) -> int:
        """Unlinked entries not yet back on a free list, over all shards."""
        return sum(map(len, self._parked))

    def reclaim(self, ctx: RankContext, floor: int) -> int:
        """Free every parked entry tagged below ``floor``; returns how many.

        Never raises: a shard this rank may not reach keeps its entries
        parked (its rebuild drops them), and so does a shard whose
        release failed, which then had no effect, unless the shard was
        rebuilt meanwhile.
        """
        mem = getattr(ctx.rt, "membership", None)
        released = 0
        for shard in range(self.nranks):
            if mem is not None and not mem.serviceable(shard, ctx.rank):
                continue
            with self._lock:
                parked = self._parked[shard]
                due = [e for e in parked if e[0] < floor]
                parked[:] = [e for e in parked if e[0] >= floor]
            for i, (_, ptr) in enumerate(due):
                try:
                    self.heap.release_block(ctx, ptr)
                except RmaError:
                    with self._lock:
                        if self._parked[shard] is parked:  # not rebuilt
                            parked[:0] = due[i:]
                    break
                released += 1
        return released

    # -- diagnostics ----------------------------------------------------------------
    def items(self, ctx: RankContext) -> list[tuple[int, int]]:
        """Non-atomic full scan (tests/diagnostics only)."""
        out: list[tuple[int, int]] = []
        for rank in range(self.nranks):
            for b in range(self.buckets_per_rank):
                ptr = ctx.aget(self.table_win, rank, 8 * b)
                while not is_null(ptr):
                    k, v, nxt = self._read_entry(ctx, ptr)
                    if nxt == ptr:
                        break
                    out.append((k, v))
                    ptr = nxt
        return out

    def local_count(self, ctx: RankContext) -> int:
        """Entries currently allocated on this rank's heap shard."""
        return self.heap.allocated_count(ctx, ctx.rank)
