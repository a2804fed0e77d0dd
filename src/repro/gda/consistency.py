"""Global database consistency checker (test/diagnostic collective).

Verifies the structural invariants that GDA's design promises hold
whenever no transaction is open:

1. **Directory ↔ DHT agreement** — every vertex in the directory has a
   DHT mapping from its application ID to its primary DPtr, and every DHT
   entry names a directory vertex.
2. **Holder integrity** — every directory entry deserializes into a
   vertex holder whose ``app_id`` matches the DHT key.
3. **Edge reciprocity** — every lightweight slot has a matching
   reciprocal slot on the other endpoint (OUT↔IN with equal label,
   UNDIR↔UNDIR), and every heavyweight slot points at an edge holder
   that (a) exists, (b) names this vertex as an endpoint, and (c) is
   referenced from both endpoints.
4. **Storage accounting** — the number of allocated blocks equals the
   blocks reachable from live holders (no leaks, no double use).
5. **No leaked locks** — with no transaction open every per-block RW lock
   word is zero (no reader counts or write bits left behind by aborted
   or crashed transactions).
6. **DHT heap accounting** — the allocated DHT heap entries are exactly
   the entries reachable from the bucket chains plus the unlinked ones
   parked until the GC floor passes them (no leak, no double free).
7. **Sound free lists** — on every shard of the BGDL pool and of the DHT
   heap, the free list walked from its head is acyclic and holds exactly
   the blocks not counted as allocated; none of its BGDL blocks is one
   that invariant 4 found reachable from a live holder.

Used by the integration tests after concurrent OLTP storms; returns a
report object whose ``ok`` flag and ``problems`` list make failures
debuggable.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field

from ..rma.runtime import RankContext
from .blocks import SYS_LOCKS_OFF, BlockManager
from .checkpoint import _hosted_vertices
from .database_impl import GdaDatabase
from .dptr import unpack_dptr
from .holder import DIR_IN, DIR_MASK, DIR_OUT, DIR_UNDIR, KIND_EDGE, KIND_VERTEX, SLOT_HEAVY

__all__ = ["ConsistencyReport", "check_consistency"]


@dataclass
class ConsistencyReport:
    """Outcome of one consistency sweep."""

    n_vertices: int = 0
    n_lightweight_slots: int = 0
    n_heavy_slots: int = 0
    n_edge_holders: int = 0
    blocks_allocated: int = 0
    blocks_reachable: int = 0
    dht_allocated: int = 0
    dht_reachable: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _reciprocal(direction: int) -> int:
    if direction == DIR_OUT:
        return DIR_IN
    if direction == DIR_IN:
        return DIR_OUT
    return DIR_UNDIR


def _free_list_problems(
    ctx: RankContext, pool: BlockManager, shard: int, used: list[int], what: str
) -> list[str]:
    """Invariant 7 on one shard of one pool; ``used``: the DPtrs in use."""
    n, walk = pool.blocks_per_rank, pool.free_list(ctx, shard)
    where = f"{what} free list on shard {shard}"
    if len(set(walk)) < len(walk) or (walk and not 0 <= walk[-1] < n):
        return [f"{where}: a cycle or a link out of the pool at {walk[-1]}"]
    problems = []
    want = n - pool.allocated_count(ctx, shard)
    if len(walk) != want:
        problems.append(f"{where}: {len(walk)} blocks, {want} not allocated")
    on_shard = (unpack_dptr(p) for p in used)
    taken = {d.offset // pool.block_size for d in on_shard if d.rank == shard}
    if taken.intersection(walk):
        problems.append(f"{where}: holds used {sorted(taken.intersection(walk))}")
    return problems


def check_consistency(ctx: RankContext, db: GdaDatabase) -> ConsistencyReport:
    """Collectively verify the invariants; all ranks get the same report."""
    report = ConsistencyReport()
    mem = getattr(ctx.rt, "membership", None)
    degraded = mem is not None and mem.degraded()
    hosted = mem.shards_of(ctx.rank) if degraded else [ctx.rank]

    # ---- gather the global picture -------------------------------------
    local_vids = _hosted_vertices(ctx, db)
    local_holders = {}
    for vid in local_vids:
        try:
            stored = db.storage.read(ctx, vid)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            report.problems.append(f"vertex {vid:#x}: unreadable ({exc})")
            continue
        if stored.holder.kind != KIND_VERTEX:
            report.problems.append(f"vertex {vid:#x}: holder kind mismatch")
            continue
        local_holders[vid] = stored

    # replicate (vid -> app_id, slot summary) for reciprocity checking
    slot_summary = {
        vid: (stored.holder.app_id, list(stored.holder._slot_values()))
        for vid, stored in local_holders.items()
    }
    global_slots: dict[int, tuple[int, list]] = {}
    for part in ctx.allgather(slot_summary):
        if part is not None:  # crashed ranks contribute None
            global_slots.update(part)
    report.n_vertices = len(global_slots)

    # ---- invariant 1: directory <-> DHT --------------------------------
    chained = db.dht.items(ctx) if ctx.rank == 0 else None
    chained = ctx.bcast(chained, root=0)
    dht_items = dict(chained)
    for vid, (app_id, _) in global_slots.items():
        mapped = dht_items.get(app_id)
        if mapped != vid:
            report.problems.append(
                f"app {app_id}: DHT maps to "
                f"{mapped if mapped is None else hex(mapped)}, directory "
                f"has {vid:#x}"
            )
    for app_id, vid in dht_items.items():
        if vid not in global_slots:
            report.problems.append(
                f"DHT entry app {app_id} -> {vid:#x} has no directory vertex"
            )

    # ---- invariants 3: edge reciprocity ---------------------------------
    heavy_refs: Counter = Counter()
    lw_multiset: Counter = Counter()
    for vid, (app_id, slots) in global_slots.items():
        for dptr, label_id, flags in slots:
            if flags & SLOT_HEAVY:
                heavy_refs[dptr] += 1
                report.n_heavy_slots += 1
            else:
                report.n_lightweight_slots += 1
                lw_multiset[(vid, dptr, label_id, flags & DIR_MASK)] += 1
    for (vid, other, label_id, direction), count in lw_multiset.items():
        if other not in global_slots:
            report.problems.append(
                f"slot {vid:#x} -> {other:#x}: target vertex missing"
            )
            continue
        want = (other, vid, label_id, _reciprocal(direction))
        back = lw_multiset.get(want, 0)
        if direction == DIR_UNDIR and vid == other:
            continue  # undirected self-loop: single slot by design
        if back != count:
            report.problems.append(
                f"slot {vid:#x} -> {other:#x} (label {label_id}, "
                f"dir {direction}) x{count}: reciprocal x{back}"
            )

    # heavy holders: read each once (owner = current host of the
    # holder's shard, per the membership translation table)
    local_heavy = {}
    for dptr in heavy_refs:
        owner = unpack_dptr(dptr).rank
        if degraded:
            owner = mem.host_of(owner)
        if owner != ctx.rank:
            continue
        try:
            stored = db.storage.read(ctx, dptr)
        except Exception as exc:  # noqa: BLE001
            report.problems.append(f"edge holder {dptr:#x}: unreadable ({exc})")
            continue
        if stored.holder.kind != KIND_EDGE:
            report.problems.append(f"edge holder {dptr:#x}: kind mismatch")
            continue
        local_heavy[dptr] = (
            stored.holder.src,
            stored.holder.dst,
            stored.holder.directed,
            stored.all_blocks,
        )
    global_heavy: dict[int, tuple] = {}
    for part in ctx.allgather(local_heavy):
        if part is not None:
            global_heavy.update(part)
    report.n_edge_holders = len(global_heavy)
    for dptr, refs in heavy_refs.items():
        meta = global_heavy.get(dptr)
        if meta is None:
            report.problems.append(f"heavy slot -> {dptr:#x}: holder missing")
            continue
        src, dst, directed, _ = meta
        if src not in global_slots or dst not in global_slots:
            report.problems.append(
                f"edge holder {dptr:#x}: endpoint missing "
                f"({src:#x}, {dst:#x})"
            )
        expected_refs = 1 if src == dst and not directed else 2
        if refs != expected_refs:
            report.problems.append(
                f"edge holder {dptr:#x}: referenced {refs}x, "
                f"expected {expected_refs}"
            )

    # ---- invariant 4: storage accounting ----------------------------------
    local_reachable = [b for s in local_holders.values() for b in s.all_blocks]
    local_reachable += [b for meta in local_heavy.values() for b in meta[3]]
    reachable = [b for part in ctx.allgather(local_reachable) if part for b in part]
    report.blocks_reachable = len(reachable)
    report.blocks_allocated = sum(
        db.blocks.allocated_count(ctx, r) for r in range(ctx.nranks)
    )
    if report.blocks_allocated != report.blocks_reachable:
        report.problems.append(
            f"storage leak: {report.blocks_allocated} blocks allocated, "
            f"{report.blocks_reachable} reachable from live holders"
        )

    # ---- invariant 6: DHT heap accounting ---------------------------------
    report.dht_reachable = len(chained) + db.dht.parked_count()
    report.dht_allocated = sum(
        db.dht.heap.allocated_count(ctx, r) for r in range(ctx.nranks)
    )
    if report.dht_allocated != report.dht_reachable:
        report.problems.append(
            f"DHT heap leak: {report.dht_allocated} entries allocated, "
            f"{report.dht_reachable} chained or parked"
        )

    # ---- invariant 5: no leaked lock words --------------------------------
    nblocks = db.blocks.blocks_per_rank
    for shard in hosted:
        raw = ctx.get(
            db.blocks.system_win, shard, SYS_LOCKS_OFF, 8 * nblocks
        )
        for i, word in enumerate(struct.unpack(f"<{nblocks}Q", raw)):
            if word != 0:
                report.problems.append(
                    f"lock word for block {i} on shard {shard} leaked: "
                    f"{word:#x}"
                )

    # ---- invariant 7: sound free lists ------------------------------------
    pools = ((db.blocks, reachable, "BGDL"), (db.dht.heap, [], "DHT heap"))
    for shard in hosted:
        for pool, used, what in pools:
            report.problems += _free_list_problems(ctx, pool, shard, used, what)

    # every rank returns the merged problem list
    all_problems: list[str] = []
    for part in ctx.allgather(report.problems):
        if part is None:
            continue
        for p in part:
            if p not in all_problems:
                all_problems.append(p)
    report.problems = all_problems
    return report
