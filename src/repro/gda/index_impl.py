"""Vertex directory and explicit indexes (paper Sections 3.6, 5.2 D/E).

Two structures live here:

* :class:`VertexDirectory` — the sharded per-rank enumeration of vertex
  primary DPtrs.  Collective transactions (OLAP/OLSP) iterate "their
  local vertices" through it; it is also the enumeration source when an
  explicit index is built.
* :class:`ExplicitIndex` — a GDI explicit index: a DNF
  :class:`~repro.gdi.constraint.Constraint` plus per-rank posting sets of
  the vertices currently satisfying it.  Indexes are *eventually
  consistent* (Section 3.8): they are updated at transaction commit, so
  between a data commit and the index update a reader may observe a stale
  posting — GDI transactions re-validate against the data they fetch.

Substitution note (see DESIGN.md): the paper shards these structures over
RMA windows; here the shards are per-rank Python sets guarded by locks,
and every cross-rank update/read charges the equivalent one-sided message
cost to the calling rank's simulated clock, so scaling shapes are
unaffected.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable

from ..gdi.constraint import Constraint
from ..rma.runtime import RankContext
from .dptr import unpack_dptr
from .handles import EdgeHandle

__all__ = ["VertexDirectory", "ExplicitIndex", "ExplicitEdgeIndex"]


def _charge_shard_access(ctx: RankContext, shard_rank: int, nbytes: int = 8) -> None:
    """Charge one one-sided message to reach a (possibly remote) shard.

    Stat sweeps that pull more than one 8-byte counter from a shard (the
    per-label histogram, multi-counter summaries) pass the *proportional*
    payload via ``nbytes`` instead of the flat single-counter default.
    """
    ctx.charge(ctx.rt.cost.onesided(ctx.rank, shard_rank, nbytes))


class VertexDirectory:
    """Sharded registry of all vertex primary DPtrs, one shard per rank.

    Alongside the raw vid sets, each shard maintains a per-label vertex
    *histogram* (label id → number of shard vertices carrying it), updated
    by transaction commits.  The histogram is the query planner's cheapest
    cardinality source: reading it costs one proportional-size message per
    shard instead of a data scan.
    """

    def __init__(self, nranks: int) -> None:
        self._shards: list[set[int]] = [set() for _ in range(nranks)]
        self._label_counts: list[dict[int, int]] = [
            {} for _ in range(nranks)
        ]
        #: per-label member vid sets, shard-local (label id -> vids); the
        #: query engine's LabelScan sweeps these instead of the full shard
        self._label_members: list[dict[int, set[int]]] = [
            {} for _ in range(nranks)
        ]
        self._locks = [threading.Lock() for _ in range(nranks)]
        #: bumped on every mutation; planners cache stats against it
        self.version = 0

    def _count_labels(
        self, rank: int, vid: int, labels: Iterable[int], delta: int
    ) -> None:
        counts = self._label_counts[rank]
        members = self._label_members[rank]
        for lid in set(labels):
            n = counts.get(lid, 0) + delta
            if n > 0:
                counts[lid] = n
            else:
                counts.pop(lid, None)
            if delta > 0:
                members.setdefault(lid, set()).add(vid)
            else:
                vids = members.get(lid)
                if vids is not None:
                    vids.discard(vid)
                    if not vids:
                        del members[lid]

    def add(
        self, ctx: RankContext, vid: int, labels: Iterable[int] = ()
    ) -> None:
        rank = unpack_dptr(vid).rank
        _charge_shard_access(ctx, rank)
        with self._locks[rank]:
            self._shards[rank].add(vid)
            self._count_labels(rank, vid, labels, +1)
            self.version += 1

    def remove(
        self, ctx: RankContext, vid: int, labels: Iterable[int] = ()
    ) -> None:
        rank = unpack_dptr(vid).rank
        _charge_shard_access(ctx, rank)
        with self._locks[rank]:
            self._shards[rank].discard(vid)
            self._count_labels(rank, vid, labels, -1)
            self.version += 1

    def update_labels(
        self,
        ctx: RankContext,
        vid: int,
        before: Iterable[int],
        after: Iterable[int],
    ) -> None:
        """Adjust the histogram after a commit changed a vertex's labels."""
        before, after = set(before), set(after)
        if before == after:
            return
        rank = unpack_dptr(vid).rank
        changed = before ^ after
        _charge_shard_access(ctx, rank, 8 * max(1, len(changed)))
        with self._locks[rank]:
            self._count_labels(rank, vid, before - after, -1)
            self._count_labels(rank, vid, after - before, +1)
            self.version += 1

    def contains(self, vid: int) -> bool:
        """Is ``vid`` registered (any shard)?  Control-path only: the
        crash-safe rebalance uses this as its per-vertex replay guard."""
        rank = unpack_dptr(vid).rank
        with self._locks[rank]:
            return vid in self._shards[rank]

    def local_vertices(self, ctx: RankContext) -> list[int]:
        """Snapshot of the vertices homed on the calling rank."""
        with self._locks[ctx.rank]:
            snap = list(self._shards[ctx.rank])
        ctx.compute(len(snap))
        return snap

    def shard_vertices(
        self, ctx: RankContext, shard: int, label_id: int | None = None
    ) -> list[int]:
        """Snapshot of one shard's vertices (degraded-mode iteration).

        After a failover the backup rank hosts both its own shard and the
        dead rank's; collectives that walk "local vertices" walk every
        *hosted* shard through this accessor instead.

        With ``label_id`` only the shard's vertices carrying that label
        are returned (the LabelScan access path), fetched with one
        message proportional to the member list instead of the full
        shard sweep.  Membership reflects committed label sets — like
        the histogram and explicit indexes it is eventually consistent,
        so callers re-validate against the holders they fetch.
        """
        if label_id is not None:
            with self._locks[shard]:
                snap = list(self._label_members[shard].get(label_id, ()))
            _charge_shard_access(ctx, shard, 8 * max(1, len(snap)))
            ctx.compute(len(snap))
            return snap
        _charge_shard_access(ctx, shard)
        with self._locks[shard]:
            snap = list(self._shards[shard])
        ctx.compute(len(snap))
        return snap

    def relocate(
        self,
        ctx: RankContext,
        old_vid: int,
        new_vid: int,
        labels: Iterable[int] = (),
    ) -> None:
        """Move one vertex's directory entry (and histogram) to its new shard."""
        labels = list(labels)
        self.remove(ctx, old_vid, labels=labels)
        self.add(ctx, new_vid, labels=labels)

    def count(self, ctx: RankContext, rank: int | None = None) -> int:
        """Vertex count of one shard, or of the whole database."""
        if rank is not None:
            _charge_shard_access(ctx, rank)
            with self._locks[rank]:
                return len(self._shards[rank])
        total = 0
        for r in range(len(self._shards)):
            _charge_shard_access(ctx, r)
            with self._locks[r]:
                total += len(self._shards[r])
        return total

    def label_histogram(self, ctx: RankContext) -> dict[int, int]:
        """Cluster-wide per-label vertex counts (label id → vertices).

        One message per shard, charged proportionally to the number of
        counters the shard returns — a stats sweep, not a data scan.
        """
        merged: dict[int, int] = {}
        for r in range(len(self._shards)):
            with self._locks[r]:
                part = dict(self._label_counts[r])
            _charge_shard_access(ctx, r, 8 * max(1, len(part)))
            for lid, n in part.items():
                merged[lid] = merged.get(lid, 0) + n
        return merged

    def label_count(self, ctx: RankContext, label_id: int) -> int:
        """Cluster-wide count of vertices carrying ``label_id``."""
        total = 0
        for r in range(len(self._shards)):
            _charge_shard_access(ctx, r)
            with self._locks[r]:
                total += self._label_counts[r].get(label_id, 0)
        return total


@dataclass
class ExplicitIndex:
    """A GDI explicit index over vertices satisfying a DNF constraint."""

    name: str
    constraint: Constraint
    nranks: int
    _shards: list[set[int]] = field(default_factory=list, repr=False)
    _locks: list[threading.Lock] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not self._shards:
            self._shards = [set() for _ in range(self.nranks)]
            self._locks = [threading.Lock() for _ in range(self.nranks)]

    # -- maintenance (called by transaction commit) ------------------------
    def matches(self, holder, dtype_of) -> bool:
        return self.constraint.evaluate(
            holder.labels, holder.properties, dtype_of
        )

    def update_on_commit(
        self,
        ctx: RankContext,
        vid: int,
        matched_before: bool,
        matched_after: bool,
    ) -> None:
        if matched_before == matched_after:
            return
        rank = unpack_dptr(vid).rank
        _charge_shard_access(ctx, rank)
        with self._locks[rank]:
            if matched_after:
                self._shards[rank].add(vid)
            else:
                self._shards[rank].discard(vid)

    def bulk_add_local(self, ctx: RankContext, vids: Iterable[int]) -> int:
        """Index-build helper: add already-filtered local vertices."""
        added = 0
        with self._locks[ctx.rank]:
            for vid in vids:
                self._shards[ctx.rank].add(vid)
                added += 1
        return added

    def relocate(self, ctx: RankContext, old_vid: int, new_vid: int) -> None:
        """Rewrite a posting after its vertex moved to another rank."""
        old_rank = unpack_dptr(old_vid).rank
        with self._locks[old_rank]:
            present = old_vid in self._shards[old_rank]
            self._shards[old_rank].discard(old_vid)
        if present:
            new_rank = unpack_dptr(new_vid).rank
            _charge_shard_access(ctx, new_rank)
            with self._locks[new_rank]:
                self._shards[new_rank].add(new_vid)

    # -- queries ------------------------------------------------------------
    def local_vertices(self, ctx: RankContext) -> list[int]:
        """``GDI_GetLocalVerticesOfIndex``: this rank's posting list."""
        with self._locks[ctx.rank]:
            snap = list(self._shards[ctx.rank])
        ctx.compute(len(snap))
        return snap

    def shard_vertices(self, ctx: RankContext, shard: int) -> list[int]:
        """One shard's posting list, fetched with a proportional message.

        Single-process (non-collective) index scans sweep every shard
        through this accessor; a remote posting list of *n* vids costs one
        message of ``8 n`` bytes, not a data scan.
        """
        with self._locks[shard]:
            snap = list(self._shards[shard])
        _charge_shard_access(ctx, shard, 8 * max(1, len(snap)))
        ctx.compute(len(snap))
        return snap

    def count(self, ctx: RankContext) -> int:
        """Cluster-wide posting count: the planner's index cardinality."""
        total = 0
        for r in range(self.nranks):
            _charge_shard_access(ctx, r)
            with self._locks[r]:
                total += len(self._shards[r])
        return total


@dataclass
class ExplicitEdgeIndex:
    """A GDI explicit index over edges satisfying a DNF constraint.

    Edge UIDs are volatile (Section 3.4): slot offsets shift when holders
    are rewritten, so the index stores the *source vertices* that carry at
    least one matching edge; :meth:`local_edges` re-resolves the matching
    edge handles inside the caller's transaction.  Maintenance happens at
    commit, like vertex indexes (eventual consistency, Section 3.8).
    """

    name: str
    constraint: Constraint
    nranks: int
    _shards: list[set[int]] = field(default_factory=list, repr=False)
    _locks: list[threading.Lock] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not self._shards:
            self._shards = [set() for _ in range(self.nranks)]
            self._locks = [threading.Lock() for _ in range(self.nranks)]

    def source_matches(self, tx, txv) -> bool:
        """Does any edge slot of this vertex satisfy the constraint?"""
        for slot in txv.holder.edges:
            if EdgeHandle(tx, txv, slot)._satisfies(self.constraint):
                return True
        return False

    def update_on_commit(
        self,
        ctx: RankContext,
        vid: int,
        matched_before: bool,
        matched_after: bool,
    ) -> None:
        if matched_before == matched_after:
            return
        rank = unpack_dptr(vid).rank
        _charge_shard_access(ctx, rank)
        with self._locks[rank]:
            if matched_after:
                self._shards[rank].add(vid)
            else:
                self._shards[rank].discard(vid)

    def bulk_add_local(self, ctx: RankContext, vids) -> int:
        added = 0
        with self._locks[ctx.rank]:
            for vid in vids:
                self._shards[ctx.rank].add(vid)
                added += 1
        return added

    def relocate(self, ctx: RankContext, old_vid: int, new_vid: int) -> None:
        """Rewrite a posting after its source vertex moved."""
        old_rank = unpack_dptr(old_vid).rank
        with self._locks[old_rank]:
            present = old_vid in self._shards[old_rank]
            self._shards[old_rank].discard(old_vid)
        if present:
            new_rank = unpack_dptr(new_vid).rank
            _charge_shard_access(ctx, new_rank)
            with self._locks[new_rank]:
                self._shards[new_rank].add(new_vid)

    def local_source_vertices(self, ctx: RankContext) -> list[int]:
        with self._locks[ctx.rank]:
            snap = list(self._shards[ctx.rank])
        ctx.compute(len(snap))
        return snap

    def local_edges(self, ctx: RankContext, tx) -> list:
        """Matching edge handles on this rank, resolved inside ``tx``."""
        out = []
        for vid in self.local_source_vertices(ctx):
            v = tx.associate_vertex(vid)
            out.extend(v.edges(constraint=self.constraint))
        return out

    def count_sources(self, ctx: RankContext) -> int:
        """Cluster-wide source count: the planner's edge-index cardinality."""
        total = 0
        for r in range(self.nranks):
            _charge_shard_access(ctx, r)
            with self._locks[r]:
                total += len(self._shards[r])
        return total
