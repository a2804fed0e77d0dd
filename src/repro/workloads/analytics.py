"""OLAP graph analytics over collective transactions (paper Section 6.5).

Implements the Graphalytics-style kernels the paper evaluates in Figure 6:
BFS, PageRank (PR), Community Detection by Label Propagation (CDLP),
Weakly Connected Components (WCC), Local Clustering Coefficient (LCC), and
k-hop counts.

Structure of every kernel (Table 2's recommendation): graph data is
accessed through *collective read transactions* — each rank reads all
its local vertices in one batched, columnar scan and keeps the adjacency
as CSR arrays (:class:`LocalAdjacency`) — and the iterative phases
exchange values with collectives (alltoall routed by the owning rank,
allreduce for convergence).  All communication and per-edge compute is
charged to the simulated clocks, so the Figure 6 scaling shapes emerge
from the algorithms' real communication structure.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..gda.holder import csr_indptr, ragged_index
from ..gda.transaction_impl import VertexScan
from ..gdi import EdgeOrientation
from ..generator.lpg import GeneratedGraph
from ..rma.runtime import RankContext

__all__ = [
    "LocalAdjacency",
    "load_local_adjacency",
    "load_local_weighted_adjacency",
    "bfs",
    "khop_count",
    "pagerank",
    "wcc",
    "cdlp",
    "lcc",
    "sssp",
    "triangle_count",
]


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray):
    """``(found, at)``: which ``keys`` occur in ``sorted_keys``, and where."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool), np.zeros(len(keys), dtype=np.int64)
    at = np.searchsorted(sorted_keys, keys)
    at[at == len(sorted_keys)] = 0
    return sorted_keys[at] == keys, at


class LocalAdjacency:
    """This rank's shard of the adjacency, in application-ID space.

    The shard is held as CSR arrays: local vertex ``vertices[i]`` has the
    neighbors ``targets[indptr[i]:indptr[i + 1]]``, and
    ``target_owner[k]`` is the rank owning ``targets[k]`` (vertices can
    spill off their round-robin home under memory pressure, Section
    5.3), so the array kernels route a whole edge array with one mask.
    :attr:`neighbors` and :meth:`home` give the same data as a dict and
    a per-vertex lookup for the kernels written against those.

    Built by :func:`load_local_adjacency`, or directly from a
    ``{app_id: [neighbor app_ids]}`` dict (plus an optional
    ``{app_id: rank}`` ownership dict; unlisted vertices live on
    ``app_id % nranks``).
    """

    def __init__(
        self,
        neighbors: "dict[int, list[int]]",
        n_local_edges: int | None = None,
        nranks: int = 1,
        owner: "dict[int, int] | None" = None,
    ) -> None:
        self.nranks = nranks
        self.vertices = np.fromiter(neighbors, dtype=np.int64, count=len(neighbors))
        self.indptr = csr_indptr([len(n) for n in neighbors.values()])
        self.targets = np.fromiter(
            (v for nbrs in neighbors.values() for v in nbrs),
            dtype=np.int64,
            count=int(self.indptr[-1]),
        )
        self._owner_ids = np.fromiter(sorted(owner or ()), dtype=np.int64)
        self._owner_ranks = np.fromiter(
            (owner[a] for a in self._owner_ids.tolist()), dtype=np.int64
        )
        self.target_owner = self.home_of(self.targets)
        self.n_local_edges = (
            len(self.targets) if n_local_edges is None else n_local_edges
        )
        self.__dict__["neighbors"] = neighbors  # what the cached property would derive

    @classmethod
    def from_csr(
        cls,
        vertices: np.ndarray,
        indptr: np.ndarray,
        targets: np.ndarray,
        target_owner: np.ndarray,
        nranks: int,
        owner_ids: np.ndarray,
        owner_ranks: np.ndarray,
    ) -> "LocalAdjacency":
        """Wrap ready CSR arrays; ``owner_ids`` (sorted) and
        ``owner_ranks`` are the global application-ID ownership map."""
        adj = cls.__new__(cls)
        adj.nranks = nranks
        adj.vertices = vertices
        adj.indptr = indptr
        adj.targets = targets
        adj.target_owner = target_owner
        adj.n_local_edges = len(targets)
        adj._owner_ids = owner_ids
        adj._owner_ranks = owner_ranks
        return adj

    @cached_property
    def neighbors(self) -> "dict[int, list[int]]":
        """``{local app_id: [neighbor app_ids]}``, derived from the CSR."""
        targets = self.targets.tolist()
        bounds = self.indptr.tolist()
        return {
            v: targets[bounds[i] : bounds[i + 1]]
            for i, v in enumerate(self.vertices.tolist())
        }

    @cached_property
    def _owner_map(self) -> "dict[int, int]":
        return dict(zip(self._owner_ids.tolist(), self._owner_ranks.tolist()))

    def home(self, app_id: int) -> int:
        """The rank owning ``app_id``."""
        return self._owner_map.get(app_id, app_id % self.nranks)

    def home_of(self, app_ids: np.ndarray) -> np.ndarray:
        """:meth:`home` of a whole array."""
        out = app_ids % self.nranks
        known, at = _lookup(self._owner_ids, app_ids)
        out[known] = self._owner_ranks[at[known]]
        return out

    @cached_property
    def _by_id(self) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(self.vertices, kind="stable")
        return order, self.vertices[order]

    def rows_of(self, app_ids: np.ndarray) -> np.ndarray:
        """CSR row of each local application ID (-1 if not local)."""
        order, sorted_ids = self._by_id
        known, at = _lookup(sorted_ids, app_ids)
        rows = np.full(len(app_ids), -1, dtype=np.int64)
        rows[known] = order[at[known]]
        return rows

    def frontier_edges(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(targets, owners)`` of all edges leaving the CSR ``rows``."""
        at = ragged_index(
            self.indptr[rows], self.indptr[rows + 1] - self.indptr[rows]
        )
        return self.targets[at], self.target_owner[at]


def _open_read(ctx: RankContext, graph: GeneratedGraph):
    """The collective read transaction an adjacency load runs in."""
    db = graph.db
    # With MVCC enabled the whole load runs on one frozen watermark:
    # every rank reads the same committed prefix, so a concurrent OLTP
    # storm can neither tear the adjacency nor abort the collective.
    return db.start_collective_transaction(ctx, snapshot=db.mvcc is not None)


class _LocalScan(NamedTuple):
    """What both adjacency loaders start from (see
    :func:`_scan_local_vertices`)."""

    scan: VertexScan  # the visible local vertices, one position each
    local: np.ndarray  # the positions that hold a vertex ...
    local_apps: np.ndarray  # ... and their application IDs
    vids: np.ndarray  # every rank's vertices: internal IDs, sorted,
    apps: np.ndarray  # their application IDs
    ranks: np.ndarray  # and the ranks that own them


def _scan_local_vertices(ctx: RankContext, tx) -> _LocalScan:
    """Read every local vertex in one batch and exchange the
    vid -> application-ID map.

    The map is rebuilt from the live database (not from the generator's
    snapshot), so adjacency loads stay correct after OLTP mutations added
    or removed vertices.
    """
    local_vids = tx.visible_vertices(
        tx.db.directory.local_vertices(ctx), ctx.rank
    )
    # One batched read pipelines every local holder fetch (coalesced
    # per home rank) instead of one round trip per vertex.
    scan = tx.associate_vertices(local_vids, missing_ok=True)
    local = np.flatnonzero(scan.present)
    local_apps = scan.app_ids[local]
    # 16 bytes per vertex on the wire, as two int64 columns
    parts = ctx.allgather((scan.vids[local], local_apps))
    vids = np.concatenate([p[0] for p in parts])
    order = np.argsort(vids, kind="stable")
    return _LocalScan(
        scan,
        local,
        local_apps,
        vids[order],
        np.concatenate([p[1] for p in parts])[order],
        np.repeat(np.arange(len(parts)), [len(p[0]) for p in parts])[order],
    )


def load_local_adjacency(
    ctx: RankContext,
    graph: GeneratedGraph,
    orientation: EdgeOrientation = EdgeOrientation.OUTGOING,
    dedup: bool = False,
) -> LocalAdjacency:
    """Fetch the local adjacency shard inside one collective transaction."""
    tx = _open_read(ctx, graph)
    adj = _csr_adjacency(ctx, tx, orientation, dedup)
    tx.commit()
    return adj


def _csr_adjacency(
    ctx: RankContext, tx, orientation: EdgeOrientation, dedup: bool
) -> LocalAdjacency:
    """The adjacency shard as seen by the open collective ``tx``.

    One orientation mask over the scan's slot columns and one
    vid -> application-ID ``searchsorted`` turn the batch into CSR; no
    per-vertex handle is created.
    """
    s = _scan_local_vertices(ctx, tx)
    indptr, nbr_vids = s.scan.neighbors(orientation)
    row = np.repeat(np.arange(len(s.scan)), np.diff(indptr))
    # Skip dangling slots whose target vanished mid-snapshot.
    known, at = _lookup(s.vids, nbr_vids)
    row, targets, owners = row[known], s.apps[at[known]], s.ranks[at[known]]
    if dedup:
        order = np.lexsort((targets, row))
        row, targets, owners = row[order], targets[order], owners[order]
        first = np.ones(len(row), dtype=bool)
        first[1:] = (row[1:] != row[:-1]) | (targets[1:] != targets[:-1])
        row, targets, owners = row[first], targets[first], owners[first]
    out_indptr = csr_indptr(np.bincount(row, minlength=len(s.scan))[s.local])
    by_app = np.argsort(s.apps, kind="stable")
    return LocalAdjacency.from_csr(
        s.local_apps,
        out_indptr,
        targets,
        owners,
        ctx.nranks,
        s.apps[by_app],
        s.ranks[by_app],
    )


# ------------------------------------------------------------------- BFS --
def _expand_frontier(
    ctx: RankContext, adj: LocalAdjacency, frontier: np.ndarray
) -> tuple[np.ndarray, int]:
    """One BFS level: ship the frontier rows' neighbors to their owners
    and return the distinct local vertices (CSR rows) that were named,
    with the number of IDs received.

    Per-destination dedup: a frontier reaching the same remote vertex
    through many edges sends its ID once, shrinking both the alltoall
    payload and the receiver-side scan.
    """
    targets, owners = adj.frontier_edges(frontier)
    ctx.compute(len(targets))
    received = ctx.alltoall(
        [np.unique(targets[owners == r]) for r in range(ctx.nranks)]
    )
    named = np.unique(np.concatenate(received))
    return adj.rows_of(named), sum(len(box) for box in received)


def bfs(
    ctx: RankContext,
    graph: GeneratedGraph,
    root: int,
    orientation: EdgeOrientation = EdgeOrientation.ANY,
    adj: LocalAdjacency | None = None,
) -> dict[int, int]:
    """Level-synchronous distributed BFS from application ID ``root``.

    Returns this rank's local ``{app_id: depth}`` map (allgather to merge).
    """
    if adj is None:
        adj = load_local_adjacency(ctx, graph, orientation)
    depth = _bfs_levels(ctx, adj, root, max_level=None, charge_receive=True)
    seen = np.flatnonzero(depth >= 0)
    return dict(zip(adj.vertices[seen].tolist(), depth[seen].tolist()))


def _bfs_levels(
    ctx: RankContext,
    adj: LocalAdjacency,
    root: int,
    max_level: int | None,
    charge_receive: bool,
) -> np.ndarray:
    """Depth per CSR row (-1 = not reached) of a BFS from ``root``,
    stopped after ``max_level`` levels when given."""
    depth = np.full(len(adj.vertices), -1, dtype=np.int64)
    frontier = np.empty(0, dtype=np.int64)
    if adj.home(root) == ctx.rank:
        frontier = adj.rows_of(np.array([root], dtype=np.int64))
        frontier = frontier[frontier >= 0]
        depth[frontier] = 0
    level = 0
    while max_level is None or level < max_level:
        if not ctx.allreduce(len(frontier)):
            break
        rows, n_received = _expand_frontier(ctx, adj, frontier)
        level += 1
        frontier = rows[depth[rows] < 0]
        depth[frontier] = level
        if charge_receive:
            ctx.compute(n_received)
    return depth


def khop_count(
    ctx: RankContext,
    graph: GeneratedGraph,
    root: int,
    k: int,
    orientation: EdgeOrientation = EdgeOrientation.ANY,
    adj: LocalAdjacency | None = None,
) -> int:
    """Number of vertices within ``k`` hops of ``root`` (global result)."""
    if adj is None:
        adj = load_local_adjacency(ctx, graph, orientation)
    depth = _bfs_levels(ctx, adj, root, max_level=k, charge_receive=False)
    return ctx.allreduce(int(np.count_nonzero(depth >= 0)))


# -------------------------------------------------------------- PageRank --
def pagerank(
    ctx: RankContext,
    graph: GeneratedGraph,
    iterations: int = 20,
    damping: float = 0.85,
    adj: LocalAdjacency | None = None,
) -> dict[int, float]:
    """Classic iterative PageRank over out-edges; returns local ranks."""
    if adj is None:
        adj = load_local_adjacency(ctx, graph, EdgeOrientation.OUTGOING)
    n_local = len(adj.vertices)
    # live global vertex count (mutations may have changed it since the
    # graph was generated), so the rank mass sums to exactly 1
    n = max(1, ctx.allreduce(n_local))
    degree = np.diff(adj.indptr)
    source = np.repeat(np.arange(n_local), degree)
    dangling_rows = degree == 0
    # Combiner aggregation: sum all shares headed for one destination
    # vertex locally, then ship (ids, sums) as packed numpy vectors —
    # the alltoall payload scales with distinct targets, not edges.
    routes = []
    for r in range(ctx.nranks):
        edges = np.flatnonzero(adj.target_owner == r)
        ids, slot = np.unique(adj.targets[edges], return_inverse=True)
        routes.append((edges, ids, slot))
    pr = np.full(n_local, 1.0 / n)
    for _ in range(iterations):
        share = (pr / np.maximum(degree, 1))[source]
        ctx.compute(adj.n_local_edges)
        received = ctx.alltoall(
            [
                (ids, np.bincount(slot, weights=share[edges], minlength=len(ids)))
                for edges, ids, slot in routes
            ]
        )
        dangling_total = ctx.allreduce(float(pr[dangling_rows].sum()))
        incoming = np.zeros(n_local)
        for ids, sums in received:
            np.add.at(incoming, adj.rows_of(ids), sums)
        base = (1.0 - damping) / n + damping * dangling_total / n
        pr = base + damping * incoming
        ctx.compute(n_local)
    return dict(zip(adj.vertices.tolist(), pr.tolist()))


# ------------------------------------------------------------------ WCC --
def wcc(
    ctx: RankContext,
    graph: GeneratedGraph,
    adj: LocalAdjacency | None = None,
) -> dict[int, int]:
    """Weakly connected components via hash-min label propagation.

    Returns ``{app_id: component_id}`` for local vertices; the component
    ID is the minimum application ID in the component.
    """
    if adj is None:
        adj = load_local_adjacency(ctx, graph, EdgeOrientation.ANY)
    comp = {u: u for u in adj.neighbors}
    while True:
        outboxes: list[list[tuple[int, int]]] = [[] for _ in range(ctx.nranks)]
        for u, nbrs in adj.neighbors.items():
            cu = comp[u]
            for v in nbrs:
                outboxes[adj.home(v)].append((v, cu))
        ctx.compute(adj.n_local_edges)
        received = ctx.alltoall(outboxes)
        changed = 0
        for box in received:
            for v, c in box:
                if c < comp[v]:
                    comp[v] = c
                    changed += 1
        ctx.compute(sum(len(b) for b in received))
        if not ctx.allreduce(changed):
            return comp


# ----------------------------------------------------------------- CDLP --
def cdlp(
    ctx: RankContext,
    graph: GeneratedGraph,
    iterations: int = 10,
    adj: LocalAdjacency | None = None,
) -> dict[int, int]:
    """Community detection by label propagation (Graphalytics CDLP).

    Synchronous updates; each vertex adopts the most frequent neighbor
    label, ties broken by the smallest label.  Returns local labels.
    """
    if adj is None:
        adj = load_local_adjacency(ctx, graph, EdgeOrientation.ANY)
    label = {u: u for u in adj.neighbors}
    for _ in range(iterations):
        # Every vertex sends its current label to each neighbor's owner.
        outboxes: list[list[tuple[int, int]]] = [[] for _ in range(ctx.nranks)]
        for u, nbrs in adj.neighbors.items():
            lu = label[u]
            for v in nbrs:
                outboxes[adj.home(v)].append((v, lu))
        ctx.compute(adj.n_local_edges)
        received = ctx.alltoall(outboxes)
        votes: dict[int, Counter] = {}
        for box in received:
            for v, l in box:
                votes.setdefault(v, Counter())[l] += 1
        new_label = {}
        for u in adj.neighbors:
            if u in votes:
                best = max(votes[u].items(), key=lambda kv: (kv[1], -kv[0]))
                new_label[u] = best[0]
            else:
                new_label[u] = label[u]
        ctx.compute(sum(len(c) for c in votes.values()))
        label = new_label
    return label


# ------------------------------------------------------------------ LCC --
def lcc(
    ctx: RankContext,
    graph: GeneratedGraph,
    adj: LocalAdjacency | None = None,
) -> dict[int, float]:
    """Local clustering coefficient of every local vertex.

    Undirected semantics over deduplicated neighborhoods (self-loops
    ignored).  The wedge-check exchange makes LCC the costliest kernel —
    O(n + m^(3/2))-class work, which is why the paper observes steeper
    weak-scaling slopes for it (Section 6.5).
    """
    if adj is None:
        adj = load_local_adjacency(ctx, graph, EdgeOrientation.ANY, dedup=True)
    nbr_sets = {
        u: {v for v in nbrs if v != u} for u, nbrs in adj.neighbors.items()
    }
    # round 1: ask each neighbor's owner to intersect neighborhoods
    outboxes: list[list[tuple[int, int, tuple[int, ...]]]] = [
        [] for _ in range(ctx.nranks)
    ]
    for u, nbrs in nbr_sets.items():
        frozen = tuple(sorted(nbrs))
        for v in nbrs:
            outboxes[adj.home(v)].append((v, u, frozen))
    ctx.compute(sum(len(b) for b in outboxes))
    received = ctx.alltoall(outboxes)
    # round 2: owners of v compute |N(v) ∩ N(u)| and reply to u's owner
    replies: list[list[tuple[int, int]]] = [[] for _ in range(ctx.nranks)]
    work = 0
    for box in received:
        for v, u, frozen in box:
            common = len(nbr_sets[v].intersection(frozen))
            work += min(len(nbr_sets[v]), len(frozen))
            replies[adj.home(u)].append((u, common))
    ctx.compute(work)
    received2 = ctx.alltoall(replies)
    triangles: dict[int, int] = {u: 0 for u in nbr_sets}
    for box in received2:
        for u, common in box:
            triangles[u] += common
    out: dict[int, float] = {}
    for u, nbrs in nbr_sets.items():
        d = len(nbrs)
        out[u] = triangles[u] / (d * (d - 1)) if d >= 2 else 0.0
    ctx.compute(len(out))
    return out


# ----------------------------------------------------------------- SSSP --
def load_local_weighted_adjacency(
    ctx: RankContext,
    graph: GeneratedGraph,
    weight_ptype,
    orientation: EdgeOrientation = EdgeOrientation.ANY,
    default_weight: float = 1.0,
) -> tuple[LocalAdjacency, dict[int, list[float]]]:
    """Adjacency plus per-edge weights read from an edge property.

    Lightweight edges (which carry no properties, Section 5.4.2) get
    ``default_weight``; heavyweight edges contribute their stored value.
    Returns ``(adjacency, weights)`` with parallel neighbor/weight lists.
    The weights live behind edge handles, so this loader walks the
    scan's handles instead of its slot columns.
    """
    tx = _open_read(ctx, graph)
    s = _scan_local_vertices(ctx, tx)
    app_of = dict(zip(s.vids.tolist(), s.apps.tolist()))
    neighbors: dict[int, list[int]] = {}
    weights: dict[int, list[float]] = {}
    for v in (s.scan[i] for i in s.local.tolist()):
        nbrs: list[int] = []
        wts: list[float] = []
        for e in v.edges(orientation):
            other = e.other_endpoint()
            if other not in app_of:
                continue
            w = default_weight
            if e.heavy and weight_ptype is not None:
                stored = e.property(weight_ptype)
                if stored is not None:
                    w = float(stored)
            nbrs.append(app_of[other])
            wts.append(w)
        neighbors[v.app_id] = nbrs
        weights[v.app_id] = wts
    tx.commit()
    adj = LocalAdjacency(
        neighbors,
        nranks=ctx.nranks,
        owner=dict(zip(s.apps.tolist(), s.ranks.tolist())),
    )
    return adj, weights


def sssp(
    ctx: RankContext,
    graph: GeneratedGraph,
    root: int,
    weight_ptype=None,
    orientation: EdgeOrientation = EdgeOrientation.ANY,
    adj: LocalAdjacency | None = None,
    weights: dict[int, list[float]] | None = None,
) -> dict[int, float]:
    """Single-source shortest paths (distributed Bellman-Ford).

    Non-negative weights; unweighted edges count as 1.  Returns this
    rank's local ``{app_id: distance}`` map.  Level-synchronous relaxation
    rounds run until a global no-change round (allreduce), the standard
    frontier-driven Bellman-Ford used by Graphalytics reference codes.
    """
    if adj is None or weights is None:
        adj, weights = load_local_weighted_adjacency(
            ctx, graph, weight_ptype, orientation
        )
    INF = float("inf")
    dist: dict[int, float] = {u: INF for u in adj.neighbors}
    active: set[int] = set()
    if adj.home(root) == ctx.rank and root in dist:
        dist[root] = 0.0
        active.add(root)
    while True:
        if not ctx.allreduce(len(active)):
            return dist
        # Min-combine per destination: only the best tentative distance
        # for each remote vertex crosses the network, packed as numpy
        # (ids, dists) vectors.
        outacc: list[dict[int, float]] = [{} for _ in range(ctx.nranks)]
        relaxed = 0
        for u in active:
            du = dist[u]
            for v, w in zip(adj.neighbors[u], weights[u]):
                acc = outacc[adj.home(v)]
                cand = du + w
                if cand < acc.get(v, INF):
                    acc[v] = cand
                relaxed += 1
        ctx.compute(relaxed)
        packed = [
            (
                np.fromiter(acc.keys(), dtype=np.int64, count=len(acc)),
                np.fromiter(acc.values(), dtype=np.float64, count=len(acc)),
            )
            for acc in outacc
        ]
        received = ctx.alltoall(packed)
        active = set()
        for ids, cands in received:
            for v, cand in zip(ids, cands):
                v = int(v)
                if cand < dist[v]:
                    dist[v] = float(cand)
                    active.add(v)
        ctx.compute(sum(len(ids) for ids, _ in received))


# ------------------------------------------------------------ triangles --
def triangle_count(
    ctx: RankContext,
    graph: GeneratedGraph,
    adj: LocalAdjacency | None = None,
) -> int:
    """Global triangle count (undirected, simple-graph semantics).

    Uses the same two-round wedge-check exchange as :func:`lcc`:
    ``sum_v sum_{u in N(v)} |N(v) ∩ N(u)|`` counts each triangle six
    times.  Returns the global total on every rank.
    """
    if adj is None:
        adj = load_local_adjacency(ctx, graph, EdgeOrientation.ANY, dedup=True)
    nbr_sets = {
        u: {v for v in nbrs if v != u} for u, nbrs in adj.neighbors.items()
    }
    outboxes: list[list[tuple[int, tuple[int, ...]]]] = [
        [] for _ in range(ctx.nranks)
    ]
    for u, nbrs in nbr_sets.items():
        frozen = tuple(sorted(nbrs))
        for v in nbrs:
            outboxes[adj.home(v)].append((v, frozen))
    ctx.compute(sum(len(b) for b in outboxes))
    received = ctx.alltoall(outboxes)
    local_sum = 0
    work = 0
    for box in received:
        for v, frozen in box:
            local_sum += len(nbr_sets[v].intersection(frozen))
            work += min(len(nbr_sets[v]), len(frozen))
    ctx.compute(work)
    total = ctx.allreduce(local_sum)
    return total // 6
