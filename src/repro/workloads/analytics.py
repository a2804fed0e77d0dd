"""OLAP graph analytics over collective transactions (paper Section 6.5).

Implements the Graphalytics-style kernels the paper evaluates in Figure 6:
BFS and k-hop counts, PageRank (PR), Community Detection by Label
Propagation (CDLP), Weakly Connected Components (WCC), Local Clustering
Coefficient (LCC), plus SSSP and triangle count on the same exchanges.

Structure of every kernel (Table 2's recommendation): graph data is
accessed through *collective read transactions* — each rank reads all
its local vertices in one batched, columnar scan and keeps the adjacency
as CSR arrays (:class:`LocalAdjacency`, the only form a kernel reads) —
and the iterative phases exchange value arrays with collectives
(alltoallv routed by the owning rank, allreduce for convergence).  All
communication and per-edge compute is charged to the simulated clocks,
so the Figure 6 scaling shapes emerge from the algorithms' real
communication structure.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..gda.holder import csr_indptr, ragged_index
from ..gdi import EdgeOrientation
from ..gdi.errors import GdiStateError
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


def _run_starts(*columns: np.ndarray) -> np.ndarray:
    """Mask of the entries that open a run: those differing from their
    predecessor in any of the equally long, jointly sorted ``columns``."""
    first = np.zeros(len(columns[0]), dtype=bool)
    first[:1] = True
    for column in columns:
        first[1:] |= column[1:] != column[:-1]
    return first


class LocalAdjacency:
    """This rank's shard of the adjacency, in application-ID space.

    The shard is CSR arrays: local vertex ``vertices[i]`` has the
    neighbors ``targets[indptr[i]:indptr[i + 1]]``, and
    ``target_owner[k]`` is the rank owning ``targets[k]`` (vertices can
    spill off their round-robin home under memory pressure, Section
    5.3), so a kernel routes a whole edge array at once.

    :func:`load_local_adjacency` passes those four arrays and the global
    ownership map ``(sorted app_ids, their ranks)``; a hand-built shard
    may give ``{app_id: [neighbor app_ids]}`` and ``{app_id: rank}``
    dicts instead (unlisted vertices live on ``app_id % nranks``).
    """

    def __init__(
        self,
        neighbors: "tuple[np.ndarray, ...] | dict[int, list[int]]",
        n_local_edges: int | None = None,
        nranks: int = 1,
        owner: "tuple[np.ndarray, np.ndarray] | dict[int, int] | None" = None,
    ) -> None:
        self.nranks = nranks
        if not isinstance(owner, tuple):
            pairs = np.array(sorted((owner or {}).items()), dtype=np.int64)
            owner = tuple(pairs.reshape(-1, 2).T)
        self._owner_ids, self._owner_ranks = owner
        if isinstance(neighbors, dict):
            targets = np.array(
                [v for nbrs in neighbors.values() for v in nbrs], dtype=np.int64
            )
            neighbors = (
                np.array(list(neighbors), dtype=np.int64),
                csr_indptr([len(nbrs) for nbrs in neighbors.values()]),
                targets,
                self.home_of(targets),
            )
        self.vertices, self.indptr, self.targets, self.target_owner = neighbors
        self.n_local_edges = (
            len(self.targets) if n_local_edges is None else n_local_edges
        )

    @property
    def neighbors(self) -> "dict[int, list[int]]":
        """The shard as ``{local app_id: [neighbor app_ids]}``."""
        targets = self.targets.tolist()
        bounds = self.indptr.tolist()
        return {
            v: targets[bounds[i] : bounds[i + 1]]
            for i, v in enumerate(self.vertices.tolist())
        }

    def home(self, app_id: int) -> int:
        """The rank owning ``app_id``."""
        return int(self.home_of(np.array([app_id], dtype=np.int64))[0])

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
        """CSR row of each application ID an exchange routed here (all
        must be local, or the shards disagree about who owns what)."""
        order, sorted_ids = self._by_id
        known, at = _lookup(sorted_ids, app_ids)
        if not known.all():
            raise GdiStateError(
                f"application ID {int(app_ids[~known][0])} was routed to a "
                "rank that holds no such vertex"
            )
        return order[at]

    @cached_property
    def edge_rows(self) -> np.ndarray:
        """The CSR row every edge leaves from (aligned with ``targets``)."""
        return np.repeat(np.arange(len(self.vertices)), np.diff(self.indptr))

    def edges_of(self, rows: np.ndarray) -> np.ndarray:
        """Indices (into ``targets``) of all edges leaving the CSR ``rows``."""
        return ragged_index(
            self.indptr[rows], self.indptr[rows + 1] - self.indptr[rows]
        )


def _open_read(ctx: RankContext, graph: GeneratedGraph):
    """The collective read transaction an adjacency load runs in."""
    db = graph.db
    # The whole load runs on one frozen watermark: every rank reads the
    # same committed prefix, so a concurrent OLTP storm can neither tear
    # the adjacency nor abort the collective.
    return db.start_collective_transaction(ctx, snapshot=True)


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
    """The adjacency shard as seen by the open collective ``tx``."""
    return _weighted_csr(ctx, tx, orientation, dedup)[0]


def _weighted_csr(
    ctx: RankContext, tx, orientation: EdgeOrientation, dedup: bool, weigh=None
) -> "tuple[LocalAdjacency, np.ndarray | None]":
    """The shard as seen by ``tx`` and, if ``weigh(scan, indptr)`` prices
    every edge slot of the scan, the weights of the shard's ``targets``.

    Every local vertex is read in one batch (coalesced per home rank)
    and the vid -> application-ID map is exchanged: rebuilt from the live
    database, so loads stay correct after OLTP mutations.  One
    ``searchsorted`` over it turns the scan's slot columns into CSR; no
    per-vertex handle is created.
    """
    local_vids = tx.visible_vertices(
        tx.db.directory.local_vertices(ctx), ctx.rank
    )
    scan = tx.associate_vertices(local_vids, missing_ok=True)
    local = np.flatnonzero(scan.present)
    local_apps = scan.app_ids[local]
    # 16 bytes per vertex on the wire, as two int64 columns
    parts = ctx.allgather((scan.vids[local], local_apps))
    vids = np.concatenate([p[0] for p in parts])
    apps = np.concatenate([p[1] for p in parts])
    ranks = np.repeat(np.arange(len(parts)), [len(p[0]) for p in parts])
    order = np.argsort(vids, kind="stable")
    vids, apps, ranks = vids[order], apps[order], ranks[order]
    indptr, nbr_vids = scan.neighbors(orientation)
    row = np.repeat(np.arange(len(scan)), np.diff(indptr))
    # Skip dangling slots whose target vanished mid-snapshot.
    known, at = _lookup(vids, nbr_vids)
    slot = np.flatnonzero(known)
    row, targets, owners = row[slot], apps[at[slot]], ranks[at[slot]]
    if dedup:
        order = np.lexsort((targets, row))
        order = order[_run_starts(row[order], targets[order])]
        row, targets, owners = row[order], targets[order], owners[order]
        slot = slot[order]
    out_indptr = csr_indptr(np.bincount(row, minlength=len(scan))[local])
    by_app = np.argsort(apps, kind="stable")
    adj = LocalAdjacency(
        (local_apps, out_indptr, targets, owners),
        nranks=ctx.nranks,
        owner=(apps[by_app], ranks[by_app]),
    )
    return adj, None if weigh is None else weigh(scan, indptr)[slot]


# ------------------------------------------------------------------- BFS --
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
    # the root's row on the rank that holds it, nothing elsewhere
    frontier = np.flatnonzero(adj.vertices == root)
    depth[frontier] = 0
    level = 0
    while max_level is None or level < max_level:
        if not ctx.allreduce(len(frontier)):
            break
        # Ship the frontier's neighbors to their owners, each ID once (an
        # ID has one owner): a smaller payload and receiver-side scan.  A
        # frontier list is priced as a bare array: a rank with nothing to
        # send pays no bytes.
        edges = adj.edges_of(frontier)
        ctx.compute(len(edges))
        targets, first = np.unique(adj.targets[edges], return_index=True)
        owners = adj.target_owner[edges][first]
        (received,) = ctx.alltoallv(owners, targets, min_nbytes=0)
        rows = adj.rows_of(np.unique(received))
        level += 1
        frontier = rows[depth[rows] < 0]
        depth[frontier] = level
        if charge_receive:
            ctx.compute(len(received))
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
def _exchange(
    ctx: RankContext,
    adj: LocalAdjacency,
    owner: np.ndarray,
    ids: np.ndarray,
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The exchange step of every value-passing kernel: ``(ids, values)``
    routed to the ranks that ``owner`` names (16 B a row), returned as
    the local CSR rows named and the values sent to them."""
    ids, values = ctx.alltoallv(owner, ids, values)
    return adj.rows_of(ids), values


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
    source = adj.edge_rows
    dangling_rows = degree == 0
    # Combiner aggregation: sum all shares headed for one destination
    # vertex locally, then ship (ids, sums) as packed numpy vectors —
    # the exchanged payload scales with distinct targets, not edges.
    ids, slot = np.unique(adj.targets, return_inverse=True)
    owner = np.empty(len(ids), dtype=np.int64)
    owner[slot] = adj.target_owner
    pr = np.full(n_local, 1.0 / n)
    for _ in range(iterations):
        share = (pr / np.maximum(degree, 1))[source]
        ctx.compute(adj.n_local_edges)
        sums = np.bincount(slot, weights=share, minlength=len(ids))
        rows, sums = _exchange(ctx, adj, owner, ids, sums)
        dangling_total = ctx.allreduce(float(pr[dangling_rows].sum()))
        incoming = np.zeros(n_local)
        np.add.at(incoming, rows, sums)
        base = (1.0 - damping) / n + damping * dangling_total / n
        pr = base + damping * incoming
        ctx.compute(n_local)
    return dict(zip(adj.vertices.tolist(), pr.tolist()))


# ------------------------------------------------------------ WCC, CDLP --
def _push(
    ctx: RankContext, adj: LocalAdjacency, value: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every local vertex sends its ``value`` (one per CSR row) to each
    neighbor's owner, one message per edge; returns the local rows the
    messages routed here name and the values sent to them."""
    ctx.compute(adj.n_local_edges)
    return _exchange(ctx, adj, adj.target_owner, adj.targets, value[adj.edge_rows])


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
    comp = adj.vertices.copy()
    while True:
        rows, offered = _push(ctx, adj, comp)
        before = comp.copy()
        np.minimum.at(comp, rows, offered)
        ctx.compute(len(rows))
        if not ctx.allreduce(int(np.count_nonzero(comp != before))):
            return dict(zip(adj.vertices.tolist(), comp.tolist()))


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
    label = adj.vertices.copy()
    for _ in range(iterations):
        rows, voted = _push(ctx, adj, label)
        # one vote per (vertex, label) run of the sorted messages
        order = np.lexsort((voted, rows))
        rows, voted = rows[order], voted[order]
        runs = np.flatnonzero(_run_starts(rows, voted))
        count = np.diff(np.append(runs, len(rows)))
        rows, voted = rows[runs], voted[runs]
        # highest count first within a vertex, then smallest label
        best = np.lexsort((voted, -count, rows))
        best = best[_run_starts(rows[best])]
        label[rows[best]] = voted[best]
        ctx.compute(len(runs))
    return dict(zip(adj.vertices.tolist(), label.tolist()))


# ------------------------------------------------- LCC, triangle count --
class _Wedges(NamedTuple):
    """A shard's deduplicated, loop-free, sorted neighborhoods: row ``i``
    has ``nbrs[start[i] : start[i] + degree[i]]``, and ``keys`` holds the
    same edges as sorted scalars ``row * len(ids) + (position of the
    neighbor in ids)`` (application IDs need not fit 32 bits).  Shipped,
    it also holds the questions put to the receiver: how many neighbors
    of row ``asker[k]`` are neighbors of the receiver's ``asked[k]``?
    A box refers to the sender's whole shard, so a neighborhood is held
    once however many messages quote it; ``nbytes`` states the size the
    LogGP model is charged, where every message carries its own copy.
    """

    vertices: np.ndarray
    start: np.ndarray
    degree: np.ndarray
    nbrs: np.ndarray
    ids: np.ndarray
    keys: np.ndarray
    asked: np.ndarray | None = None
    asker: np.ndarray | None = None
    nbytes: int = 8

    def common(self, rows, other: "_Wedges", other_rows, walk) -> np.ndarray:
        """Per pair ``k`` with ``walk[k]`` set: how many neighbors of my
        ``rows[k]`` are neighbors of ``other_rows[k]`` in ``other``."""
        degree = self.degree[rows] * walk
        pair = np.repeat(np.arange(len(rows)), degree)
        walked = self.nbrs[ragged_index(self.start[rows], degree)]
        known, at = _lookup(other.ids, walked)
        hit = _lookup(other.keys, other_rows[pair] * len(other.ids) + at)[0]
        return np.bincount(pair[hit & known], minlength=len(rows))


def _wedge_round(
    ctx: RankContext, adj: LocalAdjacency, header: int
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The wedge-check exchange :func:`lcc` and :func:`triangle_count`
    share: every local ``u`` asks the owner of each neighbor ``v`` for
    ``|N(v) ∩ N(u)|``.  A message is charged ``header + 8 * |N(u)|``
    bytes and its answer ``min(|N(v)|, |N(u)|)`` operations (the owner
    walks the smaller neighborhood).  Returns the local simple degrees
    and the answers as columns ``(asking rank, asker app_id, count)``.
    """
    row = adj.edge_rows
    simple = np.flatnonzero(adj.targets != adj.vertices[row])
    simple = simple[np.lexsort((adj.targets[simple], row[simple]))]
    simple = simple[_run_starts(row[simple], adj.targets[simple])]
    row, nbrs, owner = row[simple], adj.targets[simple], adj.target_owner[simple]
    degree = np.bincount(row, minlength=len(adj.vertices))
    ids = np.unique(nbrs)
    keys = row * len(ids) + np.searchsorted(ids, nbrs)
    mine = _Wedges(adj.vertices, csr_indptr(degree), degree, nbrs, ids, keys)
    ctx.compute(len(nbrs))
    order = np.argsort(owner, kind="stable")
    cuts = np.cumsum(np.bincount(owner, minlength=ctx.nranks))[:-1]
    sizes = np.bincount(owner, header + 8 * degree[row], minlength=ctx.nranks)
    boxes = [
        mine._replace(asked=asked, asker=asker, nbytes=int(size) or 8)
        for asked, asker, size in zip(
            np.split(nbrs[order], cuts), np.split(row[order], cuts), sizes
        )
    ]
    answers = []
    work = 0
    for src, box in enumerate(ctx.alltoall(boxes)):
        v = adj.rows_of(box.asked)
        theirs = box.degree[box.asker] <= degree[v]
        counts = box.common(box.asker, mine, v, theirs)
        counts += mine.common(v, box, box.asker, ~theirs)
        answers.append((np.full(len(v), src), box.vertices[box.asker], counts))
        work += int(np.minimum(degree[v], box.degree[box.asker]).sum())
    ctx.compute(work)
    return degree, tuple(map(np.concatenate, zip(*answers)))


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
    degree, answers = _wedge_round(ctx, adj, header=16)  # (v, u, N(u))
    # reply round: each count goes back to the rank that asked
    triangles = np.zeros(len(adj.vertices), dtype=np.int64)
    np.add.at(triangles, *_exchange(ctx, adj, *answers))
    pairs = degree * (degree - 1)
    out = np.where(pairs > 0, triangles / np.maximum(pairs, 1), 0.0)
    ctx.compute(len(out))
    return dict(zip(adj.vertices.tolist(), out.tolist()))


def triangle_count(
    ctx: RankContext,
    graph: GeneratedGraph,
    adj: LocalAdjacency | None = None,
) -> int:
    """Global triangle count (undirected, simple-graph semantics).

    Uses the wedge-check exchange of :func:`lcc`:
    ``sum_v sum_{u in N(v)} |N(v) ∩ N(u)|`` counts each triangle six
    times.  Returns the global total on every rank.
    """
    if adj is None:
        adj = load_local_adjacency(ctx, graph, EdgeOrientation.ANY, dedup=True)
    _, (_, _, counts) = _wedge_round(ctx, adj, header=8)  # (v, N(u))
    return ctx.allreduce(int(counts.sum())) // 6


# ----------------------------------------------------------------- SSSP --
def load_local_weighted_adjacency(
    ctx: RankContext,
    graph: GeneratedGraph,
    weight_ptype,
    orientation: EdgeOrientation = EdgeOrientation.ANY,
    default_weight: float = 1.0,
) -> tuple[LocalAdjacency, np.ndarray]:
    """Adjacency plus per-edge weights read from an edge property.

    Returns ``(adjacency, weights)``: one float64 array aligned with
    ``adjacency.targets``.  Lightweight edges (which carry no properties,
    Section 5.4.2) get ``default_weight``; heavyweight edges contribute
    their stored value, which lives behind an edge handle, so the rows
    that hold a heavy slot — and only those — are walked through handles
    (the scan has read their edge holders already).
    """

    def weigh(scan, indptr):
        weights = np.full(indptr[-1], float(default_weight))
        if weight_ptype is not None:
            for pos in np.flatnonzero(scan.has_heavy_edges).tolist():
                for k, e in enumerate(scan[pos].edges(orientation), indptr[pos]):
                    stored = e.property(weight_ptype) if e.heavy else None
                    if stored is not None:
                        weights[k] = float(stored)
        return weights

    tx = _open_read(ctx, graph)
    adj, weights = _weighted_csr(ctx, tx, orientation, False, weigh)
    tx.commit()
    return adj, weights


def sssp(
    ctx: RankContext,
    graph: GeneratedGraph,
    root: int,
    weight_ptype=None,
    orientation: EdgeOrientation = EdgeOrientation.ANY,
    adj: LocalAdjacency | None = None,
    weights: np.ndarray | None = None,
) -> dict[int, float]:
    """Single-source shortest paths (distributed Bellman-Ford).

    Non-negative weights; unweighted edges count as 1.  ``weights`` is a
    float64 array aligned with ``adj.targets`` (both as returned by
    :func:`load_local_weighted_adjacency`).  Returns this rank's local
    ``{app_id: distance}`` map.  Level-synchronous relaxation rounds run
    until a global no-change round (allreduce), the standard
    frontier-driven Bellman-Ford used by Graphalytics reference codes.
    """
    if adj is None or weights is None:
        adj, weights = load_local_weighted_adjacency(
            ctx, graph, weight_ptype, orientation
        )
    dist = np.full(len(adj.vertices), np.inf)
    active = np.flatnonzero(adj.vertices == root)
    dist[active] = 0.0
    while True:
        if not ctx.allreduce(len(active)):
            return dict(zip(adj.vertices.tolist(), dist.tolist()))
        edges = adj.edges_of(active)
        offered = dist[adj.edge_rows[edges]] + weights[edges]
        ctx.compute(len(edges))
        # Min-combine per destination: only the best tentative distance
        # for each remote vertex crosses the network, packed as numpy
        # (ids, dists) vectors.
        targets = adj.targets[edges]
        best = np.lexsort((offered, targets))
        best = best[_run_starts(targets[best])]
        owners = adj.target_owner[edges[best]]
        rows, offered = _exchange(ctx, adj, owners, targets[best], offered[best])
        before = dist.copy()
        np.minimum.at(dist, rows, offered)
        active = np.flatnonzero(dist < before)
        ctx.compute(len(rows))
