"""The benchmark's own model of the generated graph.

Recomputed from ``generate_edges`` and the schema's assignment rules,
never read back from the database, so it can judge what the database
returns.  Mirrors what ``build_lpg`` loads: directed edges, duplicates
of one ``(src, dst)`` pair collapsed, self-loops kept.
"""

from __future__ import annotations

import functools
from collections import deque

from repro.generator import KroneckerParams, default_schema, generate_edges

from . import config


class GraphOracle:
    def __init__(self, graph_params: dict = config.GRAPH) -> None:
        params = KroneckerParams(**graph_params)
        self.n = params.n_vertices
        self.schema = default_schema()
        pairs = set()
        for rank in range(config.NRANKS):
            pairs.update(map(tuple, generate_edges(params, rank, config.NRANKS).tolist()))
        self.edges = sorted(pairs)
        self.out: dict[int, list[int]] = {v: [] for v in range(self.n)}
        self.und: dict[int, set[int]] = {v: set() for v in range(self.n)}
        self.degree = [0] * self.n  # edge slots a vertex holds, out + in
        for s, d in self.edges:
            self.out[s].append(d)
            self.und[s].add(d)
            self.und[d].add(s)
            self.degree[s] += 1
            self.degree[d] += 1
        self._props: dict[int, dict] = {}

    # -- schema-derived vertex data ---------------------------------------
    @functools.cached_property
    def _labels(self) -> list[list[int]]:
        return [self.schema.vertex_label_indices(v) for v in range(self.n)]

    def labels(self, v: int) -> list[int]:
        return self._labels[v]

    def props(self, v: int) -> dict:
        p = self._props.get(v)
        if p is None:
            p = self._props[v] = dict(self.schema.vertex_property_values(v))
        return p

    def with_label(self, label: int) -> list[int]:
        return [v for v in range(self.n) if label in self.labels(v)]

    # -- traversals -------------------------------------------------------
    def bfs_levels(self, root: int) -> dict[int, int]:
        """Depth of every vertex reachable over edges of any direction."""
        depth = {root: 0}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in self.und[u]:
                if w not in depth:
                    depth[w] = depth[u] + 1
                    queue.append(w)
        return depth

    def giant_component(self) -> list[int]:
        """Vertices of the largest connected component, ascending."""
        seen: set[int] = set()
        best: dict[int, int] = {}
        for v in range(self.n):
            if v not in seen and self.und[v]:
                comp = self.bfs_levels(v)
                seen.update(comp)
                if len(comp) > len(best):
                    best = comp
        return sorted(best)

    def typical_sources(self) -> list[int]:
        """The fifth of the giant component whose two-hop work (sum of
        the neighbours' degrees) is nearest the median.

        Parameter curation as in LDBC SNB: a two-hop query costs what its
        neighbourhood holds, which on a Kronecker graph spans three orders
        of magnitude; sources of similar cost make a run's total depend on
        the program, not on which hubs the seed happened to draw.
        """
        giant = self.giant_component()
        giant.sort(key=lambda v: (sum(self.degree[w] for w in self.und[v]), v))
        return sorted(giant[2 * len(giant) // 5 : 3 * len(giant) // 5])

    # -- expected query rows (sorted where the query does not order) ------
    def point(self, src: int) -> list[tuple]:
        return [(src,)]

    def onehop(self, src: int) -> list[tuple]:
        return sorted((d,) for d in self.out[src])

    def fof(self, src: int) -> list[tuple]:
        within = set(self.und[src])
        for w in self.und[src]:
            within |= self.und[w]
        within.discard(src)
        return [(len(within),)]

    def topk(self, src: int) -> list[tuple]:
        rows = [(d, self.props(d)["p_score"]) for d in self.out[src]]
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows[:5]

    def bi2(self, min_score: float) -> list[tuple]:
        """VL0 vertices scoring above ``min_score`` with an EL0 out-edge
        to an active VL1 vertex (the paper's Listing 3 shape)."""
        count = 0
        for v in self.with_label(0):
            if self.props(v)["p_score"] <= min_score:
                continue
            for d in self.out[v]:
                if (
                    self.schema.edge_label_index(v, d) == 0
                    and 1 in self.labels(d)
                    and self.props(d)["p_active"] is True
                ):
                    count += 1
                    break
        return [(count,)]

    def label_count(self, label: int) -> list[tuple]:
        return [(len(self.with_label(label)),)]

    def agg(self, label: int) -> list[tuple]:
        ages = [
            self.props(v)["p_age"]
            for v in self.with_label(label)
            if "p_age" in self.props(v)
        ]
        return [(len(ages), sum(ages), min(ages), max(ages))]
