"""Interactive *complex* read-only queries (paper Table 2, row 2).

The LDBC SNB interactive workload distinguishes *short* reads (one vertex
and its neighborhood — implemented by the Table 3 mixes in
:mod:`.oltp`) from *complex* reads: multi-hop traversals that still run
as single-process transactions because they touch a bounded region of the
graph.  This module implements the two canonical shapes:

* :func:`friends_of_friends` — the k-hop neighborhood of one vertex with
  optional label filtering and deduplication (LDBC IC-style);
* :func:`transactional_path_search` — bidirectional BFS between two
  vertices inside one read transaction (LDBC IC13 "shortest path").

Both use only GDI handle operations (translate/associate/neighbors), so
every hop is a real one-sided fetch with the corresponding charge.

Each function is also expressible as Cypher-lite text through the
declarative query engine (:mod:`repro.query`); the hand-coded
traversals here are the oracle ``tests/workloads/test_engine_parity.py``
holds the engine to.
"""

from __future__ import annotations

from ..gda.metadata import Label
from ..gdi import Constraint, EdgeOrientation
from ..gdi.errors import GdiNotFound
from ..generator.lpg import GeneratedGraph
from ..rma.runtime import RankContext

__all__ = ["friends_of_friends", "transactional_path_search"]


def friends_of_friends(
    ctx: RankContext,
    graph: GeneratedGraph,
    app_id: int,
    hops: int = 2,
    *,
    edge_label: Label | None = None,
    orientation: EdgeOrientation = EdgeOrientation.ANY,
) -> set[int]:
    """Application IDs within ``hops`` hops of ``app_id`` (excluding it).

    One single-process read transaction; BFS over handle fetches.
    Returns an empty set if the start vertex does not exist.
    """
    db = graph.db
    constraint = (
        Constraint.has_label(edge_label.int_id) if edge_label else None
    )
    tx = db.start_transaction(ctx)
    try:
        try:
            start = tx.translate_vertex_id(app_id)
        except GdiNotFound:
            return set()
        seen_vids = {start}
        frontier = [start]
        result: set[int] = set()
        for _ in range(hops):
            next_frontier = []
            # The whole frontier is fetched with one pipelined read; a
            # concurrently deleted vertex simply drops out (missing_ok).
            for v in tx.associate_vertices(frontier, missing_ok=True):
                if v is None:
                    continue
                for nvid in v.neighbors(orientation, constraint=constraint):
                    if nvid not in seen_vids:
                        seen_vids.add(nvid)
                        next_frontier.append(nvid)
            frontier = next_frontier
            for v in tx.associate_vertices(frontier, missing_ok=True):
                if v is not None:
                    result.add(v.app_id)
        return result
    finally:
        if tx.open:
            tx.commit()


def transactional_path_search(
    ctx: RankContext,
    graph: GeneratedGraph,
    src_app: int,
    dst_app: int,
    max_depth: int = 6,
    orientation: EdgeOrientation = EdgeOrientation.ANY,
) -> int | None:
    """Length of a shortest path between two vertices, or ``None``.

    Bidirectional BFS inside one read transaction (the structure of LDBC
    IC13): expand the smaller frontier each round, stop when the
    frontiers meet or the combined depth exceeds ``max_depth``.
    """
    db = graph.db
    tx = db.start_transaction(ctx)
    try:
        try:
            src = tx.translate_vertex_id(src_app)
            dst = tx.translate_vertex_id(dst_app)
        except GdiNotFound:
            return None
        if src == dst:
            return 0

        def expand(
            frontier: set[int], dist: dict[int, int], level: int
        ) -> set[int]:
            out: set[int] = set()
            handles = tx.associate_vertices(sorted(frontier), missing_ok=True)
            for v in handles:
                if v is None:
                    continue
                for nvid in v.neighbors(orientation):
                    if nvid not in dist:
                        dist[nvid] = level
                        out.add(nvid)
            return out

        dist_f: dict[int, int] = {src: 0}
        dist_b: dict[int, int] = {dst: 0}
        fwd, bwd = {src}, {dst}
        df = db_ = 0
        while fwd and bwd and df + db_ < max_depth:
            if len(fwd) <= len(bwd):
                df += 1
                fwd = expand(fwd, dist_f, df)
                meeting = fwd & dist_b.keys()
            else:
                db_ += 1
                bwd = expand(bwd, dist_b, db_)
                meeting = bwd & dist_f.keys()
            if meeting:
                best = min(dist_f[v] + dist_b[v] for v in meeting)
                return min(best, max_depth) if best <= max_depth else None
        return None
    finally:
        if tx.open:
            tx.commit()
