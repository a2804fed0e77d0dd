"""Interactive *complex* read-only queries (paper Table 2, row 2).

The LDBC SNB interactive workload distinguishes *short* reads (one vertex
and its neighborhood — implemented by the Table 3 mixes in
:mod:`.oltp`) from *complex* reads: multi-hop traversals that still run
as single-process transactions because they touch a bounded region of the
graph.  This module implements the two canonical shapes:

* :func:`friends_of_friends` — the k-hop neighborhood of one vertex with
  optional label filtering and deduplication (LDBC IC-style), the query
  engine's variable-length expansion (:mod:`repro.query`);
* :func:`transactional_path_search` — bidirectional BFS between two
  vertices inside one read transaction (LDBC IC13 "shortest path"),
  hand-coded over GDI handle operations (translate/associate/neighbors)
  because Cypher-lite has no shortest-path form.

Every hop is a real one-sided fetch with the corresponding charge.
"""

from __future__ import annotations

from ..gda.metadata import Label
from ..gdi import EdgeOrientation
from ..gdi.errors import GdiNotFound
from ..generator.lpg import GeneratedGraph
from ..query import QueryEngine
from ..rma.runtime import RankContext

__all__ = ["friends_of_friends", "transactional_path_search"]

#: a relationship pattern's two ends per orientation, around ``[...]``
_ARROWS = {
    EdgeOrientation.OUTGOING: ("-", "->"),
    EdgeOrientation.INCOMING: ("<-", "-"),
    EdgeOrientation.ANY: ("-", "-"),
}


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

    One variable-length expansion query in a single-process read
    transaction.  Returns an empty set if the start vertex does not
    exist.
    """
    if hops < 1:
        return set()
    left, right = _ARROWS[orientation]
    label = f":{edge_label.name}" if edge_label is not None else ""
    result = QueryEngine.of(graph.db).run(
        ctx,
        f"MATCH (a {{id = $src}}){left}[{label}*1..{hops}]{right}(b) RETURN b.id",
        {"src": app_id},
    )
    return {row[0] for row in result.rows}


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
