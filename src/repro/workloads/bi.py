"""Business-intelligence (OLSP) workloads (paper Listing 3, Section 6.5).

The paper's BI example is the Cypher query

    MATCH (per:Person) WHERE per.age > 30
      AND per-[:OWN]->vehicle(:Car) AND vehicle.color = red
    RETURN count(per)

implemented with a collective transaction: fetch the label-indexed vertex
set, filter by a property predicate, traverse constraint-filtered edges,
check the neighbor's label and property, and reduce the count globally.

:func:`filtered_two_hop_count` is that exact shape, parameterized over the
generated schema, and :func:`bi2_style_query` instantiates it the way the
evaluation uses "BI2" — a group-by-free aggregate over a filtered two-hop
pattern, which is the communication-relevant core of LDBC SNB BI query 2.

These hand-coded collective kernels are what the OLAP benchmarks time
and the oracle the declarative engine (:mod:`repro.query`) is held to:
``tests/workloads/test_engine_parity.py`` issues the equivalent
Cypher-lite text and asserts identical answers.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..gdi import EdgeOrientation
from ..gda.index_impl import ExplicitIndex
from ..gda.metadata import Label, PropertyType
from ..generator.lpg import GeneratedGraph
from ..rma.runtime import RankContext

__all__ = [
    "filtered_two_hop_count",
    "bi2_style_query",
    "group_count_by_label",
    "aggregate_property_by_label",
]


def filtered_two_hop_count(
    ctx: RankContext,
    graph: GeneratedGraph,
    *,
    src_label: Label,
    src_ptype: PropertyType | None = None,
    src_op: str = ">",
    src_value: Any = None,
    edge_label: Label | None = None,
    dst_label: Label | None = None,
    dst_ptype: PropertyType | None = None,
    dst_op: str = "==",
    dst_value: Any = None,
    index: ExplicitIndex | None = None,
    orientation: EdgeOrientation = EdgeOrientation.OUTGOING,
) -> int:
    """Count source vertices matching a filtered two-hop pattern.

    Follows Listing 3: every rank scans its local shard of the source set
    (via the explicit ``index`` when provided, else the vertex directory),
    applies the source property predicate, traverses edges optionally
    constrained by ``edge_label``, checks the neighbor's label and
    property, and the per-rank counts are combined with a global reduce.

    Returns the total on rank 0 and ``0`` elsewhere.
    """
    db = graph.db
    # BI traversals run on one frozen watermark when MVCC is enabled:
    # lock-free, abort-free, and consistent under concurrent OLTP
    tx = db.start_collective_transaction(
        ctx, snapshot=db.mvcc is not None
    )
    if index is not None:
        candidates = index.local_vertices(ctx)
    else:
        candidates = tx.visible_vertices(
            db.directory.local_vertices(ctx), ctx.rank
        )
    # Both hops read whole-batch columns of their scan (labels, one
    # property, label-constrained neighbor IDs): no per-vertex handles.
    scan = tx.associate_vertices(candidates, missing_ok=True)
    keep = scan.present
    if index is None:
        keep &= scan.has_label(src_label)
    if src_ptype is not None:
        keep &= _matches(scan.property(src_ptype), src_op, src_value)
    sources = scan.take(np.flatnonzero(keep))
    indptr, nvids = sources.neighbors(orientation, edge_label)
    source = np.repeat(np.arange(len(sources)), np.diff(indptr))
    # Batched second hop: every surviving source's neighborhood is
    # pipelined in one read, each neighbor once, in the order the
    # sources name them.  A neighbor can be absent at the snapshot's
    # watermark (created after it, or adjacency observed ahead of the
    # frozen vertex state) — those simply don't match.
    frontier, first, slot = np.unique(
        nvids, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    hop2 = tx.associate_vertices(frontier[order], missing_ok=True)
    ok = hop2.present
    if dst_label is not None:
        ok &= hop2.has_label(dst_label)
    if dst_ptype is not None:
        ok &= _matches(hop2.property(dst_ptype), dst_op, dst_value)
    ok_of = np.empty(len(frontier), dtype=bool)
    ok_of[order] = ok
    local_count = len(np.unique(source[ok_of[slot]]))
    tx.commit()
    total = ctx.reduce(local_count, op="sum", root=0)
    return total if ctx.rank == 0 else 0


def _matches(column: tuple, op: str, ref: Any) -> np.ndarray:
    """Per value of a ``VertexScan.property`` column: present and
    ``value <op> ref``."""
    values, has = column
    return np.fromiter(
        (h and _compare(op, v, ref) for v, h in zip(values.tolist(), has.tolist())),
        dtype=bool,
        count=len(values),
    )


def _compare(op: str, a: Any, b: Any) -> bool:
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise ValueError(f"unknown operator {op!r}")


def bi2_style_query(
    ctx: RankContext,
    graph: GeneratedGraph,
    *,
    min_score: float = 50.0,
    index: ExplicitIndex | None = None,
) -> int:
    """The evaluation's BI2-shaped aggregate over the generated schema.

    "How many VL0-labelled vertices with p_score > ``min_score`` have an
    EL0-labelled edge to a VL1-labelled neighbor with p_active = true?" —
    the same index-scan + filter + constrained-traversal + neighbor-check
    + global-reduce pipeline as the paper's red-car query.

    Returns the global count on every rank.
    """
    schema = graph.schema
    src_label = graph.vertex_label(0)
    dst_label = graph.vertex_label(1 % max(1, schema.n_vertex_labels))
    edge_label = graph.edge_label(0) if schema.n_edge_labels else None
    count = filtered_two_hop_count(
        ctx,
        graph,
        src_label=src_label,
        src_ptype=graph.ptypes.get("p_score"),
        src_op=">",
        src_value=min_score,
        edge_label=edge_label,
        dst_label=dst_label,
        dst_ptype=graph.ptypes.get("p_active"),
        dst_op="==",
        dst_value=True,
        index=index,
    )
    # broadcast the root's total so every rank returns the global answer
    return ctx.bcast(count, root=0)


def _merge_dicts(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        if k in out:
            out[k] = tuple(x + y for x, y in zip(out[k], v))
        else:
            out[k] = v
    return out


def group_count_by_label(
    ctx: RankContext, graph: GeneratedGraph
) -> dict[str, int]:
    """OLSP summarization: vertex counts grouped by label.

    The "data summarization and aggregation" class of business
    intelligence queries (Section 2): each rank scans its local shard in
    a collective transaction, builds a partial group-by, and the partials
    merge in a dict-valued allreduce.  Returns the same result on every
    rank.
    """
    db = graph.db
    replica = db.replica(ctx)
    tx = db.start_collective_transaction(ctx, snapshot=db.mvcc is not None)
    local_vids = tx.visible_vertices(db.directory.local_vertices(ctx), ctx.rank)
    partial: dict[str, tuple[int]] = {}
    for v in tx.associate_vertices(local_vids, missing_ok=True):
        if v is None:
            continue
        for label in v.labels():
            key = label.name
            partial[key] = (partial.get(key, (0,))[0] + 1,)
    tx.commit()
    merged = ctx.allreduce(partial, op=_merge_dicts)
    del replica
    return {k: v[0] for k, v in merged.items()}


def aggregate_property_by_label(
    ctx: RankContext,
    graph: GeneratedGraph,
    ptype: PropertyType,
    group_label: Label | None = None,
) -> dict[str, dict[str, float]]:
    """OLSP aggregate: count/sum/min/max/mean of a numeric property,
    grouped by vertex label (or one ``group_label`` only).

    Returns ``{label_name: {"count", "sum", "min", "max", "mean"}}`` on
    every rank.
    """
    db = graph.db
    tx = db.start_collective_transaction(ctx, snapshot=db.mvcc is not None)
    local_vids = tx.visible_vertices(db.directory.local_vertices(ctx), ctx.rank)
    partial: dict[str, tuple] = {}
    for v in tx.associate_vertices(local_vids, missing_ok=True):
        if v is None:
            continue
        value = v.property(ptype)
        if value is None:
            continue
        for label in v.labels():
            if group_label is not None and label.int_id != group_label.int_id:
                continue
            key = label.name
            if key in partial:
                c, s, mn, mx = partial[key]
                partial[key] = (
                    c + 1,
                    s + value,
                    min(mn, value),
                    max(mx, value),
                )
            else:
                partial[key] = (1, value, value, value)
    tx.commit()

    def merge(a: dict, b: dict) -> dict:
        out = dict(a)
        for k, (c, s, mn, mx) in b.items():
            if k in out:
                c0, s0, mn0, mx0 = out[k]
                out[k] = (c0 + c, s0 + s, min(mn0, mn), max(mx0, mx))
            else:
                out[k] = (c, s, mn, mx)
        return out

    merged = ctx.allreduce(partial, op=merge)
    return {
        k: {
            "count": c,
            "sum": s,
            "min": mn,
            "max": mx,
            "mean": s / c,
        }
        for k, (c, s, mn, mx) in merged.items()
    }
