"""Business-intelligence (OLSP) workloads (paper Listing 3, Section 6.5).

The paper's BI example is the Cypher query

    MATCH (per:Person) WHERE per.age > 30
      AND per-[:OWN]->vehicle(:Car) AND vehicle.color = red
    RETURN count(per)

run as one collective transaction: every rank sweeps its shard of the
label-indexed vertex set, filters by a property predicate, traverses
constraint-filtered edges with one-sided reads, checks the neighbor's
label and property, and the counts are combined once.

:func:`filtered_two_hop_count` is that shape, parameterized over the
generated schema, and :func:`bi2_style_query` instantiates it the way the
evaluation uses "BI2" — a group-by-free aggregate over a filtered two-hop
pattern, which is the communication-relevant core of LDBC SNB BI query 2.
Both are Cypher-lite texts the query engine (:mod:`repro.query`) runs in
a collective transaction, where each rank executes the plan on its own
shard and the engine combines the rows.

The label summaries (:func:`group_count_by_label`,
:func:`aggregate_property_by_label`) stay hand-coded collective sweeps:
the grammar has no label-valued grouping key, and one engine query per
label costs far more than one sweep.
"""

from __future__ import annotations

from typing import Any

from ..gdi import EdgeOrientation
from ..gda.metadata import Label, PropertyType
from ..generator.lpg import GeneratedGraph
from ..query import QueryEngine
from ..rma.runtime import RankContext
from .interactive import _ARROWS

__all__ = [
    "filtered_two_hop_count",
    "bi2_style_query",
    "group_count_by_label",
    "aggregate_property_by_label",
]

#: the keyword API's comparison operators Cypher-lite spells otherwise
_CYPHER_OPS = {"==": "=", "!=": "<>"}


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
    orientation: EdgeOrientation = EdgeOrientation.OUTGOING,
) -> int:
    """Count source vertices matching a filtered two-hop pattern.

    Follows Listing 3: the ``src_label`` vertices whose ``src_ptype``
    satisfies ``src_op src_value`` with an edge (``edge_label`` if given,
    in ``orientation``) to a ``dst_label`` neighbor whose ``dst_ptype``
    satisfies ``dst_op dst_value``.  A collective: every rank calls it,
    and every rank returns the global count.
    """
    conds, params = [], {}
    for var, ptype, op, value in (
        ("per", src_ptype, src_op, src_value),
        ("v", dst_ptype, dst_op, dst_value),
    ):
        if ptype is not None:
            conds.append(f"{var}.{ptype.name} {_CYPHER_OPS.get(op, op)} ${var}")
            params[var] = value
    left, right = _ARROWS[orientation]
    rel = f"[:{edge_label.name}]" if edge_label is not None else ""
    dst = f"(v:{dst_label.name})" if dst_label is not None else "(v)"
    where = " WHERE " + " AND ".join(conds) if conds else ""
    text = f"MATCH (per:{src_label.name}){left}{rel}{right}{dst}{where} RETURN count(DISTINCT per)"
    db = graph.db
    # BI traversals run on one frozen watermark: lock-free, abort-free,
    # and consistent under concurrent OLTP
    tx = db.start_collective_transaction(ctx, snapshot=True)
    result = QueryEngine.of(db).run(ctx, text, params, tx=tx)
    tx.commit()
    return result.scalar()


def bi2_style_query(
    ctx: RankContext, graph: GeneratedGraph, *, min_score: float = 50.0
) -> int:
    """The evaluation's BI2-shaped aggregate over the generated schema.

    "How many VL0-labelled vertices with p_score > ``min_score`` have an
    EL0-labelled edge to a VL1-labelled neighbor with p_active = true?" —
    the same scan + filter + constrained-traversal + neighbor-check +
    global-combine pipeline as the paper's red-car query.

    Returns the global count on every rank.
    """
    schema = graph.schema
    return filtered_two_hop_count(
        ctx,
        graph,
        src_label=graph.vertex_label(0),
        src_ptype=graph.ptypes.get("p_score"),
        src_value=min_score,
        edge_label=graph.edge_label(0) if schema.n_edge_labels else None,
        dst_label=graph.vertex_label(1 % max(1, schema.n_vertex_labels)),
        dst_ptype=graph.ptypes.get("p_active"),
        dst_value=True,
    )


def _shard_vertices(ctx: RankContext, graph: GeneratedGraph):
    """This rank's vertex handles, read in one collective transaction
    (a snapshot), which commits once they are consumed."""
    db = graph.db
    tx = db.start_collective_transaction(ctx, snapshot=True)
    vids = tx.visible_vertices(db.directory.local_vertices(ctx), ctx.rank)
    yield from (v for v in tx.associate_vertices(vids, missing_ok=True) if v is not None)
    tx.commit()


def _merged(ctx: RankContext, partial: dict, fold) -> dict:
    """The ranks' ``partial`` dicts in one allreduce, values under one
    key combined by ``fold``."""

    def merge(a: dict, b: dict) -> dict:
        out = dict(a)
        for k, v in b.items():
            out[k] = fold(out[k], v) if k in out else v
        return out

    return ctx.allreduce(partial, op=merge)


def _fold(a: tuple, b: tuple) -> tuple:
    """Two ``(count, sum, min, max)`` partials as one."""
    return (a[0] + b[0], a[1] + b[1], min(a[2], b[2]), max(a[3], b[3]))


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
    partial: dict[str, int] = {}
    for v in _shard_vertices(ctx, graph):
        for label in v.labels():
            partial[label.name] = partial.get(label.name, 0) + 1
    return _merged(ctx, partial, lambda a, b: a + b)


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
    partial: dict[str, tuple] = {}
    for v in _shard_vertices(ctx, graph):
        value = v.property(ptype)
        if value is None:
            continue
        for label in v.labels():
            if group_label is not None and label.int_id != group_label.int_id:
                continue
            one, key = (1, value, value, value), label.name
            partial[key] = _fold(partial[key], one) if key in partial else one
    return {
        k: {"count": c, "sum": s, "min": mn, "max": mx, "mean": s / c}
        for k, (c, s, mn, mx) in _merged(ctx, partial, _fold).items()
    }
