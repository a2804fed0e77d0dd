"""Query planner: rule-based rewrites + cost-based join ordering.

Planning one parsed :class:`~repro.query.ast.Query` proceeds in four
steps:

1. **Predicate pushdown** — top-level WHERE conjuncts of the form
   ``var:Label`` or ``var.key op literal/$param`` are folded into the
   node's pattern conditions, where the executor evaluates them as one
   GDI DNF :class:`~repro.gdi.constraint.Constraint` against the fetched
   holder (no per-predicate Python dispatch per row).
2. **Access-path selection** — for each candidate anchor node: an
   ``id =`` equality routes to the DHT point lookup, a condition set
   implying an :class:`~repro.gda.index_impl.ExplicitIndex` constraint
   routes to that index's posting sweep, a labelled node routes to a
   directory label scan over the *rarest* matching label (per-label
   histogram), everything else falls back to the full directory scan.
3. **Cost-based join ordering** — every node of a path chain is costed
   as the anchor using the RMA cost model (`repro.rma.costmodel`): scan
   cost plus the modelled one-sided traffic of expanding the rest of the
   chain, with cardinalities from index counts and the label histogram.
   The cheapest anchor wins; the chain is then expanded outward from it.
4. **Tail assembly** — residual WHERE filter, write operators, implicit
   grouping (aggregate vs. plain projection), DISTINCT, ORDER BY mapped
   onto output columns, SKIP/LIMIT.

Statistics (directory counts, histogram, index cardinalities) are cached
per database and invalidated on :attr:`VertexDirectory.version` bumps, so
repeated planning does not re-pay the stat sweeps.
"""

from __future__ import annotations

import dataclasses

from ..gdi.constants import Multiplicity
from ..gdi.constraint import LabelCondition, PropertyCondition
from .ast import (
    And,
    Cmp,
    Expr,
    FuncCall,
    HasLabel,
    Literal,
    NodePattern,
    Param,
    ParamRef,
    PathPattern,
    PropPredicate,
    PropRef,
    Query,
    VarRef,
)
from .errors import QueryPlanError
from .logical import (
    AggregateOp,
    CreateOp,
    DeleteOp,
    DistinctOp,
    ExpandOp,
    FilterOp,
    LogicalPlan,
    NodeSpec,
    OrderByOp,
    ProjectOp,
    ScanOp,
    SetOp,
    SkipLimitOp,
    _children,
    expr_text,
)

__all__ = ["plan_query", "plan_is_current", "DEFAULT_FANOUT"]

#: assumed average out-degree when no finer statistic exists
DEFAULT_FANOUT = 8.0
#: nominal holder payload (bytes) fetched per expanded row in the cost model
_HOLDER_BYTES = 96.0

_CMP_FLIP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
_OP_TO_GDI = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: per-database statistics cache: id(db) -> (directory version, stats)
_stats_cache: dict[int, tuple[int, "_Stats"]] = {}


class _Stats:
    """Cardinality statistics gathered once per directory version."""

    def __init__(self, db, ctx) -> None:
        self.total = max(1, db.directory.count(ctx))
        hist = db.directory.label_histogram(ctx)
        replica = db.replica(ctx)
        self.label_card: dict[str, int] = {}
        for lid, n in hist.items():
            try:
                self.label_card[replica.label_by_id(lid).name] = n
            except Exception:
                pass
        self.index_card: dict[str, int] = {
            name: idx.count(ctx) for name, idx in db.indexes.items()
        }


def _get_stats(db, ctx) -> _Stats:
    version = db.directory.version
    cached = _stats_cache.get(id(db))
    if cached is not None and cached[0] == version:
        return cached[1]
    stats = _Stats(db, ctx)
    if len(_stats_cache) > 64:  # bound the cache (ids are recycled anyway)
        _stats_cache.clear()
    _stats_cache[id(db)] = (version, stats)
    return stats


def plan_query(db, ctx, query: Query) -> LogicalPlan:
    """Build the logical operator pipeline for one parsed query."""
    pushdowns, residual = _pushdown(db, ctx, query)
    stats = _get_stats(db, ctx)
    ops: list = []
    bound: set[str] = set()
    est = 1.0
    for path in query.matches:
        est = _plan_path(db, ctx, stats, path, pushdowns, bound, ops, est)
    if residual is not None:
        _check_vars(residual, bound, "WHERE")
        est = max(1.0, est * 0.5)
        ops.append(FilterOp(expr=residual, est=est))
    if query.creates:
        bound |= _plan_creates(query, bound, ops)
    if query.sets:
        for item in query.sets:
            if item.var not in bound:
                raise QueryPlanError(f"SET references unbound {item.var!r}")
        ops.append(SetOp(items=query.sets))
    if query.deletes:
        for var in query.deletes:
            if var not in bound:
                raise QueryPlanError(f"DELETE references unbound {var!r}")
        ops.append(DeleteOp(vars=query.deletes))
    columns = _plan_returns(query, bound, ops)
    return LogicalPlan(query=query, ops=tuple(ops), columns=columns)


def plan_is_current(db, ctx, plan: LogicalPlan) -> bool:
    """Would the plan's scan access paths be chosen again under current stats?

    Used by the engine's plan cache to revalidate entries after the
    vertex directory version moved: estimates inside a stale plan affect
    only quality, but a *flipped access path* (an index becoming cheaper
    than a label sweep, a label histogram inversion) is worth a re-plan.
    """
    stats = _get_stats(db, ctx)
    for op in plan.ops:
        if isinstance(op, ScanOp) and op.source in ("index", "label", "all"):
            source, detail, _ = _choose_source(db, ctx, stats, op.spec)
            if (source, detail) != (op.source, op.detail):
                return False
    return True


# -- predicate pushdown ------------------------------------------------------
def _conjuncts(expr: Expr | None) -> list[Expr]:
    if expr is None:
        return []
    if isinstance(expr, And):
        out: list[Expr] = []
        for item in expr.items:
            out.extend(_conjuncts(item))
        return out
    return [expr]


def _pushdown(
    db, ctx, query: Query
) -> tuple[dict[str, tuple[list[str], list[PropPredicate]]], Expr | None]:
    """Fold single-variable WHERE conjuncts into node conditions.

    Returns (var → (extra labels, extra predicates), residual WHERE).
    Comparisons on MULTI-entry property types stay residual: a DNF
    constraint matches if *any* entry satisfies, while expression
    evaluation reads the first entry — only SINGLE types (and unknown
    names, which fail both ways) are equivalent under pushdown.
    """
    node_vars = {
        n.var for path in query.matches for n in path.nodes
    }
    push: dict[str, tuple[list[str], list[PropPredicate]]] = {}
    residual: list[Expr] = []
    for conj in _conjuncts(query.where):
        target: tuple[str, str | None, PropPredicate | None] | None = None
        if isinstance(conj, HasLabel) and conj.var in node_vars:
            target = (conj.var, conj.label, None)
        elif isinstance(conj, Cmp):
            pred = _cmp_to_pred(db, ctx, conj, node_vars)
            if pred is not None:
                target = (pred[0], None, pred[1])
        if target is None:
            residual.append(conj)
            continue
        var, label, pred = target
        labels, preds = push.setdefault(var, ([], []))
        if label is not None:
            labels.append(label)
        if pred is not None:
            preds.append(pred)
    if not residual:
        return push, None
    return push, residual[0] if len(residual) == 1 else And(tuple(residual))


def _cmp_to_pred(
    db, ctx, cmp: Cmp, node_vars: set[str]
) -> tuple[str, PropPredicate] | None:
    sides = [(cmp.left, cmp.right, cmp.op), (cmp.right, cmp.left, _CMP_FLIP[cmp.op])]
    for prop_side, value_side, op in sides:
        if not isinstance(prop_side, PropRef) or prop_side.var not in node_vars:
            continue
        if isinstance(value_side, Literal):
            value = value_side.value
        elif isinstance(value_side, ParamRef):
            value = Param(value_side.name)
        else:
            continue
        if value is None:
            return None  # comparisons against NULL never match; keep residual
        if prop_side.key != "id":
            ptype = db.replica(ctx).ptypes.by_name(prop_side.key)
            if ptype is not None and ptype.multiplicity != Multiplicity.SINGLE:
                return None
        return prop_side.var, PropPredicate(prop_side.key, op, value)
    return None


# -- access-path selection ---------------------------------------------------
def _merged_spec(
    node: NodePattern,
    pushdowns: dict[str, tuple[list[str], list[PropPredicate]]],
) -> NodeSpec:
    extra_labels, extra_preds = pushdowns.get(node.var, ((), ()))
    labels = list(node.labels)
    for lab in extra_labels:
        if lab not in labels:
            labels.append(lab)
    return NodeSpec(
        var=node.var,
        labels=tuple(labels),
        preds=tuple(node.preds) + tuple(extra_preds),
        anonymous=node.anonymous,
    )


def _static_conditions(db, ctx, spec: NodeSpec) -> set:
    """Node conditions as GDI condition objects (literal values only)."""
    replica = db.replica(ctx)
    out: set = set()
    for name in spec.labels:
        label = replica.labels.by_name(name)
        if label is not None:
            out.add(LabelCondition(label.int_id))
    for pred in spec.preds:
        if isinstance(pred.value, Param) or pred.key == "id":
            continue
        ptype = replica.ptypes.by_name(pred.key)
        if ptype is not None:
            out.add(
                PropertyCondition(ptype.int_id, _OP_TO_GDI[pred.op], pred.value)
            )
    return out


def _choose_source(db, ctx, stats: _Stats, spec: NodeSpec):
    """Pick the cheapest access path: (source, detail, est_rows)."""
    for pred in spec.preds:
        if pred.key == "id" and pred.op == "=":
            return "dht", pred.value, 1.0
    conds = _static_conditions(db, ctx, spec)
    best: tuple[str, float] | None = None
    for name, idx in db.indexes.items():
        # the node conditions must *imply* the index constraint: some
        # conjunction of the index DNF is fully contained in them
        if any(
            conj and set(conj) <= conds
            for conj in idx.constraint.conjunctions
        ) or idx.constraint.is_true():
            card = float(stats.index_card.get(name, stats.total))
            if best is None or card < best[1]:
                best = (name, card)
    if best is not None:
        return "index", best[0], best[1]
    if spec.labels:
        rarest = min(
            spec.labels, key=lambda l: stats.label_card.get(l, 0)
        )
        return "label", rarest, float(stats.label_card.get(rarest, 0))
    return "all", None, float(stats.total)


def _selectivity(db, ctx, stats: _Stats, spec: NodeSpec) -> float:
    _, _, est = _choose_source(db, ctx, stats, spec)
    return min(1.0, max(est, 0.001) / stats.total)


def _expand_fanout(rel) -> float:
    if not rel.var_length:
        return DEFAULT_FANOUT
    hops = rel.max_hops if rel.max_hops is not None else rel.min_hops + 2
    return DEFAULT_FANOUT ** min(hops, 4)


# -- cost-based join ordering ------------------------------------------------
def _plan_path(
    db,
    ctx,
    stats: _Stats,
    path: PathPattern,
    pushdowns,
    bound: set[str],
    ops: list,
    est_in: float,
) -> float:
    specs = [_merged_spec(n, pushdowns) for n in path.nodes]
    cost = ctx.rt.cost
    msg = cost.onesided(ctx.rank, (ctx.rank + 1) % ctx.nranks, _HOLDER_BYTES)

    def anchor_cost(i: int) -> float:
        if specs[i].var in bound:
            scan_cost, rows = 0.0, est_in
        else:
            _, _, est = _choose_source(db, ctx, stats, specs[i])
            scan_cost = ctx.nranks * cost.onesided(
                ctx.rank, (ctx.rank + 1) % ctx.nranks, 8.0
            ) + est * cost.compute(1)
            rows = est_in * max(est, 0.001)
        total = scan_cost
        for j, rel, dst in _walk_from(path, i):
            if specs[dst].var in bound:
                rows = max(rows * 0.1, 0.001)
                continue
            rows = rows * _expand_fanout(rel) * _selectivity(
                db, ctx, stats, specs[dst]
            )
            rows = max(rows, 0.001)
            total += rows * msg
        return total

    anchor = min(range(len(specs)), key=anchor_cost)
    # emit the anchor access
    spec = specs[anchor]
    if spec.var in bound:
        if spec.labels or spec.preds:
            ops.append(ScanOp(spec=spec, source="bound", est=est_in))
        rows = est_in
    else:
        source, detail, est = _choose_source(db, ctx, stats, spec)
        rows = max(est_in * max(est, 1.0), 1.0)
        ops.append(ScanOp(spec=spec, source=source, detail=detail, est=rows))
        bound.add(spec.var)
    # expand outward from the anchor
    for j, rel, dst_i in _walk_from(path, anchor):
        dst = specs[dst_i]
        if rel.var is not None:
            bound.add(rel.var)
        if dst.var in bound:
            rows = max(rows * 0.1, 1.0)
            ops.append(
                ExpandOp(
                    src_var=specs[_other(j, dst_i)].var,
                    rel=rel,
                    dst=dst,
                    bound=True,
                    est=rows,
                )
            )
        else:
            rows = max(
                rows
                * _expand_fanout(rel)
                * _selectivity(db, ctx, stats, dst),
                1.0,
            )
            ops.append(
                ExpandOp(
                    src_var=specs[_other(j, dst_i)].var,
                    rel=rel,
                    dst=dst,
                    est=rows,
                )
            )
            bound.add(dst.var)
    return rows


def _other(rel_index: int, dst_index: int) -> int:
    """The source node index of rel ``rel_index`` given its destination."""
    return rel_index if dst_index == rel_index + 1 else rel_index + 1


def _walk_from(path: PathPattern, anchor: int):
    """Expansion steps outward from the anchor: (rel idx, rel, dst idx).

    Rels right of the anchor keep their direction (they are traversed
    left→right); rels left of it are traversed right→left, so their
    direction is flipped to stay relative to the traversal source.
    """
    steps = []
    for j in range(anchor, len(path.rels)):
        steps.append((j, path.rels[j], j + 1))
    for j in range(anchor - 1, -1, -1):
        steps.append((j, _flip(path.rels[j]), j))
    return steps


def _flip(rel):
    if rel.direction == "out":
        return dataclasses.replace(rel, direction="in")
    if rel.direction == "in":
        return dataclasses.replace(rel, direction="out")
    return rel


# -- writes ------------------------------------------------------------------
def _plan_creates(query: Query, bound: set[str], ops: list) -> set[str]:
    new_vars: set[str] = set()
    for path in query.creates:
        for rel in path.rels:
            if rel.var_length:
                raise QueryPlanError("CREATE cannot use variable-length edges")
            if rel.direction == "any":
                raise QueryPlanError("CREATE edges must be directed (-> or <-)")
        for node in path.nodes:
            if node.var in bound or node.var in new_vars:
                continue
            ids = [
                p for p in node.preds if p.key == "id" and p.op == "="
            ]
            if len(ids) != 1:
                raise QueryPlanError(
                    f"CREATE node {node.var!r} needs exactly one "
                    "id = <value> property (the application ID)"
                )
            for p in node.preds:
                if p.op != "=":
                    raise QueryPlanError(
                        "CREATE properties must use '=' or ':'"
                    )
            new_vars.add(node.var)
    ops.append(CreateOp(paths=query.creates))
    return new_vars


# -- RETURN tail -------------------------------------------------------------
def _has_aggregate(expr: Expr) -> bool:
    if isinstance(expr, FuncCall) and expr.aggregate:
        return True
    return any(_has_aggregate(c) for c in _children(expr))


def _free_vars(expr: Expr, out: set[str]) -> None:
    if isinstance(expr, VarRef):
        out.add(expr.name)
    elif isinstance(expr, (PropRef, HasLabel)):
        out.add(expr.var)
    for child in _children(expr):
        _free_vars(child, out)


def _check_vars(expr: Expr, bound: set[str], clause: str) -> None:
    free: set[str] = set()
    _free_vars(expr, free)
    missing = free - bound
    if missing:
        raise QueryPlanError(
            f"{clause} references unbound variable(s): "
            + ", ".join(sorted(missing))
        )


def _plan_returns(
    query: Query, bound: set[str], ops: list
) -> tuple[str, ...]:
    if not query.returns:
        if not query.writes:
            raise QueryPlanError("read query without RETURN")
        if query.order_by or query.skip is not None or query.limit is not None:
            raise QueryPlanError("ORDER BY/SKIP/LIMIT require RETURN")
        return ()
    columns = tuple(
        item.alias or expr_text(item.expr) for item in query.returns
    )
    if len(set(columns)) != len(columns):
        raise QueryPlanError(f"duplicate output column in RETURN: {columns}")
    for item in query.returns:
        _check_vars(item.expr, bound, "RETURN")
    agg_mask = tuple(_has_aggregate(item.expr) for item in query.returns)
    if any(agg_mask):
        keys, aggs = [], []
        for item, is_agg in zip(query.returns, agg_mask):
            if is_agg:
                if not (
                    isinstance(item.expr, FuncCall) and item.expr.aggregate
                ):
                    raise QueryPlanError(
                        "aggregates must be top-level RETURN items"
                    )
                if item.expr.star and item.expr.name != "count":
                    raise QueryPlanError("only count(*) accepts '*'")
                if not item.expr.star and len(item.expr.args) != 1:
                    raise QueryPlanError(
                        f"{item.expr.name}() takes exactly one argument"
                    )
                if not item.expr.star and _has_aggregate(item.expr.args[0]):
                    raise QueryPlanError("nested aggregates are not allowed")
                aggs.append(item)
            else:
                keys.append(item)
        ops.append(
            AggregateOp(
                keys=tuple(keys),
                aggs=tuple(aggs),
                columns=columns,
                agg_mask=agg_mask,
            )
        )
    else:
        ops.append(ProjectOp(items=query.returns, columns=columns))
    if query.distinct:
        ops.append(DistinctOp())
    if query.order_by:
        keys = []
        for order in query.order_by:
            keys.append((_order_column(order, query, columns), order.desc))
        ops.append(OrderByOp(keys=tuple(keys), items=query.order_by))
    if query.skip is not None or query.limit is not None:
        ops.append(SkipLimitOp(skip=query.skip, limit=query.limit))
    return columns


def _order_column(order, query: Query, columns: tuple[str, ...]) -> int:
    """Map an ORDER BY expression onto an output column index.

    Sorting happens after projection (and aggregation), so the sort key
    must be one of the output columns — referenced by alias, by matching
    expression, or by identical expression text.
    """
    if isinstance(order.expr, VarRef) and order.expr.name in columns:
        return columns.index(order.expr.name)
    for i, item in enumerate(query.returns):
        if item.expr == order.expr:
            return i
    text = expr_text(order.expr)
    if text in columns:
        return columns.index(text)
    raise QueryPlanError(
        f"ORDER BY key {text!r} is not an output column of RETURN"
    )
