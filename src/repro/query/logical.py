"""Logical query plans: the operator tree the planner emits.

A plan is a *linear pipeline* of operator descriptors (frozen
dataclasses): each operator consumes the binding rows of its upstream and
emits new rows.  The physical executor (:mod:`repro.query.physical`)
interprets these descriptors with batched GDI calls; ``EXPLAIN`` renders
them one per line with cardinality estimates.

Plans hold only symbolic state — label/property *names*, parameter
placeholders, cardinality estimates — never resolved metadata IDs or
:class:`~repro.gdi.constraint.Constraint` objects.  That keeps a cached
plan valid across transactions and parameter sets: IDs and constraints
are materialized per execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

from ..gda.holder import NEED_ENTRIES, NEED_IDENT, NEED_TOPO
from .ast import (
    And,
    Cmp,
    Expr,
    FuncCall,
    HasLabel,
    IsNull,
    Literal,
    Not,
    NodePattern,
    Or,
    OrderItem,
    Param,
    ParamRef,
    PathPattern,
    PropPredicate,
    PropRef,
    Query,
    RelPattern,
    ReturnItem,
    SetLabel,
    SetProp,
    VarRef,
)

__all__ = [
    "NodeSpec",
    "ScanOp",
    "ExpandOp",
    "FilterOp",
    "ProjectOp",
    "AggregateOp",
    "DistinctOp",
    "OrderByOp",
    "SkipLimitOp",
    "CreateOp",
    "SetOp",
    "DeleteOp",
    "LogicalPlan",
    "expr_text",
]


@dataclass(frozen=True)
class NodeSpec:
    """Everything needed to bind (or re-check) one node variable.

    ``labels``/``preds`` are the union of the pattern's own conditions
    and the WHERE conjuncts the planner pushed down; the executor
    materializes them into one DNF constraint per execution.
    """

    var: str
    labels: tuple[str, ...] = ()
    preds: tuple[PropPredicate, ...] = ()
    anonymous: bool = False


@dataclass(frozen=True)
class ScanOp:
    """Bind ``spec.var`` from a source, cross-joined with upstream rows.

    ``source`` is one of:

    * ``"dht"`` — application-ID point lookup (``detail`` = the ID value,
      literal or :class:`~repro.query.ast.Param`);
    * ``"index"`` — posting sweep of the explicit index named ``detail``;
    * ``"label"`` — directory scan filtered by the label named ``detail``
      (chosen as the rarest label via the per-label histogram);
    * ``"all"`` — full vertex-directory scan;
    * ``"bound"`` — the variable is already bound upstream, only re-check
      the node conditions.
    """

    spec: NodeSpec
    source: str
    detail: Any = None
    est: float = 1.0

    @property
    def name(self) -> str:
        return {
            "dht": "NodeByIdSeek",
            "index": "IndexScan",
            "label": "LabelScan",
            "all": "AllNodeScan",
            "bound": "ArgumentCheck",
        }[self.source]


@dataclass(frozen=True)
class ExpandOp:
    """Expand from ``src_var`` over ``rel`` into ``dst``.

    With ``bound`` the destination variable already has a binding, so the
    expansion degenerates into an existence check (a hash-join against
    the reachable set) instead of binding new rows.
    """

    src_var: str
    rel: RelPattern
    dst: NodeSpec
    bound: bool = False
    est: float = 1.0

    @property
    def name(self) -> str:
        if self.rel.var_length:
            return "VarLengthExpand"
        return "ExpandInto" if self.bound else "Expand"


@dataclass(frozen=True)
class FilterOp:
    """Residual WHERE conjuncts the planner could not push down."""

    expr: Expr
    est: float = 1.0


@dataclass(frozen=True)
class ProjectOp:
    items: tuple[ReturnItem, ...]
    columns: tuple[str, ...]


@dataclass(frozen=True)
class AggregateOp:
    """Implicit Cypher grouping: non-aggregate items are the group keys.

    ``agg_mask[i]`` says whether output column ``i`` is an aggregate;
    the True positions map onto ``aggs`` in order, the False positions
    onto ``keys`` in order.
    """

    keys: tuple[ReturnItem, ...]
    aggs: tuple[ReturnItem, ...]
    columns: tuple[str, ...]
    agg_mask: tuple[bool, ...] = ()


@dataclass(frozen=True)
class DistinctOp:
    pass


@dataclass(frozen=True)
class OrderByOp:
    #: (output column index, descending) pairs
    keys: tuple[tuple[int, bool], ...]
    items: tuple[OrderItem, ...]


@dataclass(frozen=True)
class SkipLimitOp:
    skip: Any = None  # int | Param | None
    limit: Any = None


@dataclass(frozen=True)
class CreateOp:
    paths: tuple[PathPattern, ...]


@dataclass(frozen=True)
class SetOp:
    items: tuple[SetProp | SetLabel, ...]


@dataclass(frozen=True)
class DeleteOp:
    vars: tuple[str, ...]


@dataclass(frozen=True)
class LogicalPlan:
    """One planned query: the AST plus its linear operator pipeline."""

    query: Query
    ops: tuple
    columns: tuple[str, ...]

    @cached_property
    def _needs(self) -> dict[str, int]:
        """Per node variable, the union of holder parts any operator
        touches, so the *first* fetch of a variable already requests
        everything later operators read — no second round trip, and
        nothing the plan never touches.  Variables missing here take
        whole holders at the use sites."""
        needs: dict[str, int] = {}

        def add(var: str, mask: int) -> None:
            needs[var] = needs.get(var, NEED_IDENT) | mask

        def spec_parts(spec: NodeSpec) -> int:
            if spec.labels or any(p.key != "id" for p in spec.preds):
                return NEED_ENTRIES
            return NEED_IDENT

        exprs = []
        for op in self.ops:
            if isinstance(op, ScanOp):
                add(op.spec.var, spec_parts(op.spec))
            elif isinstance(op, ExpandOp):
                add(op.src_var, NEED_TOPO)
                add(op.dst.var, spec_parts(op.dst))
            elif isinstance(op, FilterOp):
                exprs.append(op.expr)
            elif isinstance(op, (ProjectOp, AggregateOp)):
                items = op.items if isinstance(op, ProjectOp) else op.keys + op.aggs
                exprs.extend(item.expr for item in items)
        while exprs:
            expr = exprs.pop()
            if isinstance(expr, PropRef):
                add(expr.var, NEED_IDENT if expr.key == "id" else NEED_ENTRIES)
            elif isinstance(expr, HasLabel):
                add(expr.var, NEED_ENTRIES)
            elif isinstance(expr, VarRef):
                add(expr.name, NEED_IDENT)
            exprs.extend(_children(expr))
        return needs

    def explain(self, profile: "dict[int, dict] | None" = None) -> str:
        """Render the pipeline, one operator per line.

        With ``profile`` (operator position → measured stats from a
        PROFILE run) each line also shows actual rows and RMA traffic.
        """
        lines = ["QueryPlan"]
        for i, op in enumerate(self.ops):
            desc = _describe(op)
            if profile is not None and i in profile:
                p = profile[i]
                snap = p.get("snapshot_reads", 0)
                desc += (
                    f"  [rows={p['rows']} msgs={p['msgs']}"
                    f" rma_bytes={p['rma_bytes']}"
                    + (f" snapshot_reads={snap}" if snap else "")
                    + "]"
                )
            lines.append("  " + desc)
        return "\n".join(lines)


def _children(expr: Expr) -> tuple:
    """The direct sub-expressions of ``expr``."""
    if isinstance(expr, Cmp):
        return (expr.left, expr.right)
    if isinstance(expr, (And, Or)):
        return expr.items
    if isinstance(expr, (Not, IsNull)):
        return (expr.operand,)
    return expr.args if isinstance(expr, FuncCall) else ()


def _spec_text(spec: NodeSpec) -> str:
    parts = spec.var
    for lab in spec.labels:
        parts += f":{lab}"
    if spec.preds:
        inner = ", ".join(
            f"{p.key} {p.op} {_value_text(p.value)}" for p in spec.preds
        )
        parts += " {" + inner + "}"
    return f"({parts})"


def _value_text(value: Any) -> str:
    if isinstance(value, Param):
        return f"${value.name}"
    return repr(value)


def _rel_text(rel: RelPattern) -> str:
    inner = rel.var or ""
    if rel.label:
        inner += f":{rel.label}"
    if rel.var_length:
        hi = "" if rel.max_hops is None else str(rel.max_hops)
        inner += f"*{rel.min_hops}..{hi}"
    body = f"[{inner}]" if inner else ""
    if rel.direction == "out":
        return f"-{body}->"
    if rel.direction == "in":
        return f"<-{body}-"
    return f"-{body}-"


def _describe(op) -> str:
    if isinstance(op, ScanOp):
        detail = ""
        if op.source == "dht":
            detail = f" id={_value_text(op.detail)}"
        elif op.source == "index":
            detail = f" index={op.detail!r}"
        elif op.source == "label":
            detail = f" label={op.detail}"
        return f"{op.name}{_spec_text(op.spec)}{detail} est={op.est:g}"
    if isinstance(op, ExpandOp):
        return (
            f"{op.name}({op.src_var}){_rel_text(op.rel)}"
            f"{_spec_text(op.dst)} est={op.est:g}"
        )
    if isinstance(op, FilterOp):
        return f"Filter {expr_text(op.expr)} est={op.est:g}"
    if isinstance(op, ProjectOp):
        return "Project " + ", ".join(op.columns)
    if isinstance(op, AggregateOp):
        keys = ", ".join(c for c in op.columns[: len(op.keys)])
        aggs = ", ".join(op.columns[len(op.keys):])
        head = f"Aggregate {aggs}"
        return head + (f" GROUP BY {keys}" if keys else "")
    if isinstance(op, DistinctOp):
        return "Distinct"
    if isinstance(op, OrderByOp):
        return "OrderBy " + ", ".join(
            f"{expr_text(it.expr)}{' DESC' if it.desc else ''}"
            for it in op.items
        )
    if isinstance(op, SkipLimitOp):
        parts = []
        if op.skip is not None:
            parts.append(f"SKIP {_value_text(op.skip)}")
        if op.limit is not None:
            parts.append(f"LIMIT {_value_text(op.limit)}")
        return " ".join(parts)
    if isinstance(op, CreateOp):
        n_nodes = sum(len(p.nodes) for p in op.paths)
        n_rels = sum(len(p.rels) for p in op.paths)
        return f"Create nodes={n_nodes} rels={n_rels}"
    if isinstance(op, SetOp):
        return "SetProperties " + ", ".join(
            f"{s.var}:{s.label}"
            if isinstance(s, SetLabel)
            else f"{s.var}.{s.key}"
            for s in op.items
        )
    if isinstance(op, DeleteOp):
        return "Delete " + ", ".join(op.vars)
    return repr(op)


def expr_text(expr: Expr) -> str:
    """Canonical text of an expression (column naming, EXPLAIN output)."""
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, ParamRef):
        return f"${expr.name}"
    if isinstance(expr, VarRef):
        return expr.name
    if isinstance(expr, PropRef):
        return f"{expr.var}.{expr.key}"
    if isinstance(expr, Cmp):
        return f"{expr_text(expr.left)} {expr.op} {expr_text(expr.right)}"
    if isinstance(expr, HasLabel):
        return f"{expr.var}:{expr.label}"
    if isinstance(expr, IsNull):
        return (
            f"{expr_text(expr.operand)} IS"
            f"{' NOT' if expr.negated else ''} NULL"
        )
    if isinstance(expr, And):
        return " AND ".join(_paren(i) for i in expr.items)
    if isinstance(expr, Or):
        return " OR ".join(_paren(i) for i in expr.items)
    if isinstance(expr, Not):
        return f"NOT {_paren(expr.operand)}"
    if isinstance(expr, FuncCall):
        if expr.star:
            return f"{expr.name}(*)"
        inner = ", ".join(expr_text(a) for a in expr.args)
        if expr.distinct:
            inner = "DISTINCT " + inner
        return f"{expr.name}({inner})"
    return repr(expr)


def _paren(expr: Expr) -> str:
    if isinstance(expr, (And, Or)):
        return f"({expr_text(expr)})"
    return expr_text(expr)
