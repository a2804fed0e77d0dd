"""Shared expression evaluation for the engine and the reference oracle.

Both executors bind pattern variables to *binding* objects implementing
the small duck-typed protocol of :class:`Binding` (the engine wraps GDI
handles, the reference interpreter wraps snapshot records), and both
evaluate WHERE/RETURN expressions through :func:`eval_expr` — one shared
semantics, two independent data paths.

Null semantics (documented in docs/GDI_SPEC.md §11):

* a missing property reads as ``None``;
* any comparison involving ``None`` is false (so is its negation via
  ``<>`` — use ``IS NULL`` to test for absence);
* ``NOT``/``AND``/``OR`` are two-valued over Python truthiness with
  ``None`` counting as false;
* aggregates skip ``None`` inputs; ``sum`` of nothing is ``0``,
  ``count`` of nothing is ``0``, ``min``/``max``/``avg`` of nothing are
  ``None``, ``collect`` of nothing is ``[]``;
* ``collect`` returns its values in a canonical sorted order, making
  results order-independent and comparable across executors.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

from .ast import (
    And,
    Cmp,
    Expr,
    FuncCall,
    HasLabel,
    IsNull,
    Literal,
    Not,
    Or,
    Param,
    ParamRef,
    PropRef,
    VarRef,
)
from .errors import QueryPlanError

__all__ = [
    "Binding",
    "eval_expr",
    "to_output",
    "hashable",
    "sort_key",
    "resolve_value",
    "aggregate_value",
    "truthy",
]


class Binding:
    """Duck-typed protocol of a pattern-variable binding.

    Engine-side implementations wrap transaction handles; the reference
    interpreter wraps immutable snapshot records.
    """

    is_edge = False

    @property
    def app_id(self) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def has_label(self, name: str) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def prop(self, key: str) -> Any:  # pragma: no cover - interface
        raise NotImplementedError

    def output(self) -> Any:  # pragma: no cover - interface
        raise NotImplementedError

    def cmp_key(self) -> Any:  # pragma: no cover - interface
        raise NotImplementedError


def resolve_value(value: Any, params: dict | None) -> Any:
    """Resolve a literal-or-:class:`Param` slot against the params dict."""
    if isinstance(value, Param):
        if params is None or value.name not in params:
            raise QueryPlanError(f"missing query parameter ${value.name}")
        return params[value.name]
    return value


def eval_expr(expr: Expr, row: dict, params: dict | None) -> Any:
    """Evaluate one expression against a row of variable bindings."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ParamRef):
        if params is None or expr.name not in params:
            raise QueryPlanError(f"missing query parameter ${expr.name}")
        return params[expr.name]
    if isinstance(expr, VarRef):
        try:
            return row[expr.name]
        except KeyError:
            raise QueryPlanError(
                f"unbound variable {expr.name!r}"
            ) from None
    if isinstance(expr, PropRef):
        binding = row.get(expr.var)
        if binding is None:
            raise QueryPlanError(f"unbound variable {expr.var!r}")
        if expr.key == "id" and not binding.is_edge:
            return binding.app_id
        return binding.prop(expr.key)
    if isinstance(expr, HasLabel):
        binding = row.get(expr.var)
        if binding is None:
            raise QueryPlanError(f"unbound variable {expr.var!r}")
        return binding.has_label(expr.label)
    if isinstance(expr, IsNull):
        is_null = eval_expr(expr.operand, row, params) is None
        return is_null != expr.negated
    if isinstance(expr, Cmp):
        left = eval_expr(expr.left, row, params)
        right = eval_expr(expr.right, row, params)
        return _compare(expr.op, left, right)
    if isinstance(expr, And):
        return all(truthy(eval_expr(i, row, params)) for i in expr.items)
    if isinstance(expr, Or):
        return any(truthy(eval_expr(i, row, params)) for i in expr.items)
    if isinstance(expr, Not):
        return not truthy(eval_expr(expr.operand, row, params))
    if isinstance(expr, FuncCall):
        raise QueryPlanError(
            f"function {expr.name}() not valid here (aggregates are only "
            "allowed as top-level RETURN items)"
        )
    raise QueryPlanError(f"cannot evaluate expression {expr!r}")


_CMP_OPS = dict(zip(("=", "<>", "<", "<=", ">", ">="), (
    operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)))


def truthy(value: Any) -> bool:
    return bool(value) if value is not None else False


def _compare(op: str, left: Any, right: Any) -> bool:
    if left is None or right is None:
        return False
    if isinstance(left, Binding):
        left = left.cmp_key()
    if isinstance(right, Binding):
        right = right.cmp_key()
    if op not in _CMP_OPS:
        raise QueryPlanError(f"unknown comparison operator {op!r}")
    try:
        return bool(_CMP_OPS[op](left, right))
    except TypeError:
        return False


def to_output(value: Any) -> Any:
    """Convert an evaluated value to its user-facing output form."""
    if isinstance(value, Binding):
        return value.output()
    return value


def hashable(value: Any) -> Any:
    """A hashable stand-in for DISTINCT/grouping keys."""
    if isinstance(value, list):
        return tuple(hashable(v) for v in value)
    if isinstance(value, tuple):
        return tuple(hashable(v) for v in value)
    return value


def sort_key(value: Any):
    """Total-order key across mixed output types; ``None`` sorts first."""
    if value is None:
        return (0, 0, 0)
    if isinstance(value, bool):
        return (1, 0, float(value))
    if isinstance(value, (int, float)):
        return (1, 0, float(value))
    if isinstance(value, str):
        return (1, 1, value)
    if isinstance(value, (tuple, list)):
        return (1, 2, tuple(sort_key(v) for v in value))
    return (1, 3, repr(value))


def aggregate_value(
    func: FuncCall,
    rows: list[dict],
    params: dict | None,
    evalfn: Callable[[Expr, dict, dict | None], Any] = eval_expr,
) -> Any:
    """Compute one aggregate over a group of rows."""
    if func.star:
        return len(rows)
    arg = func.args[0]
    values = [to_output(evalfn(arg, row, params)) for row in rows]
    return _reduce(func, [v for v in values if v is not None])


def _reduce(func: FuncCall, values: list) -> Any:
    """One aggregate over the non-null values of a group, in row order."""
    if func.distinct:
        seen: set = set()
        unique = []
        for v in values:
            k = hashable(v)
            if k not in seen:
                seen.add(k)
                unique.append(v)
        values = unique
    name = func.name
    if name == "count":
        return len(values)
    if name == "sum":
        return sum(values) if values else 0
    if name == "min":
        return min(values, key=sort_key) if values else None
    if name == "max":
        return max(values, key=sort_key) if values else None
    if name == "avg":
        return sum(values) / len(values) if values else None
    if name == "collect":
        return sorted(values, key=sort_key)
    raise QueryPlanError(f"unknown aggregate {name!r}")
