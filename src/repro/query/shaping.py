"""The RETURN tail — projection, aggregate, DISTINCT, ORDER BY and
SKIP/LIMIT — shared with the reference interpreter, and the combine
point of a collective execution (:func:`combine`).
"""

from __future__ import annotations

from .ast import FuncCall, ReturnItem
from .columnar import Frame, run_aggregate_frame
from .evalexpr import _reduce, aggregate_value, eval_expr, hashable, resolve_value
from .evalexpr import sort_key, to_output
from .logical import AggregateOp, DistinctOp, OrderByOp, ProjectOp, SkipLimitOp

__all__ = ["aggregate", "shape", "combine"]


def _aggregate_rows(op: AggregateOp, rows: list, params: dict | None) -> list:
    groups: dict[tuple, tuple[tuple, list]] = {} if op.keys else {(): ((), list(rows))}
    for row in rows if op.keys else ():
        values = tuple(to_output(eval_expr(item.expr, row, params)) for item in op.keys)
        groups.setdefault(hashable(values), (values, []))[1].append(row)
    out = []
    for key_values, group_rows in groups.values():
        aggs = iter([aggregate_value(item.expr, group_rows, params) for item in op.aggs])
        keys = iter(key_values)
        out.append(tuple(next(aggs) if is_agg else next(keys) for is_agg in op.agg_mask))
    return out


def aggregate(op: AggregateOp, data, ex) -> list:
    """``op`` over a frame (on its columns where they cover it) or rows."""
    out = run_aggregate_frame(op, data, ex) if isinstance(data, Frame) else None
    if out is None:
        rows = data if isinstance(data, list) else data.rows(ex)
        out = _aggregate_rows(op, rows, ex.params)
    return out


def _skip_limit(op: SkipLimitOp, params: dict | None) -> tuple:
    skip = max(0, int(resolve_value(op.skip, params))) if op.skip is not None else 0
    return skip, None if op.limit is None else max(0, int(resolve_value(op.limit, params)))


def shape(op, rows: list, params: dict | None) -> list:
    """One tail operator: a projection or an aggregate over rows of
    bindings, DISTINCT, ORDER BY or SKIP/LIMIT over output rows."""
    if isinstance(op, ProjectOp):
        return [tuple(to_output(eval_expr(i.expr, row, params)) for i in op.items) for row in rows]
    if isinstance(op, AggregateOp):
        return _aggregate_rows(op, rows, params)
    if isinstance(op, DistinctOp):
        first: dict = {}
        for row in rows:
            first.setdefault(hashable(row), row)
        return list(first.values())
    if isinstance(op, OrderByOp):
        # stable sorts applied last-key-first give multi-key mixed-direction
        out = list(rows)
        for col, desc in reversed(op.keys):
            out.sort(key=lambda r: sort_key(r[col]), reverse=desc)
        return out
    skip, limit = _skip_limit(op, params)
    return rows[skip:] if limit is None else rows[skip : skip + limit]


def combine(ops, frame: Frame, ex) -> list:
    """The tail ``ops`` (a projection or an aggregate, then the rest) of
    a collective execution whose rows are this rank's ``frame``; returns
    the same rows on every rank.

    Each rank reduces its rows as far as that is exact — an aggregate to
    partial rows (:func:`_partial`), a projection through the rest of
    the tail, cut to ``skip + limit`` rows (a row that many rows precede
    on its own rank cannot be in the result) — one gather brings the
    pieces to rank 0, which runs the unchanged operators on their
    union, and one broadcast hands the rows to every rank.
    """
    ctx, head, params = ex.ctx, ops[0], ex.params
    if isinstance(head, AggregateOp):
        local = aggregate(_partial(head), frame, ex)
    else:
        local = shape(head, frame.rows(ex), params)
        for op in ops[1:]:
            if not isinstance(op, SkipLimitOp):
                local = shape(op, local, params)
            elif op.limit is not None:
                local = local[: sum(_skip_limit(op, params))]
    parts = ctx.gather(local, root=0)
    rows = None
    if ctx.rank == 0:
        rows = [row for part in parts for row in part]
        if isinstance(head, AggregateOp):
            rows = _merge(head, rows)
        for op in ops[1:]:
            rows = shape(op, rows, params)
    return ctx.bcast(rows, root=0)


def _partial(op: AggregateOp) -> AggregateOp:
    """What one rank computes of ``op``: count, sum, min and max as
    themselves, avg as sum and count, the values of a DISTINCT (de-
    duplicated) or ``collect`` argument."""
    aggs = []
    for item in op.aggs:
        f = item.expr
        if f.distinct or f.name == "collect":
            aggs.append(FuncCall("collect", f.args, distinct=f.distinct))
        elif f.name == "avg":
            aggs += [FuncCall("sum", f.args), FuncCall("count", f.args)]
        else:
            aggs.append(f)
    mask = (False,) * len(op.keys) + (True,) * len(aggs)
    return AggregateOp(op.keys, tuple(ReturnItem(f) for f in aggs), (), mask)


def _merge(op: AggregateOp, partial_rows: list) -> list:
    """The ranks' partial rows (keys, then :func:`_partial`'s columns)
    folded into ``op``'s rows, groups in order of first appearance."""
    nk = len(op.keys)
    groups: dict = {}
    for row in partial_rows:
        groups.setdefault(hashable(row[:nk]), []).append(row)
    out = []
    for rows in groups.values():
        cols = iter(zip(*(row[nk:] for row in rows)))  # a partial column: per rank
        aggs = []
        for f in (item.expr for item in op.aggs):
            col = next(cols)
            if f.distinct or f.name == "collect":
                aggs.append(_reduce(f, [v for values in col for v in values]))
            elif f.name == "avg":
                total, n = sum(col), sum(next(cols))
                aggs.append(total / n if n else None)
            elif f.name in ("count", "sum"):
                aggs.append(sum(col))
            else:  # min, max
                aggs.append(_reduce(f, [v for v in col if v is not None]))
        keys, aggs = iter(rows[0][:nk]), iter(aggs)
        out.append(tuple(next(aggs) if is_agg else next(keys) for is_agg in op.agg_mask))
    return out
