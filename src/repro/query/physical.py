"""Physical executor: batched operators over GDI transactions.

The executor interprets a :class:`~repro.query.logical.LogicalPlan`
inside **one** GDI transaction.  Each operator consumes the whole output
of its upstream and issues *batched* GDI calls: a DHT seek is one
:meth:`Transaction.find_vertices`, a label/index/full scan sweeps the
shards and associates every candidate in one pipelined
:meth:`Transaction.associate_vertices` batch, and an expansion fetches
each hop's whole frontier in one batch.

Scans, expansions, filters and aggregates run on columns
(:mod:`repro.query.columnar`); rows of :class:`VertexVal`/:class:`EdgeVal`
bindings are built only for the writes, for expressions the columns do
not cover, and for RETURN/DISTINCT/ORDER BY/SKIP/LIMIT, which shape
output rows.

* **Needs-projected reads** — the plan's ``_needs`` say, per node
  variable, which holder parts any operator of the plan touches
  (identity / topology / label+property entries); every batched fetch
  passes that mask down, so e.g. a ``RETURN b.id`` BFS frontier moves
  only holder headers, and one only counted nothing (``NEED_NONE``).
* **Operator fusion** — a scan followed by a ``Filter`` over just its
  variable prunes the candidates *before* a two-stage scan hydrates
  their topology (off under ``PROFILE``, so per-operator deltas stay
  aligned with the rendered plan).

``CREATE`` creates all fresh vertices of all rows with one
:meth:`Transaction.create_vertices` call, and ``SET``/``DELETE`` load
their distinct targets with one write-locking batch.
:class:`ExecState` resolves label/property names and ``$params`` per
execution and creates missing metadata for the writes.
"""

from __future__ import annotations

from typing import Any

from ..gda.holder import NEED_ALL, NEED_IDENT
from ..gdi.constants import EntityType
from ..gdi.constraint import Constraint
from ..gdi.errors import GdiNotFound
from ..gdi.types import Datatype
from .ast import SetLabel
from .columnar import OP_TO_GDI, EdgeVal, Frame, VertexVal, filter_mask, run_expand, run_scan
from .errors import QueryPlanError
from .evalexpr import eval_expr, resolve_value, to_output
from .logical import (
    AggregateOp,
    CreateOp,
    DeleteOp,
    DistinctOp,
    ExpandOp,
    FilterOp,
    LogicalPlan,
    OrderByOp,
    ProjectOp,
    ScanOp,
    SetOp,
    SkipLimitOp,
    _free_vars,
)
from .shaping import aggregate, combine, shape

__all__ = ["ExecState", "execute_plan", "VertexVal", "EdgeVal"]

#: inferred datatypes for properties created by CREATE/SET (bool before
#: int: Python bools are ints)
_INFERRED_DTYPES = (
    (bool, Datatype.BOOL),
    (int, Datatype.INT64),
    (float, Datatype.DOUBLE),
    (str, Datatype.STRING),
    (bytes, Datatype.BYTES),
)


class ExecState:
    """Per-execution state: transaction, params, constraint materializer."""

    def __init__(self, db, ctx, tx, params: dict | None) -> None:
        self.db = db
        self.ctx = ctx
        self.tx = tx
        self.params = params
        self.replica = db.replica(ctx)
        self.stats: dict[str, int] = {}

    def bump(self, key: str, n: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + n

    # -- metadata lookups (read side: unknown names match nothing) ---------
    def label(self, name: str):
        return self.replica.labels.by_name(name)

    def ptype(self, key: str):
        return self.replica.ptypes.by_name(key)

    def app_of(self, vid: int) -> int:
        # identity lives in the holder header: never pull the payload
        return self.tx.associate_vertex(vid, need=NEED_IDENT).app_id

    def resolve(self, value: Any) -> Any:
        return resolve_value(value, self.params)

    # -- metadata lookups (write side: create on demand) -------------------
    def ensure_label(self, name: str):
        label = self.replica.labels.by_name(name)
        if label is None:
            label = self.db.create_label(self.ctx, name)
        return label

    def ensure_ptype(self, key: str, sample: Any):
        ptype = self.replica.ptypes.by_name(key)
        if ptype is not None:
            return ptype
        for pytype, dtype in _INFERRED_DTYPES:
            if isinstance(sample, pytype):
                return self.db.create_property_type(
                    self.ctx, key, entity_type=EntityType.BOTH, dtype=dtype
                )
        raise QueryPlanError(
            f"cannot infer a property datatype for {key} = {sample!r}"
        )

    # -- constraint materialization ----------------------------------------
    def edge_constraint(self, rel) -> Constraint:
        """The relationship's label and property predicates as one DNF
        constraint (unknown names make it unsatisfiable)."""
        c = Constraint.true()
        if rel.label:
            label = self.label(rel.label)
            if label is None:
                return Constraint.false()
            c = Constraint.has_label(label.int_id)
        for pred in rel.preds:
            ptype = self.ptype(pred.key)
            if ptype is None:
                return Constraint.false()
            c = c & Constraint.prop(
                ptype.int_id, OP_TO_GDI[pred.op], self.resolve(pred.value)
            )
        return c.simplify()


# -- execution ---------------------------------------------------------------
def execute_plan(
    plan: LogicalPlan, ex: ExecState, profile: bool = False
) -> tuple[list[tuple], dict, dict[int, dict]]:
    """Run a plan to completion; returns (rows, stats, per-op profile).

    The read pipeline runs on a :class:`~repro.query.columnar.Frame`;
    the first operator that needs rows of bindings turns it into them.

    In a collective transaction the first scan (a read query starts
    with one) binds only this rank's part of the graph, and the first
    aggregate or projection combines the ranks' rows
    (:func:`~repro.query.shaping.combine`).
    """
    ops, needs = plan.ops, plan._needs
    ctx, collective = ex.ctx, ex.tx.collective
    shard = ctx.rank if collective else None
    data: Frame | list = Frame({}, 1)  # one empty row
    prof: dict[int, dict] = {}
    projected = False
    i = 0
    while i < len(ops):
        op = ops[i]
        before = ctx.rt.trace.counters[ctx.rank].snapshot() if profile else None
        if collective and isinstance(op, (AggregateOp, ProjectOp)):
            data, projected = combine(ops[i:], data, ex), True
            if before is not None:
                prof[i] = _profiled(ex, before, data)
            break
        # operator fusion: a filter over just the scanned variable prunes
        # the candidates before a two-stage scan hydrates their topology
        # (off under PROFILE, so per-op deltas stay aligned with plan.ops)
        pre, free = None, set()
        if not profile and isinstance(op, ScanOp) and isinstance(
            ops[i + 1] if i + 1 < len(ops) else None, FilterOp
        ):
            _free_vars(ops[i + 1].expr, free)
            pre = ops[i + 1] if free <= {op.spec.var} else None
        data, projected = _run_op(op, data, ex, projected, needs, pre, shard)
        shard = None  # only the first scan partitions
        if before is not None:
            prof[i] = _profiled(ex, before, data)
        i += 1 if pre is None else 2
    if not projected:
        data = []  # write-only query: no result rows
    return data, ex.stats, prof


def _profiled(ex: ExecState, before, data) -> dict:
    delta = ex.ctx.rt.trace.counters[ex.ctx.rank].diff(before)
    return {
        "rows": len(data),
        "msgs": delta["remote_ops"] + delta["local_ops"],
        "rma_bytes": delta["bytes_put"] + delta["bytes_got"] + delta["bytes_batched"],
        "snapshot_reads": delta["snapshot_reads"],
    }


def _run_op(op, data, ex: ExecState, projected: bool, needs, pre=None, shard=None):
    if isinstance(op, ScanOp):
        need = needs.get(op.spec.var, NEED_ALL)
        return run_scan(op, data, ex, need, pre, shard), projected
    if isinstance(op, ExpandOp):
        return run_expand(op, data, ex, needs.get(op.dst.var, NEED_ALL)), projected
    if isinstance(op, FilterOp):
        return data.take(filter_mask(op.expr, data, ex).nonzero()[0]), projected
    if isinstance(op, AggregateOp):
        return aggregate(op, data, ex), True
    rows = data if isinstance(data, list) else data.rows(ex)
    if isinstance(op, CreateOp):
        return _run_create(op, rows, ex), projected
    if isinstance(op, SetOp):
        return _run_set(op, rows, ex), projected
    if isinstance(op, DeleteOp):
        return _run_delete(op, rows, ex), projected
    if isinstance(op, (ProjectOp, DistinctOp, OrderByOp, SkipLimitOp)):
        return shape(op, rows, ex.params), True
    raise QueryPlanError(f"unknown operator {op!r}")


# -- writes ------------------------------------------------------------------
def _run_create(op: CreateOp, rows: list, ex: ExecState) -> list:
    # Phase 1: gather every fresh vertex any row binds, then create them
    # all with one batched call (one DHT uniqueness-probe round instead
    # of one round trip per vertex).  The planner guarantees each fresh
    # CREATE node carries exactly one ``id =`` predicate.
    envs = [dict(row) for row in rows]
    specs: list[tuple] = []
    slots: list[tuple[int, str]] = []
    for ei, env in enumerate(envs):
        pending: set[str] = set()
        for path in op.paths:
            for node in path.nodes:
                if node.var in env or node.var in pending:
                    continue
                app_id = None
                props = []
                labels = [ex.ensure_label(n) for n in node.labels]
                for pred in node.preds:
                    value = ex.resolve(pred.value)
                    if pred.key == "id":
                        app_id = int(value)
                    else:
                        props.append((ex.ensure_ptype(pred.key, value), value))
                specs.append((app_id, labels, props))
                slots.append((ei, node.var))
                pending.add(node.var)
    if specs:
        handles = ex.tx.create_vertices(specs)
        for (ei, var), handle in zip(slots, handles):
            envs[ei][var] = VertexVal(handle, ex)
            ex.bump("vertices_created")
    # Phase 2: edges, in plan order, against the now-bound endpoints.
    for env in envs:
        for path in op.paths:
            bindings = [env[node.var] for node in path.nodes]
            for i, rel in enumerate(path.rels):
                left, right = bindings[i], bindings[i + 1]
                src, dst = (left, right) if rel.direction == "out" else (right, left)
                label = ex.ensure_label(rel.label) if rel.label else None
                props = []
                for pred in rel.preds:
                    if pred.op != "=":
                        raise QueryPlanError(
                            "CREATE edge properties must use '=' or ':'"
                        )
                    value = ex.resolve(pred.value)
                    props.append((ex.ensure_ptype(pred.key, value), value))
                edge = ex.tx.create_edge(src.h, dst.h, label=label, properties=props)
                if rel.var is not None:
                    env[rel.var] = EdgeVal(edge, ex)
                ex.bump("edges_created")
    return envs


def _prefetch_write_targets(rows: list, ex: ExecState, vars_: list) -> None:
    """Batch-load (and write-lock) the distinct vertices a SET/DELETE
    touches: the read->write lock upgrades and any part hydration ride
    one batched round instead of one per mutation."""
    vids = {row[var].vid for row in rows for var in vars_ if not row[var].is_edge}
    if len(vids) > 1:
        ex.tx.load_vertices(sorted(vids), for_write=True, missing_ok=True)


def _run_set(op: SetOp, rows: list, ex: ExecState) -> list:
    _prefetch_write_targets(rows, ex, [item.var for item in op.items])
    for row in rows:
        for item in op.items:
            binding = row[item.var]
            if isinstance(item, SetLabel):
                if binding.is_edge:
                    raise QueryPlanError("SET :Label requires a node variable")
                binding.h.add_label(ex.ensure_label(item.label))
                ex.bump("labels_set")
                continue
            value = to_output(eval_expr(item.value, row, ex.params))
            target = binding.e if binding.is_edge else binding.h
            if value is None:
                ptype = ex.ptype(item.key)
                if ptype is not None:
                    target.remove_properties(ptype)
                    ex.bump("props_removed")
            else:
                target.set_property(ex.ensure_ptype(item.key, value), value)
                ex.bump("props_set")
    return rows


def _run_delete(op: DeleteOp, rows: list, ex: ExecState) -> list:
    _prefetch_write_targets(rows, ex, list(op.vars))
    deleted_v: set[int] = set()
    deleted_e: set[int] = set()
    for row in rows:
        for var in op.vars:
            binding = row[var]
            if binding.is_edge:
                if id(binding.e) in deleted_e:  # rows sharing one handle
                    continue
                deleted_e.add(id(binding.e))
                try:
                    ex.tx.delete_edge(binding.e)
                except GdiNotFound:
                    continue  # already removed via a vertex delete
                ex.bump("edges_deleted")
            else:
                if binding.vid in deleted_v:
                    continue
                deleted_v.add(binding.vid)
                ex.tx.delete_vertex(binding.h)
                ex.bump("vertices_deleted")
    return rows
