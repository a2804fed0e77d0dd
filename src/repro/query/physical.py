"""Physical executor: batched, vectorized operators over GDI transactions.

The executor interprets a :class:`~repro.query.logical.LogicalPlan`
inside **one** GDI transaction.  Operators are vectorized: each consumes
the full materialized row set of its upstream and issues *batched* GDI
calls —

* ``NodeByIdSeek`` resolves application IDs through the batched DHT
  lookup (:meth:`Transaction.find_vertices`);
* ``IndexScan``/``LabelScan``/``AllNodeScan`` sweep per-rank posting or
  directory shards (one proportional message per shard) and associate
  all candidates with a single pipelined
  :meth:`Transaction.associate_vertices` batch;
* ``Expand`` collects the entire neighbor frontier of all input rows and
  prefetches it with one ``associate_vertices`` batch per hop level —
  the PR-1 read-pipelining path — instead of one round trip per row.

Two raw-speed mechanisms layer on top of the batching:

* **Needs-projected reads** — :func:`_plan_needs` walks the whole plan
  once and computes, per node variable, which holder parts any operator
  will ever touch (identity / topology / label+property entries).  Every
  batched fetch passes that mask down to the storage layer, so e.g. a
  ``RETURN b.id`` BFS frontier moves only 40-byte headers instead of
  full holder payloads.
* **Operator fusion** — a scan or expand followed by ``Filter`` (and
  optionally ``Project``) runs as one pass: the filter prunes candidates
  *before* the expensive second-stage topology hydration and before the
  cross-join materializes rows.  Fusion is disabled under ``PROFILE`` so
  per-operator deltas stay aligned with the rendered plan.

Write operators batch too: ``CREATE`` funnels all fresh vertices of all
rows through one :meth:`Transaction.create_vertices` call (one DHT probe
round), and ``SET``/``DELETE`` prefetch their distinct target vertices
with a single write-locking :meth:`Transaction.load_vertices` batch.

Symbolic plan state (label/property names, ``$params``) is materialized
per execution into GDI :class:`~repro.gdi.constraint.Constraint` objects
by :class:`ExecState`, which is also where write operators create
missing labels/property types on demand.
"""

from __future__ import annotations

from typing import Any

from ..gda.holder import NEED_ALL, NEED_ENTRIES, NEED_IDENT, NEED_TOPO
from ..gdi.constants import EdgeOrientation, EntityType
from ..gdi.constraint import Constraint
from ..gdi.errors import GdiNotFound
from ..gdi.types import Datatype
from .ast import (
    And,
    Cmp,
    FuncCall,
    HasLabel,
    IsNull,
    Not,
    Or,
    PropPredicate,
    PropRef,
    SetLabel,
    VarRef,
)
from .errors import QueryPlanError
from .evalexpr import (
    Binding,
    aggregate_value,
    eval_expr,
    hashable,
    resolve_value,
    sort_key,
    to_output,
    truthy,
)
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
)
from .planner import _free_vars

__all__ = ["ExecState", "execute_plan", "VertexVal", "EdgeVal"]

_OP_TO_GDI = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

_ORIENTATION = {
    "out": EdgeOrientation.OUTGOING,
    "in": EdgeOrientation.INCOMING,
    "any": EdgeOrientation.ANY,
}

#: inferred datatypes for properties created by CREATE/SET (bool before
#: int: Python bools are ints)
_INFERRED_DTYPES = (
    (bool, Datatype.BOOL),
    (int, Datatype.INT64),
    (float, Datatype.DOUBLE),
    (str, Datatype.STRING),
    (bytes, Datatype.BYTES),
)


class VertexVal(Binding):
    """Engine-side binding of a node variable: wraps a vertex handle."""

    __slots__ = ("h", "ex")
    is_edge = False

    def __init__(self, handle, ex: "ExecState") -> None:
        self.h = handle
        self.ex = ex

    @property
    def app_id(self) -> int:
        return self.h.app_id

    @property
    def vid(self) -> int:
        return self.h.vid

    def has_label(self, name: str) -> bool:
        label = self.ex.label(name)
        return label is not None and self.h.has_label(label)

    def prop(self, key: str) -> Any:
        ptype = self.ex.ptype(key)
        return None if ptype is None else self.h.property(ptype)

    def output(self) -> Any:
        return self.app_id

    def cmp_key(self) -> Any:
        return ("v", self.app_id)


class EdgeVal(Binding):
    """Engine-side binding of a relationship variable: wraps an edge handle."""

    __slots__ = ("e", "ex")
    is_edge = True

    def __init__(self, handle, ex: "ExecState") -> None:
        self.e = handle
        self.ex = ex

    @property
    def app_id(self) -> int:
        raise QueryPlanError("relationships have no application ID")

    def has_label(self, name: str) -> bool:
        label = self.ex.label(name)
        return label is not None and self.e.has_label(label)

    def prop(self, key: str) -> Any:
        ptype = self.ex.ptype(key)
        return None if ptype is None else self.e.property(ptype)

    def label_name(self) -> str | None:
        labels = self.e.labels()
        return labels[0].name if labels else None

    def output(self) -> Any:
        src_vid, dst_vid = self.e.endpoints()
        return (
            self.ex.app_of(src_vid),
            self.ex.app_of(dst_vid),
            self.label_name(),
        )

    def cmp_key(self) -> Any:
        src_vid, dst_vid = self.e.endpoints()
        return ("e", src_vid, dst_vid, tuple(l.int_id for l in self.e.labels()))


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
    def node_constraint(self, spec: NodeSpec) -> Constraint:
        """The spec's labels + non-``id`` predicates as one DNF constraint.

        Unknown label/property names make the constraint unsatisfiable
        (nothing in the database can match them).
        """
        return self._constraint(
            spec.labels, [p for p in spec.preds if p.key != "id"]
        )

    def edge_constraint(self, rel) -> Constraint:
        labels = (rel.label,) if rel.label else ()
        return self._constraint(labels, rel.preds)

    def _constraint(
        self, labels: tuple, preds: "list[PropPredicate] | tuple"
    ) -> Constraint:
        c = Constraint.true()
        for name in labels:
            label = self.label(name)
            if label is None:
                return Constraint.false()
            c = c & Constraint.has_label(label.int_id)
        for pred in preds:
            ptype = self.ptype(pred.key)
            if ptype is None:
                return Constraint.false()
            c = c & Constraint.prop(
                ptype.int_id, _OP_TO_GDI[pred.op], self.resolve(pred.value)
            )
        return c.simplify()

    def spec_match(self, spec: NodeSpec, binding: VertexVal) -> bool:
        """Does an already-bound vertex satisfy a node spec?"""
        for pred in spec.preds:
            if pred.key == "id":
                if not _compare_id(pred.op, binding.app_id, self.resolve(pred.value)):
                    return False
        constraint = self.node_constraint(spec)
        if constraint.is_true():
            return True  # id-only spec: never touch the payload
        if constraint.is_false():
            return False
        holder = binding.h._holder(NEED_ENTRIES)
        return constraint.evaluate(
            holder.labels, holder.properties, self.replica.dtype_of
        )


def _compare_id(op: str, app_id: int, value: Any) -> bool:
    try:
        value = int(value)
    except (TypeError, ValueError):
        return False
    return {
        "=": app_id == value,
        "<>": app_id != value,
        "<": app_id < value,
        "<=": app_id <= value,
        ">": app_id > value,
        ">=": app_id >= value,
    }[op]


# -- plan-wide read projection -----------------------------------------------
def _plan_needs(ops) -> dict[str, int]:
    """Per node variable, the union of holder parts any operator touches.

    Walked once per execution over the whole pipeline, so the *first*
    fetch of a variable already requests everything later operators will
    read — no second round trip, and nothing the plan never touches.
    Unknown variables default to full holders at the use sites.
    """
    needs: dict[str, int] = {}

    def add(var: str, mask: int) -> None:
        needs[var] = needs.get(var, NEED_IDENT) | mask

    def spec_mask(spec: NodeSpec) -> int:
        if spec.labels or any(p.key != "id" for p in spec.preds):
            return NEED_ENTRIES
        return NEED_IDENT

    def walk(expr) -> None:
        if isinstance(expr, PropRef):
            add(expr.var, NEED_IDENT if expr.key == "id" else NEED_ENTRIES)
        elif isinstance(expr, HasLabel):
            add(expr.var, NEED_ENTRIES)
        elif isinstance(expr, VarRef):
            add(expr.name, NEED_IDENT)
        elif isinstance(expr, Cmp):
            walk(expr.left)
            walk(expr.right)
        elif isinstance(expr, (And, Or)):
            for item in expr.items:
                walk(item)
        elif isinstance(expr, (Not, IsNull)):
            walk(expr.operand)
        elif isinstance(expr, FuncCall):
            for arg in expr.args:
                walk(arg)

    for op in ops:
        if isinstance(op, ScanOp):
            add(op.spec.var, spec_mask(op.spec))
        elif isinstance(op, ExpandOp):
            add(op.src_var, NEED_TOPO)
            add(op.dst.var, spec_mask(op.dst))
        elif isinstance(op, FilterOp):
            walk(op.expr)
        elif isinstance(op, ProjectOp):
            for item in op.items:
                walk(item.expr)
        elif isinstance(op, AggregateOp):
            for item in op.keys:
                walk(item.expr)
            for item in op.aggs:
                walk(item.expr)
    return needs


def _emit(rows, ex: ExecState, filt, project):
    """Finish one fused operator: residual filter, then projection."""
    if filt is not None:
        rows = [r for r in rows if truthy(eval_expr(filt.expr, r, ex.params))]
    if project is not None:
        return run_project(project, rows, ex.params), True
    return rows, False


# -- execution ---------------------------------------------------------------
def execute_plan(
    plan: LogicalPlan, ex: ExecState, profile: bool = False
) -> tuple[list[tuple], dict, dict[int, dict]]:
    """Run a plan to completion; returns (rows, stats, per-op profile)."""
    rows: list = [{}]
    prof: dict[int, dict] = {}
    projected = False
    ops = plan.ops
    needs = _plan_needs(ops)
    fuse = not profile  # PROFILE keeps op deltas aligned with plan.ops
    i = 0
    while i < len(ops):
        op = ops[i]
        before = (
            ex.ctx.rt.trace.counters[ex.ctx.rank].snapshot()
            if profile
            else None
        )
        consumed = 1
        if fuse and isinstance(op, (ScanOp, ExpandOp)):
            # operator fusion: pull an adjacent Filter (and Project) into
            # the scan/expand so filtering happens before row
            # materialization (and, for two-stage scans, before the
            # topology hydration of pruned candidates).
            filt = project = None
            j = i + 1
            if j < len(ops) and isinstance(ops[j], FilterOp):
                filt = ops[j]
                j += 1
            if j < len(ops) and isinstance(ops[j], ProjectOp):
                project = ops[j]
                j += 1
            consumed = j - i
            if isinstance(op, ScanOp):
                rows, did_project = _run_scan(
                    op, rows, ex, needs, filt, project
                )
            else:
                rows, did_project = _run_expand(
                    op, rows, ex, needs, filt, project
                )
            projected = projected or did_project
        else:
            rows, projected = _run_op(op, rows, ex, projected, needs)
        if before is not None:
            delta = ex.ctx.rt.trace.counters[ex.ctx.rank].diff(before)
            prof[i] = {
                "rows": len(rows),
                "msgs": delta["remote_ops"] + delta["local_ops"],
                "rma_bytes": delta["bytes_put"]
                + delta["bytes_got"]
                + delta["bytes_batched"],
                "snapshot_reads": delta["snapshot_reads"],
            }
        i += consumed
    if not projected:
        rows = []  # write-only query: no result rows
    return rows, ex.stats, prof


def _run_op(op, rows, ex: ExecState, projected: bool, needs=None):
    if isinstance(op, ScanOp):
        return _run_scan(op, rows, ex, needs)[0], projected
    if isinstance(op, ExpandOp):
        return _run_expand(op, rows, ex, needs)[0], projected
    if isinstance(op, FilterOp):
        return (
            [r for r in rows if truthy(eval_expr(op.expr, r, ex.params))],
            projected,
        )
    if isinstance(op, CreateOp):
        return _run_create(op, rows, ex), projected
    if isinstance(op, SetOp):
        return _run_set(op, rows, ex), projected
    if isinstance(op, DeleteOp):
        return _run_delete(op, rows, ex), projected
    if isinstance(op, ProjectOp):
        return run_project(op, rows, ex.params), True
    if isinstance(op, AggregateOp):
        return run_aggregate(op, rows, ex.params), True
    if isinstance(op, DistinctOp):
        return run_distinct(rows), projected
    if isinstance(op, OrderByOp):
        return run_orderby(op, rows), projected
    if isinstance(op, SkipLimitOp):
        return run_skiplimit(op, rows, ex.params), projected
    raise QueryPlanError(f"unknown operator {op!r}")


# -- scans -------------------------------------------------------------------
#: below this candidate count a two-stage (entries-then-topology) scan
#: costs more in extra round trips than the pruned payload saves
_TWO_STAGE_MIN = 16


def _run_scan(
    op: ScanOp, rows: list, ex: ExecState, needs=None, filt=None, project=None
):
    spec = op.spec
    if op.source == "bound":
        out = [row for row in rows if ex.spec_match(spec, row[spec.var])]
        return _emit(out, ex, filt, project)
    need = needs.get(spec.var, NEED_ALL) if needs is not None else NEED_ALL
    # a fused filter over just this variable prunes candidates before the
    # cross-join (and before stage-two hydration)
    pre = None
    if filt is not None:
        free: set[str] = set()
        _free_vars(filt.expr, free)
        if free <= {spec.var}:
            pre, filt = filt, None
    if op.source == "dht":
        handle = ex.tx.find_vertices(
            [int(ex.resolve(op.detail))], need=need
        )[0]
        candidates = [] if handle is None else [VertexVal(handle, ex)]
        candidates = [v for v in candidates if ex.spec_match(spec, v)]
    else:
        if op.source == "index":
            idx = ex.db.indexes.get(op.detail)
            if idx is None:
                raise QueryPlanError(
                    f"plan references dropped index {op.detail!r}"
                )
            vids = [
                vid
                for shard in range(ex.db.nranks)
                for vid in idx.shard_vertices(ex.ctx, shard)
            ]
        elif op.source == "label" and not ex.tx.write:
            # the directory's per-label member sets narrow the sweep to
            # the labelled vertices; spec_match still re-validates every
            # candidate (the directory is maintained at commit time).
            # Write transactions keep the full sweep: their own
            # uncommitted SET :Label changes are invisible to the
            # directory but must be visible to the scan.
            label = ex.label(op.detail)
            vids = (
                []
                if label is None
                else [
                    vid
                    for shard in range(ex.db.nranks)
                    for vid in ex.db.directory.shard_vertices(
                        ex.ctx, shard, label_id=label.int_id
                    )
                ]
            )
        else:  # "all" (and in-write-txn "label") sweep the whole directory
            vids = [
                vid
                for shard in range(ex.db.nranks)
                for vid in ex.db.directory.shard_vertices(ex.ctx, shard)
            ]
        # two-stage scan: when the spec filters on labels/properties and
        # the plan also needs topology, first fetch entries only, prune,
        # then hydrate the survivors' adjacency with a second batch
        two_stage = (
            (need & NEED_TOPO)
            and (spec.labels or spec.preds or pre is not None)
            and len(vids) >= _TWO_STAGE_MIN
        )
        first = (need & ~NEED_TOPO) | NEED_IDENT if two_stage else need
        handles = ex.tx.associate_vertices(vids, missing_ok=True, need=first)
        candidates = [VertexVal(h, ex) for h in handles if h is not None]
        candidates = [v for v in candidates if ex.spec_match(spec, v)]
        if pre is not None:
            candidates = [
                v
                for v in candidates
                if truthy(eval_expr(pre.expr, {spec.var: v}, ex.params))
            ]
            pre = None
        if two_stage and candidates:
            ex.tx.associate_vertices(
                [v.vid for v in candidates], missing_ok=True, need=need
            )
    if pre is not None:
        candidates = [
            v
            for v in candidates
            if truthy(eval_expr(pre.expr, {spec.var: v}, ex.params))
        ]
    out = [dict(row, **{spec.var: v}) for row in rows for v in candidates]
    return _emit(out, ex, filt, project)


# -- expansion ---------------------------------------------------------------
def _run_expand(
    op: ExpandOp, rows: list, ex: ExecState, needs=None, filt=None, project=None
):
    if not rows:
        return _emit([], ex, filt, project)
    constraint = ex.edge_constraint(op.rel)
    if constraint.is_false():
        return _emit([], ex, filt, project)
    if op.rel.var_length:
        out = _run_var_expand(op, rows, ex, constraint, needs)
        return _emit(out, ex, filt, project)
    orientation = _ORIENTATION[op.rel.direction]
    need = needs.get(op.dst.var, NEED_ALL) if needs is not None else NEED_ALL
    # With no relationship variable the edge handles themselves are never
    # observed: the vectorized neighbor enumeration (one numpy pass over
    # the slot array) replaces per-edge handle construction.
    by_vid_only = op.rel.var is None
    # one adjacency enumeration per *distinct* source vertex
    adjacency: dict[int, list] = {}
    for row in rows:
        src: VertexVal = row[op.src_var]
        if src.vid not in adjacency:
            if by_vid_only:
                adjacency[src.vid] = src.h.neighbors(
                    orientation, constraint=constraint
                )
            else:
                adjacency[src.vid] = src.h.edges(
                    orientation, constraint=constraint
                )
    # prefetch the entire frontier with one batched associate
    if by_vid_only:
        frontier = sorted(
            {vid for nbrs in adjacency.values() for vid in nbrs}
        )
    else:
        frontier = sorted(
            {
                e.other_endpoint()
                for edges in adjacency.values()
                for e in edges
            }
        )
    fetched = ex.tx.associate_vertices(frontier, missing_ok=True, need=need)
    by_vid = {
        vid: VertexVal(h, ex)
        for vid, h in zip(frontier, fetched)
        if h is not None
    }
    matching = {
        vid: val
        for vid, val in by_vid.items()
        if ex.spec_match(op.dst, val)
    }
    out = []
    for row in rows:
        src = row[op.src_var]
        if by_vid_only:
            for nbr_vid in adjacency[src.vid]:
                val = matching.get(nbr_vid)
                if val is None:
                    continue
                if op.bound:
                    if row[op.dst.var].vid != nbr_vid:
                        continue
                    out.append(dict(row))
                else:
                    out.append(dict(row, **{op.dst.var: val}))
            continue
        for edge in adjacency[src.vid]:
            nbr_vid = edge.other_endpoint()
            val = matching.get(nbr_vid)
            if val is None:
                continue
            if op.bound:
                if row[op.dst.var].vid != nbr_vid:
                    continue
                new = dict(row)
            else:
                new = dict(row, **{op.dst.var: val})
            if op.rel.var is not None:
                new[op.rel.var] = EdgeVal(edge, ex)
            out.append(new)
    return _emit(out, ex, filt, project)


def _run_var_expand(
    op: ExpandOp, rows: list, ex: ExecState, constraint: Constraint, needs=None
) -> list:
    """Variable-length expansion with BFS *distance* semantics.

    From each distinct source, every vertex whose shortest-path distance
    (over matching edges) lies in ``[min_hops, max_hops]`` binds exactly
    once.  Each BFS level's frontier is prefetched with one batched
    ``associate_vertices`` call shared across *all* sources.  Levels
    below ``max_hops`` must carry topology (they expand again); the
    final level fetches only what the destination spec and downstream
    operators read — for a ``RETURN b.id`` friends-of-friends query the
    (largest) last frontier moves nothing but holder headers.
    """
    orientation = _ORIENTATION[op.rel.direction]
    lo, hi = op.rel.min_hops, op.rel.max_hops
    dst_need = (
        needs.get(op.dst.var, NEED_ALL) if needs is not None else NEED_ALL
    )
    sources: dict[int, VertexVal] = {}
    for row in rows:
        src = row[op.src_var]
        sources.setdefault(src.vid, src)
    # visited[src_vid] : vid -> BFS depth
    visited: dict[int, dict[int, int]] = {
        vid: {vid: 0} for vid in sources
    }
    vals: dict[int, VertexVal] = dict(sources)
    frontiers: dict[int, list[int]] = {vid: [vid] for vid in sources}
    depth = 0
    while any(frontiers.values()) and (hi is None or depth < hi):
        depth += 1
        # per-source neighbor discovery over the already-associated level
        discovered: dict[int, set[int]] = {}
        for src_vid, level in frontiers.items():
            nxt: set[int] = set()
            for vid in level:
                for nbr in vals[vid].h.neighbors(
                    orientation, constraint=constraint
                ):
                    if nbr not in visited[src_vid]:
                        nxt.add(nbr)
            discovered[src_vid] = nxt
        # one batched prefetch of the union frontier of all sources
        union = sorted(
            vid
            for vid in set().union(*discovered.values())
            if vid not in vals
        ) if discovered else []
        if union:
            lvl_need = (
                dst_need
                if hi is not None and depth == hi
                else dst_need | NEED_TOPO
            )
            for vid, h in zip(
                union,
                ex.tx.associate_vertices(
                    union, missing_ok=True, need=lvl_need
                ),
            ):
                if h is not None:
                    vals[vid] = VertexVal(h, ex)
        for src_vid, nxt in discovered.items():
            alive = [v for v in nxt if v in vals]
            for v in alive:
                visited[src_vid][v] = depth
            frontiers[src_vid] = alive
    # collect endpoints within the hop range, filtered by the dst spec
    endpoint_ok: dict[int, bool] = {}

    def dst_ok(vid: int) -> bool:
        if vid not in endpoint_ok:
            endpoint_ok[vid] = ex.spec_match(op.dst, vals[vid])
        return endpoint_ok[vid]

    out = []
    for row in rows:
        src = row[op.src_var]
        reach = visited[src.vid]
        if op.bound:
            dst_vid = row[op.dst.var].vid
            d = reach.get(dst_vid)
            if d is not None and lo <= d and (hi is None or d <= hi):
                out.append(row)
            continue
        for vid, d in reach.items():
            if d < lo or (hi is not None and d > hi):
                continue
            if not dst_ok(vid):
                continue
            out.append(dict(row, **{op.dst.var: vals[vid]}))
    return out


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
                        props.append(
                            (ex.ensure_ptype(pred.key, value), value)
                        )
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
                src, dst = (
                    (left, right) if rel.direction == "out" else (right, left)
                )
                label = ex.ensure_label(rel.label) if rel.label else None
                props = []
                for pred in rel.preds:
                    if pred.op != "=":
                        raise QueryPlanError(
                            "CREATE edge properties must use '=' or ':'"
                        )
                    value = ex.resolve(pred.value)
                    props.append((ex.ensure_ptype(pred.key, value), value))
                edge = ex.tx.create_edge(
                    src.h, dst.h, label=label, properties=props
                )
                if rel.var is not None:
                    env[rel.var] = EdgeVal(edge, ex)
                ex.bump("edges_created")
    return envs


def _prefetch_write_targets(rows: list, ex: ExecState, vars_: list) -> None:
    """Batch-load (and write-lock) the distinct vertices a SET/DELETE
    touches: the read->write lock upgrades and any part hydration ride
    one batched round instead of one per mutation."""
    vids = {
        row[var].vid
        for row in rows
        for var in vars_
        if not row[var].is_edge
    }
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
            value = eval_expr(item.value, row, ex.params)
            value = to_output(value)
            if binding.is_edge:
                target = binding.e
            else:
                target = binding.h
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
                if id(binding.e._slot) in deleted_e:
                    continue
                deleted_e.add(id(binding.e._slot))
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


# -- result shaping (shared with the reference interpreter) ------------------
def run_project(op: ProjectOp, rows: list, params: dict | None) -> list:
    return [
        tuple(
            to_output(eval_expr(item.expr, row, params)) for item in op.items
        )
        for row in rows
    ]


def run_aggregate(op: AggregateOp, rows: list, params: dict | None) -> list:
    groups: dict[tuple, tuple[tuple, list]] = {}
    if not op.keys:
        groups[()] = ((), list(rows))
    else:
        for row in rows:
            values = tuple(
                to_output(eval_expr(item.expr, row, params))
                for item in op.keys
            )
            key = hashable(values)
            groups.setdefault(key, (values, []))[1].append(row)
    out = []
    for key_values, group_rows in groups.values():
        aggs = [
            aggregate_value(item.expr, group_rows, params)
            for item in op.aggs
        ]
        keys_it = iter(key_values)
        aggs_it = iter(aggs)
        out.append(
            tuple(
                next(aggs_it) if is_agg else next(keys_it)
                for is_agg in op.agg_mask
            )
        )
    return out


def run_distinct(rows: list) -> list:
    seen: set = set()
    out = []
    for row in rows:
        key = hashable(row)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def run_orderby(op: OrderByOp, rows: list) -> list:
    # stable sorts applied last-key-first give multi-key mixed-direction
    out = list(rows)
    for col, desc in reversed(op.keys):
        out.sort(key=lambda r: sort_key(r[col]), reverse=desc)
    return out


def run_skiplimit(op: SkipLimitOp, rows: list, params: dict | None) -> list:
    skip = resolve_value(op.skip, params) if op.skip is not None else 0
    skip = max(0, int(skip))
    if op.limit is None:
        return rows[skip:]
    limit = max(0, int(resolve_value(op.limit, params)))
    return rows[skip : skip + limit]
