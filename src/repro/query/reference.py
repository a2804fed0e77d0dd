"""Naive full-scan reference interpreter — the engine's correctness oracle.

``run_reference`` snapshots the entire graph in one read transaction
(sweeping every directory shard, one batched associate), then evaluates
the query AST by brute force over the in-memory snapshot: anchors always
scan all vertices, chains are matched strictly left-to-right, and no
index, pushdown, statistics, or batching is involved.  Sharing only the
expression evaluator and result-shaping helpers with the real executor,
it exercises a completely different match path — the property-based
equivalence suite asserts ``engine == reference`` on random graphs and
queries.

Write queries are rejected: the oracle is read-only by design.
"""

from __future__ import annotations

from typing import Any

from repro.gda.holder import DIR_IN, DIR_OUT

from .ast import NodePattern, PathPattern, Query, RelPattern
from .engine import QueryResult
from .errors import QueryPlanError
from .evalexpr import Binding, eval_expr, resolve_value, truthy
from .parser import parse_query
from .shaping import shape
from .planner import _plan_returns

__all__ = ["run_reference"]


class _SnapSlot:
    """One edge slot of the snapshot, relative to its base vertex."""

    __slots__ = ("direction", "other_vid", "endpoints", "label_names", "props")

    def __init__(self, direction, other_vid, endpoints, label_names, props):
        self.direction = direction  # "out" | "in" | "undir"
        self.other_vid = other_vid
        self.endpoints = endpoints  # true (origin vid, target vid)
        self.label_names = label_names
        self.props = props  # name -> list of values


class _SnapVertex(Binding):
    """Snapshot record of one vertex."""

    is_edge = False

    def __init__(self, vid, app_id, label_names, props):
        self.vid = vid
        self._app_id = app_id
        self.label_names = label_names
        self.props = props  # name -> list of values
        self.slots: list[_SnapSlot] = []

    @property
    def app_id(self) -> int:
        return self._app_id

    def has_label(self, name: str) -> bool:
        return name in self.label_names

    def prop(self, key: str) -> Any:
        values = self.props.get(key)
        return values[0] if values else None

    def output(self) -> Any:
        return self._app_id

    def cmp_key(self) -> Any:
        return ("v", self._app_id)


class _SnapEdge(Binding):
    """Snapshot binding of a relationship variable."""

    is_edge = True

    def __init__(self, base: _SnapVertex, slot: _SnapSlot, snap: "_Snapshot"):
        self.base = base
        self.slot = slot
        self.snap = snap

    @property
    def app_id(self) -> int:
        raise QueryPlanError("relationships have no application ID")

    def has_label(self, name: str) -> bool:
        return name in self.slot.label_names

    def prop(self, key: str) -> Any:
        values = self.slot.props.get(key)
        return values[0] if values else None

    def label_name(self) -> str | None:
        return self.slot.label_names[0] if self.slot.label_names else None

    def output(self) -> Any:
        src, dst = self.slot.endpoints
        return (
            self.snap.by_vid[src].app_id,
            self.snap.by_vid[dst].app_id,
            self.label_name(),
        )

    def cmp_key(self) -> Any:
        src, dst = self.slot.endpoints
        return ("e", src, dst, self.slot.label_names)


class _Snapshot:
    def __init__(self) -> None:
        self.by_vid: dict[int, _SnapVertex] = {}

    @property
    def vertices(self) -> list[_SnapVertex]:
        return list(self.by_vid.values())


def _take_snapshot(ctx, db) -> _Snapshot:
    """Read the whole graph in one transaction, one batched associate."""
    snap = _Snapshot()
    tx = db.start_transaction(ctx, write=False)
    try:
        vids = [
            vid
            for shard in range(db.nranks)
            for vid in db.directory.shard_vertices(ctx, shard)
        ]
        handles = tx.associate_vertices(vids, missing_ok=True)
        ptypes = db.all_property_types(ctx)
        for vid, h in zip(vids, handles):
            if h is None:
                continue
            props: dict[str, list] = {}
            for pt, value in h.all_properties():
                props.setdefault(pt.name, []).append(value)
            snap.by_vid[vid] = _SnapVertex(
                vid=vid,
                app_id=h.app_id,
                label_names=frozenset(l.name for l in h.labels()),
                props=props,
            )
        for vid, h in zip(vids, handles):
            if h is None:
                continue
            base = snap.by_vid[vid]
            for e in h.edges():
                # slot direction relative to the base vertex (self-loops
                # and heavy edges make endpoints() ambiguous for this)
                sdir = e._slot.direction
                if sdir == DIR_OUT:
                    direction = "out"
                elif sdir == DIR_IN:
                    direction = "in"
                else:
                    direction = "undir"
                eprops: dict[str, list] = {}
                if e.heavy:
                    for pt in ptypes:
                        values = e.properties(pt)
                        if values:
                            eprops[pt.name] = values
                base.slots.append(
                    _SnapSlot(
                        direction=direction,
                        other_vid=e.other_endpoint(),
                        endpoints=e.endpoints(),
                        label_names=tuple(l.name for l in e.labels()),
                        props=eprops,
                    )
                )
        tx.commit()
    except BaseException:
        if tx.open:
            tx.abort()
        raise
    return snap


# -- pattern matching --------------------------------------------------------
def _pred_ok(values: list, op: str, wanted: Any) -> bool:
    """Any-entry comparison, mirroring GDI ``PropertyCondition``."""
    for value in values:
        try:
            ok = {
                "=": value == wanted,
                "<>": value != wanted,
                "<": value < wanted,
                "<=": value <= wanted,
                ">": value > wanted,
                ">=": value >= wanted,
            }[op]
        except TypeError:
            ok = False
        if ok:
            return True
    return False


def _node_ok(node: NodePattern, v: _SnapVertex, params) -> bool:
    for name in node.labels:
        if name not in v.label_names:
            return False
    for pred in node.preds:
        wanted = resolve_value(pred.value, params)
        if pred.key == "id":
            if not _pred_ok([v.app_id], pred.op, _as_int(wanted)):
                return False
        elif not _pred_ok(v.props.get(pred.key, []), pred.op, wanted):
            return False
    return True


def _as_int(value: Any) -> Any:
    try:
        return int(value)
    except (TypeError, ValueError):
        return value


def _slot_ok(slot: _SnapSlot, rel: RelPattern, params) -> bool:
    if rel.direction == "out" and slot.direction == "in":
        return False
    if rel.direction == "in" and slot.direction == "out":
        return False
    if rel.label is not None and rel.label not in slot.label_names:
        return False
    for pred in rel.preds:
        wanted = resolve_value(pred.value, params)
        if not _pred_ok(slot.props.get(pred.key, []), pred.op, wanted):
            return False
    return True


def _bfs(src: _SnapVertex, rel: RelPattern, snap: _Snapshot, params):
    """Shortest-path distances over matching edges (distance semantics)."""
    visited = {src.vid: 0}
    frontier = [src]
    depth = 0
    while frontier and (rel.max_hops is None or depth < rel.max_hops):
        depth += 1
        nxt = []
        for v in frontier:
            for slot in v.slots:
                if not _slot_ok(slot, rel, params):
                    continue
                if slot.other_vid in visited:
                    continue
                other = snap.by_vid.get(slot.other_vid)
                if other is None:
                    continue
                visited[slot.other_vid] = depth
                nxt.append(other)
        frontier = nxt
    return visited


def _match_path(
    path: PathPattern, rows: list[dict], snap: _Snapshot, params
) -> list[dict]:
    first = path.nodes[0]
    out = []
    for row in rows:
        if first.var in row:
            if _node_ok(first, row[first.var], params):
                out.append(row)
        else:
            for v in snap.vertices:
                if _node_ok(first, v, params):
                    out.append(dict(row, **{first.var: v}))
    rows = out
    for i, rel in enumerate(path.rels):
        src_node, dst_node = path.nodes[i], path.nodes[i + 1]
        nrows = []
        for row in rows:
            src: _SnapVertex = row[src_node.var]
            if rel.var_length:
                reach = _bfs(src, rel, snap, params)
                if dst_node.var in row:
                    d = reach.get(row[dst_node.var].vid)
                    if (
                        d is not None
                        and rel.min_hops <= d
                        and (rel.max_hops is None or d <= rel.max_hops)
                        and _node_ok(dst_node, row[dst_node.var], params)
                    ):
                        nrows.append(row)
                    continue
                for vid, d in reach.items():
                    if d < rel.min_hops or (
                        rel.max_hops is not None and d > rel.max_hops
                    ):
                        continue
                    v = snap.by_vid[vid]
                    if _node_ok(dst_node, v, params):
                        nrows.append(dict(row, **{dst_node.var: v}))
                continue
            for slot in src.slots:
                if not _slot_ok(slot, rel, params):
                    continue
                other = snap.by_vid.get(slot.other_vid)
                if other is None or not _node_ok(dst_node, other, params):
                    continue
                if dst_node.var in row:
                    if row[dst_node.var].vid != other.vid:
                        continue
                    new = dict(row)
                else:
                    new = dict(row, **{dst_node.var: other})
                if rel.var is not None:
                    new[rel.var] = _SnapEdge(src, slot, snap)
                nrows.append(new)
        rows = nrows
    return rows


# -- entry -------------------------------------------------------------------
def run_reference(
    ctx, db, text: str, params: dict | None = None
) -> QueryResult:
    """Evaluate a read query by brute force against a full snapshot."""
    query: Query = parse_query(text)
    if query.writes:
        raise QueryPlanError("the reference interpreter is read-only")
    if query.mode != "run":
        raise QueryPlanError(
            "the reference interpreter executes plain queries only"
        )
    snap = _take_snapshot(ctx, db)
    rows: list[dict] = [{}]
    for path in query.matches:
        rows = _match_path(path, rows, snap, params)
    if query.where is not None:
        rows = [
            row for row in rows if truthy(eval_expr(query.where, row, params))
        ]
    # result shaping: same tail operators as the engine, planned over the
    # full binding set (trivial and deterministic — the oracle's
    # independence matters for matching, scans, and pushdown)
    bound = set()
    for row in rows[:1]:
        bound |= set(row)
    bound |= set(query.match_vars())
    tail: list = []
    columns = _plan_returns(query, bound, tail)
    out: list = rows
    for op in tail:
        out = shape(op, out, params)
    return QueryResult(columns=columns, rows=out)
