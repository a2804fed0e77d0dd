"""Column operators: scan, expand, filter and aggregate on ``VertexScan``
columns.

Between operators the read pipeline carries a :class:`Frame`: each node
variable is bound to a :class:`~repro.gda.handles.VertexScan` plus an
int64 position per row, so a label test, a property predicate, a hop or
an aggregate is a handful of array operations over the whole frame, not
Python work per row.  :meth:`Frame.rows` builds rows of
:class:`VertexVal`/:class:`EdgeVal` bindings for what only rows can do.

Every operator issues exactly the reads the row-at-a-time executor did
(same vertex IDs, same order, same ``need`` masks, same two-stage rule),
so the simulated clock cannot tell the two apart; and every answer
equals the row form's, value for value: predicates compare like
:class:`~repro.gdi.constraint.PropertyCondition` and
:func:`~repro.query.evalexpr.eval_expr`, aggregates reduce like
:func:`~repro.query.evalexpr.aggregate_value`.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable

import numpy as np

from ..gda.handles import VertexScan
from ..gda.holder import NEED_ENTRIES, NEED_IDENT, NEED_TOPO, csr_indptr, ragged_index
from ..gdi.constants import EdgeOrientation, Multiplicity
from ..gdi.constraint import PropertyCondition
from ..gdi.constraint import _compare as _gdi_compare
from .ast import And, Cmp, HasLabel, IsNull, Literal, Not, Or, ParamRef, PropRef, VarRef
from .errors import QueryPlanError
from .evalexpr import Binding, _compare, _reduce, eval_expr, hashable, truthy
from .logical import NEED_NONE

__all__ = ["Frame", "VertexVal", "EdgeVal", "UnfetchedScan", "run_scan", "run_expand",
           "filter_mask", "run_aggregate_frame"]

ORIENTATION = {
    "out": EdgeOrientation.OUTGOING,
    "in": EdgeOrientation.INCOMING,
    "any": EdgeOrientation.ANY,
}
OP_TO_GDI = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_NP_OPS = dict(zip(OP_TO_GDI, (np.equal, np.not_equal, np.less, np.less_equal,
                               np.greater, np.greater_equal)))
#: the Python type whose values a typed column compares exactly like
_KIND = {np.dtype(np.int64): int, np.dtype(np.float64): float, np.dtype(bool): bool}

#: below this candidate count a two-stage (entries-then-topology) scan
#: costs more in extra round trips than the pruned payload saves
_TWO_STAGE_MIN = 16


class VertexVal(Binding):
    """Engine-side binding of a node variable: wraps a vertex handle."""

    __slots__ = ("h", "ex")
    is_edge = False

    def __init__(self, handle, ex) -> None:
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


class UnfetchedScan:
    """What an expansion binds a count-only destination to (need
    :data:`~repro.query.logical.NEED_NONE`): the internal IDs its
    sources' slots name, with no holder read behind them.

    It has the :attr:`vids` of a :class:`~repro.gda.handles.VertexScan`
    and no other column: presence, application IDs, labels, properties,
    neighbors and handles raise, since a silent zero would hide a
    planner bug.
    """

    __slots__ = ("vids",)

    def __init__(self, vids: np.ndarray) -> None:
        self.vids = vids


class VidVal(Binding):
    """Row binding of a count-only variable: its internal ID, which is
    what ``count(b)`` / ``count(DISTINCT b)`` count (within a
    transaction a vertex's internal ID is as unique as its application
    ID).  Everything else :class:`Binding` names raises."""

    __slots__ = ("vid",)

    def __init__(self, vid: int) -> None:
        self.vid = vid

    def output(self) -> int:
        return self.vid


class EdgeVal(Binding):
    """Engine-side binding of a relationship variable: wraps an edge handle."""

    __slots__ = ("e", "ex")
    is_edge = True

    def __init__(self, handle, ex) -> None:
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

    def output(self) -> Any:
        src_vid, dst_vid = self.e.endpoints()
        labels = self.e.labels()
        return (
            self.ex.app_of(src_vid),
            self.ex.app_of(dst_vid),
            labels[0].name if labels else None,
        )

    def cmp_key(self) -> Any:
        src_vid, dst_vid = self.e.endpoints()
        return ("e", src_vid, dst_vid, tuple(l.int_id for l in self.e.labels()))


class Frame:
    """Binding rows as columns: row ``i`` binds node variable ``var`` to
    position ``cols[var][1][i]`` of the scan ``cols[var][0]``;
    ``extra[i]`` maps its relationship variables to edge handles
    (``None``: the frame binds none)."""

    __slots__ = ("cols", "n", "extra")

    def __init__(self, cols: dict, n: int, extra: "list[dict] | None" = None) -> None:
        self.cols, self.n, self.extra = cols, n, extra

    def __len__(self) -> int:
        return self.n

    def take(self, idx: np.ndarray) -> "Frame":
        extra = None if self.extra is None else [self.extra[i] for i in idx.tolist()]
        cols = {var: (scan, pos[idx]) for var, (scan, pos) in self.cols.items()}
        return Frame(cols, len(idx), extra)

    def bind(self, var: str, scan: VertexScan, pos: np.ndarray) -> "Frame":
        return Frame({**self.cols, var: (scan, pos)}, self.n, self.extra)

    def rows(self, ex) -> "list[dict]":
        """The frame as rows of bindings (one :class:`VertexVal` per
        vertex, shared by its rows; one :class:`EdgeVal` per row and edge)."""
        cols = []
        for scan, pos in self.cols.values():
            if isinstance(scan, UnfetchedScan):
                cols.append(list(map(VidVal, scan.vids[pos].tolist())))
                continue
            made: dict[int, VertexVal] = {}
            cols.append([
                made[p] if p in made else made.setdefault(p, VertexVal(scan[p], ex))
                for p in pos.tolist()
            ])
        rows = [dict(zip(self.cols, vals)) for vals in zip(*cols)] if cols else [
            {} for _ in range(self.n)]
        for row, extra in zip(rows, self.extra or ()):
            row.update((var, EdgeVal(e, ex)) for var, e in extra.items())
        return rows


def _distinct(pos: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """The distinct values of ``pos`` in order of first appearance, and
    each row's index into them (hashing, not sorting)."""
    index: dict[int, int] = {}
    inv = [index.setdefault(p, len(index)) for p in pos.tolist()]
    return np.fromiter(index, np.int64, len(index)), np.array(inv, dtype=np.int64)


# -- node specs ----------------------------------------------------------------
def spec_mask(ex, spec, scan: VertexScan, checked=None) -> np.ndarray:
    """Per position: is the vertex there and does it satisfy ``spec``
    (``checked``, a predicate the read already verified, aside)?

    ``id`` predicates compare application IDs, labels are label masks,
    property predicates compare the property column; each test runs
    only where everything before it held, as the node constraint's
    conjunction evaluates.  Unknown names match nothing.
    """
    keep = scan.present
    if not len(scan):
        return keep
    preds = []
    for pred in spec.preds:
        if pred is checked:
            continue
        value = ex.resolve(pred.value)
        if pred.key != "id":
            preds.append((ex.ptype(pred.key), pred.op, value))
            continue
        try:
            keep &= _compare_values(pred.op, scan.app_ids, int(value), _compare)
        except (TypeError, ValueError):
            keep[:] = False
    labels = [ex.label(name) for name in spec.labels]
    if any(x is None for x in labels) or any(p is None for p, _, _ in preds):
        return np.zeros(len(scan), dtype=bool)
    for label in labels:
        keep &= scan.has_label(label)
    for ptype, op, value in preds:
        rows = keep.nonzero()[0]
        if ptype.multiplicity == Multiplicity.SINGLE:
            values, has = scan.property(ptype)
            rows = rows[has[rows]]
            ok = _compare_values(
                op, values[rows], value, lambda o, a, b: _gdi_compare(OP_TO_GDI[o], a, b)
            )
        else:  # any of several entries may match: the holder decides
            cond = PropertyCondition(ptype.int_id, OP_TO_GDI[op], value)
            ok = [
                cond.evaluate((), h._holder(NEED_ENTRIES).properties, ex.replica.dtype_of)
                for h in scan.take(rows)
            ]
        keep[keep] = False
        keep[rows] = ok
    return keep


def _spec_rows(ex, spec, scan: VertexScan, pos: np.ndarray) -> np.ndarray:
    """:func:`spec_mask` per row of a column (each vertex tested once)."""
    used, where = np.unique(pos, return_inverse=True)
    return spec_mask(ex, spec, scan.take(used))[where.reshape(-1)]


def _kind(x) -> "type | None":
    if isinstance(x, np.ndarray):
        return _KIND.get(x.dtype)
    if type(x) is int:
        return int if -(1 << 63) <= x < (1 << 63) else None
    return type(x) if type(x) in (float, bool) else None


def _compare_values(op: str, left, right, compare: Callable) -> np.ndarray:
    """``compare(op, l, r)`` row by row; each side is a column or a
    scalar.  A typed column against values of its own type compares in
    one ufunc (exactly as Python would); anything else value by value."""
    kind = _kind(left)
    if kind is not None and kind is _kind(right):
        return np.asarray(_NP_OPS[op](left, right), dtype=bool)
    n = len(left) if isinstance(left, np.ndarray) else len(right)
    xs = left.tolist() if isinstance(left, np.ndarray) else repeat(left, n)
    ys = right.tolist() if isinstance(right, np.ndarray) else repeat(right, n)
    return np.fromiter(map(compare, repeat(op, n), xs, ys), dtype=bool, count=n)


# -- scans -----------------------------------------------------------------------
def _candidates(op, ex, shards) -> "list[int]":
    """The vids a label, index or full scan sweeps on ``shards`` —
    under a snapshot with the vertices deleted after its watermark."""
    tx, db = ex.tx, ex.db
    sweep, kw = db.directory.shard_vertices, {}
    if op.source == "index":
        if op.detail not in db.indexes:
            raise QueryPlanError(f"plan references dropped index {op.detail!r}")
        sweep = db.indexes[op.detail].shard_vertices
    elif op.source == "label" and not tx.write:
        # the per-label member sets narrow the sweep (the label mask
        # re-validates every candidate); a write transaction sweeps all:
        # the directory cannot see its own uncommitted SET :Label
        label = ex.label(op.detail)
        if label is None:
            return []
        kw = {"label_id": label.int_id}
    return [
        vid
        for shard in shards
        for vid in tx.visible_vertices(sweep(ex.ctx, shard, **kw), shard)
    ]


def run_scan(op, frame: Frame, ex, need: int, pre=None, shard=None) -> Frame:
    """Bind ``op.spec.var`` for every row of ``frame`` (a cross join),
    or, for a bound variable, keep the rows whose vertex satisfies the
    spec.  ``pre`` is a fused single-variable filter: it prunes the
    candidates before a two-stage scan hydrates their topology.  With
    ``shard`` (a collective execution's first scan) a sweep reads that
    shard only, and a seek binds only on its ID's home rank."""
    spec = op.spec
    if op.source == "bound":
        scan, pos = frame.cols[spec.var]
        keep = _spec_rows(ex, spec, scan, pos)
        if pre is not None:
            keep[keep] = filter_mask(pre.expr, frame.take(keep.nonzero()[0]), ex)
        return frame.take(keep.nonzero()[0])
    two_stage = False
    if op.source == "dht":
        app_id = int(ex.resolve(op.detail))
        found = []
        if shard in (None, ex.db.home_rank(app_id)):
            found = ex.tx.find_vertices([app_id], need=need)
        cands = VertexScan(ex.tx, [h.vid for h in found if h is not None])
        # what the lookup found is there and carries the application ID
        # it seeks: only the rest of the spec is left to test
        keep = np.ones(len(cands), dtype=bool)
        if spec.labels or len(spec.preds) > 1:
            seek = next(p for p in spec.preds if p.key == "id" and p.op == "=")
            keep = spec_mask(ex, spec, cands, seek)
    else:
        vids = _candidates(op, ex, range(ex.db.nranks) if shard is None else (shard,))
        # entries first, prune, then hydrate the survivors' adjacency
        two_stage = bool(
            (need & NEED_TOPO)
            and (spec.labels or spec.preds or pre is not None)
            and len(vids) >= _TWO_STAGE_MIN
        )
        first = (need & ~NEED_TOPO) | NEED_IDENT if two_stage else need
        cands = ex.tx.associate_vertices(
            np.asarray(vids, dtype=np.int64), missing_ok=True, need=first
        )
        keep = spec_mask(ex, spec, cands)
    if pre is not None:
        one = Frame({spec.var: (cands, keep.nonzero()[0])}, int(keep.sum()))
        keep[keep] = filter_mask(pre.expr, one, ex)
    pos = keep.nonzero()[0]
    if two_stage and pos.size:
        cands = ex.tx.associate_vertices(cands.vids[pos], missing_ok=True, need=need)
        pos = np.arange(pos.size)
    n = frame.n
    if frame.cols or frame.extra is not None:  # each row once per candidate
        frame = frame.take(np.arange(n).repeat(pos.size))
    pos = np.tile(pos, n) if n != 1 else pos
    return Frame({**frame.cols, spec.var: (cands, pos)}, len(pos), frame.extra)


# -- expansion -----------------------------------------------------------------
def neighbor_csr(ex, scan: VertexScan, rel) -> tuple:
    """``(indptr, vids, edges)``: every position's neighbors over edges
    matching ``rel``.  A label-only pattern is one mask over the slot
    columns (``edges`` is ``None``); a relationship variable or edge
    property predicates need the edges themselves, read per vertex
    through its handle (``edges`` lists them in CSR order)."""
    orientation = ORIENTATION[rel.direction]
    constraint = ex.edge_constraint(rel)
    if constraint.is_false():
        return np.zeros(len(scan) + 1, dtype=np.int64), np.empty(0, np.int64), []
    if rel.var is None and not rel.preds:
        label = ex.label(rel.label) if rel.label else None
        return (*scan.neighbors(orientation, label), None)
    lists = [h.edges(orientation, constraint) for h in scan]
    edges = [e for es in lists for e in es]
    vids = np.fromiter((e.other_endpoint() for e in edges), np.int64, len(edges))
    return csr_indptr([len(es) for es in lists]), vids, edges


def run_expand(op, frame: Frame, ex, need: int) -> Frame:
    """One hop: a CSR over the distinct sources, one batched fetch of
    the sorted frontier, the destination spec as a mask.  Rows keep
    their order, each row's neighbors their slot order."""
    if op.rel.var_length:
        return _var_expand(op, frame, ex, need)
    scan, pos = frame.cols[op.src_var]
    srcs, inv = _distinct(pos)
    indptr, nbrs, edges = neighbor_csr(ex, scan.take(srcs), op.rel)
    frontier = np.unique(nbrs)
    # slices and array methods, not the np.diff/np.repeat wrappers (~1 us
    # each): every one-hop query runs this on a one-row frame
    deg = (indptr[1:] - indptr[:-1])[inv]
    row = np.arange(frame.n).repeat(deg)
    slot = ragged_index(indptr[inv], deg)
    at = frontier.searchsorted(nbrs[slot])
    if need == NEED_NONE:  # the slots name every destination: read none
        dst, keep = UnfetchedScan(frontier), np.ones(at.size, dtype=bool)
    else:
        dst = ex.tx.associate_vertices(frontier, missing_ok=True, need=need)
        keep = spec_mask(ex, op.dst, dst)[at]
    if op.bound:
        dst_scan, dst_pos = frame.cols[op.dst.var]
        keep &= frontier[at] == dst_scan.vids[dst_pos][row]
    out = frame.take(row[keep])
    if op.rel.var is not None:
        out.extra = [
            {**x, op.rel.var: edges[s]}
            for x, s in zip(out.extra or repeat({}), slot[keep].tolist())
        ]
    return out if op.bound else out.bind(op.dst.var, dst, at[keep])


def _var_expand(op, frame: Frame, ex, dst_need: int) -> Frame:
    """Variable-length expansion with BFS *distance* semantics.

    From each distinct source, every vertex whose shortest distance over
    matching edges lies in ``[min_hops, max_hops]`` binds exactly once.
    Level-synchronous over all sources at once: reached ``(source, vid)``
    pairs are kept as columns in discovery order (deduplicated through
    one integer key per pair), and each level's union frontier (what
    no earlier level or source fetched) is read in one batch — with
    topology below ``max_hops``, only what the destination needs on the
    last level.  A count-only destination (:data:`NEED_NONE`) needs
    nothing there: the last level is the slots of the one before, read
    for no vertex, so a ``count(DISTINCT b)`` friends-of-friends query
    reads its first hop alone and binds ``b`` as an
    :class:`UnfetchedScan`.
    """
    lo, hi = op.rel.min_hops, op.rel.max_hops
    scan, pos = frame.cols[op.src_var]
    srcs, inv = _distinct(pos)
    # reached pairs (source index, vid, depth); the frontier is the last level
    vs = fs = np.arange(srcs.size)
    vv = fv = scan.vids[srcs]
    vd = np.zeros(srcs.size, dtype=np.int64)
    known = np.unique(fv)  # every vid fetched and present
    depth = 0
    while fs.size and (hi is None or depth < hi):
        depth += 1
        level, at = np.unique(fv, return_inverse=True)
        at = at.reshape(-1)
        indptr, nbrs, _ = neighbor_csr(ex, VertexScan(ex.tx, level.tolist()), op.rel)
        deg = np.diff(indptr)[at]
        universe = np.unique(np.concatenate([vv, nbrs]))
        width = universe.size
        cand = fs.repeat(deg) * width + universe.searchsorted(
            nbrs[ragged_index(indptr[at], deg)]
        )
        new, first = np.unique(cand, return_index=True)
        # each pair's first discovery, in discovery order
        new = cand[np.sort(first[~np.isin(new, vs * width + universe.searchsorted(vv))])]
        ns, nv = new // width, universe[new % width]
        union = np.unique(nv)
        union = union[~np.isin(union, known)]
        if union.size and not (depth == hi and dst_need == NEED_NONE):
            need = dst_need if depth == hi else dst_need | NEED_IDENT | NEED_TOPO
            union = union[ex.tx.associate_vertices(union, missing_ok=True, need=need).present]
        known = np.union1d(known, union)
        alive = np.isin(nv, known)
        fs, fv = ns[alive], nv[alive]
        vs, vv = np.concatenate([vs, fs]), np.concatenate([vv, fv])
        vd = np.concatenate([vd, np.full(fs.size, depth)])
    in_range = (vd >= lo) & (vd <= (depth if hi is None else hi))
    vs, vv = vs[in_range], vv[in_range]
    if op.bound:
        dst_scan, dst_pos = frame.cols[op.dst.var]
        want = dst_scan.vids[dst_pos]
        universe = np.unique(np.concatenate([vv, want]))
        hit = np.isin(
            inv * universe.size + universe.searchsorted(want),
            vs * universe.size + universe.searchsorted(vv),
        )
        return frame.take((hit & _spec_rows(ex, op.dst, dst_scan, dst_pos)).nonzero()[0])
    at = known.searchsorted(vv)
    if dst_need == NEED_NONE:
        reached = UnfetchedScan(known)
    else:
        reached = VertexScan(ex.tx, known.tolist())
        ok = _spec_rows(ex, op.dst, reached, at)
        vs, at = vs[ok], at[ok]
    start = csr_indptr(np.bincount(vs, minlength=srcs.size))
    cnt = np.diff(start)[inv]
    # within a source: by depth, then in discovery order (as a BFS emits)
    picked = at[np.argsort(vs, kind="stable")][ragged_index(start[inv], cnt)]
    return frame.take(np.arange(frame.n).repeat(cnt)).bind(op.dst.var, reached, picked)


# -- expressions -----------------------------------------------------------------
class _Columns:
    """Expressions over a frame: a column as ``(values, valid)``, a
    scalar as ``(value, None)``, or ``None`` where only rows can evaluate
    them (relationship variables, vertex comparisons, function calls)."""

    def __init__(self, frame: Frame, ex) -> None:
        self.frame, self.ex = frame, ex
        self._props: dict = {}
        self._every = np.ones(frame.n, dtype=bool)  # shared "valid everywhere"; never written

    def value(self, expr, output: bool = False):
        frame, ex, n, every = self.frame, self.ex, self.frame.n, self._every
        if isinstance(expr, Literal):
            return expr.value, None
        if isinstance(expr, ParamRef):
            return eval_expr(expr, {}, ex.params), None
        if isinstance(expr, (PropRef, HasLabel, VarRef)):
            var = expr.name if isinstance(expr, VarRef) else expr.var
            if var not in frame.cols or (isinstance(expr, VarRef) and not output):
                return None
            scan, pos = frame.cols[var]
            if isinstance(expr, HasLabel):
                label = ex.label(expr.label)
                got = np.zeros(n, bool) if label is None else scan.has_label(label)[pos]
                return got, every
            if isinstance(scan, UnfetchedScan) and isinstance(expr, VarRef):
                return scan.vids[pos], every  # only count() sees it: internal IDs
            if isinstance(expr, VarRef) or expr.key == "id":
                return scan.app_ids[pos], every  # a vertex outputs its ID
            ptype = ex.ptype(expr.key)
            if ptype is None:
                return np.full(n, None, dtype=object), ~every
            key = (id(scan), expr.key)
            if key not in self._props:
                self._props[key] = scan.property(ptype)
            values, has = self._props[key]
            return values[pos], has[pos]
        if isinstance(expr, Cmp):
            sides = (self.value(expr.left), self.value(expr.right))
            if None in sides:
                return None
            (lv, lok), (rv, rok) = sides
            if lok is None and rok is None:
                return np.full(n, _compare(expr.op, lv, rv)), every
            ok = every.copy()
            for v, valid in sides:
                ok &= (v is not None) if valid is None else valid
            rows = ok.nonzero()[0]
            args = [v if valid is None else v[rows] for v, valid in sides]
            ok[rows] = _compare_values(expr.op, *args, _compare)
            return ok, every
        if isinstance(expr, IsNull):
            got = self.value(expr.operand)
            if got is None:
                return None
            v, valid = got
            return (np.full(n, v is None) if valid is None else ~valid) != expr.negated, every
        if isinstance(expr, (And, Or, Not)):
            items = (expr.operand,) if isinstance(expr, Not) else expr.items
            parts = [self.truth(x) for x in items]
            if any(p is None for p in parts):
                return None
            if isinstance(expr, Not):
                return ~parts[0], every
            join = np.logical_and if isinstance(expr, And) else np.logical_or
            return join.reduce(parts), every
        return None

    def column(self, expr):
        """:meth:`value` as output: scalars become columns of every row."""
        got = self.value(expr, output=True)
        if got is None or got[1] is not None:
            return got
        col = np.empty(self.frame.n, dtype=object)
        col[:] = [got[0]] * self.frame.n
        return col, np.full(self.frame.n, got[0] is not None)

    def truth(self, expr) -> "np.ndarray | None":
        got = self.value(expr)
        if got is None:
            return None
        v, valid = got
        if valid is None:
            return np.full(self.frame.n, truthy(v))
        out = np.zeros(self.frame.n, dtype=bool)
        out[valid] = v[valid].astype(bool)
        return out


def filter_mask(expr, frame: Frame, ex) -> np.ndarray:
    """Per row of ``frame``: does ``expr`` hold?  On columns where they
    cover it, otherwise row by row."""
    if not frame.n:
        return np.zeros(0, dtype=bool)
    mask = _Columns(frame, ex).truth(expr)
    if mask is not None:
        return mask
    rows = frame.rows(ex)
    return np.fromiter(
        (truthy(eval_expr(expr, row, ex.params)) for row in rows), bool, len(rows)
    )


# -- aggregation -----------------------------------------------------------------
def _output(values: np.ndarray, valid: np.ndarray) -> list:
    """A column as the row form outputs it (``None`` for null)."""
    return [x if ok else None for x, ok in zip(values.tolist(), valid.tolist())]


def _codes(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """A code per row, equal where the row form's keys are equal (-1
    for null)."""
    codes = np.full(len(values), -1, dtype=np.int64)
    if values.dtype == object:
        seen: dict = {}
        codes[valid] = [seen.setdefault(hashable(v), len(seen)) for v in values[valid]]
    else:
        codes[valid] = np.unique(values[valid], return_inverse=True, equal_nan=False)[1]
    return codes


def _extreme(values: np.ndarray, group: np.ndarray, n_groups: int, largest: bool) -> list:
    """``min``/``max`` per group in :func:`~repro.query.evalexpr.sort_key`
    order: the first row holding the extreme wins ties, and a NaN that
    leads its group is never displaced."""
    key = values.astype(np.float64)
    nan = np.isnan(key)
    best = np.full(n_groups, -np.inf if largest else np.inf)
    (np.maximum if largest else np.minimum).at(best, group[~nan], key[~nan])
    hit = key == best[group]
    head = np.unique(group, return_index=True)[1]
    hit[head[nan[head]]] = True
    won, at = np.unique(group[hit], return_index=True)
    out: list = [None] * n_groups
    for g, v in zip(won.tolist(), values[hit.nonzero()[0][at]].tolist()):
        out[g] = v
    return out


def _aggregate(func, col, group: np.ndarray, n_groups: int) -> list:
    """One aggregate: a value per group."""
    if func.star:
        return np.bincount(group, minlength=n_groups).tolist()
    values, valid = col
    rows = valid.nonzero()[0]
    if func.distinct:  # each group's first row of every distinct value
        pairs = np.stack([group[rows], _codes(values, valid)[rows]], axis=1)
        rows = rows[np.sort(np.unique(pairs, axis=0, return_index=True)[1])]
    group, values = group[rows], values[rows]
    if func.name == "count":
        return np.bincount(group, minlength=n_groups).tolist()
    if func.name in ("min", "max") and values.dtype != object:
        return _extreme(values, group, n_groups, func.name == "max")
    flat = values[np.argsort(group, kind="stable")].tolist()
    bounds = csr_indptr(np.bincount(group, minlength=n_groups)).tolist()
    return [_reduce(func, flat[a:b]) for a, b in zip(bounds, bounds[1:])]


def run_aggregate_frame(op, frame: Frame, ex) -> "list[tuple] | None":
    """Implicit grouping over a frame, groups in order of first
    appearance; ``None`` when a key or an argument needs rows."""
    cols = _Columns(frame, ex)
    keys = [cols.column(item.expr) for item in op.keys]
    args = [
        None if item.expr.star else cols.column(item.expr.args[0]) for item in op.aggs
    ]
    if None in keys or any(a is None and not i.expr.star for a, i in zip(args, op.aggs)):
        return None
    group, n_groups = np.zeros(frame.n, dtype=np.int64), 1
    if keys:
        codes = np.stack([_codes(*key) for key in keys], axis=1)
        uniq, group = _distinct(np.unique(codes, axis=0, return_inverse=True)[1].reshape(-1))
        n_groups, first = uniq.size, np.unique(group, return_index=True)[1]
        keys = [_output(v[first], valid[first]) for v, valid in keys]
    out = iter([_aggregate(i.expr, a, group, n_groups) for i, a in zip(op.aggs, args)])
    keys = iter(keys)
    return list(zip(*[next(out) if is_agg else next(keys) for is_agg in op.agg_mask]))
