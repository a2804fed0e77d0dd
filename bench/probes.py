"""Span probes around each layer's entry points, installed from outside.

Nothing under ``src/`` is edited: :func:`install` swaps each entry point
named in :data:`POINTS` for a wrapper that records a span on the calling
thread, and :func:`uninstall` puts the originals back.  A point that no
longer resolves (renamed or removed by a later refactor) is skipped and
counted, never fatal.

A span is ``(id, parent, op, thread, name, layer, wall0, wall1, sim0,
sim1)``.  A layer's *self* time is its spans' duration minus the part
their child spans cover, on each clock, so the self times of all layers
plus the driver's own remainder add up to the traced time exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import threading
from time import perf_counter

from . import config

#: pseudo-layers: time blocked waiting for another thread, and the
#: driver's own code between spans (the unattributed remainder)
IDLE = "idle"
DRIVER = "driver"

_RMA = (
    "put get cas faa aget aput faa_batch cas_batch put_batch get_batch "
    "iput_batch iget_batch iput iget flush"
).split()
_COLLECTIVES = (
    "barrier bcast reduce allreduce gather allgather scatter alltoall scan "
    "exscan win_allocate win_free"
).split()
_TX = (
    "find_vertex find_vertices associate_vertex associate_vertices "
    "load_vertices visible_vertices translate_vertex_id create_vertex "
    "create_vertices create_edge delete_vertex delete_edge "
    "bulk_append_half_edge bulk_create_edge_holder"
).split()
_VERTEX_VERBS = (
    "labels has_label property properties all_properties set_property "
    "add_property edges neighbors degree"
).split()
_LOCK_BATCHES = "acquire_read_batch acquire_write_batch upgrade_batch release_batch".split()


def _points() -> list[tuple[str, str | None, str, str]]:
    """``(module, owner class or None, attribute, layer)`` per probe.

    Functions imported by name are patched where their *caller* looks
    them up (``repro.gda.transaction_impl.acquire_read_batch``, not
    ``repro.gda.locks``), since that is the binding the call goes through.
    """
    pts: list[tuple[str, str | None, str, str]] = []

    def add(layer, module, owner, names):
        pts.extend((module, owner, n, layer) for n in names)

    add("rma", "repro.rma.runtime", "RankContext", _RMA)
    add("rma.collectives", "repro.rma.runtime", "RankContext", _COLLECTIVES)
    add("gda.tx", "repro.gda.database_impl", "GdaDatabase",
        ["start_transaction", "start_collective_transaction"])
    add("gda.tx", "repro.gda.transaction_impl", "Transaction", _TX)
    add("gda.tx", "repro.gda.transaction_impl", "VertexHandle", _VERTEX_VERBS)
    add("gda.tx", "repro.gda.transaction_impl", "EdgeHandle", ["endpoints", "other_endpoint"])
    add("gda.tx", "repro.serve.server", None, ["run_transaction"])
    add("gda.tx.commit", "repro.gda.transaction_impl", "Transaction", ["commit", "abort"])
    add("gda.dht", "repro.gda.dht", "DistributedHashTable",
        ["lookup", "lookup_many", "insert", "delete"])
    add("gda.locks", "repro.gda.locks", "RWLock",
        ["acquire_read", "release_read", "acquire_write", "release_write",
         "upgrade", "downgrade"])
    add("gda.locks", "repro.gda.transaction_impl", None, _LOCK_BATCHES)
    add("gda.holder", "repro.gda.holder", "HolderStorage",
        ["read", "read_many", "rewrite", "rewrite_many", "write_new",
         "delete", "delete_many"])
    add("gda.blocks", "repro.gda.blocks", "BlockManager",
        ["acquire_block", "acquire_block_anywhere", "release_block",
         "read_block", "write_block", "iwrite_block", "iread_block",
         "read_blocks", "iwrite_blocks"])
    add("mvcc", "repro.mvcc.snapshot", "SnapshotManager",
        ["begin_commit", "note_applied", "begin_snapshot", "share", "release",
         "note_unpublished", "lookup_unpublished", "deleted_vids", "collect",
         "maybe_collect"])
    add("mvcc", "repro.mvcc.versions", "VersionStore",
        ["install", "resolve", "covered", "prune"])
    add("query.plan", "repro.query.engine", None,
        ["parse_query", "plan_query", "plan_is_current"])
    add("query.plan", "repro.query.engine", "QueryEngine", ["prepare", "_get_plan"])
    add("query.exec", "repro.query.engine", "QueryEngine", ["run"])
    add("query.exec", "repro.query.engine", None, ["execute_plan"])
    add("serve", "repro.serve.session", "ClientSession", ["submit"])
    add("serve", "repro.serve.server", "GraphServer", ["submit", "serve", "close"])
    add("serve", "repro.serve.queue", "BoundedQueue", ["try_put", "task_done"])
    # a worker blocked on an empty queue is waiting, not working
    add(IDLE, "repro.serve.queue", "BoundedQueue", ["get"])
    add("workloads", "repro.workloads", None, ["pagerank", "bfs", "bi2_style_query"])
    add("workloads", "repro.workloads.analytics", None, ["load_local_adjacency"])
    add("workloads", "repro.workloads.bi", None, ["filtered_two_hop_count"])
    add("generator", "repro.generator", None, ["build_lpg"])
    add("generator", "repro.generator.lpg", None,
        ["build_lpg_from_edges", "create_schema_metadata", "generate_edges"])
    return pts


POINTS = _points()


class _ThreadState:
    __slots__ = ("clocks", "rank", "stack", "agg", "op", "spans", "next_id")

    def __init__(self, ctx, layers) -> None:
        self.clocks = ctx.rt.clocks
        self.rank = ctx.rank
        self.agg = {layer: [0, 0.0, 0.0] for layer in layers}
        self.op = -1
        self.spans: list[tuple] = []
        self.next_id = 1
        # root frame: [wall0, sim0, child wall, child sim, span id]
        self.stack = [[perf_counter(), self.clocks[self.rank], 0.0, 0.0, 0]]


class Tracer:
    """Per-thread span stacks and per-layer aggregates.

    A thread records spans only between :meth:`bind` and :meth:`unbind`;
    warm-up runs unbound and so never reaches the aggregates.
    """

    def __init__(self, keep_ops: int = config.TRACE_KEEP_OPS) -> None:
        self.keep_ops = keep_ops
        self.layers = config.LAYERS + (IDLE, DRIVER)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._done: list[_ThreadState] = []
        self.installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- thread lifecycle -------------------------------------------------
    def bind(self, ctx) -> None:
        self._local.state = _ThreadState(ctx, self.layers)

    def unbind(self) -> None:
        st = self._local.state
        self._local.state = None
        root = st.stack[0]
        a = st.agg[DRIVER]
        a[1] += perf_counter() - root[0] - root[2]
        a[2] += st.clocks[st.rank] - root[1] - root[3]
        with self._lock:
            self._done.append(st)

    def set_op(self, op: int) -> None:
        st = getattr(self._local, "state", None)
        if st is not None:
            st.op = op

    @contextlib.contextmanager
    def idle(self):
        """Span around the driver's own blocking waits."""
        st = getattr(self._local, "state", None)
        if st is None:
            yield
            return
        frame = self._enter(st)
        try:
            yield
        finally:
            self._exit(st, frame, "driver.wait", IDLE)

    # -- span recording ---------------------------------------------------
    def _enter(self, st: _ThreadState) -> list:
        frame = [perf_counter(), st.clocks[st.rank], 0.0, 0.0, st.next_id]
        st.next_id += 1
        st.stack.append(frame)
        return frame

    def _exit(self, st: _ThreadState, frame: list, name: str, layer: str) -> None:
        w1 = perf_counter()
        s1 = st.clocks[st.rank]
        stack = st.stack
        stack.pop()
        dw = w1 - frame[0]
        ds = s1 - frame[1]
        a = st.agg[layer]
        a[0] += 1
        a[1] += dw - frame[2]
        a[2] += ds - frame[3]
        parent = stack[-1]
        parent[2] += dw
        parent[3] += ds
        if 0 <= st.op < self.keep_ops and len(st.spans) < config.TRACE_KEEP_SPANS:
            st.spans.append(
                (frame[4], parent[4], st.op, st.rank, name, layer,
                 frame[0], w1, frame[1], s1)
            )

    def wrap(self, fn, name: str, layer: str):
        local = self._local
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            st = getattr(local, "state", None)
            if st is None:
                return fn(*args, **kwargs)
            frame = enter(st)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(st, frame, name, layer)

        return probe

    # -- results ----------------------------------------------------------
    def totals(self) -> dict[str, list]:
        """``layer -> [calls, wall self s, sim self s]`` over all threads
        that have unbound."""
        out = {layer: [0, 0.0, 0.0] for layer in self.layers}
        with self._lock:
            for st in self._done:
                for layer, (n, w, s) in st.agg.items():
                    o = out[layer]
                    o[0] += n
                    o[1] += w
                    o[2] += s
        return out

    def spans(self) -> list[tuple]:
        with self._lock:
            spans = [s for st in self._done for s in st.spans]
        return sorted(spans, key=lambda s: s[6])  # by wall start

    def clear(self) -> None:
        with self._lock:
            self._done.clear()


SPAN_FIELDS = (
    "id", "parent", "op", "rank", "name", "layer",
    "wall_start", "wall_end", "sim_start", "sim_end",
)


def install(tracer: Tracer) -> None:
    """Wrap every probe point that still resolves to a plain function."""
    for module, owner, attr, layer in POINTS:
        label = ".".join(p for p in (module, owner, attr) if p)
        try:
            holder = importlib.import_module(module)
            if owner is not None:
                holder = getattr(holder, owner)
            original = inspect.getattr_static(holder, attr)
        except (ImportError, AttributeError):
            tracer.missing.append(label)
            continue
        if not inspect.isfunction(original):
            # became a property, a static method or a re-exported object:
            # the call no longer goes through a patchable function
            tracer.missing.append(label)
            continue
        name = f"{owner}.{attr}" if owner else f"{module.rsplit('.', 1)[-1]}.{attr}"
        setattr(holder, attr, tracer.wrap(original, name, layer))
        tracer.installed.append((holder, attr, original))


def uninstall(tracer: Tracer) -> None:
    while tracer.installed:
        holder, attr, original = tracer.installed.pop()
        setattr(holder, attr, original)
