"""The five workloads: inputs from ``--seed``, the measured loop, the checks.

Every workload owns its inputs (generated here with numpy from the seed,
segment by segment, outside the timed sections) and drives the program
through public calls only.  Load is issued by the main thread on rank 0;
``serve_short`` adds one worker thread on rank 1 and ``olap`` runs both
rank threads inside one ``run_spmd``.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import repro.workloads as kernels
from repro.gda.consistency import check_consistency
from repro.gdi import EdgeOrientation
from repro.gdi.errors import GdiTransactionCritical
from repro.query import QueryEngine, run_reference
from repro.rma import run_spmd
from repro.serve import ClientSession, GraphServer, ServeConfig

from . import config
from .harness import Built, NoTrace, percentile
from .oracle import GraphOracle

#: how many leading ops keep their result rows for the oracle check
CHECK_SAMPLE = 50
#: of those, how many are also put to ``run_reference`` (0.6 s apiece:
#: it re-reads the whole database per call)
REFERENCE_SAMPLE = 2
#: real-time guard on every cross-thread wait, so a dead worker turns
#: into an error instead of a hang
WAIT_TIMEOUT_S = 120.0


class Samples:
    """What one measured phase produced."""

    def __init__(self) -> None:
        self.wall: list[float] = []  # per-op wall seconds
        self.sim: list[float] = []  # per-op simulated seconds
        self.kinds: list[str] = []
        self.segments: list[tuple[int, float]] = []  # (ops, wall seconds)
        #: per-op simulated time the issuer/server was busy, where that
        #: is not the latency itself (serve_short: service without queueing)
        self.busy: list[float] = self.sim
        #: olap: kernel -> (wall seconds, simulated seconds) per cycle
        self.parts: dict[str, tuple[list, list]] = {}
        self.failed = 0
        self.counters: dict[str, float] = {}
        self.extra: dict[str, float] = {}

    @property
    def elapsed(self) -> float:
        return sum(t for _, t in self.segments)


class Workload:
    name = ""

    def __init__(self, built: Built, seed: int, tracer=NoTrace(), quick: bool = False) -> None:
        spec = config.WORKLOADS[self.name]
        div = config.QUICK_DIVISOR if quick else 1
        seg = self.segment_ops = spec["segment_ops"]
        # whole segments, so warm-up and window end on a segment edge
        self.warmup_ops = max(seg, spec["warmup_ops"] // div // seg * seg)
        self.window_ops = max(seg, spec["window_ops"] // div // seg * seg)
        self.built = built
        self.rt = built.rt
        self.graph = built.graph
        self.db = built.db
        self.ctx = built.rt.context(0)
        self.seed = seed
        self.tracer = tracer
        self.quick = quick
        self.n = self.graph.n_vertices
        self.failed = 0

    def rng(self, segment: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, segment])

    def more(self, samples: Samples, seconds: float | None) -> bool:
        """Go on until the window is full and the time is spent;
        ``seconds=None`` runs exactly the window."""
        if len(samples.wall) < self.window_ops:
            return True
        return seconds is not None and samples.elapsed < seconds

    def counters(self) -> dict[str, float]:
        """The program's own counters, summed over ranks."""
        total: dict[str, float] = {}
        for c in self.rt.trace.counters:
            for k, v in c.snapshot().items():
                total[k] = total.get(k, 0) + v
        total["tx_aborted"] = sum(s.aborted for s in self.db.stats)
        total["tx_restarts"] = sum(s.restarts for s in self.db.stats)
        return total

    def counters_since(self, before: dict[str, float]) -> dict[str, float]:
        now = self.counters()
        return {k: now[k] - before[k] for k in now}

    def run(self, seconds: float | None) -> Samples:
        """Warm up, then measure; returns the measured phase."""
        return self.drive(seconds)

    def check(self) -> list[str]:
        """Problems found outside the timed sections (empty = correct)."""
        raise NotImplementedError

    # -- the single-issuer loop shared by oltp_* and query_bi -------------
    def inputs(self, segment: int) -> list:
        raise NotImplementedError

    def execute(self, inp) -> str:
        raise NotImplementedError

    def drive(self, seconds: float | None) -> Samples:
        tracer, clocks = self.tracer, self.rt.clocks
        segment = self.warmup_ops // self.segment_ops
        for warm in range(segment):
            for inp in self.inputs(warm):
                self.execute(inp)
        self.failed = 0
        samples = Samples()
        wall, sim, kinds = samples.wall, samples.sim, samples.kinds
        gc.collect()
        before = self.counters()
        tracer.bind(self.ctx)
        try:
            while self.more(samples, seconds):
                inputs = self.inputs(segment)
                segment += 1
                t0 = perf_counter()
                for inp in inputs:
                    tracer.set_op(len(wall))
                    w0 = perf_counter()
                    c0 = clocks[0]
                    kind = self.execute(inp)
                    wall.append(perf_counter() - w0)
                    sim.append(clocks[0] - c0)
                    kinds.append(kind)
                samples.segments.append((len(inputs), perf_counter() - t0))
        finally:
            tracer.unbind()
        samples.counters = self.counters_since(before)
        samples.failed = self.failed
        return samples


# ---------------------------------------------------------------- oltp ----
GET_PROPS, COUNT_EDGES, GET_EDGES, ADD_VERTEX, DEL_VERTEX, UPD_PROP, ADD_EDGE = range(7)


class Oltp(Workload):
    """Table 3 mix, one single-op lock-mode GDI transaction per op."""

    mix = ""

    def __init__(self, *args, **kw) -> None:
        super().__init__(*args, **kw)
        self.fractions = config.TABLE3[self.mix]
        self.p_ts = self.graph.ptypes["p_ts"]
        self.edge_label = self.graph.edge_label(0)
        # the driver's own model of what it wrote
        self.next_id = self.n
        self.created: list[int] = []
        self.deleted: set[int] = set()
        self.p_ts_model: dict[int, int] = {}

    def inputs(self, segment: int) -> list[tuple]:
        rng, s = self.rng(segment), self.segment_ops
        ops = rng.choice(len(config.OLTP_OPS), size=s, p=self.fractions)
        keys = rng.integers(0, self.n, size=(s, 2))
        redirect = rng.random((s, 2))
        vals = rng.integers(0, 1 << 31, size=s)
        return list(zip(ops.tolist(), keys.tolist(), redirect.tolist(), vals.tolist()))

    def _key(self, raw: int, u: float) -> int:
        share = config.OLTP_PICK_CREATED
        if u < share and self.created:
            return self.created[int(u / share * len(self.created))]
        return raw

    def execute(self, inp) -> str:
        op, (k0, k1), (u0, u1), val = inp
        kind = config.OLTP_OPS[op]
        a = self.next_id if op == ADD_VERTEX else self._key(k0, u0)
        tx = self.db.start_transaction(self.ctx, write=op >= ADD_VERTEX)
        try:
            if op == ADD_VERTEX:
                tx.create_vertex(a, properties=[(self.p_ts, 0)])
                found = True
            else:
                v = tx.find_vertex(a)
                found = v is not None  # a miss on a deleted vertex is an OK outcome
            if not found or op == ADD_VERTEX:
                pass
            elif op == GET_PROPS:
                v.property(self.p_ts)
            elif op == COUNT_EDGES:
                v.degree()
            elif op == GET_EDGES:
                for e in v.edges(EdgeOrientation.OUTGOING):
                    e.endpoints()
            elif op == DEL_VERTEX:
                tx.delete_vertex(v)
            elif op == UPD_PROP:
                v.set_property(self.p_ts, val)
            elif op == ADD_EDGE:
                w = tx.find_vertex(self._key(k1, u1))
                if w is not None and w.vid != v.vid:
                    tx.create_edge(v, w, label=self.edge_label)
            tx.commit()
        except GdiTransactionCritical:
            if tx.open:
                tx.abort()
            self.failed += 1
            return kind
        if found:  # committed: advance the model
            if op == ADD_VERTEX:
                self.next_id += 1
                self.created.append(a)
                self.p_ts_model[a] = 0
            elif op == DEL_VERTEX:
                self.deleted.add(a)
            elif op == UPD_PROP:
                self.p_ts_model[a] = val
        return kind

    def check(self) -> list[str]:
        """Read back 1,000 keys against the model, then the program's
        own structural sweep (DHT/directory/holders/locks/blocks)."""
        problems = []
        schema = self.graph.schema
        written = sorted(self.deleted | set(self.p_ts_model))[:700]
        untouched = self.rng(1 << 30).integers(0, self.n, size=1000 - len(written))
        sample = written + untouched.tolist()
        tx = self.db.start_transaction(self.ctx)
        for key, v in zip(sample, tx.find_vertices(sample)):
            if key in self.deleted:
                if v is not None:
                    problems.append(f"deleted vertex {key} still found")
                continue
            if key in self.p_ts_model:
                want = self.p_ts_model[key]
            else:
                want = dict(schema.vertex_property_values(key)).get("p_ts")
            got = None if v is None else v.property(self.p_ts)
            if v is None or got != want:
                problems.append(f"vertex {key}: p_ts {got!r}, model says {want!r}")
        tx.commit()
        _, reports = run_spmd(
            config.NRANKS, lambda ctx: check_consistency(ctx, self.db), runtime=self.rt
        )
        problems.extend(f"consistency: {p}" for p in reports[0].problems[:10])
        return problems


class OltpRead(Oltp):
    name, mix = "oltp_read", "RM"


class OltpWrite(Oltp):
    name, mix = "oltp_write", "WI"


# ------------------------------------------------------------- query_bi ----
def rows_differ(kind: str, got: list, want: list) -> bool:
    got = [tuple(r) for r in got]
    want = [tuple(r) for r in want]
    if kind != "topk":  # only top-k fixes an order
        got, want = sorted(got), sorted(want)
    return got != want


class QueryBi(Workload):
    """Engine queries on rank 0: traversals, top-k, BI2 and aggregates."""

    name = "query_bi"

    def __init__(self, *args, **kw) -> None:
        super().__init__(*args, **kw)
        self.oracle = GraphOracle()
        self.sources = self.oracle.typical_sources()
        self.engine = QueryEngine(self.db)
        self.n_labels = self.graph.schema.n_vertex_labels
        self.kept: list[tuple[str, str, dict, list]] = []
        # parse and plan every text once: users pay that once per text,
        # so the timed part runs on a warm plan cache
        for kind in ("fof", "topk", "bi2"):
            self.engine.prepare(self.ctx, config.QUERY_TEXT[kind])
        for kind in ("label_count", "agg"):
            for label in range(self.n_labels):
                self.engine.prepare(self.ctx, config.QUERY_TEXT[kind].format(label=label))

    def inputs(self, segment: int) -> list[tuple]:
        rng, cycle = self.rng(segment), config.QUERY_CYCLE
        srcs = rng.choice(self.sources, size=len(cycle)).tolist()
        labels = rng.integers(0, self.n_labels, size=len(cycle)).tolist()
        minscore = round(float(rng.uniform(30.0, 70.0)), 1)
        out = []
        for kind, src, label in zip(cycle, srcs, labels):
            text = config.QUERY_TEXT[kind]
            if kind in ("fof", "topk"):
                out.append((kind, text, {"src": src}, src))
            elif kind == "bi2":
                out.append((kind, text, {"minscore": minscore}, minscore))
            else:
                out.append((kind, text.format(label=label), None, label))
        return out

    def execute(self, inp) -> str:
        kind, text, params, arg = inp
        rows = self.engine.run(self.ctx, text, params).rows
        if len(self.kept) < CHECK_SAMPLE:
            self.kept.append((kind, text, params, arg, rows))
        return kind

    def check(self) -> list[str]:
        problems = []
        if not self.quick:
            for kind, text, params, arg, rows in self.kept:
                want = getattr(self.oracle, kind)(arg)
                if rows_differ(kind, rows, want):
                    problems.append(f"{kind}({arg}): got {rows[:3]}, oracle {want[:3]}")
        for kind, text, params, arg, rows in self.kept[-REFERENCE_SAMPLE:]:
            if rows_differ(kind, rows, run_reference(self.ctx, self.db, text, params).rows):
                problems.append(f"{kind}({arg}): differs from run_reference")
        return problems


# ----------------------------------------------------------- serve_short ----
class ServeShort(Workload):
    """Cypher-lite text through the serving front-end.

    Open loop in simulated time: request ``i`` arrives at ``i / rate`` on
    the simulated clock whatever the host does, and its latency counts
    from that scheduled arrival, so queueing is part of it.  In real
    time at most ``in_flight`` requests are outstanding, fewer than the
    admission queue holds, so thread racing can never shed one.
    """

    name = "serve_short"

    def __init__(self, *args, **kw) -> None:
        super().__init__(*args, **kw)
        self.oracle = GraphOracle()
        # short requests: keys are the ordinary vertices (92% of them); a
        # one-hop from a hub with a thousand neighbours is not "short" and
        # its service time would decide every queueing figure by itself
        cap = config.SERVE["max_degree"]
        self.keys = [v for v in range(self.n) if self.oracle.degree[v] <= cap]
        self.engine = QueryEngine(self.db)
        self.kinds = [k for k, _ in config.SERVE["mix"]]
        self.shares = [s for _, s in config.SERVE["mix"]]
        self.in_flight = threading.Semaphore(config.SERVE["in_flight"])
        self.done_wall: dict[int, float] = {}
        self.updated: dict[int, int] = {}
        self.kept: list[tuple[str, dict, list]] = []
        self.p_ts = self.graph.ptypes["p_ts"]

    def inputs(self, segment: int) -> list[tuple]:
        rng, s = self.rng(segment), self.segment_ops
        kinds = rng.choice(len(self.kinds), size=s, p=self.shares).tolist()
        srcs = rng.choice(self.keys, size=s).tolist()
        vals = rng.integers(0, 1 << 31, size=s).tolist()
        out = []
        for k, src, val in zip(kinds, srcs, vals):
            kind = self.kinds[k]
            params = {"src": src, "val": val} if kind == "update" else {"src": src}
            out.append((kind, params))
        return out

    @contextmanager
    def _serving(self, tracer):
        """A fresh server (idle slot) with one worker thread on rank 1."""
        server = GraphServer(
            self.db,
            engine=self.engine,  # shared: the plan cache stays warm
            config=ServeConfig(
                queue_capacity=config.SERVE["queue_capacity"],
                default_deadline=config.SERVE["deadline_s"],
            ),
        )
        worker_ctx = self.rt.context(1)
        crash: list[BaseException] = []

        def worker() -> None:
            tracer.bind(worker_ctx)
            try:
                server.serve(worker_ctx)
            except BaseException as exc:  # noqa: BLE001 - re-raised on the issuer
                crash.append(exc)
            finally:
                tracer.unbind()

        def on_done(req) -> None:  # runs on the worker thread
            self.done_wall[req.user] = perf_counter()
            tracer.set_op(req.user + 1)  # one FIFO worker: the next in line
            self.in_flight.release()

        thread = threading.Thread(target=worker, name="bench-serve-worker")
        thread.start()
        try:
            yield server, ClientSession(server), on_done
        finally:
            server.close()
            thread.join(WAIT_TIMEOUT_S)
            if crash:
                raise crash[0]
            if thread.is_alive():
                raise RuntimeError("serve worker did not stop")

    def _segment(self, session, on_done, tracer, inputs, first: int):
        """Submit one segment and wait for all of it; returns the
        requests, their submit times and the segment's wall time."""
        gap = 1.0 / config.SERVE["rate_per_s"]
        reqs, sent = [], []
        t0 = perf_counter()
        for i, (kind, params) in enumerate(inputs, start=first):
            with tracer.idle():
                if not self.in_flight.acquire(timeout=WAIT_TIMEOUT_S):
                    raise RuntimeError("serve worker stalled")
            tracer.set_op(i)
            sent.append(perf_counter())
            req, _ = session.submit(
                self.ctx, config.SERVE_TEXT[kind], params=params,
                arrival=i * gap, user=i, on_done=on_done,
            )
            reqs.append(req)
        with tracer.idle():
            for req in reqs:
                if not req.wait_done(WAIT_TIMEOUT_S):
                    raise RuntimeError(f"request {req.req_id} never completed")
        return reqs, sent, perf_counter() - t0

    def run(self, seconds):
        segment = self.warmup_ops // self.segment_ops
        quiet = NoTrace()
        with self._serving(quiet) as (_, session, on_done):
            for warm in range(segment):
                self._segment(session, on_done, quiet, self.inputs(warm), warm * self.segment_ops)
        tracer = self.tracer
        samples = Samples()
        samples.busy = []
        waits: list[float] = []
        statuses: dict[str, int] = {}
        gc.collect()
        before = self.counters()
        with self._serving(tracer) as (server, session, on_done):
            tracer.bind(self.ctx)
            try:
                while self.more(samples, seconds):
                    inputs = self.inputs(segment)
                    segment += 1
                    reqs, sent, took = self._segment(
                        session, on_done, tracer, inputs, len(samples.wall)
                    )
                    samples.segments.append((len(reqs), took))
                    for (kind, params), req, w0 in zip(inputs, reqs, sent):
                        samples.wall.append(self.done_wall.pop(req.user) - w0)
                        samples.sim.append(req.latency)
                        samples.busy.append(req.service)
                        samples.kinds.append(kind)
                        waits.append(req.queue_wait)
                        statuses[req.status] = statuses.get(req.status, 0) + 1
                        if req.status != "ok":
                            samples.failed += 1
                        elif kind == "update":
                            self.updated[params["src"]] = params["val"]
                        elif len(self.kept) < CHECK_SAMPLE:
                            self.kept.append((kind, params, req.rows))
            finally:
                tracer.unbind()
            queue_peak = server.stats()["queue_peak"]
        samples.counters = self.counters_since(before)
        n = len(samples.wall)
        turned_away = sum(statuses.get(s, 0) for s in ("shed", "throttled", "shed_analytics"))
        samples.extra = {
            "serve.queue_wait_sim_p50_us": percentile(sorted(waits), 50) * 1e6,
            "serve.queue_peak": queue_peak,
            "serve.deadline_frac": statuses.get("deadline", 0) / n,
            "serve.shed_frac": turned_away / n,
        }
        return samples

    def check(self) -> list[str]:
        problems = []
        if not self.quick:
            for kind, params, rows in self.kept:
                want = getattr(self.oracle, kind)(params["src"])
                if rows_differ(kind, rows, want):
                    problems.append(f"{kind}({params['src']}): got {rows[:3]}, oracle {want[:3]}")
        for kind, params, rows in self.kept[-REFERENCE_SAMPLE:]:
            ref = run_reference(self.ctx, self.db, config.SERVE_TEXT[kind], params).rows
            if rows_differ(kind, rows, ref):
                problems.append(f"{kind}({params['src']}): differs from run_reference")
        keys = sorted(self.updated)[:200]
        tx = self.db.start_transaction(self.ctx)
        for key, v in zip(keys, tx.find_vertices(keys)):
            got = None if v is None else v.property(self.p_ts)
            if got != self.updated[key]:
                problems.append(f"update {key}: p_ts {got!r}, sent {self.updated[key]!r}")
        tx.commit()
        return problems


# ------------------------------------------------------------------ olap ----
class Olap(Workload):
    """PageRank + BFS + the hand-coded collective BI2, on both ranks.

    One op is one cycle; its time is the slower rank's.  The two rank
    threads agree on when to stop at a barrier of the benchmark's own
    (not a simulated collective, so it adds nothing to the counts).
    """

    name = "olap"

    def __init__(self, *args, **kw) -> None:
        super().__init__(*args, **kw)
        self.oracle = GraphOracle()
        # BFS roots inside the giant component: a root without edges
        # would make the cycle time bimodal
        self.sources = self.oracle.giant_component()
        self.kept: list[list[tuple]] = []  # per checked cycle, per rank

    def inputs(self, segment: int) -> tuple[int, float]:
        rng = self.rng(segment)
        return int(rng.choice(self.sources)), round(float(rng.uniform(30.0, 70.0)), 1)

    def run(self, seconds):
        samples = Samples()
        marks: list[list] = [None] * config.NRANKS  # this cycle, per rank
        state = {"cycle": 0, "go": True}
        before: dict = {}

        def fold() -> None:
            """Runs on one thread while both are parked at the barrier."""
            cycle = state["cycle"]
            if cycle >= self.warmup_ops:
                wall = max(m[3][0] - m[0][0] for m in marks)
                samples.wall.append(wall)
                samples.sim.append(max(m[3][1] - m[0][1] for m in marks))
                samples.kinds.append("cycle")
                samples.segments.append((1, wall))
                for i, kernel in enumerate(config.OLAP_KERNELS):
                    w, s = samples.parts.setdefault(kernel, ([], []))
                    w.append(max(m[i + 1][0] - m[i][0] for m in marks))
                    s.append(max(m[i + 1][1] - m[i][1] for m in marks))
            state["cycle"] = cycle + 1
            if cycle + 1 == self.warmup_ops:
                gc.collect()
                before.update(self.counters())
            state["go"] = cycle + 1 < self.warmup_ops or self.more(samples, seconds)

        barrier = threading.Barrier(config.NRANKS, action=fold, timeout=WAIT_TIMEOUT_S)
        graphs = self.built.graphs
        kept: list[list] = [[] for _ in range(config.NRANKS)]

        def prog(ctx) -> None:
            tracer = NoTrace()
            g = graphs[ctx.rank]
            try:
                while state["go"]:
                    cycle = state["cycle"]
                    if cycle == self.warmup_ops:
                        tracer = self.tracer
                        tracer.bind(ctx)
                    source, minscore = self.inputs(cycle)
                    tracer.set_op(cycle - self.warmup_ops)
                    m = [(perf_counter(), ctx.clock)]
                    pr = kernels.pagerank(ctx, g, iterations=config.OLAP_PAGERANK_ITERATIONS)
                    m.append((perf_counter(), ctx.clock))
                    depth = kernels.bfs(ctx, g, source)
                    m.append((perf_counter(), ctx.clock))
                    count = kernels.bi2_style_query(ctx, g, min_score=minscore)
                    m.append((perf_counter(), ctx.clock))
                    marks[ctx.rank] = m
                    if len(kept[ctx.rank]) < 3:
                        kept[ctx.rank].append((source, minscore, pr, depth, count))
                    with tracer.idle():
                        barrier.wait()
            except BaseException:
                barrier.abort()  # wake the other rank instead of hanging it
                raise
            finally:
                tracer.unbind()

        run_spmd(config.NRANKS, prog, runtime=self.rt)
        samples.counters = self.counters_since(before)
        self.kept = list(zip(*kept))
        return samples

    def check(self) -> list[str]:
        problems = []
        for per_rank in self.kept:
            source, minscore = per_rank[0][:2]
            mass = sum(sum(pr.values()) for _, _, pr, _, _ in per_rank)
            if abs(mass - 1.0) > 1e-9:
                problems.append(f"pagerank mass {mass!r}")
            if self.quick:
                continue
            levels: dict[int, int] = {}
            for _, _, _, depth, _ in per_rank:
                levels.update(depth)
            if levels != self.oracle.bfs_levels(source):
                problems.append(f"bfs from {source}: levels differ from the oracle")
            want = self.oracle.bi2(minscore)[0][0]
            if {count for *_, count in per_rank} != {want}:
                problems.append(f"bi2(min_score={minscore}): oracle says {want}")
        return problems


ALL = {w.name: w for w in (OltpRead, OltpWrite, ServeShort, QueryBi, Olap)}
