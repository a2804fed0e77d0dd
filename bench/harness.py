"""Shared machinery: graph set-up, timing helpers, environment record.

Touches the program only through public calls: ``run_spmd``,
``GdaDatabase.create``, ``GdaConfig``, ``build_lpg``.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import platform
import resource
import struct
import time
import zlib
from dataclasses import dataclass

from repro.gda import GdaConfig, GdaDatabase
from repro.generator import KroneckerParams, default_schema
from repro.rma import XC40, run_spmd
import repro.generator as generator

from . import config


# -- tracing stand-in ------------------------------------------------------
class NoTrace:
    """What the workloads talk to when no probes are installed.

    The untraced run never imports :mod:`bench.probes`, so a refactor
    that breaks a probe point cannot break the end-to-end numbers.
    """

    def bind(self, ctx) -> None:
        pass

    def unbind(self) -> None:
        pass

    def set_op(self, op: int) -> None:
        pass

    def idle(self):
        return _NO_IDLE


_NO_IDLE = contextlib.nullcontext()


# -- set-up ----------------------------------------------------------------
@dataclass
class Built:
    """One freshly built database: runtime, per-rank graph handles, cost."""

    rt: object
    graphs: list
    seconds: float

    @property
    def graph(self):
        return self.graphs[0]

    @property
    def db(self):
        return self.graphs[0].db


def build(graph_params: dict, tracer=NoTrace()) -> Built:
    """Create a database on a fresh runtime and bulk-load the graph."""
    params = KroneckerParams(**graph_params)
    cfg = GdaConfig(**config.GDA)

    def prog(ctx):
        tracer.bind(ctx)
        try:
            db = GdaDatabase.create(ctx, cfg)
            # looked up at call time so an installed probe is seen
            return generator.build_lpg(ctx, db, params, default_schema())
        finally:
            tracer.unbind()

    gc.collect()
    t0 = time.perf_counter()
    rt, graphs = run_spmd(config.NRANKS, prog, profile=XC40)
    return Built(rt, graphs, time.perf_counter() - t0)


def timed_setup(n_builds: int) -> tuple[Built, list[float]]:
    """One discarded small build (imports, first-use caches), then
    ``n_builds`` timed full builds; the last one is handed to the run."""
    build(config.WARMUP_GRAPH)
    times = []
    built = None
    for _ in range(n_builds):
        built = None  # drop the previous database before timing the next
        built = build(config.GRAPH)
        times.append(built.seconds)
    return built, times


def fingerprint(built: Built) -> dict:
    """Vertex count, loaded-edge count and degree-sequence checksum."""
    g = built.graph
    ctx = built.rt.context(0)
    tx = g.db.start_transaction(ctx)
    handles = tx.find_vertices(list(range(g.n_vertices)))
    degrees = [-1 if h is None else h.degree() for h in handles]
    tx.commit()
    return {
        "vertices": sum(d >= 0 for d in degrees),
        "edges_loaded": g.n_edges_loaded,
        "degree_crc": zlib.crc32(struct.pack(f"<{len(degrees)}i", *degrees)),
    }


# -- statistics ------------------------------------------------------------
def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    k = math.ceil(q / 100.0 * len(sorted_values)) - 1
    return sorted_values[min(max(k, 0), len(sorted_values) - 1)]


def midmean(values) -> float:
    """Mean of the middle half (between the quartiles).

    With two ranks every latency distribution is bimodal, local against
    remote, and the plain median jumps between the modes from one seed
    to the next; this moves continuously and still ignores the tails.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut : len(ordered) - cut]
    return sum(middle) / len(middle)


def tail_value(values: list, tail) -> float:
    """The workload's frozen tail statistic (a percentile, or ``max``)."""
    ordered = sorted(values)
    return ordered[-1] if tail == "max" else percentile(ordered, tail)


# -- host diagnostics ------------------------------------------------------
def calibrate() -> float:
    """Microseconds for a fixed pure-Python/struct loop (best of 5).

    Recorded before and after a run to tell a slower machine from slower
    code: the loop never touches the program under test.
    """
    pack, unpack = struct.pack, struct.unpack
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += unpack("<qii", pack("<qii", i, i & 7, 3))[0] ^ (acc & 1)
        best = min(best, time.perf_counter() - t0)
    return best * 1e6


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy

    commit = "unknown"
    head = os.path.join(os.path.dirname(os.path.dirname(__file__)), ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(os.path.dirname(head), ref[5:])) as fh:
                ref = fh.read().strip()
        commit = ref
    except OSError:
        pass  # a bare checkout has no .git; the numbers still stand
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "loadavg": list(os.getloadavg()),
        "calib_us": calibrate(),
    }
