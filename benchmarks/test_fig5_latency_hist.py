"""Figure 5 — per-operation latency histograms of the LinkBench mix.

Runs the LB workload at S1..S8 (1, 2, 4, 8 ranks) for GDA and the
JanusGraph-class baseline and prints log-spaced latency histograms per
operation class, as in the paper's Figure 5.

Expected shapes (Section 6.4): GDA operations mostly below ~1 us on one
server and in the 10-100 us range on multiple servers, with vertex
deletions the most expensive class; JanusGraph never below 200 us, most
operations >= 500 us, deletions starting around 2000 us.
"""

import numpy as np

from repro.analysis import log_histogram, summarize
from repro.analysis.scaling import format_table
from repro.baselines import JanusGraphSim, run_janus_oltp_rank
from repro.gda import GdaConfig, GdaDatabase
from repro.generator import KroneckerParams, build_lpg, default_schema
from repro.rma import XC40, run_spmd
from repro.workloads import MIXES, OpType, aggregate_oltp, run_oltp_rank

from conftest import bench_ops, bench_ranks

PARAMS = KroneckerParams(scale=9, edge_factor=8, seed=4)


def _collect(nranks, n_ops):
    def prog(ctx):
        db = GdaDatabase.create(
            ctx,
            GdaConfig(
                blocks_per_rank=max(16384, 8 * PARAMS.n_edges // ctx.nranks),
                dht_entries_per_rank=max(4096, 4 * PARAMS.n_vertices // ctx.nranks),
            ),
        )
        g = build_lpg(ctx, db, PARAMS, default_schema())
        sim = JanusGraphSim.create(ctx)
        sim.load_graph(ctx, PARAMS, default_schema())
        ctx.barrier()
        gda = run_oltp_rank(ctx, g, MIXES["LB"], n_ops, seed=11)
        janus = run_janus_oltp_rank(ctx, sim, PARAMS, MIXES["LB"], n_ops, seed=11)
        return gda, janus

    _, res = run_spmd(nranks, prog, profile=XC40)
    return (
        aggregate_oltp(MIXES["LB"], [r[0] for r in res]),
        aggregate_oltp(MIXES["LB"], [r[1] for r in res]),
    )


def _ascii_hist(latencies_us, width=40) -> str:
    hist = log_histogram(latencies_us, n_buckets=12)
    if not hist:
        return "(no samples)"
    peak = max(c for _, _, c in hist) or 1
    lines = []
    for lo, hi, count in hist:
        bar = "#" * max(0, round(width * count / peak))
        lines.append(f"  {lo:10.2f}-{hi:10.2f} us |{bar} {count}")
    return "\n".join(lines)


def test_fig5(benchmark, report):
    ranks = [r for r in bench_ranks() if r <= 8] or [1, 2]
    n_ops = max(bench_ops(), 150)

    def run_all():
        return {nranks: _collect(nranks, n_ops) for nranks in ranks}

    data = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # summary table: mean latency per op class, per server count, per system
    rows = []
    for nranks, (gda, janus) in data.items():
        for op in MIXES["LB"].fractions:
            for system, agg in (("GDA", gda), ("JanusGraph", janus)):
                vals = agg.latencies.get(op)
                if not vals:
                    continue
                s = summarize(np.array(vals) * 1e6, warmup_fraction=0.0)
                rows.append(
                    [f"S{nranks}", system, op.value, s.n,
                     f"{s.mean:.2f}", f"{s.p95:.2f}"]
                )
    report(
        "fig5_latency_histograms",
        "Figure 5 summary: LB operation latencies (us, simulated)\n"
        + format_table(
            ["servers", "system", "operation", "n", "mean", "p95"], rows
        ),
    )

    # full histograms for the largest configuration
    largest = ranks[-1]
    gda, janus = data[largest]
    for system, agg in (("GDA", gda), ("JanusGraph", janus)):
        sections = []
        for op in MIXES["LB"].fractions:
            vals = agg.latencies.get(op)
            if not vals:
                continue
            sections.append(
                f"{op.value}:\n" + _ascii_hist(np.array(vals) * 1e6)
            )
        report(
            "fig5_latency_histograms",
            f"Histograms at S{largest} — {system}\n" + "\n".join(sections),
        )

    # --- shape assertions from Section 6.4 / Figure 5 -------------------
    single = data.get(1)
    if single:
        gda1, janus1 = single
        gda_all = [l for ls in gda1.latencies.values() for l in ls]
        # most GDA single-server operations are ~1 us scale
        assert np.median(gda_all) < 5e-6
        janus_all = [l for ls in janus1.latencies.values() for l in ls]
        assert min(janus_all) >= 200e-6  # JanusGraph floor
        dels = janus1.latencies.get(OpType.DEL_VERTEX)
        if dels:
            assert min(dels) >= 2000e-6
    gda_l, janus_l = data[largest]
    gda_all = [l for ls in gda_l.latencies.values() for l in ls]
    # multi-server GDA: 10-100 us regime, still far below JanusGraph
    assert np.median(gda_all) < 200e-6
    del_lat = gda_l.latencies.get(OpType.DEL_VERTEX)
    read_lat = gda_l.latencies.get(OpType.GET_PROPS)
    if del_lat and read_lat:
        assert np.mean(del_lat) > np.mean(read_lat)
