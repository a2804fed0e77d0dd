"""Declarative query engine vs hand-coded workloads (ISSUE 5).

Runs the same interactive and BI workload shapes twice — once through the
hand-coded GDI traversals and once through the Cypher-lite engine — and
compares simulated latencies.  The engine's plans ride the same batched
one-sided read paths, so the expectation is parity within a small
constant factor, with identical results.  Also demonstrates that cached
plan re-execution skips parse+plan (plan-cache hit counters) and that
point-lookup queries are planned index-backed, never as full scans.
"""

import json
import pathlib
import random

from repro.analysis import summarize
from repro.analysis.scaling import format_table
from repro.gda import GdaConfig, GdaDatabase
from repro.generator import KroneckerParams, build_lpg, default_schema
from repro.query import QueryEngine
from repro.rma import XC40, run_spmd
from repro.workloads import friends_of_friends
from repro.workloads.bi import bi2_style_query, group_count_by_label

from conftest import bench_ops

PARAMS = KroneckerParams(scale=8, edge_factor=8, seed=67)
NRANKS = 4


#: the Cypher-lite texts of the hand-coded workloads they are timed against
FOF_TEXT = "MATCH (a {id = $src})-[*1..2]-(b) RETURN b.id"


def bi2_text(g) -> str:
    return (
        f"MATCH (per:{g.vertex_label(0).name})-[:{g.edge_label(0).name}]->"
        f"(v:{g.vertex_label(1).name}) WHERE per.p_score > $sv "
        "AND v.p_active = $dv RETURN count(DISTINCT per)"
    )


#: Committed perf-smoke baseline: engine FOF latency the CI gate holds
#: the tree to (simulated time is deterministic, so a tight bound works).
BASELINE_PATH = pathlib.Path(__file__).parent / "baselines" / "perf_smoke.json"


def test_query_engine_vs_handcoded(benchmark, report, metrics):
    n_queries = max(10, bench_ops() // 8)

    def run_all():
        def prog(ctx):
            db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=16384))
            g = build_lpg(ctx, db, PARAMS, default_schema())
            engine = QueryEngine(db)
            rng = random.Random(f"qe/{ctx.rank}")
            hand_fof, eng_fof = [], []
            cache = None
            if ctx.rank == 0:
                for _ in range(n_queries):
                    src = rng.randrange(PARAMS.n_vertices)
                    t0 = ctx.clock
                    a = friends_of_friends(ctx, g, src, hops=2)
                    hand_fof.append(ctx.clock - t0)
                    t0 = ctx.clock
                    b = {
                        row[0]
                        for row in engine.run(ctx, FOF_TEXT, params={"src": src}).rows
                    }
                    eng_fof.append(ctx.clock - t0)
                    assert a == b
                # the loop reuses one query text: all but the first run hit
                cache = dict(engine.cache_info(ctx))
            ctx.barrier()
            t0 = ctx.clock
            bi_hand = bi2_style_query(ctx, g, min_score=50.0)
            dt_bi_hand = ctx.clock - t0
            t0 = ctx.clock
            bi_eng = None
            if ctx.rank == 0:
                bi_eng = engine.run(
                    ctx, bi2_text(g), params={"sv": 50.0, "dv": True}
                ).scalar()
            ctx.barrier()
            bi_eng = ctx.bcast(bi_eng, root=0)
            dt_bi_eng = ctx.clock - t0
            assert bi_hand == bi_eng
            t0 = ctx.clock
            gc_hand = group_count_by_label(ctx, g)
            dt_gc_hand = ctx.clock - t0
            t0 = ctx.clock
            gc_eng = None
            if ctx.rank == 0:
                gc_eng = {}
                for label in db.all_labels(ctx):
                    n = engine.run(
                        ctx, f"MATCH (v:{label.name}) RETURN count(*)"
                    ).scalar()
                    if n:
                        gc_eng[label.name] = n
            gc_eng = ctx.bcast(gc_eng, root=0)
            dt_gc_eng = ctx.clock - t0
            assert gc_hand == gc_eng
            # every point lookup plans index-backed (DHT seek, no scans)
            if ctx.rank == 0:
                plan = engine.explain(ctx, "MATCH (v {id = 0}) RETURN v.id")
                assert "NodeByIdSeek" in plan
                assert "AllNodeScan" not in plan and "LabelScan" not in plan
            return (
                hand_fof,
                eng_fof,
                (dt_bi_hand, dt_bi_eng, dt_gc_hand, dt_gc_eng),
                cache,
            )

        _, res = run_spmd(NRANKS, prog, profile=XC40)
        return res

    res = benchmark.pedantic(run_all, rounds=1, iterations=1)
    hand_fof, eng_fof, bi_times, cache = res[0]
    dt_bi_hand, dt_bi_eng, dt_gc_hand, dt_gc_eng = bi_times

    rows = []
    fof_us = {}
    for name, key, vals in (
        ("hand-coded 2-hop FOF", "hand_fof_us", hand_fof),
        ("engine 2-hop FOF", "eng_fof_us", eng_fof),
    ):
        s = summarize([v * 1e6 for v in vals], warmup_fraction=0.0)
        fof_us[key] = {"mean": round(s.mean, 3), "p95": round(s.p95, 3)}
        rows.append([name, s.n, f"{s.mean:.1f}", f"{s.p95:.1f}"])
    for name, dt in (
        ("hand-coded BI2 aggregate", dt_bi_hand),
        ("engine BI2 aggregate", dt_bi_eng),
        ("hand-coded group-by-label", dt_gc_hand),
        ("engine group-by-label", dt_gc_eng),
    ):
        rows.append([name, 1, f"{dt * 1e6:.1f}", "-"])
    report(
        "query_engine",
        f"Declarative engine vs hand-coded ({NRANKS} ranks, scale "
        f"{PARAMS.scale}) — latencies in us (simulated)\n"
        + format_table(["workload", "n", "mean", "p95"], rows)
        + f"\nplan cache: {cache['hits']} hits / {cache['misses']} misses "
        f"({cache['entries']} cached plans)",
    )
    metrics(
        "query_engine",
        {
            "nranks": NRANKS,
            "scale": PARAMS.scale,
            "edge_factor": PARAMS.edge_factor,
            "n_queries": n_queries,
            "hand_fof_us": fof_us["hand_fof_us"],
            "eng_fof_us": fof_us["eng_fof_us"],
            "bi2_us": {
                "hand": round(dt_bi_hand * 1e6, 3),
                "engine": round(dt_bi_eng * 1e6, 3),
            },
            "group_by_label_us": {
                "hand": round(dt_gc_hand * 1e6, 3),
                "engine": round(dt_gc_eng * 1e6, 3),
            },
            "plan_cache": cache,
        },
    )

    # cached-plan re-execution skips parse+plan entirely
    assert cache["misses"] == 1
    assert cache["hits"] == n_queries - 1
    # declarative execution rides the same batched read paths: parity
    # within a small constant factor of the hand-coded traversals.  The
    # hand-coded BI2 is a collective scan (every rank sweeps its local
    # shards in parallel) while the engine runs the whole query on rank
    # 0 over remote reads, so its bound is ~nranks times looser.
    mean = lambda xs: sum(xs) / len(xs)
    assert mean(eng_fof) < 6 * mean(hand_fof)
    assert dt_bi_eng < 12 * NRANKS * dt_bi_hand

    # perf-smoke gate: engine latencies must stay within tolerance of the
    # committed baseline (simulated time, so fully reproducible in CI)
    if BASELINE_PATH.exists():
        base = json.loads(BASELINE_PATH.read_text())
        tol = 1.0 + base.get("tolerance_pct", 25) / 100.0
        eng_fof_us = mean(eng_fof) * 1e6
        assert eng_fof_us <= base["eng_fof_us_mean"] * tol, (
            f"engine FOF regressed: {eng_fof_us:.1f}us vs baseline "
            f"{base['eng_fof_us_mean']:.1f}us (+{base.get('tolerance_pct', 25)}%)"
        )
        if "bi2_eng_us" in base:
            assert dt_bi_eng * 1e6 <= base["bi2_eng_us"] * tol, (
                f"engine BI2 regressed: {dt_bi_eng * 1e6:.1f}us vs baseline "
                f"{base['bi2_eng_us']:.1f}us (+{base.get('tolerance_pct', 25)}%)"
            )
