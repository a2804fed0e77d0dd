"""Declarative query engine: local and collective execution.

The interactive and BI workloads are engine texts.  This benchmark times
the 2-hop friends-of-friends query (local, on rank 0) in two forms —
``RETURN b.id``, which reads every second-hop vertex, and
``RETURN count(DISTINCT b)``, which binds them by the internal IDs its
first hop's slots name and reads none of them — then BI2 run
collectively (``bi2_style_query``: every rank sweeps its own shard and
the engine combines the rows) against the same text run locally on rank
0, and the hand-coded group-by-label sweep against one engine
``count(*)`` per label, locally and collectively.  Also demonstrates
that cached plan re-execution skips parse+plan (plan-cache hit counters)
and that point-lookup queries are planned index-backed, never as full
scans.
"""

import json
import pathlib
import random

from repro.analysis import summarize
from repro.analysis.scaling import format_table
from repro.gda import GdaConfig, GdaDatabase
from repro.generator import KroneckerParams, build_lpg, default_schema
from repro.query import QueryEngine, run_reference
from repro.rma import XC40, run_spmd
from repro.workloads import friends_of_friends
from repro.workloads.bi import bi2_style_query, group_count_by_label

from conftest import bench_ops

PARAMS = KroneckerParams(scale=8, edge_factor=8, seed=67)
NRANKS = 4


def bi2_text(g) -> str:
    return (
        f"MATCH (per:{g.vertex_label(0).name})-[:{g.edge_label(0).name}]->"
        f"(v:{g.vertex_label(1).name}) WHERE per.p_score > $sv "
        "AND v.p_active = $dv RETURN count(DISTINCT per)"
    )


#: the count-only FOF: its second hop is bound without a read
FOF_COUNT = "MATCH (a {id = $src})-[*1..2]-(b) RETURN count(DISTINCT b)"

#: Committed perf-smoke baseline: engine FOF latency the CI gate holds
#: the tree to (simulated time is deterministic, so a tight bound works).
BASELINE_PATH = pathlib.Path(__file__).parent / "baselines" / "perf_smoke.json"


def _label_counts(ctx, db, engine, tx=None):
    """One engine ``count(*)`` per label (collective when ``tx`` is)."""
    counts = {}
    for label in db.all_labels(ctx):
        n = engine.run(ctx, f"MATCH (v:{label.name}) RETURN count(*)", tx=tx).scalar()
        if n:
            counts[label.name] = n
    return counts


def test_query_engine_local_and_collective(benchmark, report, metrics):
    n_queries = max(10, bench_ops() // 8)

    def run_all():
        def prog(ctx):
            db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=16384))
            g = build_lpg(ctx, db, PARAMS, default_schema())
            engine = QueryEngine.of(db)  # friends_of_friends' engine
            rng = random.Random(f"qe/{ctx.rank}")
            fof, fof_count = [], []
            cache = None
            if ctx.rank == 0:
                srcs = [rng.randrange(PARAMS.n_vertices) for _ in range(n_queries)]
                reached = []
                for src in srcs:
                    t0 = ctx.clock
                    reached.append(len(friends_of_friends(ctx, g, src, hops=2)))
                    fof.append(ctx.clock - t0)
                # the loop reuses one query text: all but the first run hit
                cache = dict(engine.cache_info(ctx))
                for src, n in zip(srcs, reached):
                    t0 = ctx.clock
                    assert engine.run(ctx, FOF_COUNT, {"src": src}).scalar() == n
                    fof_count.append(ctx.clock - t0)
            ctx.barrier()
            t0 = ctx.clock
            bi_coll = bi2_style_query(ctx, g, min_score=50.0)
            dt_bi_coll = ctx.clock - t0
            bi_local = dt_bi_local = None
            params = {"sv": 50.0, "dv": True}
            if ctx.rank == 0:
                t0 = ctx.clock
                bi_local = engine.run(ctx, bi2_text(g), params).scalar()
                dt_bi_local = ctx.clock - t0
                assert bi_local == bi_coll
                assert run_reference(ctx, db, bi2_text(g), params).scalar() == bi_coll
            ctx.barrier()
            t0 = ctx.clock
            gc_hand = group_count_by_label(ctx, g)
            dt_gc_hand = ctx.clock - t0
            gc_local = dt_gc_local = None
            if ctx.rank == 0:
                t0 = ctx.clock
                gc_local = _label_counts(ctx, db, engine)
                dt_gc_local = ctx.clock - t0
                assert gc_local == gc_hand
            ctx.barrier()
            t0 = ctx.clock
            tx = db.start_collective_transaction(ctx)
            gc_coll = _label_counts(ctx, db, engine, tx)
            tx.commit()
            dt_gc_coll = ctx.clock - t0
            assert gc_coll == gc_hand
            # every point lookup plans index-backed (DHT seek, no scans)
            if ctx.rank == 0:
                plan = engine.explain(ctx, "MATCH (v {id = 0}) RETURN v.id")
                assert "NodeByIdSeek" in plan
                assert "AllNodeScan" not in plan and "LabelScan" not in plan
            return (
                (fof, fof_count),
                (dt_bi_coll, dt_bi_local, dt_gc_hand, dt_gc_local, dt_gc_coll),
                cache,
            )

        _, res = run_spmd(NRANKS, prog, profile=XC40)
        return res

    res = benchmark.pedantic(run_all, rounds=1, iterations=1)
    (fof, fof_count), times, cache = res[0]
    dt_bi_coll, dt_bi_local, dt_gc_hand, dt_gc_local, dt_gc_coll = times

    s = summarize([v * 1e6 for v in fof], warmup_fraction=0.0)
    fof_us = {"mean": round(s.mean, 3), "p95": round(s.p95, 3)}
    rows = [["engine 2-hop FOF, local", s.n, f"{s.mean:.1f}", f"{s.p95:.1f}"]]
    s = summarize([v * 1e6 for v in fof_count], warmup_fraction=0.0)
    fof_count_us = {"mean": round(s.mean, 3), "p95": round(s.p95, 3)}
    rows.append(["engine 2-hop FOF count only, local", s.n, f"{s.mean:.1f}", f"{s.p95:.1f}"])
    for name, dt in (
        ("engine BI2, collective", dt_bi_coll),
        ("engine BI2, local on rank 0", dt_bi_local),
        ("hand-coded group-by-label, collective", dt_gc_hand),
        ("engine group-by-label, local on rank 0", dt_gc_local),
        ("engine group-by-label, collective", dt_gc_coll),
    ):
        rows.append([name, 1, f"{dt * 1e6:.1f}", "-"])
    report(
        "query_engine",
        f"Query engine, local and collective ({NRANKS} ranks, scale "
        f"{PARAMS.scale}) — latencies in us (simulated)\n"
        + format_table(["workload", "n", "mean", "p95"], rows)
        + f"\nplan cache: {cache['hits']} hits / {cache['misses']} misses "
        f"({cache['entries']} cached plans after the FOF loop)",
    )
    metrics(
        "query_engine",
        {
            "nranks": NRANKS,
            "scale": PARAMS.scale,
            "edge_factor": PARAMS.edge_factor,
            "n_queries": n_queries,
            "eng_fof_us": fof_us,
            "eng_fof_count_us": fof_count_us,
            "bi2_us": {
                "collective": round(dt_bi_coll * 1e6, 3),
                "local": round(dt_bi_local * 1e6, 3),
            },
            "group_by_label_us": {
                "hand": round(dt_gc_hand * 1e6, 3),
                "local": round(dt_gc_local * 1e6, 3),
                "collective": round(dt_gc_coll * 1e6, 3),
            },
            "plan_cache": cache,
        },
    )

    # cached-plan re-execution skips parse+plan entirely
    assert cache["misses"] == 1
    assert cache["hits"] == n_queries - 1
    # every rank sweeps its own shard: the collective run beats one rank
    # reading every shard
    assert dt_bi_coll < dt_bi_local
    assert dt_gc_coll < dt_gc_local

    # perf-smoke gate: engine latencies must stay within tolerance of the
    # committed baseline (simulated time, so fully reproducible in CI)
    mean = lambda xs: sum(xs) / len(xs)
    if BASELINE_PATH.exists():
        base = json.loads(BASELINE_PATH.read_text())
        tol = 1.0 + base.get("tolerance_pct", 25) / 100.0
        eng_fof_us = mean(fof) * 1e6
        assert eng_fof_us <= base["eng_fof_us_mean"] * tol, (
            f"engine FOF regressed: {eng_fof_us:.1f}us vs baseline "
            f"{base['eng_fof_us_mean']:.1f}us (+{base.get('tolerance_pct', 25)}%)"
        )
        eng_fof_count_us = mean(fof_count) * 1e6
        assert eng_fof_count_us <= base["eng_fof_count_us_mean"] * tol, (
            f"engine count-only FOF regressed: {eng_fof_count_us:.1f}us vs "
            f"baseline {base['eng_fof_count_us_mean']:.1f}us "
            f"(+{base.get('tolerance_pct', 25)}%)"
        )
        if "bi2_eng_us" in base:
            assert dt_bi_local * 1e6 <= base["bi2_eng_us"] * tol, (
                f"engine BI2 regressed: {dt_bi_local * 1e6:.1f}us vs baseline "
                f"{base['bi2_eng_us']:.1f}us (+{base.get('tolerance_pct', 25)}%)"
            )
