"""Moderate-scale smoke test: the full stack at the largest CI-feasible
configuration (scale-12 Kronecker graph, 8 ranks, mixed workloads,
rebalance, consistency sweep)."""

import pytest

from repro.gda import GdaConfig, GdaDatabase
from repro.gda.consistency import check_consistency
from repro.gda.relocate import rebalance
from repro.gdi import EdgeOrientation
from repro.generator import KroneckerParams, build_lpg, default_schema
from repro.rma import XC40, run_spmd
from repro.workloads import (
    MIXES,
    aggregate_oltp,
    bfs,
    load_local_adjacency,
    pagerank,
    run_oltp_rank,
    wcc,
)

PARAMS = KroneckerParams(scale=12, edge_factor=8, seed=111)
NRANKS = 8


@pytest.mark.slow
def test_full_stack_at_scale():
    def prog(ctx):
        db = GdaDatabase.create(
            ctx,
            GdaConfig(
                blocks_per_rank=max(32768, 8 * PARAMS.n_edges // ctx.nranks),
                dht_entries_per_rank=2 * PARAMS.n_vertices,
                lock_max_retries=32,
            ),
        )
        g = build_lpg(ctx, db, PARAMS, default_schema(n_properties=6))
        assert db.num_vertices(ctx) == PARAMS.n_vertices
        ctx.barrier()

        # mixed OLTP from all ranks
        oltp = run_oltp_rank(ctx, g, MIXES["LB"], 100, seed=12)
        ctx.barrier()

        # analytics on the mutated graph
        adj = load_local_adjacency(ctx, g, EdgeOrientation.ANY)
        depths = bfs(ctx, g, 0, adj=adj)
        reached = ctx.allreduce(len(depths))
        pr = pagerank(ctx, g, iterations=5)
        pr_mass = ctx.allreduce(sum(pr.values()))
        comp = wcc(ctx, g, adj=adj)
        n_comp = len(ctx.allreduce(set(comp.values()), op=lambda a, b: a | b))

        # rebalance then verify global invariants
        rebalance(ctx, db)
        report = check_consistency(ctx, db)
        return oltp, reached, pr_mass, n_comp, report

    _, res = run_spmd(NRANKS, prog, profile=XC40)
    oltp_parts = [r[0] for r in res]
    agg = aggregate_oltp(MIXES["LB"], oltp_parts)
    _, reached, pr_mass, n_comp, report = res[0]

    assert agg.n_ops == NRANKS * 100
    assert agg.failed_fraction < 0.25
    assert agg.throughput > 10_000
    assert reached > PARAMS.n_vertices * 0.3  # the giant component
    assert pr_mass == pytest.approx(1.0, abs=1e-6)
    assert 1 <= n_comp < PARAMS.n_vertices
    assert report.ok, report.problems[:8]
    assert report.n_vertices >= PARAMS.n_vertices - NRANKS * 100
