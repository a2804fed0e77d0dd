"""Global consistency sweeps after build, mutation storms, and recovery."""

import pytest

from repro.gda import GdaConfig, GdaDatabase
from repro.gda.checkpoint import restore, snapshot
from repro.gda.consistency import check_consistency
from repro.gda.relocate import rebalance
from repro.generator import (
    KroneckerParams,
    LpgSchema,
    PropertySpec,
    build_lpg,
    default_schema,
)
from repro.gdi import Datatype
from repro.gdi.constants import EntityType
from repro.rma import run_spmd
from repro.workloads import MIXES, run_oltp_rank

PARAMS = KroneckerParams(scale=6, edge_factor=4, seed=99)
SCHEMA = default_schema(n_vertex_labels=3, n_edge_labels=2, n_properties=5)


def test_freshly_built_graph_is_consistent():
    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=16384))
        g = build_lpg(ctx, db, PARAMS, SCHEMA)
        report = check_consistency(ctx, db)
        return report, g.n_edges_loaded

    _, res = run_spmd(3, prog)
    report, n_edges = res[0]
    assert report.ok, report.problems[:5]
    assert report.n_vertices == PARAMS.n_vertices
    assert report.n_lightweight_slots > 0
    assert report.blocks_allocated == report.blocks_reachable


def test_heavy_edge_graph_is_consistent():
    schema = LpgSchema(
        n_vertex_labels=2,
        n_edge_labels=1,
        properties=[
            PropertySpec("w", Datatype.DOUBLE, entity_type=EntityType.EDGE)
        ],
        heavy_edge_fraction=0.4,
    )

    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=16384))
        build_lpg(ctx, db, PARAMS, schema)
        return check_consistency(ctx, db)

    _, res = run_spmd(2, prog)
    assert res[0].ok, res[0].problems[:5]
    assert res[0].n_edge_holders > 0


def test_consistent_after_concurrent_oltp_storm():
    """The big one: concurrent WI mutations from all ranks must leave
    every invariant intact."""

    def prog(ctx):
        db = GdaDatabase.create(
            ctx, GdaConfig(blocks_per_rank=32768, lock_max_retries=16)
        )
        g = build_lpg(ctx, db, PARAMS, SCHEMA)
        ctx.barrier()
        run_oltp_rank(ctx, g, MIXES["WI"], 120, seed=4)
        ctx.barrier()
        return check_consistency(ctx, db)

    _, res = run_spmd(4, prog)
    assert res[0].ok, res[0].problems[:8]


def test_consistent_after_rebalance():
    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=16384))
        build_lpg(ctx, db, PARAMS, SCHEMA)
        plan = {}
        if ctx.rank == 0:
            plan = {vid: 1 for vid in db.directory.local_vertices(ctx)[:10]}
        rebalance(ctx, db, plan)
        return check_consistency(ctx, db)

    _, res = run_spmd(3, prog)
    assert res[0].ok, res[0].problems[:8]


def test_consistent_after_restore():
    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=16384))
        build_lpg(ctx, db, PARAMS, SCHEMA)
        snap = snapshot(ctx, db)
        db2 = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=16384))
        restore(ctx, db2, snap)
        return check_consistency(ctx, db2)

    _, res = run_spmd(2, prog)
    assert res[0].ok, res[0].problems[:8]


def test_checker_detects_injected_corruption():
    """Negative control: the checker must actually catch broken graphs."""

    def prog(ctx):
        db = GdaDatabase.create(ctx)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            a, b = tx.create_vertex(1), tx.create_vertex(2)
            tx.create_edge(a, b)
            tx.commit()
            # corrupt: remove b's reciprocal slot behind the engine's back
            tx = db.start_transaction(ctx, write=True)
            bb = tx.associate_vertex(tx.translate_vertex_id(2))
            bb._txv.holder.remove_slot(bb._txv.holder.edges[0])
            tx._mark_dirty(bb._txv)
            tx.commit()
        ctx.barrier()
        return check_consistency(ctx, db)

    _, res = run_spmd(2, prog)
    assert not res[0].ok
    assert any("reciprocal" in p for p in res[0].problems)
