"""A bulk load must not leave its pre-images behind.

``build_lpg`` is a handful of collective commits — far fewer than the
``mvcc_gc_interval`` applied commits that trigger the opportunistic GC —
yet each installs one pre-image per vertex it touches.  On a database
that is only read afterwards nothing would ever reclaim them, and every
snapshot read would pay a chain lookup that can only miss.
"""

from repro.gda import GdaConfig, GdaDatabase
from repro.generator import KroneckerParams, build_lpg, default_schema
from repro.rma import run_spmd

PARAMS = KroneckerParams(scale=6, edge_factor=4, seed=3)
SCHEMA = default_schema(n_vertex_labels=4, n_edge_labels=2, n_properties=2)
CFG = GdaConfig(blocks_per_rank=8192)


def test_fresh_graph_holds_no_chain_entries():
    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        build_lpg(ctx, db, PARAMS, SCHEMA)
        ctx.barrier()
        return db.mvcc.versions.total_entries(), db.mvcc.total_reclaimed

    _, res = run_spmd(2, prog)
    for live, reclaimed in res:
        assert live == 0
        # the load did install pre-images (one per created vertex, one per
        # vertex that gained edges); the collect at its end took them all
        assert reclaimed >= PARAMS.n_vertices


def test_open_snapshot_still_pins_the_loads_pre_images():
    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        # taken before the load: every pre-image the load installs is the
        # state this snapshot must still be able to read
        pin = db.mvcc.begin_snapshot(0) if ctx.rank == 0 else None
        ctx.barrier()
        g = build_lpg(ctx, db, PARAMS, SCHEMA)
        ctx.barrier()
        pinned = db.mvcc.versions.total_entries()
        hidden = None
        if ctx.rank == 0:
            # at the old watermark the graph does not exist yet
            assert db.mvcc.versions.resolve(("v", g.vid_map[0]), pin.watermark) == (
                True,
                None,
            )
            hidden = pinned
            pin.close()
            db.mvcc.collect(ctx)
        ctx.barrier()
        return hidden, db.mvcc.versions.total_entries()

    _, res = run_spmd(2, prog)
    assert res[0][0] >= PARAMS.n_vertices  # held while the snapshot was open
    assert all(after == 0 for _, after in res)  # and released with it
