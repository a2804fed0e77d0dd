"""Database lifecycle: metadata enumeration/drops, teardown, stale aborts."""

import pytest

from repro.gda import GdaConfig, GdaDatabase
from repro.gdi import Datatype, GdiStaleMetadata
from repro.rma import run_spmd
from repro.rma.window import WindowError


def test_every_database_runs_mvcc():
    """There is one database configuration: ``mvcc=False`` is refused,
    and every database owns its snapshot manager."""
    with pytest.raises(ValueError):
        GdaConfig(mvcc=False)
    assert GdaConfig(mvcc=True) == GdaConfig()
    _, res = run_spmd(2, lambda ctx: GdaDatabase.create(ctx).mvcc is not None)
    assert res == [True, True]


def test_all_labels_and_ptypes_in_creation_order():
    def prog(ctx):
        db = GdaDatabase.create(ctx)
        if ctx.rank == 0:
            for name in ("A", "B", "C"):
                db.create_label(ctx, name)
            db.create_property_type(ctx, "x", dtype=Datatype.INT64)
            db.create_property_type(ctx, "y", dtype=Datatype.DOUBLE)
        ctx.barrier()
        db.replica(ctx).sync()
        return (
            [l.name for l in db.all_labels(ctx)],
            [p.name for p in db.all_property_types(ctx)],
        )

    _, res = run_spmd(2, prog)
    assert res[0] == (["A", "B", "C"], ["x", "y"])
    assert res[1] == res[0]


def test_drop_label_propagates_lazily_and_data_access_aborts():
    """A vertex carrying a dropped label raises GdiStaleMetadata when the
    label is resolved — the eventual-consistency abort path."""

    def prog(ctx):
        db = GdaDatabase.create(ctx)
        if ctx.rank == 0:
            label = db.create_label(ctx, "temp")
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(1, labels=[label])
            tx.commit()
            db.drop_label(ctx, label)
            # our own replica already dropped it: reading aborts
            tx = db.start_transaction(ctx)
            v = tx.associate_vertex(tx.translate_vertex_id(1))
            with pytest.raises(GdiStaleMetadata):
                v.labels()
            assert tx.failed is False  # read itself not failed...
            tx.abort()
        ctx.barrier()
        return True

    _, res = run_spmd(2, prog)
    assert all(res)


def test_drop_property_type_then_reading_value_aborts():
    def prog(ctx):
        db = GdaDatabase.create(ctx)
        if ctx.rank == 0:
            pt = db.create_property_type(ctx, "x", dtype=Datatype.INT64)
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(1, properties=[(pt, 5)])
            tx.commit()
            db.drop_property_type(ctx, pt)
            tx = db.start_transaction(ctx)
            v = tx.associate_vertex(tx.translate_vertex_id(1))
            with pytest.raises(GdiStaleMetadata):
                v.all_properties()
            tx.abort()
        ctx.barrier()
        return True

    run_spmd(1, prog)


def test_destroy_frees_windows():
    def prog(ctx):
        db = GdaDatabase.create(ctx)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(1)
            tx.commit()
        ctx.barrier()
        db.destroy(ctx)
        if ctx.rank == 0:
            with pytest.raises(WindowError):
                db.blocks.read_block(ctx, 0)
        ctx.barrier()
        return True

    _, res = run_spmd(2, prog)
    assert all(res)


def test_destroyed_database_name_reusable():
    """Window names are namespaced per instance; create-destroy-create
    cycles must not collide."""

    def prog(ctx):
        for _ in range(3):
            db = GdaDatabase.create(ctx)
            db.destroy(ctx)
        return True

    _, res = run_spmd(2, prog)
    assert all(res)
