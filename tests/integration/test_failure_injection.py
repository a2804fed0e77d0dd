"""Failure-injection tests: resource exhaustion, crashes, lock leaks."""

import pytest

from repro.gda import GdaConfig, GdaDatabase
from repro.gdi import (
    Datatype,
    GdiLockFailed,
    GdiNoMemory,
    GdiTransactionCritical,
)
from repro.rma import run_spmd


def test_block_exhaustion_is_transaction_critical():
    def prog(ctx):
        # a pool so small that a few vertices exhaust it
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=3))
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            created = 0
            with pytest.raises(GdiNoMemory) as ei:
                for app in range(100):
                    tx.create_vertex(app)
                    created += 1
            assert isinstance(ei.value, GdiTransactionCritical)
            assert tx.failed
            tx.abort()
            # abort returned every pre-acquired block
            total = sum(
                db.blocks.allocated_count(ctx, r) for r in range(ctx.nranks)
            )
            assert total == 0
            # the database remains usable afterwards
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(0)
            tx.commit()
        ctx.barrier()
        return True

    run_spmd(2, prog)


def test_no_lock_leak_after_failed_transaction():
    """After a lock-failure abort, the vertex is lockable again."""

    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(lock_max_retries=2))
        if ctx.rank == 0:
            db.create_property_type(ctx, "x", dtype=Datatype.INT64)
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(1)
            tx.commit()
        ctx.barrier()
        db.replica(ctx).sync()
        x = db.property_type(ctx, "x")
        if ctx.rank == 0:
            # hold a write lock in tx1, fail tx2, abort both
            tx1 = db.start_transaction(ctx, write=True)
            v1 = tx1.associate_vertex(tx1.translate_vertex_id(1))
            v1.set_property(x, 5)
            tx2 = db.start_transaction(ctx, write=True)
            with pytest.raises(GdiLockFailed):
                tx2.associate_vertex(tx2.translate_vertex_id(1))
            tx2.abort()
            tx1.commit()
            # lock word must be fully released: read and write again
            tx3 = db.start_transaction(ctx, write=True)
            v3 = tx3.associate_vertex(tx3.translate_vertex_id(1))
            assert v3.property(x) == 5
            v3.set_property(x, 6)
            tx3.commit()
        ctx.barrier()
        return True

    run_spmd(2, prog)


def test_rank_crash_mid_collective_poisons_peers():
    """A rank dying inside a collective transaction must not hang the
    others; the executor surfaces the failure."""
    from repro.rma import SpmdError

    def prog(ctx):
        db = GdaDatabase.create(ctx)
        tx = db.start_collective_transaction(ctx, write=True)
        if ctx.rank == 1:
            raise RuntimeError("injected crash")
        tx.create_vertex(1000 + ctx.rank)
        tx.commit()  # would deadlock on the commit barrier without poison
        return True

    with pytest.raises(SpmdError):
        run_spmd(3, prog)


def test_oversized_property_fails_cleanly():
    """A property too large for the block-addressing capacity fails the
    transaction without corrupting the vertex."""

    def prog(ctx):
        db = GdaDatabase.create(
            ctx, GdaConfig(block_size=128, blocks_per_rank=4096)
        )
        if ctx.rank == 0:
            db.create_property_type(ctx, "blob", dtype=Datatype.BYTES)
            blob = db.property_type(ctx, "blob")
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(1, properties=[(blob, b"ok")])
            tx.commit()
            # 1 MB exceeds the 128-byte-block addressing ceiling
            tx = db.start_transaction(ctx, write=True)
            v = tx.associate_vertex(tx.translate_vertex_id(1))
            v.set_property(blob, b"x" * 1_000_000)
            with pytest.raises(GdiNoMemory):
                tx.commit()
            tx2 = db.start_transaction(ctx)
            v = tx2.associate_vertex(tx2.translate_vertex_id(1))
            assert v.property(blob) == b"ok"  # original value intact
            tx2.commit()
        ctx.barrier()
        return True

    run_spmd(1, prog)


def test_oversized_edge_property_fails_before_the_commit_point():
    """A heavy edge holder too large to address fails its commit with
    nothing logged, as an oversized vertex does: what can refuse a
    commit without a fault is checked before the record is appended."""

    def prog(ctx):
        db = GdaDatabase.create(
            ctx, GdaConfig(block_size=128, blocks_per_rank=4096)
        )
        db.create_property_type(ctx, "blob", dtype=Datatype.BYTES)
        blob = db.property_type(ctx, "blob")
        tx = db.start_transaction(ctx, write=True)
        a, b = tx.create_vertex(1), tx.create_vertex(2)
        tx.create_edge(a, b, properties=[(blob, b"ok")])
        tx.commit()
        logged = len(db.commit_log)
        tx = db.start_transaction(ctx, write=True)
        (edge,) = tx.find_vertex(1).edges()
        edge.set_property(blob, b"x" * 1_000_000)
        with pytest.raises(GdiNoMemory):
            tx.commit()
        assert len(db.commit_log) == logged
        tx = db.start_transaction(ctx)
        (edge,) = tx.find_vertex(1).edges()
        assert edge.property(blob) == b"ok"
        tx.commit()

    run_spmd(1, prog)


def test_failed_fraction_counted_in_stats():
    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(lock_max_retries=1))
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(1)
            tx.commit()
        ctx.barrier()
        failures = 0
        for _ in range(5):
            tx = db.start_transaction(ctx, write=True)
            try:
                v = tx.associate_vertex(tx.translate_vertex_id(1))
                v.add_label  # touch
                v.set_property
                tx.commit()
            except GdiTransactionCritical:
                tx.abort()
                failures += 1
        ctx.barrier()
        stats = db.total_stats()
        assert stats.failed == ctx.allreduce(failures)
        assert stats.started == stats.committed + stats.aborted
        return True

    run_spmd(3, prog)
