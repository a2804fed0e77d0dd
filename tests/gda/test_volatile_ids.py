"""Tests for volatile vs permanent internal IDs (paper Section 3.4)."""

import numpy as np
import pytest

from repro.gda import GdaDatabase, VolatileVertexId
from repro.gdi import GdiStateError
from repro.rma import run_spmd


def _with_db(fn):
    def prog(ctx):
        db = GdaDatabase.create(ctx)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(1)
            tx.create_vertex(2)
            tx.commit()
        ctx.barrier()
        return fn(ctx, db)

    return run_spmd(2, prog)


def test_volatile_id_valid_within_transaction():
    def body(ctx, db):
        if ctx.rank == 0:
            tx = db.start_transaction(ctx)
            vid = tx.translate_vertex_id(1, volatile=True)
            assert isinstance(vid, VolatileVertexId)
            vh = tx.associate_vertex(vid)
            assert vh.app_id == 1
            tx.commit()
        ctx.barrier()
        return True

    _with_db(test_body := body)


def test_volatile_id_rejected_in_other_transaction():
    def body(ctx, db):
        if ctx.rank == 0:
            tx1 = db.start_transaction(ctx)
            vid = tx1.translate_vertex_id(1, volatile=True)
            tx1.commit()
            tx2 = db.start_transaction(ctx)
            with pytest.raises(GdiStateError):
                tx2.associate_vertex(vid)
            # ... in a batch too, even one passed as an object array
            batch = np.empty(1, dtype=object)
            batch[0] = vid
            with pytest.raises(GdiStateError):
                tx2.associate_vertices(batch)
            tx2.commit()
        ctx.barrier()
        return True

    _with_db(body)


def test_permanent_id_shared_across_transactions():
    def body(ctx, db):
        if ctx.rank == 0:
            tx1 = db.start_transaction(ctx)
            vid = tx1.translate_vertex_id(2)  # permanent (default)
            tx1.commit()
            tx2 = db.start_transaction(ctx)
            assert tx2.associate_vertex(vid).app_id == 2
            tx2.commit()
        ctx.barrier()
        return True

    _with_db(body)


def test_volatile_ids_distinct_per_translation():
    def body(ctx, db):
        if ctx.rank == 0:
            tx = db.start_transaction(ctx)
            a = tx.translate_vertex_id(1, volatile=True)
            b = tx.translate_vertex_id(2, volatile=True)
            assert a != b
            assert tx.associate_vertex(a).app_id == 1
            assert tx.associate_vertex(b).app_id == 2
            tx.commit()
        ctx.barrier()
        return True

    _with_db(body)


def test_volatile_id_of_created_vertex():
    def body(ctx, db):
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(77)
            vid = tx.translate_vertex_id(77, volatile=True)
            assert tx.associate_vertex(vid).app_id == 77
            tx.commit()
        ctx.barrier()
        return True

    _with_db(body)
