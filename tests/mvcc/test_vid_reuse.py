"""Snapshot isolation when a deleted vertex's block is reused.

The live DHT is not gated by a snapshot's watermark: an application ID
created after the watermark translates to its (possibly recycled) vid,
and the snapshot's cache may already hold that vid as the vertex it was
at the watermark.  A cache hit is only a hit for the application ID the
cached holder carries; for any other ID it is the *recycled* row of
``ReadView.fetch`` — a miss.
"""

import pytest

from repro.gda import GdaConfig, GdaDatabase
from repro.gdi import Datatype
from repro.gdi.errors import GdiNotFound
from repro.rma import run_spmd


def _on_rank0(body):
    """Run ``body(ctx, db, xprop)`` on rank 0 of a two-rank MVCC database."""

    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=4096))
        if ctx.rank == 0:
            db.create_property_type(ctx, "x", dtype=Datatype.INT64)
        ctx.barrier()
        db.replica(ctx).sync()
        out = body(ctx, db, db.property_type(ctx, "x")) if ctx.rank == 0 else None
        ctx.barrier()
        return out

    return run_spmd(2, prog)[1][0]


def _commit(ctx, db, body):
    tx = db.start_transaction(ctx, write=True)
    out = body(tx)
    tx.commit()
    return out


def _create(ctx, db, xprop, app, x):
    return _commit(
        ctx, db, lambda tx: tx.create_vertex(app, properties=[(xprop, x)]).vid
    )


def _delete(ctx, db, app):
    _commit(ctx, db, lambda tx: tx.delete_vertex(tx.find_vertex(app)))


@pytest.mark.parametrize("order", [(0, 2), (2, 0)])
def test_snapshot_does_not_serve_a_cached_preimage_for_the_reusing_id(order):
    """``create 0 | S | delete 0 | create 2`` (2 reuses the block of 0):
    S sees vertex 0 and no vertex 2, whichever it asks for first."""

    def body(ctx, db, xprop):
        vid0 = _create(ctx, db, xprop, 0, 10)
        snap = db.start_transaction(ctx, snapshot=True)
        _delete(ctx, db, 0)
        vid2 = _create(ctx, db, xprop, 2, 20)
        assert vid2 == vid0, "the scenario needs the block to be reused"
        seen = {}
        for app in order:
            v = snap.find_vertex(app)
            seen[app] = None if v is None else (v.app_id, v.property(xprop))
        snap.commit()
        return seen

    assert _on_rank0(body) == {0: (0, 10), 2: None}


def test_snapshot_keeps_the_old_vertex_of_a_recreated_id():
    """``create 0, 2 | S | delete 0 | delete 2 | create 0``: the new 0
    lands in the block S has cached as vertex 2; S still finds the old 0
    (through its tombstone) and the old 2, a later snapshot the new 0."""

    def body(ctx, db, xprop):
        _create(ctx, db, xprop, 0, 10)
        vid2 = _create(ctx, db, xprop, 2, 20)
        snap = db.start_transaction(ctx, snapshot=True)
        _delete(ctx, db, 0)
        _delete(ctx, db, 2)
        assert _create(ctx, db, xprop, 0, 11) == vid2, "block of 2 reused"
        later = db.start_transaction(ctx, snapshot=True)
        seen = []
        for tx in (snap, later):
            for app in (2, 0):
                v = tx.find_vertex(app)
                seen.append(None if v is None else (v.app_id, v.property(xprop)))
            tx.commit()
        return seen

    assert _on_rank0(body) == [(2, 20), (0, 10), None, (0, 11)]


def test_snapshot_keeps_the_old_vertex_when_its_own_block_is_reused():
    """``create 0 | S | delete 0 | create 0`` in the same block."""

    def body(ctx, db, xprop):
        vid = _create(ctx, db, xprop, 0, 10)
        snap = db.start_transaction(ctx, snapshot=True)
        _delete(ctx, db, 0)
        assert _create(ctx, db, xprop, 0, 11) == vid
        first = snap.find_vertex(0).property(xprop)
        again = snap.find_vertex(0).property(xprop)  # now a cache hit
        snap.commit()
        return first, again

    assert _on_rank0(body) == (10, 10)


@pytest.mark.parametrize("columnar", [False, True])
def test_cached_vertex_is_a_miss_for_another_expected_id(columnar):
    """Both cache branches of ``Transaction._load``: an entry of the
    vertex cache, and a row a bulk scan left in its columnar batch."""

    def body(ctx, db, xprop):
        n = 80 if columnar else 3  # a scan is columnar from 64 holders on
        vids = _commit(
            ctx, db, lambda tx: [tx.create_vertex(a).vid for a in range(n)]
        )
        snap = db.start_transaction(ctx, snapshot=True)
        snap.associate_vertices(vids)
        assert (vids[1] in snap._scanned) == columnar
        assert (vids[1] in snap._vertices) != columnar
        assert snap.load_vertices(
            vids[:3], expected_app_ids={vids[1]: 7}, missing_ok=True
        )[1] is None
        with pytest.raises(GdiNotFound, match="recycled"):
            snap.load_vertices([vids[1]], expected_app_ids={vids[1]: 7})
        # the entry itself stays valid for its own ID
        hit = snap.load_vertices([vids[1]], expected_app_ids={vids[1]: 1})
        snap.commit()
        return hit[0].holder.app_id

    assert _on_rank0(body) == 1


def test_sweep_lists_a_vid_deleted_twice_once():
    """``create 0 | S | delete 0 | create 0 | delete 0`` in one block: the
    tombstones list the vid once per deleted incarnation, and the
    directory sweep of S (``visible_vertices``) enumerates it once."""

    def body(ctx, db, xprop):
        vid = _create(ctx, db, xprop, 0, 10)
        snap = db.start_transaction(ctx, snapshot=True)
        _delete(ctx, db, 0)
        assert _create(ctx, db, xprop, 0, 11) == vid
        _delete(ctx, db, 0)
        tombstones = db.mvcc.deleted_vids(ctx.rank, snap.snapshot_watermark)
        swept = snap.visible_vertices(db.directory.local_vertices(ctx), ctx.rank)
        snap.commit()
        return vid, tombstones, swept

    vid, tombstones, swept = _on_rank0(body)
    assert tombstones == [vid, vid]
    assert swept == [vid]
