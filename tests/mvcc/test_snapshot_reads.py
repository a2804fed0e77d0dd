"""Integration tests: snapshot transactions against a live database.

Covers the visibility rule end to end — frozen vertex/edge state, deleted
objects still reachable through unpublish tombstones, created-after
objects invisible, collective snapshots sharing one watermark, watermark
GC reclaiming superseded versions, and lock freedom (a snapshot read
never blocks on or aborts against a concurrent writer's lock).
The race tests at the end run a writer's commit in the middle of a
projected snapshot read or between a read and the hydration of its
missing parts: the reader must still see the state at its watermark.
"""

from repro.gda import GdaConfig, GdaDatabase
from repro.gda.holder import NEED_ENTRIES, NEED_IDENT, NEED_TOPO, HolderBatch
from repro.gdi import Datatype, EdgeOrientation
from repro.rma import run_spmd

CFG = GdaConfig(blocks_per_rank=2048)


def _schema(ctx, db):
    if ctx.rank == 0:
        db.create_label(ctx, "red")
        db.create_label(ctx, "blue")
        db.create_label(ctx, "owns")
        db.create_property_type(ctx, "x", dtype=Datatype.INT64)
    ctx.barrier()
    db.replica(ctx).sync()
    return (
        db.label(ctx, "red"),
        db.label(ctx, "blue"),
        db.label(ctx, "owns"),
        db.property_type(ctx, "x"),
    )


def test_snapshot_sees_frozen_state_across_later_commits():
    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        red, blue, owns, x = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            for app in range(8):
                v = tx.create_vertex(app, properties=[(x, app)])
                v.add_label(red)
            tx.commit()

            snap = db.start_transaction(ctx, snapshot=True)
            w = snap.snapshot_watermark
            assert w is not None and w >= 1

            # later commits: delete 0, relabel 1, update 2, create 100
            tx = db.start_transaction(ctx, write=True)
            tx.delete_vertex(tx.find_vertex(0))
            v1 = tx.find_vertex(1)
            v1.remove_label(red)
            v1.add_label(blue)
            tx.find_vertex(2).set_property(x, 999)
            tx.create_vertex(100)
            tx.commit()

            # the open snapshot still reads the pre-commit state:
            v0 = snap.find_vertex(0)  # deleted later; tombstone recovers it
            assert v0 is not None and v0.property(x) == 0
            v1 = snap.find_vertex(1)
            assert {l.name for l in v1.labels()} == {"red"}
            assert snap.find_vertex(2).property(x) == 2
            assert snap.find_vertex(100) is None  # created after W
            snap.commit()

            # a fresh snapshot sees the post-commit state
            snap2 = db.start_transaction(ctx, snapshot=True)
            assert snap2.snapshot_watermark > w
            assert snap2.find_vertex(0) is None
            assert {l.name for l in snap2.find_vertex(1).labels()} == {"blue"}
            assert snap2.find_vertex(2).property(x) == 999
            assert snap2.find_vertex(100) is not None
            snap2.commit()
        ctx.barrier()
        return True

    run_spmd(2, prog)


def test_snapshot_freezes_heavyweight_edge_properties():
    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        red, blue, owns, x = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            a = tx.create_vertex(1)
            b = tx.create_vertex(2)
            # properties force the heavyweight representation
            tx.create_edge(a, b, label=owns, properties=[(x, 7)])
            tx.commit()

            snap = db.start_transaction(ctx, snapshot=True)

            tx = db.start_transaction(ctx, write=True)
            (e,) = tx.find_vertex(1).edges(EdgeOrientation.OUTGOING)
            assert e.heavy
            e.set_property(x, 8)
            tx.commit()

            (es,) = snap.find_vertex(1).edges(EdgeOrientation.OUTGOING)
            assert es.property(x) == 7  # frozen pre-image
            snap.commit()
            tx = db.start_transaction(ctx)
            (e,) = tx.find_vertex(1).edges(EdgeOrientation.OUTGOING)
            assert e.property(x) == 8
            tx.commit()
        ctx.barrier()
        return True

    run_spmd(2, prog)


def test_snapshot_read_never_blocks_on_writer_locks():
    """A write transaction holds the vertex's write lock; a snapshot read
    of the same vertex succeeds immediately (no lock word touched)."""

    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        red, blue, owns, x = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(1, properties=[(x, 1)])
            tx.commit()

            writer = db.start_transaction(ctx, write=True)
            wv = writer.find_vertex(1)  # takes the write lock
            wv.set_property(x, 2)

            snap = db.start_transaction(ctx, snapshot=True)
            sv = snap.find_vertex(1)
            assert sv.property(x) == 1  # locked vertex read lock-free
            snap.commit()
            writer.commit()

            # the uncommitted value was never visible; now it is
            snap2 = db.start_transaction(ctx, snapshot=True)
            assert snap2.find_vertex(1).property(x) == 2
            snap2.commit()
            assert ctx.rt.trace.counters[0].snapshot_reads > 0
        ctx.barrier()
        return True

    run_spmd(2, prog)


def test_collective_snapshot_shares_one_watermark():
    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        red, blue, owns, x = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            for app in range(12):
                tx.create_vertex(app, properties=[(x, app)])
            tx.commit()
        ctx.barrier()
        stx = db.start_collective_transaction(ctx, snapshot=True)
        w = stx.snapshot_watermark
        ws = ctx.allgather(w)
        assert all(v == w for v in ws)  # one broadcast watermark
        vids = stx.visible_vertices(db.directory.local_vertices(ctx), ctx.rank)
        handles = stx.associate_vertices(vids, missing_ok=True)
        total = ctx.allreduce(sum(1 for h in handles if h is not None))
        assert total == 12
        stx.commit()
        assert db.mvcc.live_snapshots() == 0  # every rank released its share
        ctx.barrier()
        return True

    run_spmd(3, prog)


def test_watermark_gc_reclaims_superseded_versions():
    def prog(ctx):
        # a tiny GC interval so the opportunistic pass runs mid-test
        db = GdaDatabase.create(
            ctx, GdaConfig(blocks_per_rank=2048, mvcc_gc_interval=4)
        )
        red, blue, owns, x = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(1, properties=[(x, 0)])
            tx.commit()
            # many superseding commits with no snapshot open: the
            # opportunistic GC keeps the chain bounded as it goes
            for i in range(20):
                tx = db.start_transaction(ctx, write=True)
                tx.find_vertex(1).set_property(x, i)
                tx.commit()
            assert db.mvcc.versions.chain_len(("v", 1)) < 20
            assert db.mvcc.total_reclaimed > 0
            # a final explicit pass empties the store entirely
            db.mvcc.collect(ctx)
            assert db.mvcc.versions.total_entries() == 0
            assert ctx.rt.trace.counters[0].versions_installed >= 20
            assert db.mvcc.total_reclaimed > 0
            assert db.mvcc.gc_floor_high == db.mvcc.watermark
        ctx.barrier()
        return True

    run_spmd(2, prog)


def test_abort_retires_timestamp_and_keeps_watermark_moving():
    """An aborted logged commit must not pin the watermark (its chain
    entries stay: they record the correct pre-abort state)."""

    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        red, blue, owns, x = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(1, properties=[(x, 1)])
            tx.commit()
            w0 = db.mvcc.watermark
            tx = db.start_transaction(ctx, write=True)
            tx.find_vertex(1).set_property(x, 2)
            tx.abort()
            tx = db.start_transaction(ctx, write=True)
            tx.find_vertex(1).set_property(x, 3)
            tx.commit()
            assert db.mvcc.watermark > w0  # no orphaned pending ts
            snap = db.start_transaction(ctx, snapshot=True)
            assert snap.find_vertex(1).property(x) == 3
            snap.commit()
        ctx.barrier()
        return True

    run_spmd(2, prog)


def _commit_mid_read(db, commit, fail=None):
    """Wrap ``db.blocks.read_blocks`` so ``commit()`` runs once, right
    after the first block read returns (a projected read's header round)
    and before the next one — which raises ``fail`` instead, if given: a
    read the rewrite tore into an error.  Returns the number of reads
    seen so far, in a list."""
    read_blocks = db.blocks.read_blocks
    seen, busy = [0], []

    def wrapped(ctx, specs):
        if busy:  # the commit's own reads
            return read_blocks(ctx, specs)
        seen[0] += 1
        if seen[0] == 2 and fail is not None:
            raise fail
        out = read_blocks(ctx, specs)
        if seen[0] == 1:
            busy.append(True)
            commit()
            busy.clear()
        return out

    db.blocks.read_blocks = wrapped
    return seen


def test_projected_snapshot_read_torn_by_commit_serves_the_watermark():
    """A commit between the header round and the span round of a
    projected read rewrites the entry bytes the span round then fetches;
    the header's version is the old one, so only the post-read chain pass
    can tell the row was torn (an edge keeps the entry span short of the
    whole payload, which the CRC would have covered)."""
    _projected_read_with_commit_mid_read(fail=None)


def test_projected_snapshot_read_failing_after_a_commit_serves_the_watermark():
    """The same read, with a span round the rewrite made fail: the read
    retries, and the chain now serves the vertex."""
    _projected_read_with_commit_mid_read(fail=ValueError("torn"))


def _projected_read_with_commit_mid_read(fail):
    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        red, blue, owns, x = _schema(ctx, db)
        tx = db.start_transaction(ctx, write=True)
        a = tx.create_vertex(1, properties=[(x, 1)])
        tx.create_edge(a, tx.create_vertex(2), label=owns)
        tx.commit()

        snap = db.start_transaction(ctx, snapshot=True)
        vid = snap.translate_vertex_id(1)

        def commit():
            tx = db.start_transaction(ctx, write=True)
            tx.find_vertex(1).set_property(x, 2)  # same size: same span
            tx.commit()

        seen = _commit_mid_read(db, commit, fail)
        (v,) = snap.associate_vertices([vid], need=NEED_ENTRIES)
        assert seen[0]  # the commit ran
        assert v.property(x) == 1
        snap.commit()
        snap2 = db.start_transaction(ctx, snapshot=True)
        assert snap2.find_vertex(1).property(x) == 2
        snap2.commit()
        return True

    run_spmd(1, prog)


def _ident_read_then_commit(delete_and_reuse: bool):
    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        red, blue, owns, x = _schema(ctx, db)
        tx = db.start_transaction(ctx, write=True)
        a = tx.create_vertex(1)
        tx.create_edge(a, tx.create_vertex(2), label=owns)
        tx.create_vertex(3)
        tx.commit()

        snap = db.start_transaction(ctx, snapshot=True)
        (v,) = snap.find_vertices([1], need=NEED_IDENT)
        b_vid = snap.translate_vertex_id(2)

        tx = db.start_transaction(ctx, write=True)
        a = tx.find_vertex(1)
        a.add_property(x, 7)
        tx.create_edge(a, tx.find_vertex(3), label=owns)
        tx.commit()
        if delete_and_reuse:
            tx = db.start_transaction(ctx, write=True)
            tx.delete_vertex(tx.find_vertex(1))
            tx.commit()
            tx = db.start_transaction(ctx, write=True)
            c = tx.create_vertex(200, properties=[(x, 9)])
            tx.create_edge(c, tx.find_vertex(3), label=owns)
            tx.create_edge(c, tx.find_vertex(2), label=owns)
            tx.commit()
            # the freed primary block now holds vertex 200
            tx = db.start_transaction(ctx)
            assert tx.translate_vertex_id(200) == v.vid
            tx.commit()

        # hydration of the missing parts still reads the state at W
        assert v.property(x) is None
        assert v.neighbors() == [b_vid]
        snap.commit()
        return True

    run_spmd(1, prog)


def test_hydration_read_failing_after_a_commit_serves_the_watermark():
    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        red, blue, owns, x = _schema(ctx, db)
        tx = db.start_transaction(ctx, write=True)
        a = tx.create_vertex(1, properties=[(x, 1)])
        tx.create_edge(a, tx.create_vertex(2), label=owns)
        tx.commit()

        snap = db.start_transaction(ctx, snapshot=True)
        (v,) = snap.find_vertices([1], need=NEED_IDENT)

        def commit():
            tx = db.start_transaction(ctx, write=True)
            tx.find_vertex(1).set_property(x, 2)
            tx.commit()

        seen = _commit_mid_read(db, commit, ValueError("torn"))
        assert v.property(x) == 1
        assert seen[0] == 2
        snap.commit()
        return True

    run_spmd(1, prog)


def test_hydrating_an_ident_read_after_a_commit_serves_the_watermark():
    _ident_read_then_commit(delete_and_reuse=False)


def test_hydrating_a_read_of_a_deleted_reused_vertex_serves_the_watermark():
    _ident_read_then_commit(delete_and_reuse=True)


def test_widening_a_columnar_snapshot_scan_serves_the_watermark():
    """A bulk scan's rows stay columnar when a later step needs the
    parts the scan left out — also rows of two scans that read different
    parts; a vertex a commit rewrote in between is served from its chain
    image instead."""
    n = 160  # two halves, each past the columnar read size

    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        red, blue, owns, x = _schema(ctx, db)
        tx = db.start_transaction(ctx, write=True)
        vs = [tx.create_vertex(i, properties=[(x, i)]) for i in range(n)]
        for i in range(n):
            tx.create_edge(vs[i], vs[(i + 1) % n], label=owns)
        tx.commit()

        snap = db.start_transaction(ctx, snapshot=True)
        vids = [snap.translate_vertex_id(i) for i in range(n)]
        half = n // 2
        values, has = snap.associate_vertices(
            vids[:half], need=NEED_ENTRIES
        ).property(x)
        assert has.all() and values.tolist() == list(range(half))
        snap.associate_vertices(vids[half:], need=NEED_IDENT)

        tx = db.start_transaction(ctx, write=True)
        v5 = tx.find_vertex(5)
        v5.set_property(x, 500)
        tx.create_edge(v5, tx.find_vertex(10), label=owns)
        tx.commit()

        scan = snap.associate_vertices(vids, need=NEED_TOPO)
        indptr, nbrs = scan.neighbors(EdgeOrientation.OUTGOING)
        assert indptr.tolist() == list(range(n + 1))
        assert nbrs.tolist() == [vids[(i + 1) % n] for i in range(n)]
        # the rest are still rows of a batch, now with the slots too; the
        # commit rewrote 5 and 10 (its new incoming slot)
        columnar = {
            vid for vid in vids
            if isinstance(snap._scanned[vid][0], HolderBatch)
            and snap._scanned[vid][2] & NEED_TOPO
            and vid not in snap._vertices
        }
        assert set(vids) - columnar == {vids[5], vids[10]}
        # rows that never read their entries do not answer for them
        values, has = scan.property(x)
        assert has.all() and values.tolist() == list(range(n))
        snap.commit()
        return True

    run_spmd(1, prog)
