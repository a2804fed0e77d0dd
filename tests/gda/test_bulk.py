"""The bulk writer (``repro.gda.bulk``): what a load logs, mirrors and reads.

A bulk load logs two records per rank — its vertices, then its edges —
instead of writing through transactions.  Those records must replay to
the loaded graph; the blocks it writes must reach the backups; and it
writes each holder once without reading any back.
"""

import numpy as np
import pytest
from generator.test_heavy_edges import HEAVY_SCHEMA, PARAMS

from repro.gda import GdaConfig, GdaDatabase, recover, take_checkpoint
from repro.gda.bulk import Entries, VidMap, load
from repro.gda.checkpoint import snapshot
from repro.gda.consistency import check_consistency
from repro.gda.entries import ENTRY_LABEL
from repro.gdi import Constraint
from repro.generator import build_lpg, create_schema_metadata
from repro.rma import run_spmd

from .test_recovery import canon


def _assert_mirrored(ctx, db):
    """Every block this rank allocated is on its backup, byte for byte."""
    repl, bs = db.replication, db.blocks.block_size
    mirrored = 0
    for idx, (_, nbytes) in repl.meta[ctx.rank].items():
        primary = db.blocks.data_win.read(ctx.rank, idx * bs, nbytes)
        backup = repl.mirror_win.read(
            repl.membership.backup_of(ctx.rank), idx * bs, nbytes
        )
        assert bytes(primary) == bytes(backup)
        mirrored += 1
    assert mirrored == db.blocks.allocated_count(ctx, ctx.rank)
    assert repl.commit_lag(db, ctx.rank) == 0


@pytest.mark.parametrize("replication", [False, True])
def test_the_loads_log_replays_to_the_load(replication):
    """Checkpoint the empty database, load a graph with heavy edges, then
    recover the checkpoint plus the log into a fresh runtime: the same
    graph.  With replication on, every block the load wrote is on its
    backup."""

    def live(ctx):
        db = GdaDatabase.create(
            ctx, GdaConfig(blocks_per_rank=16384, replication=replication)
        )
        ckpt = take_checkpoint(ctx, db)
        build_lpg(ctx, db, PARAMS, HEAVY_SCHEMA)
        assert check_consistency(ctx, db).ok
        ctx.barrier()
        if replication:
            _assert_mirrored(ctx, db)
        return ckpt, db.commit_log, canon(snapshot(ctx, db))

    _, res = run_spmd(2, live)
    ckpt, log, want = res[0]
    kinds = [{e[0] for e in rec.entries} for rec in log]
    assert kinds == [{"new_v"}] * 2 + [{"edge+", "hedge+"}] * 2

    def recovered(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=16384))
        # the log names property types, which replay does not create
        create_schema_metadata(ctx, db, HEAVY_SCHEMA)
        recover(ctx, db, ckpt, log)
        return canon(snapshot(ctx, db))

    _, got = run_spmd(2, recovered)
    assert got[0] == want
    assert want["heavy_edges"] and want["light_edges"]


def test_a_load_reads_no_holder_back():
    reads = []

    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=16384))
        if ctx.rank == 0:
            read_many = db.storage.read_many

            def counting(c, *args, **kw):
                reads.append(c.rank)
                return read_many(c, *args, **kw)

            db.storage.read_many = counting
        ctx.barrier()
        g = build_lpg(ctx, db, PARAMS, HEAVY_SCHEMA)
        return g.n_edges_loaded

    _, res = run_spmd(2, prog)
    assert res[0] > 0 and reads == []


def test_a_load_posts_to_the_indexes_that_exist():
    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=1024))
        if ctx.rank == 0:
            db.create_label(ctx, "a")
        ctx.barrier()
        db.replica(ctx).sync()
        a = db.label(ctx, "a")
        idx = db.create_index(ctx, "by_a", Constraint.has_label(a.int_id))
        apps = np.arange(ctx.rank, 10, ctx.nranks)
        rows = np.flatnonzero(apps % 3 == 0)
        vids = load(
            ctx,
            db,
            apps,
            Entries.of_column(rows, ENTRY_LABEL, np.full(len(rows), a.int_id)),
            np.zeros((0, 4), dtype=np.int64),
            round_robin=True,
        )
        return sorted(vids[i] for i in (0, 3, 6, 9)), sorted(
            idx.local_vertices(ctx)
        )

    _, res = run_spmd(2, prog)
    assert sorted(v for r in res for v in r[1]) == res[0][0]


def test_vid_map_rejects_application_ids_outside_the_load():
    parts = [np.array([10, 30]), np.array([20])]
    dense = VidMap(parts)
    assert dict(dense) == {0: 10, 1: 20, 2: 30}
    sparse = VidMap(parts, [np.array([4, 8]), np.array([5])])
    assert dict(sparse) == {4: 10, 5: 20, 8: 30}
    for vid_map, bad in ((dense, 3), (dense, -1), (sparse, 6), (sparse, 9)):
        with pytest.raises(KeyError):
            vid_map[bad]
        assert bad not in vid_map
