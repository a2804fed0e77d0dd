"""The seams of the transaction layer: lock table, read view, probes.

* the benchmark's span probes still hook every layer the transaction
  code calls through (an unhooked layer silently reads as free);
* the locking and the snapshot read view classify a fetched row the same
  way, for vertices and for heavyweight edge holders;
* ``acquire`` is all-or-nothing.
"""

import os
import sys

import pytest

from repro.gda import GdaConfig, GdaDatabase
from repro.gda.holder import NEED_ALL
from repro.gda.locks import WRITE_BIT
from repro.gdi import GdiError, GdiLockFailed
from repro.rma import run_spmd

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


# --------------------------------------------------------------- probes --
def test_probes_hook_the_lock_and_commit_layers():
    sys.path.insert(0, ROOT)
    try:
        from bench import probes
    finally:
        sys.path.remove(ROOT)
    tracer = probes.Tracer()
    probes.install(tracer)
    try:
        # rows of code that is gone leave the probe table with the next
        # change to bench/, and nothing else may miss: the bulk loader's
        # two transaction verbs (the bulk writer in repro.gda.bulk replaced
        # them) and RWLock's six scalar verbs (a lock word is an address,
        # taken through the vector verbs, hooked where they are called)
        assert tracer.missing == [
            "repro.gda.transaction_impl.Transaction.bulk_append_half_edge",
            "repro.gda.transaction_impl.Transaction.bulk_create_edge_holder",
        ] + [
            f"repro.gda.locks.RWLock.{verb}"
            for verb in ("acquire_read", "release_read", "acquire_write",
                         "release_write", "upgrade", "downgrade")
        ]

        def prog(ctx):
            db = GdaDatabase.create(ctx)
            tx = db.start_transaction(ctx, write=True)
            vids = [tx.create_vertex(i).vid for i in (1, 2)]
            tx.commit()
            tracer.bind(ctx)
            tracer.set_op(0)
            tx = db.start_transaction(ctx)
            assert all(tx.load_vertices(vids))
            tx.commit()
            tracer.unbind()

        run_spmd(1, prog)
    finally:
        probes.uninstall(tracer)
    fields = probes.SPAN_FIELDS
    seen = {
        (span[fields.index("layer")], span[fields.index("name")])
        for span in tracer.spans()
    }
    assert ("gda.locks", "transaction_impl.acquire_read_batch") in seen
    assert ("gda.locks", "transaction_impl.release_batch") in seen
    assert ("gda.tx.commit", "Transaction.commit") in seen


# ------------------------------------------------- one classify-row step --
def _scene(ctx, db):
    """ids of a live vertex, a live edge holder and an empty block."""
    tx = db.start_transaction(ctx, write=True)
    v = tx.create_vertex(7)
    edge = tx.create_edge(v, v, directed=False, force_heavy=True)
    ids = {"vertex": v.vid, "edge": edge._slot.dptr}
    tx.commit()
    ids["hole"] = db.blocks.acquire_block_anywhere(ctx, 0)
    db.blocks.release_block(ctx, ids["hole"])
    return ids


CASES = [
    # tag, block fetched, expected application ID, outcome when not missing_ok
    ("v", "vertex", None, "served"),
    ("v", "hole", None, "GdiNotFound"),
    ("v", "edge", None, "GdiObjectMismatch"),
    ("v", "vertex", 8, "GdiNotFound"),  # recycled: carries 7, not 8
    ("e", "edge", None, "served"),
    ("e", "hole", None, "GdiNotFound"),
    ("e", "vertex", None, "GdiObjectMismatch"),
]


@pytest.mark.parametrize("missing_ok", [False, True])
@pytest.mark.parametrize("tag,block,expected_app,outcome", CASES)
def test_locking_and_snapshot_views_classify_rows_identically(
    tag, block, expected_app, outcome, missing_ok
):
    if missing_ok and outcome == "GdiNotFound":
        outcome = "skipped"  # a read miss is tolerated, a wrong kind never

    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig())
        oid = _scene(ctx, db)[block]
        expected = None if expected_app is None else {oid: expected_app}
        got = []
        for snapshot in (False, True):
            tx = db.start_transaction(ctx, snapshot=snapshot)
            assert tx.snapshot == snapshot
            try:
                rows = list(
                    tx._view.fetch(
                        tag, [oid], False, NEED_ALL, expected, missing_ok
                    )
                )
                got.append("served" if rows else "skipped")
                assert [r[0] for r in rows] == ([oid] if rows else [])
            except GdiError as exc:
                got.append(type(exc).__name__)
            # a locking view keeps the lock of a served vertex, only
            held = list(tx._locks._held)
            want_held = tag == "v" and not snapshot and got[-1] == "served"
            assert held == ([oid] if want_held else [])
            tx.abort()
        return got

    _, res = run_spmd(1, prog)
    assert res[0] == [outcome, outcome]


# ------------------------------------------------------ all-or-nothing --
@pytest.mark.parametrize("replication", [False, True])
@pytest.mark.parametrize("take", [False, True, "upgrade"])
def test_acquire_is_all_or_nothing(replication, take):
    """A timeout on the k-th word gives back exactly the words that call
    took, with or without a membership view (one armed by replication):
    a fresh read or write take leaves no word held and the table out of
    its rank's ledger, and a failed upgrade of a read-held set leaves it
    exactly read-held, the table still listed."""
    from repro.gda.locks import (
        READ, WRITE, acquire_read_batch, acquire_write_batch, release_batch,
    )

    def prog(ctx):
        db = GdaDatabase.create(
            ctx, GdaConfig(lock_max_retries=2, replication=replication)
        )
        assert (getattr(ctx.rt, "membership", None) is not None) == replication
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            vids = [tx.create_vertex(i).vid for i in range(4)]
            tx.commit()
            tx = db.start_transaction(ctx, write=take is not False)
            win = db.blocks.system_win
            words = [db.blocks.lock_location(vid) for vid in vids]
            third = {words[2]: words[2]}
            readers = 0
            if take == "upgrade":
                assert all(tx.load_vertices(vids))
                readers = 1
                # a second reader of the third
                acquire_read_batch(ctx, win, third, {}, 0, 2)
            else:  # somebody else holds the third
                acquire_write_batch(ctx, win, third, {}, 0, 2)
            with pytest.raises(GdiLockFailed):
                tx.load_vertices(vids, for_write=take is not False)
            assert tx.failed
            still = vids if readers else []  # read-held before the call
            held = {vid: mode for vid, (mode, _, _) in tx._locks._held.items()}
            assert held == {vid: READ for vid in still}
            other = 2 if readers else WRITE_BIT
            assert [ctx.aget(win, *w) for w in words] == [
                readers, readers, other, readers
            ]
            if replication:
                assert list(db.lock_tables[0]) == ([tx._locks] if readers else [])
            tx.abort()
            if readers:
                assert ctx.aget(win, *words[2]) == 1  # one reader, no write bit
                release_batch(ctx, win, [(words[2], READ)])
            else:
                assert ctx.aget(win, *words[2]) == WRITE_BIT
                release_batch(ctx, win, [(words[2], WRITE)])
            assert [ctx.aget(win, *w) for w in words] == [0] * 4
        ctx.barrier()

    run_spmd(2, prog)


# ----------------------------------------------------------- back-outs --
@pytest.mark.parametrize("seed", range(30))
def test_a_backout_round_that_raises_leaks_no_reader(seed):
    """Rank 2's lock-mode read meets rank 1's write lock while transient
    faults (one attempt per op) may fail the round that backs its failed
    read increment out.  The increment stays in rank 2's lock table as a
    back-out hold, so its abort gives it back: once rank 1 has committed,
    no lock word is left set."""
    from repro.gdi import Datatype
    from repro.gda.consistency import check_consistency
    from repro.rma.faults import FaultPlan

    state = {}

    def build(ctx):
        db = GdaDatabase.create(
            ctx, GdaConfig(blocks_per_rank=256, lock_max_retries=4)
        )
        if ctx.rank == 0:
            db.create_property_type(ctx, "ts", dtype=Datatype.INT64)
            tx = db.start_transaction(ctx, write=True)
            state.update(db=db, vid=tx.create_vertex(0).vid)
            tx.commit()
        ctx.barrier()
        db.replica(ctx).sync()

    rt, _ = run_spmd(3, build, seed=5)
    db, txs = state["db"], {}
    assert db.blocks.lock_location(state["vid"])[0] == 0

    def hold(ctx):
        if ctx.rank == 1:
            txs[1] = db.start_transaction(ctx, write=True)
            txs[1].find_vertex(0).set_property(db.property_type(ctx, "ts"), 1)

    def read(ctx):
        if ctx.rank == 2:
            txs[2] = db.start_transaction(ctx)
            with pytest.raises(Exception):
                txs[2].find_vertex(0)

    def settle(ctx):
        if ctx.rank == 2:
            txs[2].abort()
        ctx.barrier()
        if ctx.rank == 1:
            txs[1].commit()
        ctx.barrier()
        return check_consistency(ctx, db).problems

    run_spmd(3, hold, runtime=rt)
    plan = FaultPlan(seed=seed, transient_rate=0.3, op_retry_limit=1)
    run_spmd(3, read, runtime=rt, faults=plan)
    _, res = run_spmd(3, settle, runtime=rt, faults=FaultPlan())
    assert res == [[], [], []]
