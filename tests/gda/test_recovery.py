"""Recovery tests: commit log content, checkpoint + replay, rank crashes."""

import pytest

from repro.gda import GdaConfig, GdaDatabase, recover, take_checkpoint
from repro.gda.checkpoint import snapshot
from repro.gda.consistency import check_consistency
from repro.gdi import Datatype
from repro.rma import run_spmd
from repro.rma.executor import SpmdError
from repro.rma.faults import FaultPlan, RmaRankDead

CFG = GdaConfig(blocks_per_rank=4096)


def canon(snap):
    """Order-independent view of a snapshot (internal IDs differ after
    restore, so iteration order of edge lists is not meaningful)."""
    return {
        "labels": set(snap["labels"]),
        "ptypes": sorted((p["name"] for p in snap["ptypes"])),
        "vertices": snap["vertices"],
        "light_edges": sorted(snap["light_edges"], key=repr),
        "heavy_edges": sorted(
            (
                (s, d, dr, sorted(ls), sorted(ps))
                for s, d, dr, ls, ps in snap["heavy_edges"]
            ),
            key=repr,
        ),
    }


def _make_metadata(ctx, db):
    if ctx.rank == 0:
        db.create_label(ctx, "knows")
        db.create_label(ctx, "likes")
        db.create_property_type(ctx, "ts", dtype=Datatype.INT64)
        db.create_property_type(ctx, "w", dtype=Datatype.DOUBLE)
    ctx.barrier()
    db.replica(ctx).sync()


def _build_base(ctx, db):
    """Pre-checkpoint content: a small chain plus one heavy edge."""
    _make_metadata(ctx, db)
    knows = db.label(ctx, "knows")
    likes = db.label(ctx, "likes")
    ts = db.property_type(ctx, "ts")
    w = db.property_type(ctx, "w")
    if ctx.rank == 0:
        tx = db.start_transaction(ctx, write=True)
        vs = [tx.create_vertex(i, properties=[(ts, i)]) for i in range(8)]
        for i in range(7):
            tx.create_edge(vs[i], vs[i + 1], label=knows)
        tx.create_edge(vs[6], vs[7], directed=False)
        tx.create_edge(
            vs[0], vs[7], labels=[knows, likes], properties=[(w, 0.25)]
        )
        tx.commit()
    ctx.barrier()


def _mutate_tail(ctx, db):
    """Post-checkpoint committed work: every replay entry kind occurs."""
    knows = db.label(ctx, "knows")
    ts = db.property_type(ctx, "ts")
    w = db.property_type(ctx, "w")
    if ctx.rank == 0:
        late = db.create_label(ctx, "late")  # label born after checkpoint
        tx = db.start_transaction(ctx, write=True)
        a = tx.create_vertex(100, properties=[(ts, 100)])
        b = tx.create_vertex(101)
        tx.create_edge(a, b, label=late)
        tx.create_edge(a, tx.find_vertex(0), directed=False, label=knows)
        tx.commit()

        tx = db.start_transaction(ctx, write=True)
        v0 = tx.find_vertex(0)
        v0.set_property(ts, 999)  # upd_v
        vid1 = tx.translate_vertex_id(1)
        e01 = next(
            e for e in v0.edges() if not e.heavy and e.endpoints()[1] == vid1
        )
        tx.delete_edge(e01)  # edge-
        tx.commit()

        tx = db.start_transaction(ctx, write=True)
        tx.delete_vertex(tx.find_vertex(3))  # del_v (+ incident edges)
        tx.commit()

        tx = db.start_transaction(ctx, write=True)
        heavy = next(e for e in tx.find_vertex(0).edges() if e.heavy)
        heavy.set_property(w, 0.75)  # hedge*
        tx.commit()

        tx = db.start_transaction(ctx, write=True)
        v5, v6 = tx.find_vertex(5), tx.find_vertex(6)
        tx.create_edge(
            v5, v6, labels=[knows, late], properties=[(w, 0.5)]
        )  # hedge+
        tx.commit()

        tx = db.start_transaction(ctx, write=True)
        h = next(e for e in tx.find_vertex(5).edges() if e.heavy)
        tx.delete_edge(h)  # hedge-
        tx.commit()
    ctx.barrier()


# -- commit log content -----------------------------------------------------
def test_commit_log_records_all_entry_kinds():
    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        _build_base(ctx, db)
        pos = db.commit_log.position()
        _mutate_tail(ctx, db)
        kinds = {
            e[0] for rec in db.commit_log.tail(pos) for e in rec.entries
        }
        return pos, kinds, db.commit_log.position()

    _, res = run_spmd(2, prog)
    pos, kinds, end = res[0]
    assert kinds == {
        "new_v", "upd_v", "del_v", "edge+", "edge-",
        "hedge+", "hedge-", "hedge*",
    }
    assert end - pos == 6  # one record per committed write transaction


def test_commit_log_skips_read_only_and_aborted_txns():
    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        _build_base(ctx, db)
        pos = db.commit_log.position()
        if ctx.rank == 0:
            tx = db.start_transaction(ctx)
            tx.find_vertex(0)
            tx.commit()
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(500)
            tx.abort()
            tx = db.start_transaction(ctx, write=True)
            tx.find_vertex(1)  # write txn that writes nothing
            tx.commit()
        ctx.barrier()
        return db.commit_log.position() - pos

    _, res = run_spmd(2, prog)
    assert res[0] == 0


def test_commit_log_entries_use_app_ids():
    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        _build_base(ctx, db)
        return [e for rec in db.commit_log for e in rec.entries]

    _, res = run_spmd(2, prog)
    news = [e for e in res[0] if e[0] == "new_v"]
    assert sorted(e[1] for e in news) == list(range(8))
    lights = [e for e in res[0] if e[0] == "edge+"]
    assert ((0, 1, True, "knows") in {e[1:] for e in lights})


# -- checkpoint + replay ----------------------------------------------------
def test_recover_replays_tail_onto_checkpoint():
    state = {}

    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        _build_base(ctx, db)
        cp = take_checkpoint(ctx, db)
        _mutate_tail(ctx, db)
        final = snapshot(ctx, db)
        if ctx.rank == 0:
            state.update(cp=cp, log=db.commit_log, final=final)

    run_spmd(2, prog)
    assert state["log"].position() > state["cp"].log_pos

    def recover_prog(ctx):
        db2 = GdaDatabase.create(ctx, CFG)
        recover(ctx, db2, state["cp"], state["log"])
        report = check_consistency(ctx, db2)
        assert report.ok, report.problems[:5]
        return snapshot(ctx, db2)

    _, res = run_spmd(2, recover_prog)
    assert canon(res[0]) == canon(state["final"])


def test_checkpoint_alone_recovers_when_tail_is_empty():
    state = {}

    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        _build_base(ctx, db)
        cp = take_checkpoint(ctx, db)
        if ctx.rank == 0:
            state.update(cp=cp, log=db.commit_log, final=snapshot(ctx, db))
        else:
            snapshot(ctx, db)  # collective partner

    run_spmd(2, prog)

    def recover_prog(ctx):
        db2 = GdaDatabase.create(ctx, CFG)
        recover(ctx, db2, state["cp"], state["log"])
        return snapshot(ctx, db2)

    _, res = run_spmd(2, recover_prog)
    assert canon(res[0]) == canon(state["final"])


# -- rank crash -------------------------------------------------------------
def test_rank_crash_recovery_matches_fault_free_reference():
    """The acceptance scenario: build, checkpoint, commit a tail, crash a
    rank mid-flight, recover into a fresh runtime — the recovered state
    equals a fault-free twin that ran exactly the committed work."""
    state = {}

    def victim_prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        _build_base(ctx, db)
        cp = take_checkpoint(ctx, db)
        _mutate_tail(ctx, db)
        if ctx.rank == 0:
            state.update(db=db, cp=cp, pos=db.commit_log.position())

    rt, _ = run_spmd(2, victim_prog)

    # phase 2: rank 1 crashes on its very first operation; its in-flight
    # transaction must not reach the log
    def doomed_prog(ctx):
        db = state["db"]
        if ctx.rank == 1:
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(700)
            tx.commit()
        ctx.barrier()

    with pytest.raises(SpmdError) as ei:
        run_spmd(
            2,
            doomed_prog,
            runtime=rt,
            faults=FaultPlan(crash_rank=1, crash_at_op=1),
        )
    # the lowest failing rank may be a survivor seeing the poisoned
    # collective; the root cause is the rank-death either way
    assert "RmaRankDead" in repr(ei.value.original) or isinstance(
        ei.value.original, RmaRankDead
    )
    assert state["db"].commit_log.position() == state["pos"]

    # phase 3: recover checkpoint + surviving log into a fresh runtime
    def recover_prog(ctx):
        db2 = GdaDatabase.create(ctx, CFG)
        recover(ctx, db2, state["cp"], state["db"].commit_log)
        report = check_consistency(ctx, db2)
        assert report.ok, report.problems[:5]
        return snapshot(ctx, db2)

    _, recovered = run_spmd(2, recover_prog)

    # fault-free twin: same committed work, no checkpoint/recovery
    def reference_prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        _build_base(ctx, db)
        _mutate_tail(ctx, db)
        return snapshot(ctx, db)

    _, reference = run_spmd(2, reference_prog)
    assert canon(recovered[0]) == canon(reference[0])
