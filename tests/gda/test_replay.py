"""One applier, two readings of an unmet precondition: strict replay
(offline recovery) and tolerant replay (failover redo) of the commit log.

Every case starts from the checkpoint of ``test_recovery``'s base graph
restored into a fresh database and applies records of its tail, whose six
records hold every entry kind.
"""

import pytest

from repro.gda import (
    Checkpoint,
    CommitLog,
    GdaDatabase,
    recover,
    replay_entries_idempotent,
    take_checkpoint,
)
from repro.gda.checkpoint import restore, snapshot
from repro.gda.consistency import check_consistency
from repro.gdi.errors import GdiNotFound, GdiStateError
from repro.rma import run_spmd
from repro.rma.executor import SpmdError

from .test_recovery import CFG, _build_base, _mutate_tail, canon


@pytest.fixture(scope="module")
def crashed():
    """Checkpoint snapshot, the tail's records and the live final state."""
    state = {}

    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        _build_base(ctx, db)
        cp = take_checkpoint(ctx, db)
        _mutate_tail(ctx, db)
        final = snapshot(ctx, db)
        if ctx.rank == 0:
            tail = [rec.entries for rec in db.commit_log.tail(cp.log_pos)]
            state.update(snap=cp.snap, tail=tail, final=canon(final))

    run_spmd(2, prog)
    return state


def _strict(ctx, snap, records):
    """Fresh database = checkpoint + strict replay of ``records``."""
    db = GdaDatabase.create(ctx, CFG)
    log = CommitLog()
    for entries in records:
        log.append(0, entries)
    recover(ctx, db, Checkpoint(snap=snap, log_pos=0), log)
    return db


def _redo(ctx, db, records):
    """Tolerant replay on rank 0; the redo must not touch the log."""
    before = db.commit_log.position()
    if ctx.rank == 0:
        for entries in records:
            replay_entries_idempotent(ctx, db, entries)
    ctx.barrier()
    assert db.commit_log.position() == before


def _state(ctx, db):
    report = check_consistency(ctx, db)
    assert report.ok, report.problems[:5]
    return canon(snapshot(ctx, db))


def test_tolerant_replay_equals_strict_replay_equals_live(crashed):
    snap, tail = crashed["snap"], crashed["tail"]

    def prog(ctx):
        strict = _strict(ctx, snap, tail)
        tolerant = GdaDatabase.create(ctx, CFG)
        restore(ctx, tolerant, snap)
        _redo(ctx, tolerant, tail)
        return _state(ctx, strict), _state(ctx, tolerant)

    _, res = run_spmd(2, prog)
    strict, tolerant = res[0]
    assert strict == tolerant == crashed["final"]


def test_tolerant_replay_of_a_record_twice_changes_nothing(crashed):
    snap, tail = crashed["snap"], crashed["tail"]

    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        restore(ctx, db, snap)
        for entries in tail:
            _redo(ctx, db, [entries])
            once = _state(ctx, db)
            _redo(ctx, db, [entries])
            assert _state(ctx, db) == once
        return once

    _, res = run_spmd(2, prog)
    assert res[0] == crashed["final"]


def test_redo_completes_a_record_torn_after_any_entry(crashed):
    """Strict replay of a record's first k entries, then the redo of the
    whole record, is the whole record — for every record and every k."""
    snap, tail = crashed["snap"], crashed["tail"]

    def prog(ctx):
        cases = 0
        for i, entries in enumerate(tail):
            whole = _state(ctx, _strict(ctx, snap, tail[: i + 1]))
            for k in range(len(entries) + 1):
                db = _strict(ctx, snap, tail[:i] + [entries[:k]])
                _redo(ctx, db, [entries])
                assert _state(ctx, db) == whole, (i, k)
                cases += 1
        return cases, whole

    _, res = run_spmd(2, prog)
    cases, last = res[0]
    assert cases == sum(len(entries) + 1 for entries in tail)
    assert last == crashed["final"]


def test_redo_rebuilds_from_post_images_and_skips_the_moot(crashed):
    """The three tolerant outcomes that are not "already applied"."""
    snap = crashed["snap"]
    vertex = ("upd_v", 900, ("late",), ())
    heavy = ("hedge*", 1, 2, False, ("knows",), ())
    moot = [
        ("edge+", 0, 901, True, "knows"),
        ("edge-", 901, 0, True, ""),
        ("hedge+", 901, 902, True, (), ()),
        ("hedge-", 0, 901, True),
        ("hedge*", 901, 901, True, (), ()),
        ("del_v", 901),
    ]

    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        restore(ctx, db, snap)
        base = _state(ctx, db)
        _redo(ctx, db, [tuple(moot)])
        assert _state(ctx, db) == base
        _redo(ctx, db, [(vertex, heavy)])
        return base, _state(ctx, db)

    _, res = run_spmd(2, prog)
    base, after = res[0]
    assert 900 not in base["vertices"] and 900 in after["vertices"]
    assert "late" in after["labels"]
    added = [e for e in after["heavy_edges"] if e not in base["heavy_edges"]]
    assert [e[:4] for e in added] == [(1, 2, False, ["knows"])]
    assert after["light_edges"] == base["light_edges"]


@pytest.mark.parametrize(
    "entry, error",
    [
        (("del_v", 901), GdiStateError),
        (("upd_v", 901, (), ()), GdiStateError),
        (("edge+", 0, 901, True, "knows"), GdiNotFound),
        (("hedge-", 901, 0, True), GdiNotFound),
        (("edge-", 0, 2, True, "knows"), GdiStateError),
        (("edge-", 0, 1, True, "likes"), GdiStateError),
        (("hedge-", 0, 7, False), GdiStateError),
        (("hedge*", 1, 2, True, (), ()), GdiStateError),
    ],
)
def test_strict_replay_raises_on_an_unmet_precondition(crashed, entry, error):
    def prog(ctx):
        _strict(ctx, crashed["snap"], [(entry,)])

    with pytest.raises(SpmdError) as failed:
        run_spmd(1, prog)
    assert type(failed.value.original) is error
