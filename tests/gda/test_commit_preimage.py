"""One pre-image per loaded vertex: what commit derives from it.

A write transaction keeps the holder it read (``_TxVertex.loaded``) and
the commit stages diff the live holder against it, for dirty vertices
only, by one rule: a part still in wire form is unchanged.  These tests
pin what that promises — untouched parts stay wire bytes end to end, the
value diff of the slots replays to the live state in every corner, and
a snapshot is served the pre-image the commit installed.
"""

import random

import pytest
from mvcc.test_vid_reuse import _commit, _create, _on_rank0

from repro.gda import GdaDatabase, recover, take_checkpoint
from repro.gda.checkpoint import snapshot
from repro.gda.consistency import check_consistency
from repro.gdi import Constraint, EdgeOrientation
from repro.gdi.errors import GdiNotFound
from repro.rma import run_spmd

from .test_recovery import CFG, _make_metadata, canon


def _two_ranks(body, base=None):
    """``base`` then ``body`` as ``f(ctx, db)`` on rank 0 of a two-rank
    database, a checkpoint between them; returns ``body``'s value, the
    records it logged, the live state and checkpoint + replay of them."""

    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        _make_metadata(ctx, db)
        if ctx.rank == 0 and base is not None:
            base(ctx, db)
        cp = take_checkpoint(ctx, db)
        out = body(ctx, db) if ctx.rank == 0 else None
        ctx.barrier()
        report = check_consistency(ctx, db)
        assert report.ok, report.problems[:5]
        live = canon(snapshot(ctx, db))
        twin = GdaDatabase.create(ctx, CFG)
        recover(ctx, twin, cp, db.commit_log)
        tail = [rec.entries for rec in db.commit_log.tail(cp.log_pos)]
        return out, tail, live, canon(snapshot(ctx, twin))

    return run_spmd(2, prog)[1][0]


def _chain(n):
    """Vertices 0..n-1 with ``ts`` and a ``knows`` chain, one transaction."""

    def base(ctx, db):
        knows, ts = db.label(ctx, "knows"), db.property_type(ctx, "ts")
        tx = db.start_transaction(ctx, write=True)
        vs = [tx.create_vertex(i, properties=[(ts, i)]) for i in range(n)]
        for a, b in zip(vs, vs[1:]):
            tx.create_edge(a, b, label=knows)
        tx.commit()

    return base


def _kinds(entries):
    return sorted(e[0] for e in entries)


# -- (i), (ii): what nobody touched stays wire bytes ------------------------
def test_a_write_transaction_that_mutates_nothing_logs_nothing():
    def body(ctx, db):
        tx = db.start_transaction(ctx, write=True)
        vs = tx.find_vertices([0, 1, 2, 3])
        holders = [v._txv.holder for v in vs]
        tx.commit()
        return [
            h._entry_buf is not None and h._slot_buf is not None for h in holders
        ]

    wire, tail, live, replayed = _two_ranks(body, _chain(4))
    assert wire == [True] * 4
    assert tail == [] and live == replayed


def test_set_property_writes_the_slot_region_back_as_read():
    def body(ctx, db):
        ts = db.property_type(ctx, "ts")
        tx = db.start_transaction(ctx, write=True)
        v = tx.find_vertex(1)
        holder, slots_read = v._txv.holder, v._txv.holder._slot_buf
        v.set_property(ts, 77)
        tx.commit()
        assert holder._slot_buf is v._txv.loaded.holder._slot_buf  # unchanged
        assert holder._slot_buf is slots_read
        tx = db.start_transaction(ctx)
        v = tx.find_vertex(1)
        out = v.property(ts), v._txv.holder._slot_buf == slots_read, v.degree()
        tx.commit()
        return out

    out, tail, live, replayed = _two_ranks(body, _chain(3))
    assert out == (77, True, 2)
    assert [_kinds(r) for r in tail] == [["upd_v"]]
    assert live == replayed


def test_create_edge_leaves_both_entry_streams_in_wire_form():
    def body(ctx, db):
        knows, ts = db.label(ctx, "knows"), db.property_type(ctx, "ts")
        tx = db.start_transaction(ctx, write=True)
        a, b = tx.find_vertices([0, 2])
        streams = [h._txv.holder._entry_buf for h in (a, b)]
        tx.create_edge(a, b, label=knows)
        tx.commit()
        kept = [h._txv.holder._entry_buf is s for h, s in zip((a, b), streams)]
        tx = db.start_transaction(ctx)
        a, b = tx.find_vertices([0, 2])
        back = [
            (h._txv.holder._entry_buf == s, h.property(ts))
            for h, s in zip((a, b), streams)
        ]
        tx.commit()
        return kept, back

    (kept, back), tail, live, replayed = _two_ranks(body, _chain(3))
    assert kept == [True, True]
    assert back == [(True, 0), (True, 2)]
    assert [_kinds(r) for r in tail] == [["edge+", "upd_v", "upd_v"]]
    assert live == replayed


# -- (iii): corners of the value diff, against the recovery oracle ----------
def test_parallel_identical_edges_log_their_exact_multiplicity():
    def body(ctx, db):
        knows = db.label(ctx, "knows")
        tx = db.start_transaction(ctx, write=True)
        a, b = tx.find_vertices([0, 1])
        first = tx.create_edge(a, b, label=knows)
        tx.create_edge(a, b, label=knows)
        tx.delete_edge(first)
        tx.commit()
        tx = db.start_transaction(ctx)
        n = len(tx.find_vertex(0).edges(EdgeOrientation.OUTGOING))
        tx.commit()
        return n

    def base(ctx, db):
        _commit(ctx, db, lambda tx: [tx.create_vertex(i) for i in range(2)])

    n, tail, live, replayed = _two_ranks(body, base)
    assert n == 1
    assert [e for e in tail[0] if e[0].startswith("edge")] == [
        ("edge+", 0, 1, True, "knows")
    ]
    assert live == replayed
    assert live["light_edges"] == [(0, 1, True, "knows")]


def test_identical_parallel_edges_are_a_multiset_of_equal_handles():
    """Two lightweight edges with one target, label and direction are the
    same 16 bytes twice: their handles are equal, and each delete through
    one removes one slot on both endpoints until none is left."""

    def base(ctx, db):
        knows = db.label(ctx, "knows")

        def make(tx):
            a, b = tx.create_vertex(0), tx.create_vertex(1)
            tx.create_edge(a, b, label=knows)
            tx.create_edge(a, b, label=knows)

        _commit(ctx, db, make)

    def body(ctx, db):
        tx = db.start_transaction(ctx, write=True)
        a, b = tx.find_vertices([0, 1])
        first, second = a.edges(EdgeOrientation.OUTGOING)
        equal = first == second and hash(first) == hash(second)
        resolved = tx.associate_edge(first.uid) == first
        degrees = []
        for e in (first, second):
            tx.delete_edge(e)
            degrees.append((a.degree(), b.degree()))
        with pytest.raises(GdiNotFound):
            tx.delete_edge(first)
        tx.commit()
        return equal, resolved, degrees

    out, tail, live, replayed = _two_ranks(body, base)
    assert out == (True, True, [(1, 1), (0, 0)])
    assert [e for e in tail[0] if e[0].startswith("edge")] == [
        ("edge-", 0, 1, True, "knows")
    ] * 2
    assert live == replayed
    assert live["light_edges"] == []


def test_an_edge_added_and_removed_again_writes_the_slots_read():
    def body(ctx, db):
        knows = db.label(ctx, "knows")
        tx = db.start_transaction(ctx, write=True)
        a, b = tx.find_vertices([0, 1])
        read = [h._txv.holder._slot_buf for h in (a, b)]
        tx.delete_edge(tx.create_edge(a, b, label=knows))
        tx.commit()
        now = [h._txv.holder._slot_buf for h in (a, b)]
        stored = [db.storage.read(ctx, h.vid).holder._slot_buf for h in (a, b)]
        return [n is not r and n == r for n, r in zip(now, read)], stored == read

    (rebound, same), tail, live, replayed = _two_ranks(body, _chain(2))
    assert rebound == [True, True]  # new buffers of the bytes read: diffed
    assert same
    assert [_kinds(r) for r in tail] == [["upd_v", "upd_v"]]
    assert live == replayed


def test_delete_and_recreate_of_an_identical_edge_is_replay_neutral():
    def body(ctx, db):
        knows = db.label(ctx, "knows")
        tx = db.start_transaction(ctx, write=True)
        a, b = tx.find_vertices([0, 1])
        (old,) = a.edges(EdgeOrientation.OUTGOING)
        tx.delete_edge(old)
        tx.create_edge(a, b, label=knows)
        tx.commit()

    _, tail, live, replayed = _two_ranks(body, _chain(2))
    assert [_kinds(r) for r in tail] == [["upd_v", "upd_v"]]
    assert live == replayed
    assert live["light_edges"] == [(0, 1, True, "knows")]


@pytest.mark.parametrize("directed", [True, False])
def test_self_loops_are_logged_once_and_removed_again(directed):
    def body(ctx, db):
        knows = db.label(ctx, "knows")
        tx = db.start_transaction(ctx, write=True)
        v = tx.find_vertex(0)
        tx.create_edge(v, v, label=knows, directed=directed)
        tx.create_edge(v, v, directed=directed)
        tx.commit()
        tx = db.start_transaction(ctx, write=True)
        v = tx.find_vertex(0)
        loop = next(
            e for e in v.edges(EdgeOrientation.OUTGOING)
            if e.endpoints() == (v.vid, v.vid) and e.labels()
        )
        tx.delete_edge(loop)
        tx.commit()

    _, tail, live, replayed = _two_ranks(body, _chain(2))
    assert [_kinds(r) for r in tail] == [
        ["edge+", "edge+", "upd_v"],
        ["edge-", "upd_v"],
    ]
    assert tail[1][1] == ("edge-", 0, 0, directed, "knows")
    assert live == replayed
    assert (0, 0, directed, None) in live["light_edges"]
    assert (0, 0, directed, "knows") not in live["light_edges"]


def test_delete_a_vertex_and_recreate_its_application_id():
    def body(ctx, db):
        likes, ts = db.label(ctx, "likes"), db.property_type(ctx, "ts")
        tx = db.start_transaction(ctx, write=True)
        tx.delete_vertex(tx.find_vertex(1))
        again = tx.create_vertex(1, properties=[(ts, 111)])
        tx.create_edge(again, tx.find_vertex(2), label=likes)
        tx.commit()

    _, tail, live, replayed = _two_ranks(body, _chain(3))
    assert tail[0][0] == ("del_v", 1)
    assert _kinds(tail[0]) == ["del_v", "edge+", "new_v", "upd_v", "upd_v"]
    assert live == replayed
    assert live["light_edges"] == [(1, 2, True, "likes")]


def test_label_and_neighbour_edge_change_agree_with_a_full_scan():
    """A label added *and* a neighbour's edge removed in one transaction:
    directory histogram, label members and a vertex index all follow."""
    seen = {}

    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        _make_metadata(ctx, db)
        knows, likes = db.label(ctx, "knows"), db.label(ctx, "likes")
        if ctx.rank == 0:
            _chain(4)(ctx, db)
            _commit(ctx, db, lambda tx: tx.find_vertex(3).add_label(likes))
        ctx.barrier()
        idx = db.create_index(ctx, "liked", Constraint.has_label(likes.int_id))
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            v1 = tx.find_vertex(1)
            v1.add_label(likes)
            tx.delete_edge(v1.edges(EdgeOrientation.OUTGOING)[0])  # 1 -> 2
            tx.find_vertex(3).remove_label(likes)
            tx.commit()
        ctx.barrier()
        tx = db.start_collective_transaction(ctx)
        scan = sorted(
            v.vid
            for v in tx.associate_vertices(db.directory.local_vertices(ctx))
            if v.has_label(likes)
        )
        tx.commit()
        members = sorted(
            db.directory.shard_vertices(ctx, ctx.rank, label_id=likes.int_id)
        )
        posted = sorted(idx.local_vertices(ctx))
        hist = db.directory.label_histogram(ctx)
        if ctx.rank == 0:
            seen["log"] = _kinds(db.commit_log.tail(0)[-1].entries)
        assert check_consistency(ctx, db).ok
        return scan, members, posted, hist.get(likes.int_id, 0), knows.int_id

    _, res = run_spmd(2, prog)
    for scan, members, posted, _, _ in res:
        assert scan == members == posted
    assert sum(len(r[0]) for r in res) == res[0][3] == 1
    assert seen["log"] == ["edge-", "upd_v", "upd_v", "upd_v"]


# -- the seeded two-rank WI run: the acceptance driver ----------------------
#: Table 3 WI mix, update kinds only: add_vertex / del_vertex / upd_prop /
#: add_edge, plus a share of edge deletions the paper's mix leaves out
_WI = (0.20, 0.067, 0.133, 0.40, 0.10)


def seeded_wi_run(n_ops=120, seed=22):
    """Commit-log records of a seeded single-issuer WI run on two ranks,
    with the live state and checkpoint + replay of the records."""

    def base(ctx, db):
        knows, ts = db.label(ctx, "knows"), db.property_type(ctx, "ts")
        rng = random.Random(seed)
        tx = db.start_transaction(ctx, write=True)
        vs = [tx.create_vertex(i, properties=[(ts, i)]) for i in range(24)]
        for _ in range(60):
            a, b = rng.sample(vs, 2)
            tx.create_edge(a, b, label=rng.choice((knows, None)),
                           directed=rng.random() < 0.8)
        tx.commit()

    def body(ctx, db):
        knows, ts = db.label(ctx, "knows"), db.property_type(ctx, "ts")
        rng = random.Random(seed + 1)
        alive, next_id = list(range(24)), 24
        for _ in range(n_ops):
            op = rng.choices(range(5), weights=_WI)[0]
            tx = db.start_transaction(ctx, write=True)
            if op == 0:
                tx.create_vertex(next_id, properties=[(ts, 0)])
                alive.append(next_id)
                next_id += 1
            elif op == 1:
                tx.delete_vertex(tx.find_vertex(alive.pop(rng.randrange(len(alive)))))
            elif op == 2:
                tx.find_vertex(rng.choice(alive)).set_property(ts, rng.randrange(1 << 20))
            elif op == 3:
                a, b = tx.find_vertices(rng.sample(alive, 2))
                tx.create_edge(a, b, label=rng.choice((knows, None)),
                               directed=rng.random() < 0.8)
            else:
                edges = tx.find_vertex(rng.choice(alive)).edges()
                if edges:
                    tx.delete_edge(rng.choice(edges))
            tx.commit()

    _, tail, live, replayed = _two_ranks(body, base)
    return tail, live, replayed


def test_seeded_wi_run_replays_to_the_live_state_and_repeats():
    tail, live, replayed = seeded_wi_run()
    assert live == replayed
    assert {e[0] for r in tail for e in r} == {
        "new_v", "upd_v", "del_v", "edge+", "edge-"
    }
    # edge entries come in slot order, never set order: a second run logs
    # the same records byte for byte
    assert seeded_wi_run()[0] == tail


# -- (iv): the pre-image a commit installs is what a snapshot is served -------
def _update(ctx, db, xprop):
    _commit(ctx, db, lambda tx: tx.find_vertex(0).set_property(xprop, 99))


def _add_edge(ctx, db, xprop):
    _commit(ctx, db, lambda tx: tx.create_edge(*tx.find_vertices([0, 1])))


def _delete(ctx, db, xprop):
    _commit(ctx, db, lambda tx: tx.delete_vertex(tx.find_vertex(0)))


@pytest.mark.parametrize("change", [_update, _add_edge, _delete])
def test_snapshot_is_served_the_preimage_the_commit_installed(change):
    def look(tx, xprop):
        v = tx.find_vertex(0)
        return None if v is None else (v.property(xprop), v.degree())

    def body(ctx, db, xprop):
        _create(ctx, db, xprop, 0, 10)
        _create(ctx, db, xprop, 1, 11)
        snap = db.start_transaction(ctx, snapshot=True)
        change(ctx, db, xprop)
        seen = look(snap, xprop)
        snap.commit()
        after = db.start_transaction(ctx, snapshot=True)
        now = look(after, xprop)
        after.commit()
        return seen, now

    seen, now = _on_rank0(body)
    assert seen == (10, 0)
    assert now == {_update: (99, 0), _add_edge: (10, 1), _delete: None}[change]
