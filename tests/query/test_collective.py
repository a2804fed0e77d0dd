"""Collective mode: the engine inside a collective transaction.

Every rank calls ``QueryEngine.run`` with the same text and the same
collective transaction; each runs the plan on its own shard and the
engine combines the rows at the first operator that shapes them.  The
result must be the one a single rank computes alone (local mode) and
the one the full-scan reference computes, and every rank must return
the very same rows.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.query import QueryEngine, QueryPlanError, run_reference
from repro.rma import run_spmd

from .test_equivalence import _build, _canon, graphs, queries


def _run_everywhere(spec, texts, nranks, params=None):
    """Per text: ``(local rows, reference rows, [collective rows under
    locks, under a snapshot])`` as rank 0 saw them, after checking that
    every rank returned the same collective rows."""

    def prog(ctx):
        db = _build(ctx, spec)
        engine = QueryEngine(db)
        out = []
        for text in texts:
            local = ref = None
            if ctx.rank == 0:
                local = engine.run(ctx, text, params).rows
                ref = run_reference(ctx, db, text, params).rows
            got = []
            for snapshot in (False, True):
                tx = db.start_collective_transaction(ctx, snapshot=snapshot)
                got.append(engine.run(ctx, text, params, tx=tx).rows)
                tx.commit()
            out.append((local, ref, got))
        return out

    _, res = run_spmd(nranks, prog)
    for rank_out in res[1:]:
        assert [got for *_, got in rank_out] == [got for *_, got in res[0]]
    return res[0]


def _assert_equivalent(spec, texts, nranks):
    for text, (local, ref, got) in zip(texts, _run_everywhere(spec, texts, nranks)):
        assert _canon(local) == _canon(ref), text
        for rows in got:
            assert _canon(rows) == _canon(ref), (text, rows, ref)


@pytest.mark.parametrize("nranks", [2, 3])
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(spec=graphs(), data=st.data())
def test_collective_matches_local_and_reference(nranks, spec, data):
    n = len(spec["vertices"])
    texts = data.draw(st.lists(queries(n), min_size=1, max_size=4))
    _assert_equivalent(spec, texts, nranks)


#: persons 0-7 (L0, p = score) own vehicles 20-22 (L1, p = 1 is active);
#: most persons own vehicles on both ranks' shards, and L1 is the rarer
#: label, so the planner anchors the pattern at the vehicles
BI2_SPEC = {
    "vertices": [(i, ["L0"], i % 5) for i in range(8)]
    + [(20, ["L1"], 1), (21, ["L1"], 1), (22, ["L1"], 0)],
    "edges": [(i, 20 + i % 3, "E0") for i in range(8)]
    + [(i, 20 + (i + 1) % 3, "E0") for i in range(8)],
}
BI2 = "MATCH (per:L0)-[:E0]->(v:L1) WHERE per.p > 0 AND v.p = 1 RETURN count(DISTINCT per)"


@pytest.mark.parametrize("nranks", [2, 3])
def test_bi2_anchored_at_the_neighbor_counts_each_source_once(nranks):
    """Summing each rank's own ``count(DISTINCT per)`` would count a
    person whose active vehicles live on two shards twice; the engine
    ships the persons, not the counts."""

    def anchor(ctx):
        db = _build(ctx, BI2_SPEC)
        return QueryEngine(db).prepare(ctx, BI2).ops[0].spec.var

    _, anchors = run_spmd(nranks, anchor)
    assert anchors[0] == "v"
    # the per-shard answers a summing combine would add up
    active = {app for app, _, p in BI2_SPEC["vertices"] if p == 1 and app >= 20}
    per_shard = [
        {s for s, d, _ in BI2_SPEC["edges"] if d in active and d % nranks == r and s % 5 > 0}
        for r in range(nranks)
    ]
    want = len(set().union(*per_shard))
    assert sum(map(len, per_shard)) > want
    ((local, ref, got),) = _run_everywhere(BI2_SPEC, [BI2], nranks)
    assert local == ref == [(want,)]
    assert got == [[(want,)], [(want,)]]


NAMED = {
    # a seek binds on its ID's home rank only: no row twice
    "seek": "MATCH (a {id = 1})-[]-(b) RETURN b.id",
    "seek_var_length": "MATCH (a {id = 2})-[*1..2]-(b) RETURN count(DISTINCT b)",
    # each rank cuts its rows to skip + limit; rank 0 sorts the union
    "order_limit": "MATCH (a:L0) RETURN a.id, a.p ORDER BY a.p DESC, a.id SKIP 1 LIMIT 3",
    "distinct_order": "MATCH (a)-[]->(b) RETURN DISTINCT b.id ORDER BY b.id",
    # every row on one rank: its cut must keep skip + limit of them
    "one_rank_limit": "MATCH (v {id = 20})<-[]-(a) RETURN a.id ORDER BY a.id SKIP 2 LIMIT 3",
    # only the first scan partitions: a later one sweeps every shard
    "cross_join": "MATCH (a:L1), (b:L1) RETURN a.id, b.id",
    "cross_join_seek": "MATCH (a:L1), (b {id = 3}) RETURN a.id, b.id",
    # avg ships a sum and a count, collect its values
    "collect_avg": (
        "MATCH (a:L0) RETURN avg(a.p), collect(a.p), collect(DISTINCT a.p), "
        "count(DISTINCT a.p), sum(DISTINCT a.p)"
    ),
    "grouped_collect_avg": "MATCH (a)-[]->(b) RETURN b.id, avg(a.p), collect(a.id), count(*)",
    "empty": "MATCH (a:L1 {p > 9}) RETURN count(*), avg(a.p), min(a.p), collect(a.id)",
}


@pytest.mark.parametrize("nranks", [2, 3])
def test_named_collective_cases(nranks):
    texts = list(NAMED.values())
    results = _run_everywhere(BI2_SPEC, texts, nranks)
    for text, (local, ref, got) in zip(texts, results):
        assert _canon(local) == _canon(ref), text
        for rows in got:
            if "ORDER BY" in text:
                assert rows == local, text
            assert _canon(rows) == _canon(ref), text
    seek_rows = results[0][2][0]
    assert len(seek_rows) == len(set(seek_rows)) > 0


@pytest.mark.parametrize("snapshot", [False, True])
def test_collective_scans_read_only_their_own_shard(snapshot):
    """Each rank sweeps and reads the vertices of its own shard: a
    collective scan-and-aggregate issues no remote one-sided operation,
    where every rank reading the whole graph would."""
    text = "MATCH (a:L0) WHERE a.p > 0 RETURN count(*), collect(DISTINCT a.p)"

    def prog(ctx):
        db = _build(ctx, BI2_SPEC)
        tx = db.start_collective_transaction(ctx, snapshot=snapshot)
        counters = ctx.rt.trace.counters[ctx.rank]
        before = counters.snapshot()
        rows = QueryEngine(db).run(ctx, text, tx=tx).rows
        remote = counters.diff(before)["remote_ops"]
        tx.commit()
        return rows, remote

    _, res = run_spmd(3, prog)
    assert [rows for rows, _ in res] == [[(6, [1, 2, 3, 4])]] * 3
    assert [remote for _, remote in res] == [0, 0, 0]


def test_write_in_a_collective_transaction_raises():
    def prog(ctx):
        db = _build(ctx, BI2_SPEC)
        engine = QueryEngine(db)
        tx = db.start_collective_transaction(ctx, write=True)
        with pytest.raises(QueryPlanError, match="read queries only"):
            engine.run(ctx, "MATCH (v {id = 1}) SET v.p = 7", tx=tx)
        tx.abort()
        return engine.run(ctx, "MATCH (v {id = 1}) RETURN v.p").rows

    _, res = run_spmd(2, prog)
    assert res == [[(1,)], [(1,)]]


def test_a_query_error_raises_on_every_rank():
    def prog(ctx):
        db = _build(ctx, BI2_SPEC)
        tx = db.start_collective_transaction(ctx)
        with pytest.raises(QueryPlanError):
            QueryEngine(db).run(ctx, "MATCH (a) RETURN b.id", tx=tx)
        tx.commit()
        return True

    _, res = run_spmd(3, prog)
    assert all(res)
