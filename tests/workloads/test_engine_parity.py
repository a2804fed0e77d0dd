"""The workloads agree with every way the engine answers their texts.

A Cypher-lite text has three independent answers: the engine in a local
transaction on one rank, the engine in a collective transaction on every
rank (each rank sweeps its own shard, the engine combines the rows), and
the full-scan reference interpreter (:func:`repro.query.run_reference`).
The workloads that are engine texts — friends-of-friends (local) and
BI2 (collective) — must match all three; the hand-coded ones — path
search and the label summaries — must match the engine.
"""

import pytest

from repro.gda import GdaConfig, GdaDatabase
from repro.generator import KroneckerParams, build_lpg, default_schema
from repro.query import QueryEngine, run_reference
from repro.rma import run_spmd
from repro.workloads.bi import (
    aggregate_property_by_label,
    bi2_style_query,
    group_count_by_label,
)
from repro.workloads.interactive import (
    friends_of_friends,
    transactional_path_search,
)

PARAMS = KroneckerParams(scale=6, edge_factor=4, seed=55)
SCHEMA = default_schema(n_vertex_labels=2, n_edge_labels=2, n_properties=2)
NRANKS = 2


def _run_all(fn):
    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=8192))
        g = build_lpg(ctx, db, PARAMS, SCHEMA, dedup=True)
        engine = QueryEngine(db)
        return fn(ctx, g, engine)

    _, res = run_spmd(NRANKS, prog)
    return res


def _three_ways(ctx, engine, text, params=None):
    """``(collective rows, local rows, reference rows)`` of one text; the
    local and reference rows on rank 0 only (``None`` elsewhere)."""
    db = engine.db
    tx = db.start_collective_transaction(ctx)
    collective = engine.run(ctx, text, params, tx=tx).rows
    tx.commit()
    local = ref = None
    if ctx.rank == 0:
        local = engine.run(ctx, text, params).rows
        ref = run_reference(ctx, db, text, params).rows
    return collective, local, ref


def _engine_path_search(ctx, engine, src, dst, max_depth):
    """A ladder of exact-depth variable-length queries: ``*d..d`` has
    shortest-path-distance semantics, so the first depth with a hit is
    the answer."""
    params = {"s": src, "t": dst}
    if src == dst:
        result = engine.run(
            ctx, "MATCH (a {id = $s}) RETURN count(*)", params=params
        )
        return 0 if result.scalar() else None
    for depth in range(1, max_depth + 1):
        result = engine.run(
            ctx,
            f"MATCH (a {{id = $s}})-[*{depth}..{depth}]-(b {{id = $t}}) "
            "RETURN count(b)",
            params=params,
        )
        if result.scalar():
            return depth
    return None


def _engine_group_count(ctx, g, engine):
    """One collective ``count(*)`` per known label."""
    counts = {}
    for label in g.db.all_labels(ctx):
        tx = g.db.start_collective_transaction(ctx)
        n = engine.run(ctx, f"MATCH (v:{label.name}) RETURN count(*)", tx=tx).scalar()
        tx.commit()
        if n:
            counts[label.name] = n
    return counts


def _engine_aggregate(ctx, g, engine, ptype, group_label=None):
    """One collective aggregate query per label."""
    stats = {}
    labels = [group_label] if group_label else g.db.all_labels(ctx)
    p = ptype.name
    for label in labels:
        tx = g.db.start_collective_transaction(ctx)
        c, s, mn, mx = engine.run(
            ctx,
            f"MATCH (v:{label.name}) RETURN count(v.{p}), "
            f"sum(v.{p}), min(v.{p}), max(v.{p})",
            tx=tx,
        ).rows[0]
        tx.commit()
        if c:
            stats[label.name] = {
                "count": c, "sum": s, "min": mn, "max": mx, "mean": s / c,
            }
    return stats


def test_fof_engine_parity():
    def body(ctx, g, engine):
        lbl = g.edge_label(0)
        cases = [(0, 1, None), (0, 2, None), (3, 3, None), (0, 2, lbl), (10**9, 2, None)]
        for src, hops, label in cases:
            rel = f":{label.name}*1..{hops}" if label else f"*1..{hops}"
            text = f"MATCH (a {{id = $src}})-[{rel}]-(b) RETURN b.id"
            collective, local, ref = _three_ways(ctx, engine, text, {"src": src})
            want = {row[0] for row in collective}
            assert len(want) == len(collective)  # each vertex once
            if ctx.rank == 0:
                fof = friends_of_friends(ctx, g, src, hops=hops, edge_label=label)
                assert fof == want == {r[0] for r in local} == {r[0] for r in ref}
                assert (fof == set()) == (src == 10**9)
        return True

    assert all(_run_all(body))


def test_path_search_engine_parity():
    def body(ctx, g, engine):
        out = None
        if ctx.rank == 0:
            for dst in (0, 1, 5, 17, 40, 10**9):
                hand = transactional_path_search(ctx, g, 0, dst, max_depth=6)
                decl = _engine_path_search(ctx, engine, 0, dst, 6)
                assert hand == decl, dst
            out = True
        ctx.barrier()
        return out

    assert _run_all(body)[0]


def test_bi2_engine_parity():
    def body(ctx, g, engine):
        count = bi2_style_query(ctx, g, min_score=50.0)
        # the schema's two properties are p_id and p_score: no p_active
        # test on the neighbor
        assert "p_active" not in g.ptypes
        text = (
            f"MATCH (per:{g.vertex_label(0).name})"
            f"-[:{g.edge_label(0).name}]->(v:{g.vertex_label(1).name}) "
            "WHERE per.p_score > $sv RETURN count(DISTINCT per)"
        )
        collective, local, ref = _three_ways(ctx, engine, text, {"sv": 50.0})
        assert collective == [(count,)]
        if ctx.rank == 0:
            assert local == ref == [(count,)]
        return count

    res = _run_all(body)
    assert res[0] == res[1] > 0  # the same answer on every rank


def test_group_count_engine_parity():
    def body(ctx, g, engine):
        hand = group_count_by_label(ctx, g)
        decl = _engine_group_count(ctx, g, engine)
        assert hand == decl
        return decl

    res = _run_all(body)
    assert res[0] == res[1] and res[0]


def test_aggregate_property_engine_parity():
    def body(ctx, g, engine):
        pt = g.ptypes["p_score"]
        hand = aggregate_property_by_label(ctx, g, pt)
        decl = _engine_aggregate(ctx, g, engine, pt)
        assert set(hand) == set(decl)
        for k in hand:
            for f in ("count", "sum", "min", "max", "mean"):
                assert hand[k][f] == pytest.approx(decl[k][f])
        return True

    assert all(_run_all(body))


def test_group_label_restriction_parity():
    def body(ctx, g, engine):
        pt = g.ptypes["p_score"]
        lbl = g.vertex_label(0)
        hand = aggregate_property_by_label(ctx, g, pt, group_label=lbl)
        decl = _engine_aggregate(ctx, g, engine, pt, group_label=lbl)
        assert set(hand) == set(decl) == {lbl.name}
        assert hand[lbl.name]["count"] == decl[lbl.name]["count"]
        return True

    assert all(_run_all(body))
