"""The declarative engine produces the hand-coded workloads' results.

Each test runs a hand-coded workload from :mod:`repro.workloads` (the
oracle) and issues the equivalent Cypher-lite text through
``QueryEngine.run`` itself.  The engine executes single-process plans, so
the text runs on rank 0 and is broadcast where the hand-coded kernel is
collective.
"""

import pytest

from repro.gda import GdaConfig, GdaDatabase
from repro.generator import KroneckerParams, build_lpg, default_schema
from repro.query import QueryEngine
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


def _engine_fof(ctx, engine, src, hops, edge_label=None):
    """The k-hop neighborhood as one variable-length-expand query."""
    rel = f":{edge_label.name}*1..{hops}" if edge_label else f"*1..{hops}"
    result = engine.run(
        ctx,
        f"MATCH (a {{id = $src}})-[{rel}]-(b) RETURN b.id",
        params={"src": src},
    )
    return {row[0] for row in result.rows}


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


def _engine_bi2(ctx, g, engine, min_score):
    """The BI2 pattern as one declarative query on rank 0, broadcast."""
    total = None
    if ctx.rank == 0:
        where, params = [], {}
        if "p_score" in g.ptypes:
            where.append("per.p_score > $sv")
            params["sv"] = min_score
        if "p_active" in g.ptypes:
            where.append("v.p_active = $dv")
            params["dv"] = True
        text = (
            f"MATCH (per:{g.vertex_label(0).name})"
            f"-[:{g.edge_label(0).name}]->(v:{g.vertex_label(1).name})"
        )
        if where:
            text += " WHERE " + " AND ".join(where)
        text += " RETURN count(DISTINCT per)"
        total = engine.run(ctx, text, params=params).scalar()
    return ctx.bcast(total, root=0)


def _engine_group_count(ctx, g, engine):
    """One ``count(*)`` per known label on rank 0, broadcast."""
    counts = None
    if ctx.rank == 0:
        counts = {}
        for label in g.db.all_labels(ctx):
            n = engine.run(
                ctx, f"MATCH (v:{label.name}) RETURN count(*)"
            ).scalar()
            if n:
                counts[label.name] = n
    return ctx.bcast(counts, root=0)


def _engine_aggregate(ctx, g, engine, ptype, group_label=None):
    """One aggregate query per label on rank 0, broadcast."""
    stats = None
    if ctx.rank == 0:
        stats = {}
        labels = [group_label] if group_label else g.db.all_labels(ctx)
        p = ptype.name
        for label in labels:
            c, s, mn, mx = engine.run(
                ctx,
                f"MATCH (v:{label.name}) RETURN count(v.{p}), "
                f"sum(v.{p}), min(v.{p}), max(v.{p})",
            ).rows[0]
            if c:
                stats[label.name] = {
                    "count": c, "sum": s, "min": mn, "max": mx, "mean": s / c,
                }
    return ctx.bcast(stats, root=0)


def test_fof_engine_parity():
    def body(ctx, g, engine):
        out = None
        if ctx.rank == 0:
            for src, hops in ((0, 1), (0, 2), (3, 3)):
                hand = friends_of_friends(ctx, g, src, hops=hops)
                decl = _engine_fof(ctx, engine, src, hops)
                assert hand == decl, (src, hops)
            # edge-label filtered
            lbl = g.edge_label(0)
            hand = friends_of_friends(ctx, g, 0, hops=2, edge_label=lbl)
            decl = _engine_fof(ctx, engine, 0, 2, edge_label=lbl)
            assert hand == decl
            # missing start vertex
            assert _engine_fof(ctx, engine, 10**9, 2) == set()
            out = True
        ctx.barrier()
        return out

    assert _run_all(body)[0]


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
        hand = bi2_style_query(ctx, g, min_score=50.0)
        decl = _engine_bi2(ctx, g, engine, 50.0)
        assert hand == decl
        return hand

    res = _run_all(body)
    assert res[0] == res[1]  # broadcast: same answer on every rank


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
