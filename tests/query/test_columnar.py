"""Column shapes of the engine against the reference interpreter.

The scans, expansions, filters and aggregates of the read pipeline run
on ``VertexScan`` columns (:mod:`repro.query.columnar`).  Each query
below targets one shape the columns must get exactly right — nulls,
float sums, booleans, multi-source variable-length expansion, bound
destinations, a residual filter on a re-scanned variable, a missing
start vertex, heavy edge slots — and must equal
:func:`run_reference` row for row, float bits included.  The graph has
160 vertices, so a full or label scan under a snapshot reads columnar
batches; in lock mode every position is answered through its handle.
"""

import pytest

from repro.gda import GdaConfig, GdaDatabase
from repro.gdi import Datatype, Multiplicity
from repro.query import QueryEngine, run_reference
from repro.rma import run_spmd

N = 160

QUERIES = [
    # nulls: a third of the vertices lack x; sum of nothing is 0, min None
    ("MATCH (v:A) RETURN count(v.x), sum(v.x), min(v.x), max(v.x), avg(v.x)", None),
    ("MATCH (v:A) WHERE v.x IS NULL RETURN count(*), count(v.x), sum(v.x), min(v.x)", None),
    ("MATCH (v:A {x = 9999}) RETURN count(*), sum(v.x), min(v.x), max(v.d)", None),
    # order-sensitive double sums (a full scan reads in directory order)
    ("MATCH (v) RETURN sum(v.d), min(v.d), max(v.d), count(DISTINCT v.d)", None),
    # two x values past 2**53 compare equal as floats: the first one wins
    ("MATCH (v) RETURN min(v.x), max(v.x)", None),
    # ... and an int64 column meets a float exactly, as Python compares
    ("MATCH (v) WHERE v.x > 4611686018427387904.0 RETURN count(*)", None),
    ("MATCH (v) WHERE NOT v.x <= 4611686018427387904.0 RETURN count(*)", None),
    ("MATCH (v) RETURN v.f AS f, count(*), sum(v.d), sum(v.x), collect(v.x)", None),
    # booleans: a pushed-down predicate, a bare truth test, a negation
    ("MATCH (v:C) WHERE v.f = true RETURN count(*), sum(v.x)", None),
    ("MATCH (v:A) WHERE v.f RETURN count(*), sum(v.x)", None),
    ("MATCH (v) RETURN count(v.f), sum(v.f), min(v.f), max(v.f)", None),
    ("MATCH (v:C) WHERE NOT v.f RETURN v.id ORDER BY v.id", None),
    ("MATCH (v:A) WHERE v.x > 40 OR (v.f AND NOT v:C) RETURN count(*), sum(v.x)", None),
    # variable-length expansion from many sources
    ("MATCH (a:A)-[*1..2]->(b) RETURN count(DISTINCT b), count(*)", None),
    ("MATCH (a:C)-[:E*0..2]-(b:B) RETURN a.id, count(DISTINCT b) ORDER BY a.id", None),
    # ... whose rows come in BFS discovery order: the double sums see it
    ("MATCH (a {id = 5})-[*1..2]-(b) RETURN count(b.x), sum(b.d)", None),
    ("MATCH (a:C)-[*1..3]->(b) RETURN a.id, sum(b.d) ORDER BY a.id", None),
    # bound destinations: a cycle back to the anchor, a var-length check
    ("MATCH (a:A)-[:E]->(b)-[:E]->(a) RETURN a.id, b.id ORDER BY a.id, b.id", None),
    ("MATCH (a:C)-[]->(b), (a)-[*1..2]-(b:B) RETURN count(*)", None),
    # a bound re-scan followed by a residual filter on its variable
    ("MATCH (a:C)-[]->(b), (b:B) WHERE b.x IS NULL RETURN count(*)", None),
    ("MATCH (a:C)-[]->(b), (b:B) WHERE b.x > 10 OR b.f RETURN count(*), sum(b.x)", None),
    ("MATCH (a:A)-[:E]->(b), (b) WHERE NOT b.f RETURN a.id, b.id ORDER BY a.id", None),
    ("MATCH (a:C)-[]->(b), (b) WHERE b.tag = 't1' RETURN count(*)", None),
    # a start vertex that does not exist
    ("MATCH (a {id = $src})-[*1..2]-(b) RETURN count(DISTINCT b)", {"src": 12345}),
    ("MATCH (a {id = $src})-[]->(b) RETURN count(*), sum(b.x)", {"src": 12345}),
    # heavy edge slots: their neighbors sit behind edge holders
    ("MATCH (a {id = $src})-[:E]->(b) RETURN b.id, b.d ORDER BY b.id", {"src": 5}),
    ("MATCH (a:B)-[*1..2]-(b:A) RETURN count(DISTINCT b), count(*)", None),
    ("MATCH (a)-[:E]-(b) RETURN count(*), count(DISTINCT b), sum(b.x)", None),
    ("MATCH (a)-[{w > 0.5}]->(b) RETURN a.id, b.id ORDER BY a.id, b.id", None),
    ("MATCH (a:A)-[r]->(b:B) RETURN count(r), count(DISTINCT b)", None),
    # strings and multi-entry properties
    ("MATCH (v {tag = 't1'}) RETURN count(*)", None),
    ("MATCH (v:A) RETURN v.name AS name, count(*), min(v.x) ORDER BY name", None),
    ("MATCH (v:C) WHERE v.x > 10 AND v.d < 0.5 RETURN count(*), max(v.x)", None),
]


def _x(i):
    if i % 3 == 1:
        return None
    return (1 << 62) + i if i in (8, 20) else i * 7 % 50


def _d(i):
    return (i % 7) * 0.1 + (1e16 if i % 11 == 0 else 0.0) - (1e16 if i % 13 == 0 else 0.0)


def _build(ctx):
    db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=4096))
    if ctx.rank == 0:
        for name in ("A", "B", "C", "E", "F"):
            db.create_label(ctx, name)
        for name, dtype in (
            ("x", Datatype.INT64),
            ("d", Datatype.DOUBLE),
            ("f", Datatype.BOOL),
            ("name", Datatype.STRING),
            ("w", Datatype.DOUBLE),
        ):
            db.create_property_type(ctx, name, dtype=dtype)
        db.create_property_type(
            ctx, "tag", dtype=Datatype.STRING, multiplicity=Multiplicity.MULTI
        )
    ctx.barrier()
    db.replica(ctx).sync()
    if ctx.rank == 0:
        label = {name: db.label(ctx, name) for name in ("A", "B", "C", "E", "F")}
        pt = {name: db.property_type(ctx, name) for name in ("x", "d", "f", "name", "w", "tag")}
        tx = db.start_transaction(ctx, write=True)
        vs = []
        for i in range(N):
            labels = [label["A"] if i % 2 == 0 else label["B"]]
            labels += [label["C"]] if i % 3 == 0 else []
            props = [(pt["d"], _d(i))]
            if _x(i) is not None:
                props.append((pt["x"], _x(i)))
            if i % 4 < 2:
                props.append((pt["f"], i % 4 == 0))
            if i % 2 == 0:
                props.append((pt["name"], f"n{i % 10}"))
            v = tx.create_vertex(i, labels=labels, properties=props)
            if i % 4 == 2:
                v.add_property(pt["tag"], f"t{i % 3}")
                v.add_property(pt["tag"], f"t{i % 5}")
            vs.append(v)
        for i in range(N):
            tx.create_edge(vs[i], vs[(i + 1) % N], label=label["E"])
            tx.create_edge(vs[i], vs[(i * 7 + 3) % N], label=label["F"])
            if i % 6 == 0:
                tx.create_edge(vs[(i + 1) % N], vs[i], label=label["E"])
            if i % 16 == 5:
                tx.create_edge(
                    vs[i], vs[(i + 9) % N], label=label["E"],
                    properties=[(pt["w"], i / 10)],
                )
        tx.commit()
    ctx.barrier()
    return db


#: writes after the snapshot opens: a property, an edge, a label — none
#: of which the snapshot may see (and no vertex joins or leaves the
#: directory, so a full scan keeps its order)
WRITES = [
    "MATCH (v {id = 4}) SET v.x = 777, v.d = 1000.5",
    "MATCH (a {id = 0}), (b {id = 50}) CREATE (a)-[:E]->(b)",
    "MATCH (v {id = 7}) SET v:C",
]


@pytest.mark.parametrize("snapshot", [False, True], ids=["lock", "snapshot"])
def test_column_shapes_match_the_reference(snapshot):
    def prog(ctx):
        db = _build(ctx)
        out = None
        if ctx.rank == 0:
            engine = QueryEngine(db)
            want = [run_reference(ctx, db, t, p).rows for t, p in QUERIES]
            tx = db.start_transaction(ctx, snapshot=snapshot)
            if snapshot:
                for text in WRITES:
                    engine.run(ctx, text)
            got = [engine.run(ctx, t, p, tx=tx).rows for t, p in QUERIES]
            tx.commit()
            out = (got, want)
        ctx.barrier()
        return out

    _, res = run_spmd(2, prog)
    got, want = res[0]
    for (text, _), g, w in zip(QUERIES, got, want):
        if "ORDER BY" not in text:
            g, w = sorted(g, key=repr), sorted(w, key=repr)
        assert g == w, text
