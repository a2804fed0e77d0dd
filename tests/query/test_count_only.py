"""Count-only destinations: bound by internal ID, never read.

An expansion's destination that the plan only counts (``count(b)``,
``count(DISTINCT b)``, or not at all under ``count(*)``) is bound to
the internal IDs its sources' slots name (``NEED_NONE``), with no
holder read.  Its answers must equal the reference interpreter's and
the row form's (the aggregate over rows of bindings) in every kind of
transaction: a snapshot, a locking read, a collective one on 2 and 3
ranks, and a write transaction that deleted and created second-hop
vertices before it counts them.  A destination that anything looks
into keeps its read.
"""

import re

import numpy as np
import pytest

from repro.gda import GdaConfig, GdaDatabase
from repro.gda.holder import NEED_IDENT
from repro.gdi import Datatype
from repro.query import QueryEngine, run_reference
from repro.query import shaping
from repro.query.columnar import UnfetchedScan, VidVal
from repro.query.logical import NEED_NONE
from repro.rma import run_spmd

from .conftest import run_rank0

N = 40
SRC = 10  # a heavy self-loop and a heavy out-edge

RELS = [
    "-[]->", "<-[]-", "-[]-", "-[:E]->", "<-[:F]-",
    "-[*1..2]-", "-[*2..2]->", "<-[:E*0..2]-", "-[*0..2]-", "-[:F*1..2]->",
]
COUNTS = ["count(b)", "count(DISTINCT b)", "count(*)"]
TEXTS = [
    f"MATCH {start}{rel}(b) RETURN {keys}{count}"
    for start, keys in (("(a {id = $src})", ""), ("(a:M)", "a.id, "))
    for rel in RELS
    for count in COUNTS
]
PARAMS = {"src": SRC}

#: texts whose ``b`` something looks into: each still reads it
READ_B = [
    "MATCH (a {id = $src})-[*1..2]-(b) RETURN b.id",
    "MATCH (a {id = $src})-[*1..2]-(b) RETURN sum(b.x)",
    "MATCH (a {id = $src})-[*1..2]-(b:L) RETURN count(DISTINCT b)",
    "MATCH (a {id = $src})-[]-(b) WHERE b.x > 1 RETURN count(b)",
    "MATCH (a {id = $src})-[]-(b) RETURN count(b.id), collect(b)",
    "MATCH (a {id = $src})-[]-(b) RETURN b, count(*)",
    # a relationship outputs its endpoints' application IDs
    "MATCH (a {id = $src})-[r]-(b) RETURN count(DISTINCT r)",
    "MATCH (a {id = $src})-[r:E]->(b) RETURN r",
    "MATCH (a {id = $src})-[]-(b)-[]->(c) RETURN count(DISTINCT c)",
]
#: writes that name ``b``: each reads its holder
WRITE_B = [
    "MATCH (a {id = $src})-[]->(b) SET a.x = b.x",
    "MATCH (a {id = $src})-[]->(b) SET b:L",
    "MATCH (a {id = $src})-[]->(b) DETACH DELETE b",
    "MATCH (a {id = $src})-[]->(b) CREATE (b)-[:E]->(c {id = 1000})",
]


def _build(ctx):
    db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=4096))
    if ctx.rank == 0:
        for name in ("L", "M", "E", "F"):
            db.create_label(ctx, name)
        db.create_property_type(ctx, "x", dtype=Datatype.INT64)
        db.create_property_type(ctx, "w", dtype=Datatype.DOUBLE)
    ctx.barrier()
    db.replica(ctx).sync()
    if ctx.rank == 0:
        label = {name: db.label(ctx, name) for name in ("L", "M", "E", "F")}
        x, w = db.property_type(ctx, "x"), db.property_type(ctx, "w")
        tx = db.start_transaction(ctx, write=True)
        vs = [
            tx.create_vertex(
                i,
                labels=[label["L" if i % 2 == 0 else "M"]],
                properties=[] if i % 7 == 0 else [(x, i % 5)],
            )
            for i in range(N)
        ]
        for i in range(N):
            tx.create_edge(vs[i], vs[(i + 1) % N], label=label["E"])
            tx.create_edge(vs[i], vs[(i * 3 + 1) % N], label=label["F"])
            if i % 4 == 0:  # an edge back: two edges join one pair
                tx.create_edge(vs[(i + 1) % N], vs[i], label=label["E"])
            if i % 5 == 0:  # heavy: its neighbor sits behind an edge holder
                tx.create_edge(
                    vs[i], vs[(i + 7) % N], label=label["E"], properties=[(w, i / 10)]
                )
        tx.create_edge(vs[3], vs[3], label=label["E"])
        tx.create_edge(vs[SRC], vs[SRC], label=label["F"], properties=[(w, 0.5)])
        tx.commit()
    ctx.barrier()
    return db


def _row_form(monkeypatch):
    """Make every aggregate run over rows of bindings (``VidVal``s for
    a count-only variable), not over columns."""
    monkeypatch.setattr(shaping, "run_aggregate_frame", lambda *args: None)


def _canon(rows):
    return sorted(rows, key=repr)


def test_the_counted_destination_is_planned_without_a_read():
    def prog(ctx):
        db = _build(ctx)
        out = None
        if ctx.rank == 0:
            engine = QueryEngine(db)
            out = [
                (engine.prepare(ctx, t)._needs, engine.explain(ctx, t))
                for t in TEXTS + READ_B + WRITE_B
            ]
        ctx.barrier()
        return out

    _, res = run_spmd(2, prog)
    for text, (needs, plan) in zip(TEXTS + READ_B, res[0]):
        unread = text not in READ_B
        assert (needs["b"] == NEED_NONE) == unread, text
        assert needs["a"] != NEED_NONE, text
        (expand,) = [line for line in plan.splitlines() if re.search(r"Expand.*[->]\(b\b", line)]
        assert ("[no fetch]" in expand) == unread, plan
    # b is a later expansion's source, c only counted
    needs, plan = res[0][len(TEXTS + READ_B) - 1]
    assert needs["c"] == NEED_NONE
    assert "(c) [no fetch]" in plan and "(b) [no fetch]" not in plan
    for text, (needs, plan) in zip(WRITE_B, res[0][len(TEXTS + READ_B):]):
        assert needs["b"] == NEED_IDENT and "[no fetch]" not in plan, text


@pytest.mark.parametrize("rows", [False, True], ids=["columns", "rows"])
def test_counts_match_the_reference_in_snapshot_and_lock_mode(rows, monkeypatch):
    if rows:
        _row_form(monkeypatch)

    def prog(ctx):
        db = _build(ctx)
        out = None
        if ctx.rank == 0:
            engine = QueryEngine(db)
            out = []
            for text in TEXTS + READ_B:
                ref = run_reference(ctx, db, text, PARAMS).rows
                got = []
                for snapshot in (True, False):
                    tx = db.start_transaction(ctx, snapshot=snapshot)
                    got.append(engine.run(ctx, text, PARAMS, tx=tx).rows)
                    tx.commit()
                out.append((text, ref, got))
        ctx.barrier()
        return out

    _, res = run_spmd(2, prog)
    for text, ref, got in res[0]:
        for mode, rows_ in zip(("snapshot", "lock"), got):
            assert _canon(rows_) == _canon(ref), (text, mode)


@pytest.mark.parametrize("rows", [False, True], ids=["columns", "rows"])
@pytest.mark.parametrize("nranks", [2, 3])
def test_counts_match_the_reference_in_a_collective_transaction(nranks, rows, monkeypatch):
    if rows:
        _row_form(monkeypatch)

    def prog(ctx):
        db = _build(ctx)
        engine = QueryEngine(db)
        out = []
        for text in TEXTS:
            ref = run_reference(ctx, db, text, PARAMS).rows if ctx.rank == 0 else None
            got = []
            for snapshot in (True, False):
                tx = db.start_collective_transaction(ctx, snapshot=snapshot)
                got.append(engine.run(ctx, text, PARAMS, tx=tx).rows)
                tx.commit()
            out.append((text, ref, got))
        return out

    _, res = run_spmd(nranks, prog)
    for rank_out in res[1:]:
        assert [got for *_, got in rank_out] == [got for *_, got in res[0]]
    for text, ref, got in res[0]:
        for rows_ in got:
            assert _canon(rows_) == _canon(ref), text


def test_counts_see_a_write_transaction_delete_and_create_second_hop_vertices():
    seeks = [t for t in TEXTS if "$src" in t]

    def read_twin(text):
        """The same count over ``b.id``, which reads every ``b``."""
        return text.replace("DISTINCT b)", "DISTINCT b.id)").replace(
            "count(b)", "count(b.id)").replace("count(*)", "count(b.id)")

    def prog(ctx):
        db = _build(ctx)
        out = None
        if ctx.rank == 0:
            engine = QueryEngine(db)
            tx = db.start_transaction(ctx, write=True)
            second = engine.run(
                ctx, "MATCH (a {id = $src})-[*2..2]-(b) RETURN b.id", PARAMS, tx=tx
            ).rows
            first = engine.run(
                ctx, "MATCH (a {id = $src})-[]->(b) RETURN b.id", PARAMS, tx=tx
            ).rows
            gone = min(second)[0]
            engine.run(ctx, "MATCH (v {id = $k}) DETACH DELETE v", {"k": gone}, tx=tx)
            engine.run(
                ctx,
                "MATCH (m {id = $m}) CREATE (m)-[:E]->(n {id = 999})-[:F]->(m)",
                {"m": max(first)[0]},
                tx=tx,
            )
            got = [engine.run(ctx, t, PARAMS, tx=tx).rows for t in seeks]
            twins = [engine.run(ctx, read_twin(t), PARAMS, tx=tx).rows for t in seeks]
            tx.commit()
            ref = [run_reference(ctx, db, t, PARAMS).rows for t in seeks]
            out = (got, twins, ref)
        ctx.barrier()
        return out

    _, res = run_spmd(2, prog)
    got, twins, ref = res[0]
    for text, g, t, r in zip(seeks, got, twins, ref):
        assert g == t == r, text


def test_profile_shows_the_second_hop_unread():
    """FOF's ``VarLengthExpand`` moves what reading the first hop with
    its topology moves, no more; ``RETURN b.id`` reads the second hop."""
    fof = "PROFILE MATCH (a {id = 100})-[*1..2]-(b) RETURN count(DISTINCT b)"
    hops = "PROFILE MATCH (a {id = 100})-[]-(b)-[]-(c) RETURN count(*)"
    ids = "PROFILE MATCH (a {id = 100})-[*1..2]-(b) RETURN b.id"

    def fn(ctx, db):
        engine = QueryEngine(db)
        return [engine.run(ctx, text) for text in (fof, hops, ids)]

    fof_r, hops_r, ids_r = run_rank0(fn)
    assert fof_r.rows == [(5,)] and sorted(ids_r.rows) == [(101,), (102,), (103,), (104,), (200,)]

    def expand_rows(result):
        return [
            (line, dict(kv.split("=") for kv in line.split("[")[-1].rstrip("]").split()))
            for line in result.plan_text.splitlines()
            if "Expand(" in line
        ]

    (fof_line, fof_p), = expand_rows(fof_r)
    (first_line, first_p), (second_line, second_p) = expand_rows(hops_r)
    (ids_line, ids_p), = expand_rows(ids_r)
    assert "(b) [no fetch]" in fof_line and "[no fetch]" not in ids_line
    # the one-hop Expand reads the same first hop with its topology ...
    assert "[no fetch]" not in first_line and "(c) [no fetch]" in second_line
    assert (fof_p["msgs"], fof_p["rma_bytes"]) == (first_p["msgs"], first_p["rma_bytes"])
    # ... and the count-only hop after it reads nothing
    assert (second_p["msgs"], second_p["rma_bytes"]) == ("0", "0")
    assert int(ids_p["msgs"]) > int(fof_p["msgs"])
    assert int(ids_p["rma_bytes"]) > int(fof_p["rma_bytes"])


def test_an_unfetched_binding_has_no_columns():
    scan = UnfetchedScan(np.array([5, 9, 5], dtype=np.int64))
    assert scan.vids.tolist() == [5, 9, 5]
    for read in (
        lambda: len(scan),
        lambda: scan.take(np.array([0])),
        lambda: scan.present,
        lambda: scan.app_ids,
        lambda: scan.has_heavy_edges(),
        lambda: scan.has_label(None),
        lambda: scan.property(None),
        lambda: scan.neighbors(),
        lambda: scan[0],
        lambda: list(scan),
    ):
        with pytest.raises((AttributeError, TypeError)):
            read()
    val = VidVal(5)
    assert val.output() == 5 and not val.is_edge
    for read in (lambda: val.app_id, lambda: val.prop("x"), lambda: val.has_label("L"),
                 lambda: val.cmp_key()):
        with pytest.raises(NotImplementedError):
            read()
    with pytest.raises(AttributeError):
        val.h  # no handle behind it
