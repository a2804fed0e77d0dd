"""Property-based equivalence: engine == reference on random graphs.

Random small labelled property graphs meet random Cypher-lite read
queries; the batched, index-routed, cost-ordered engine must produce
exactly the multiset of rows the naive full-scan reference interpreter
produces — including when the RMA substrate injects seeded transient
faults and the queries run under :func:`run_transaction` retries.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gda import GdaConfig, GdaDatabase
from repro.gda.retry import RetryPolicy, run_transaction
from repro.gdi import Constraint, Datatype
from repro.query import QueryEngine, run_reference
from repro.rma import run_spmd
from repro.rma.faults import FaultPlan, RmaTransientError

NRANKS = 2
VLABELS = ["L0", "L1"]
ELABELS = ["E0", "E1"]


# -- strategies --------------------------------------------------------------
@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    vertices = []
    for i in range(n):
        labels = draw(
            st.lists(st.sampled_from(VLABELS), unique=True, max_size=2)
        )
        p = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=4)))
        vertices.append((i, labels, p))
    n_edges = draw(st.integers(min_value=0, max_value=2 * n))
    edges = [
        (
            draw(st.integers(min_value=0, max_value=n - 1)),
            draw(st.integers(min_value=0, max_value=n - 1)),
            draw(st.sampled_from(ELABELS)),
        )
        for _ in range(n_edges)
    ]
    return {"vertices": vertices, "edges": edges}


@st.composite
def node_patterns(draw, var, n):
    label = draw(st.one_of(st.none(), st.sampled_from(VLABELS)))
    pred = draw(
        st.one_of(
            st.none(),
            st.sampled_from(["p = {k}", "p > {k}", "p < {k}", "id = {a}"]),
        )
    )
    text = var
    if label:
        text += f":{label}"
    if pred:
        text += " {" + pred.format(
            k=draw(st.integers(min_value=0, max_value=4)),
            a=draw(st.integers(min_value=0, max_value=n - 1)),
        ) + "}"
    return f"({text})"


@st.composite
def rel_patterns(draw):
    label = draw(st.one_of(st.none(), st.sampled_from(ELABELS)))
    inner = f":{label}" if label else ""
    if draw(st.booleans()):  # variable-length
        lo = draw(st.integers(min_value=0, max_value=2))
        hi = draw(st.integers(min_value=lo, max_value=3))
        inner += f"*{lo}..{hi}"
    arrow = draw(st.sampled_from([("-", "->"), ("<-", "-"), ("-", "-")]))
    body = f"[{inner}]" if inner else ""
    return f"{arrow[0]}{body}{arrow[1]}"


@st.composite
def queries(draw, n):
    n_nodes = draw(st.integers(min_value=1, max_value=3))
    var_names = ["a", "b", "c"][:n_nodes]
    pattern = draw(node_patterns("a", n))
    for i in range(1, n_nodes):
        pattern += draw(rel_patterns()) + draw(
            node_patterns(var_names[i], n)
        )
    where = ""
    if draw(st.booleans()):
        v = draw(st.sampled_from(var_names))
        cond = draw(
            st.sampled_from(
                [
                    f"{v}.p >= {draw(st.integers(min_value=0, max_value=4))}",
                    f"{v}.p IS NULL",
                    f"{v}:L1",
                    f"NOT {v}.p = {draw(st.integers(min_value=0, max_value=4))}",
                ]
            )
        )
        where = f" WHERE {cond}"
    ids = ", ".join(f"{v}.id" for v in var_names)
    order = " ORDER BY " + ", ".join(f"{v}.id" for v in var_names)
    ret = draw(
        st.sampled_from(
            [
                f" RETURN {ids}",
                f" RETURN DISTINCT {ids}{order}",
                " RETURN count(*)",
                f" RETURN min(a.p), max(a.p), sum(a.p), count(a.p)",
                f" RETURN {ids}{order} SKIP 1 LIMIT 3",
                f" RETURN a.p AS g, count(*) AS n ORDER BY g, n",
            ]
        )
    )
    return f"MATCH {pattern}{where}{ret}"


def _build(ctx, spec):
    db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=4096))
    if ctx.rank == 0:
        for name in VLABELS + ELABELS:
            db.create_label(ctx, name)
        db.create_property_type(ctx, "p", dtype=Datatype.INT64)
    ctx.barrier()
    db.replica(ctx).sync()
    if ctx.rank == 0:
        ptype = db.property_type(ctx, "p")
        tx = db.start_transaction(ctx, write=True)
        handles = {}
        for app, labels, p in spec["vertices"]:
            handles[app] = tx.create_vertex(
                app,
                labels=[db.label(ctx, l) for l in labels],
                properties=[(ptype, p)] if p is not None else [],
            )
        for src, dst, lbl in spec["edges"]:
            tx.create_edge(handles[src], handles[dst], label=db.label(ctx, lbl))
        tx.commit()
    ctx.barrier()
    return db


def _canon(rows):
    return sorted(rows, key=repr)


def _engine_rows(ctx, engine, text, snapshot):
    with engine.db.start_transaction(ctx, snapshot=snapshot) as tx:
        rows = engine.run(ctx, text, tx=tx).rows
        tx.commit()
    return rows


def _check_case(spec, texts, faults=None):
    """The engine under read locks and on a snapshot against the
    reference, text by text."""

    def prog(ctx):
        db = _build(ctx, spec)
        failures = []
        if ctx.rank == 0:
            engine = QueryEngine(db)
            for text in texts:
                want = _with_retries(
                    lambda: run_reference(ctx, db, text).rows, faults
                )
                for snapshot in (False, True):
                    got = _with_retries(
                        lambda: _engine_rows(ctx, engine, text, snapshot), faults
                    )
                    if _canon(got) != _canon(want):
                        failures.append((text, snapshot, got, want))
        ctx.barrier()
        return failures

    _, res = run_spmd(NRANKS, prog, faults=faults)
    assert res[0] == [], res[0]


def _with_retries(fn, faults):
    if faults is None:
        return fn()
    last = None
    for _ in range(30):
        try:
            return fn()
        except RmaTransientError as exc:  # pragma: no cover - fault timing
            last = exc
    raise last  # pragma: no cover


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(spec=graphs(), data=st.data())
def test_engine_matches_reference(spec, data):
    n = len(spec["vertices"])
    texts = data.draw(st.lists(queries(n), min_size=1, max_size=4))
    _check_case(spec, texts)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(spec=graphs(), data=st.data(), seed=st.integers(0, 2**16))
def test_engine_matches_reference_under_faults(spec, data, seed):
    n = len(spec["vertices"])
    texts = data.draw(st.lists(queries(n), min_size=1, max_size=2))
    faults = FaultPlan(seed=seed, transient_rate=0.005)
    _check_case(spec, texts, faults=faults)


def test_retry_wrapper_equivalence_under_faults():
    """Engine queries inside run_transaction retry loops stay correct."""
    spec = {
        "vertices": [(i, [VLABELS[i % 2]], i % 3) for i in range(6)],
        "edges": [(i, (i + 1) % 6, ELABELS[i % 2]) for i in range(6)],
    }
    text = "MATCH (a:L0)-[*1..2]-(b) RETURN DISTINCT a.id, b.id ORDER BY a.id, b.id"

    def prog(ctx):
        db = _build(ctx, spec)
        out = None
        if ctx.rank == 0:
            engine = QueryEngine(db)

            def body(tx):
                return engine.run(ctx, text, tx=tx).rows

            got = run_transaction(
                ctx, db, body, write=False,
                policy=RetryPolicy(max_attempts=30),
            )
            want = _with_retries(
                lambda: run_reference(ctx, db, text).rows, object()
            )
            out = (got, want)
        ctx.barrier()
        return out

    _, res = run_spmd(
        NRANKS, prog, faults=FaultPlan(seed=3, transient_rate=0.01)
    )
    got, want = res[0]
    assert got == want


def test_snapshot_scans_see_vertices_deleted_after_the_watermark():
    """Label, index and full scans under a snapshot enumerate what the
    snapshot sees: the live directory no longer lists a vertex deleted
    after the watermark, the snapshot's tombstones do."""
    texts = (
        "MATCH (n:L) RETURN count(n)",  # label scan
        "MATCH (n:M) RETURN count(n)",  # index scan
        "MATCH (n) RETURN count(n)",  # full scan
        "MATCH (n:L) RETURN n.id ORDER BY n.id",
    )

    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=4096))
        if ctx.rank == 0:
            db.create_label(ctx, "L")
            db.create_label(ctx, "M")
        ctx.barrier()
        db.replica(ctx).sync()
        labels = [db.label(ctx, "L"), db.label(ctx, "M")]
        db.create_index(ctx, "m_idx", Constraint.has_label(labels[1].int_id))
        out = None
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            for app in range(4):
                tx.create_vertex(app, labels=labels)
            tx.commit()
            snap = db.start_transaction(ctx, snapshot=True)
            tx = db.start_transaction(ctx, write=True)
            for app in (1, 2):
                tx.delete_vertex(tx.find_vertex(app))
            tx.commit()
            engine = QueryEngine(db)
            assert engine.prepare(ctx, texts[1]).ops[0].source == "index"
            out = [engine.run(ctx, text, tx=snap).rows for text in texts]
            snap.commit()
            out += [engine.run(ctx, text).rows for text in texts]
        ctx.barrier()
        return out

    _, res = run_spmd(NRANKS, prog)
    at_snapshot, now = res[0][:4], res[0][4:]
    assert at_snapshot == [[(4,)]] * 3 + [[(0,), (1,), (2,), (3,)]]
    assert now == [[(2,)]] * 3 + [[(0,), (3,)]]
