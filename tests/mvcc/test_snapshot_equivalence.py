"""Property tests: a snapshot read equals a full-scan oracle at its
watermark.

Hypothesis generates random transaction sequences; after every commit the
test retains (a) an open snapshot transaction and (b) a deep copy of a
plain-Python reference model at that moment.  When the sequence ends,
every retained snapshot must still reproduce its model copy exactly —
vertex presence (including vertices deleted *after* the watermark, found
through unpublish tombstones), labels, properties, the edge multiset, and
the directory-sweep enumeration.  The same property is re-checked under
injected RMA transient faults and after a rank crash + live failover.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.gda import GdaConfig, GdaDatabase
from repro.gda.retry import RetryPolicy, run_transaction
from repro.gdi import Datatype, EdgeOrientation
from repro.rma import run_spmd
from repro.rma.faults import FaultPlan, RmaTransientError

UNIVERSE = 8  # app-ID space of the generated operations

OPS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "create",
                "delete",
                "add_label",
                "remove_label",
                "set_prop",
                "add_edge",
                "del_edge",
            ]
        ),
        st.integers(min_value=0, max_value=UNIVERSE - 1),
        st.integers(min_value=0, max_value=UNIVERSE - 1),
    ),
    min_size=1,
    max_size=30,
)


def _apply(tx, model, op, a, b, labels, xprop):
    """Apply one generated op to both the database tx and the model."""
    label = labels[b % len(labels)]
    if op == "create":
        if a not in model["v"]:
            tx.create_vertex(a)
            model["v"][a] = {"labels": set(), "x": None}
    elif a not in model["v"]:
        return
    elif op == "delete":
        tx.delete_vertex(tx.find_vertex(a))
        del model["v"][a]
        model["e"] = [e for e in model["e"] if a not in e]
    elif op == "add_label":
        tx.find_vertex(a).add_label(label)
        model["v"][a]["labels"].add(label.name)
    elif op == "remove_label":
        if label.name in model["v"][a]["labels"]:
            tx.find_vertex(a).remove_label(label)
            model["v"][a]["labels"].discard(label.name)
    elif op == "set_prop":
        tx.find_vertex(a).set_property(xprop, b)
        model["v"][a]["x"] = b
    elif op == "add_edge":
        if b in model["v"] and a != b:
            tx.create_edge(tx.find_vertex(a), tx.find_vertex(b))
            model["e"].append((a, b))
    elif op == "del_edge":
        if (a, b) in model["e"]:
            v = tx.find_vertex(a)
            for e in v.edges(EdgeOrientation.OUTGOING):
                _, dst = e.endpoints()
                if tx.associate_vertex(dst).app_id == b:
                    tx.delete_edge(e)
                    model["e"].remove((a, b))
                    break


def _freeze(model):
    return {
        "v": {
            a: {"labels": set(d["labels"]), "x": d["x"]}
            for a, d in model["v"].items()
        },
        "e": list(model["e"]),
    }


def _verify_oracle(ctx, db, stx, frozen, xprop):
    """Full-scan comparison of one snapshot against its model copy."""
    w = stx.snapshot_watermark
    # point lookups over the whole app-ID space
    for app in range(UNIVERSE):
        v = stx.find_vertex(app)
        if app in frozen["v"]:
            want = frozen["v"][app]
            assert v is not None, (app, w)
            assert {l.name for l in v.labels()} == want["labels"], (app, w)
            assert v.property(xprop) == want["x"], (app, w)
        else:
            assert v is None, (app, w)
    # directory-sweep enumeration: the visible vid set IS the model set
    vids = []
    for shard in range(ctx.nranks):
        vids.extend(
            stx.visible_vertices(db.directory.shard_vertices(ctx, shard), shard)
        )
    handles = stx.associate_vertices(vids, missing_ok=True)
    got = sorted(h.app_id for h in handles if h is not None)
    assert got == sorted(frozen["v"]), w
    # edge multiset at the watermark
    got_edges = []
    for app in frozen["v"]:
        for e in stx.find_vertex(app).edges(EdgeOrientation.OUTGOING):
            _, dst = e.endpoints()
            got_edges.append((app, stx.associate_vertex(dst).app_id))
    assert sorted(got_edges) == sorted(frozen["e"]), w


@settings(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=OPS, granularity=st.integers(min_value=1, max_value=6))
# vid reuse (ROADMAP item 1(a)): a later create lands in the block of a
# vertex the snapshot still sees — as another ID, and as the same ID
@example(ops=[("create", 0, 0), ("delete", 0, 0), ("create", 2, 0)], granularity=1)
@example(ops=[("create", 0, 0), ("delete", 0, 0), ("create", 0, 0)], granularity=1)
# ... and deleted again: the tombstones list that vid once per deleted
# incarnation, and the sweep must still enumerate it once
@example(ops=[("create", 0, 0), ("delete", 0, 0)] * 2, granularity=1)
def test_snapshot_reads_equal_full_scan_oracle(ops, granularity):
    def prog(ctx):
        db = GdaDatabase.create(
            ctx, GdaConfig(blocks_per_rank=4096)
        )
        if ctx.rank == 0:
            for name in ("L0", "L1"):
                db.create_label(ctx, name)
            db.create_property_type(ctx, "x", dtype=Datatype.INT64)
        ctx.barrier()
        db.replica(ctx).sync()
        if ctx.rank != 0:
            ctx.barrier()
            return True
        labels = [db.label(ctx, f"L{i}") for i in range(2)]
        xprop = db.property_type(ctx, "x")
        model = {"v": {}, "e": []}
        retained = []  # (open snapshot tx, frozen model at its watermark)

        tx = db.start_transaction(ctx, write=True)
        for i, (op, a, b) in enumerate(ops):
            _apply(tx, model, op, a, b, labels, xprop)
            if (i + 1) % granularity == 0:
                tx.commit()
                retained.append(
                    (db.start_transaction(ctx, snapshot=True), _freeze(model))
                )
                tx = db.start_transaction(ctx, write=True)
        if tx.open:
            tx.commit()
        retained.append(
            (db.start_transaction(ctx, snapshot=True), _freeze(model))
        )

        # every retained snapshot reproduces its moment exactly, no
        # matter how much history committed after it
        for stx, frozen in retained:
            _verify_oracle(ctx, db, stx, frozen, xprop)
        for stx, _ in retained:
            stx.commit()
        # with no snapshot left open, GC reclaims the entire history
        db.mvcc.collect(ctx)
        assert db.mvcc.versions.total_entries() == 0
        assert db.mvcc.live_snapshots() == 0
        ctx.barrier()
        return True

    run_spmd(2, prog)


@settings(
    deadline=None,
    max_examples=8,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=OPS, seed=st.integers(min_value=0, max_value=2**16))
# the same vid-reuse sequence, padded with no-ops (deletes of an absent
# ID) so that each step commits on its own: this test commits every 4 ops
@example(
    ops=[("create", 0, 0)] + [("delete", 5, 0)] * 3
    + [("delete", 0, 0)] + [("delete", 5, 0)] * 3
    + [("create", 2, 0)],
    seed=0,
)
@example(
    ops=([("create", 0, 0)] + [("delete", 5, 0)] * 3
         + [("delete", 0, 0)] + [("delete", 5, 0)] * 3) * 2,
    seed=0,
)
def test_snapshot_oracle_holds_under_transient_faults(ops, seed):
    """Same property with injected RMA transients: writer transactions
    retry through the standard loop, snapshot scans re-run in place (a
    snapshot holds no locks, so a faulted scan is simply repeated)."""

    plan = FaultPlan(seed=seed, transient_rate=0.02, op_backoff_base=5e-7)

    def prog(ctx):
        db = GdaDatabase.create(
            ctx, GdaConfig(blocks_per_rank=4096)
        )
        if ctx.rank == 0:
            db.create_label(ctx, "L0")
            db.create_property_type(ctx, "x", dtype=Datatype.INT64)
        ctx.barrier()
        db.replica(ctx).sync()
        if ctx.rank != 0:
            ctx.barrier()
            return True
        labels = [db.label(ctx, "L0")]
        xprop = db.property_type(ctx, "x")
        model = {"v": {}, "e": []}
        retained = []
        batch = []

        def run_batch(txn):
            # replays must start from the committed state: rebuild the
            # model delta only after the transaction sticks
            staged = {"v": {k: dict(d) for k, d in model["v"].items()}}
            staged["v"] = {
                k: {"labels": set(d["labels"]), "x": d["x"]}
                for k, d in model["v"].items()
            }
            staged["e"] = list(model["e"])
            for op, a, b in batch:
                _apply(txn, staged, op, a, b, labels, xprop)
            return staged

        for i, (op, a, b) in enumerate(ops):
            batch.append((op, a, b))
            if (i + 1) % 4 == 0 or i + 1 == len(ops):
                model = run_transaction(
                    ctx,
                    db,
                    run_batch,
                    write=True,
                    policy=RetryPolicy(max_attempts=12),
                )
                batch = []
                retained.append(
                    (db.start_transaction(ctx, snapshot=True), _freeze(model))
                )

        for stx, frozen in retained:
            for attempt in range(12):
                try:
                    _verify_oracle(ctx, db, stx, frozen, xprop)
                    break
                except RmaTransientError:
                    continue  # lock-free: just run the scan again
            else:  # pragma: no cover - fault storm exhausted the retries
                pytest.fail("snapshot scan never completed")
        for stx, _ in retained:
            stx.commit()
        ctx.barrier()
        return True

    run_spmd(2, prog, faults=plan)
