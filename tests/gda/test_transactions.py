"""Integration tests for GDA transactions: CRUD, ACID behaviours, handles."""

import pytest

from repro.gda import GdaConfig, GdaDatabase
from repro.gdi import (
    Constraint,
    Datatype,
    EdgeOrientation,
    GdiInvalidArgument,
    GdiLockFailed,
    GdiNonUniqueId,
    GdiNotFound,
    GdiReadOnly,
    GdiSizeLimit,
    GdiStateError,
)
from repro.gdi.constants import Multiplicity, SizeType
from repro.rma import run_spmd


def _with_db(nranks, fn, config=None):
    def prog(ctx):
        db = GdaDatabase.create(ctx, config)
        return fn(ctx, db)

    return run_spmd(nranks, prog)


def _schema(ctx, db):
    """Create a small schema on rank 0 and sync everywhere."""
    if ctx.rank == 0:
        db.create_label(ctx, "Person")
        db.create_label(ctx, "knows")
        db.create_property_type(ctx, "name", dtype=Datatype.STRING)
        db.create_property_type(ctx, "age", dtype=Datatype.INT64)
        db.create_property_type(
            ctx, "weight", dtype=Datatype.DOUBLE, entity_type=3
        )
    ctx.barrier()
    db.replica(ctx).sync()
    return (
        db.label(ctx, "Person"),
        db.label(ctx, "knows"),
        db.property_type(ctx, "name"),
        db.property_type(ctx, "age"),
        db.property_type(ctx, "weight"),
    )


# ------------------------------------------------------------ vertex CRUD --
def test_create_commit_read_across_ranks():
    def body(ctx, db):
        person, knows, name, age, weight = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            v = tx.create_vertex(10, labels=[person], properties=[(age, 33)])
            v.set_property(name, "alice")
            tx.commit()
        ctx.barrier()
        tx = db.start_transaction(ctx)
        vh = tx.associate_vertex(tx.translate_vertex_id(10))
        assert vh.app_id == 10
        assert vh.property(age) == 33
        assert vh.property(name) == "alice"
        assert [l.name for l in vh.labels()] == ["Person"]
        tx.commit()

    _with_db(3, body)


def test_uncommitted_changes_invisible_to_other_transactions():
    def body(ctx, db):
        person, *_ = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(1, labels=[person])
            # Not committed yet: a second transaction cannot see it.
            tx2 = db.start_transaction(ctx)
            with pytest.raises(GdiNotFound):
                tx2.translate_vertex_id(1)
            tx2.commit()
            tx.commit()
            tx3 = db.start_transaction(ctx)
            assert tx3.translate_vertex_id(1) is not None
            tx3.commit()
        ctx.barrier()

    _with_db(2, body)


def test_abort_discards_everything_and_frees_blocks():
    def body(ctx, db):
        person, knows, name, age, weight = _schema(ctx, db)
        if ctx.rank == 0:
            base = sum(
                db.blocks.allocated_count(ctx, r) for r in range(ctx.nranks)
            )
            tx = db.start_transaction(ctx, write=True)
            v = tx.create_vertex(5, properties=[(name, "x" * 2000)])
            tx.abort()
            after = sum(
                db.blocks.allocated_count(ctx, r) for r in range(ctx.nranks)
            )
            assert after == base  # the pre-acquired primary was returned
            tx2 = db.start_transaction(ctx)
            with pytest.raises(GdiNotFound):
                tx2.translate_vertex_id(5)
            tx2.commit()
        ctx.barrier()

    _with_db(2, body)


def test_duplicate_app_id_rejected():
    def body(ctx, db):
        _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(7)
            tx.commit()
            tx = db.start_transaction(ctx, write=True)
            with pytest.raises(GdiNonUniqueId):
                tx.create_vertex(7)
            assert tx.failed
            tx.abort()
        ctx.barrier()

    _with_db(2, body)


def test_vertex_home_rank_round_robin():
    def body(ctx, db):
        _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            handles = [tx.create_vertex(i) for i in range(6)]
            from repro.gda.dptr import unpack_dptr

            homes = [unpack_dptr(h.vid).rank for h in handles]
            assert homes == [0, 1, 2, 0, 1, 2]
            tx.commit()
        ctx.barrier()

    _with_db(3, body)


def test_update_properties_and_labels():
    def body(ctx, db):
        person, knows, name, age, weight = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            v = tx.create_vertex(1, labels=[person], properties=[(age, 20)])
            tx.commit()
            tx = db.start_transaction(ctx, write=True)
            v = tx.associate_vertex(tx.translate_vertex_id(1))
            v.set_property(age, 21)
            v.remove_label(person)
            v.add_label(knows)
            tx.commit()
            tx = db.start_transaction(ctx)
            v = tx.associate_vertex(tx.translate_vertex_id(1))
            assert v.property(age) == 21
            assert [l.name for l in v.labels()] == ["knows"]
            tx.commit()
        ctx.barrier()

    _with_db(2, body)


def test_multi_entry_properties():
    def body(ctx, db):
        _schema(ctx, db)
        if ctx.rank == 0:
            email = db.create_property_type(
                ctx, "email", dtype=Datatype.STRING, multiplicity=Multiplicity.MULTI
            )
            tx = db.start_transaction(ctx, write=True)
            v = tx.create_vertex(1)
            v.add_property(email, "a@x.com")
            v.add_property(email, "b@x.com")
            tx.commit()
            tx = db.start_transaction(ctx)
            v = tx.associate_vertex(tx.translate_vertex_id(1))
            assert v.properties(email) == ["a@x.com", "b@x.com"]
            tx.commit()
        ctx.barrier()

    _with_db(1, body)


def test_single_entry_add_twice_rejected():
    def body(ctx, db):
        person, knows, name, age, weight = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            v = tx.create_vertex(1)
            v.add_property(age, 1)
            with pytest.raises(GdiInvalidArgument):
                v.add_property(age, 2)
            v.set_property(age, 2)  # set replaces: fine
            tx.commit()
        ctx.barrier()

    _with_db(1, body)


def test_size_limit_enforced():
    def body(ctx, db):
        _schema(ctx, db)
        if ctx.rank == 0:
            short = db.create_property_type(
                ctx, "short", dtype=Datatype.STRING,
                size_type=SizeType.MAX, size_limit=4,
            )
            fixed = db.create_property_type(
                ctx, "fixed8", dtype=Datatype.BYTES,
                size_type=SizeType.FIXED, size_limit=8,
            )
            tx = db.start_transaction(ctx, write=True)
            v = tx.create_vertex(1)
            v.set_property(short, "abcd")
            with pytest.raises(GdiSizeLimit):
                v.set_property(short, "abcde")
            v.set_property(fixed, b"12345678")
            with pytest.raises(GdiSizeLimit):
                v.set_property(fixed, b"1234")
            tx.commit()
        ctx.barrier()

    _with_db(1, body)


def test_read_only_transaction_rejects_mutation():
    def body(ctx, db):
        person, *_ = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(1)
            tx.commit()
            tx = db.start_transaction(ctx, write=False)
            v = tx.associate_vertex(tx.translate_vertex_id(1))
            with pytest.raises(GdiReadOnly):
                v.add_label(person)
            with pytest.raises(GdiReadOnly):
                tx.create_vertex(2)
            tx.commit()
        ctx.barrier()

    _with_db(1, body)


def test_closed_transaction_rejects_use():
    def body(ctx, db):
        _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            v = tx.create_vertex(1)
            tx.commit()
            with pytest.raises(GdiStateError):
                tx.translate_vertex_id(1)
            with pytest.raises(GdiStateError):
                v.property(db.property_type(ctx, "age"))
            with pytest.raises(GdiStateError):
                tx.commit()
        ctx.barrier()

    _with_db(1, body)


def test_context_manager_aborts_on_exception():
    def body(ctx, db):
        _schema(ctx, db)
        if ctx.rank == 0:
            with pytest.raises(RuntimeError):
                with db.start_transaction(ctx, write=True) as tx:
                    tx.create_vertex(3)
                    raise RuntimeError("user bug")
            tx2 = db.start_transaction(ctx)
            with pytest.raises(GdiNotFound):
                tx2.translate_vertex_id(3)
            tx2.commit()
            assert db.stats[0].aborted >= 1
        ctx.barrier()

    _with_db(1, body)


# ------------------------------------------------------------------ edges --
def test_lightweight_edge_roundtrip():
    def body(ctx, db):
        person, knows, name, age, weight = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            a = tx.create_vertex(1)
            b = tx.create_vertex(2)
            e = tx.create_edge(a, b, label=knows)
            assert not e.heavy
            assert e.directed
            tx.commit()
            tx = db.start_transaction(ctx)
            a = tx.associate_vertex(tx.translate_vertex_id(1))
            b = tx.associate_vertex(tx.translate_vertex_id(2))
            out_edges = a.edges(EdgeOrientation.OUTGOING)
            assert len(out_edges) == 1
            assert out_edges[0].endpoints() == (a.vid, b.vid)
            assert [l.name for l in out_edges[0].labels()] == ["knows"]
            assert b.edges(EdgeOrientation.INCOMING)[0].endpoints() == (a.vid, b.vid)
            assert a.degree(EdgeOrientation.OUTGOING) == 1
            assert a.degree(EdgeOrientation.INCOMING) == 0
            tx.commit()
        ctx.barrier()

    _with_db(2, body)


def test_undirected_edge_seen_from_both_sides():
    def body(ctx, db):
        person, knows, *_ = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            a, b = tx.create_vertex(1), tx.create_vertex(2)
            e = tx.create_edge(a, b, label=knows, directed=False)
            assert not e.directed
            tx.commit()
            tx = db.start_transaction(ctx)
            for app in (1, 2):
                v = tx.associate_vertex(tx.translate_vertex_id(app))
                assert v.degree() == 1
                assert v.degree(EdgeOrientation.UNDIRECTED) == 1
            tx.commit()
        ctx.barrier()

    _with_db(2, body)


def test_heavyweight_edge_with_properties():
    def body(ctx, db):
        person, knows, name, age, weight = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            a, b = tx.create_vertex(1), tx.create_vertex(2)
            e = tx.create_edge(a, b, label=knows, properties=[(weight, 0.75)])
            assert e.heavy
            tx.commit()
            tx = db.start_transaction(ctx)
            a = tx.associate_vertex(tx.translate_vertex_id(1))
            e = a.edges(EdgeOrientation.OUTGOING)[0]
            assert e.heavy
            assert e.property(weight) == 0.75
            assert [l.name for l in e.labels()] == ["knows"]
            tx.commit()
            # update the property
            tx = db.start_transaction(ctx, write=True)
            a = tx.associate_vertex(tx.translate_vertex_id(1))
            e = a.edges(EdgeOrientation.OUTGOING)[0]
            e.set_property(weight, 0.25)
            tx.commit()
            tx = db.start_transaction(ctx)
            a = tx.associate_vertex(tx.translate_vertex_id(1))
            assert a.edges(EdgeOrientation.OUTGOING)[0].property(weight) == 0.25
            tx.commit()
        ctx.barrier()

    _with_db(2, body)


def test_multi_label_edge_becomes_heavy():
    def body(ctx, db):
        person, knows, *_ = _schema(ctx, db)
        if ctx.rank == 0:
            extra = db.create_label(ctx, "closeFriend")
            tx = db.start_transaction(ctx, write=True)
            a, b = tx.create_vertex(1), tx.create_vertex(2)
            e = tx.create_edge(a, b, labels=[knows, extra])
            assert e.heavy
            assert {l.name for l in e.labels()} == {"knows", "closeFriend"}
            tx.commit()
        ctx.barrier()

    _with_db(1, body)


def test_lightweight_edge_rejects_properties():
    def body(ctx, db):
        person, knows, name, age, weight = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            a, b = tx.create_vertex(1), tx.create_vertex(2)
            e = tx.create_edge(a, b, label=knows)
            with pytest.raises(GdiInvalidArgument):
                e.set_property(weight, 1.0)
            assert e.properties(weight) == []
            tx.commit()
        ctx.barrier()

    _with_db(1, body)


def test_edge_uid_associate_roundtrip():
    def body(ctx, db):
        person, knows, *_ = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            a, b = tx.create_vertex(1), tx.create_vertex(2)
            tx.create_edge(a, b, label=knows)
            tx.commit()
            tx = db.start_transaction(ctx)
            a = tx.associate_vertex(tx.translate_vertex_id(1))
            uid = a.edges()[0].uid
            assert len(uid) == 12
            e = tx.associate_edge(uid)
            assert e.endpoints()[1] == tx.translate_vertex_id(2)
            tx.commit()
        ctx.barrier()

    _with_db(2, body)


def test_delete_edge_removes_both_sides():
    def body(ctx, db):
        person, knows, *_ = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            a, b = tx.create_vertex(1), tx.create_vertex(2)
            tx.create_edge(a, b, label=knows)
            tx.commit()
            tx = db.start_transaction(ctx, write=True)
            a = tx.associate_vertex(tx.translate_vertex_id(1))
            a.edges()[0].delete()
            tx.commit()
            tx = db.start_transaction(ctx)
            for app in (1, 2):
                v = tx.associate_vertex(tx.translate_vertex_id(app))
                assert v.degree() == 0
            tx.commit()
        ctx.barrier()

    _with_db(2, body)


def test_delete_heavy_edge_frees_holder_blocks():
    def body(ctx, db):
        person, knows, name, age, weight = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            a, b = tx.create_vertex(1), tx.create_vertex(2)
            tx.create_edge(a, b, properties=[(weight, 1.0)])
            tx.commit()
            used = sum(db.blocks.allocated_count(ctx, r) for r in range(ctx.nranks))
            tx = db.start_transaction(ctx, write=True)
            a = tx.associate_vertex(tx.translate_vertex_id(1))
            a.edges()[0].delete()
            tx.commit()
            after = sum(db.blocks.allocated_count(ctx, r) for r in range(ctx.nranks))
            assert after < used  # edge holder block returned
        ctx.barrier()

    _with_db(2, body)


def test_directed_self_loop():
    def body(ctx, db):
        person, knows, *_ = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            a = tx.create_vertex(1)
            tx.create_edge(a, a, label=knows)
            tx.commit()
            tx = db.start_transaction(ctx)
            a = tx.associate_vertex(tx.translate_vertex_id(1))
            assert a.degree(EdgeOrientation.OUTGOING) == 1
            assert a.degree(EdgeOrientation.INCOMING) == 1
            tx.commit()
            tx = db.start_transaction(ctx, write=True)
            a = tx.associate_vertex(tx.translate_vertex_id(1))
            a.edges(EdgeOrientation.OUTGOING)[0].delete()
            tx.commit()
            tx = db.start_transaction(ctx)
            a = tx.associate_vertex(tx.translate_vertex_id(1))
            assert a.degree() == 0
            tx.commit()
        ctx.barrier()

    _with_db(1, body)


def test_edge_constraint_filtering():
    def body(ctx, db):
        person, knows, *_ = _schema(ctx, db)
        if ctx.rank == 0:
            likes = db.create_label(ctx, "likes")
            tx = db.start_transaction(ctx, write=True)
            a = tx.create_vertex(1)
            b = tx.create_vertex(2)
            c = tx.create_vertex(3)
            tx.create_edge(a, b, label=knows)
            tx.create_edge(a, c, label=likes)
            tx.commit()
            tx = db.start_transaction(ctx)
            a = tx.associate_vertex(tx.translate_vertex_id(1))
            only_knows = a.edges(
                EdgeOrientation.OUTGOING,
                constraint=Constraint.has_label(knows.int_id),
            )
            assert len(only_knows) == 1
            assert only_knows[0].other_endpoint() == tx.translate_vertex_id(2)
            nbrs = a.neighbors(
                EdgeOrientation.OUTGOING,
                constraint=Constraint.has_label(likes.int_id),
            )
            assert nbrs == [tx.translate_vertex_id(3)]
            tx.commit()
        ctx.barrier()

    _with_db(1, body)


# -------------------------------------------------------- vertex deletion --
def test_delete_vertex_cleans_neighbor_slots():
    def body(ctx, db):
        person, knows, name, age, weight = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            a, b, c = (tx.create_vertex(i) for i in (1, 2, 3))
            tx.create_edge(a, b, label=knows)
            tx.create_edge(c, a, label=knows)
            tx.create_edge(a, c, properties=[(weight, 1.0)])  # heavy
            tx.commit()
            tx = db.start_transaction(ctx, write=True)
            a = tx.associate_vertex(tx.translate_vertex_id(1))
            tx.delete_vertex(a)
            tx.commit()
            tx = db.start_transaction(ctx)
            with pytest.raises(GdiNotFound):
                tx.translate_vertex_id(1)
            b = tx.associate_vertex(tx.translate_vertex_id(2))
            c = tx.associate_vertex(tx.translate_vertex_id(3))
            assert b.degree() == 0
            assert c.degree() == 0
            tx.commit()
        ctx.barrier()

    _with_db(3, body)


def test_delete_vertex_releases_all_storage():
    def body(ctx, db):
        person, knows, name, age, weight = _schema(ctx, db)
        if ctx.rank == 0:
            base = sum(db.blocks.allocated_count(ctx, r) for r in range(ctx.nranks))
            tx = db.start_transaction(ctx, write=True)
            v = tx.create_vertex(1, properties=[(name, "z" * 3000)])
            tx.commit()
            tx = db.start_transaction(ctx, write=True)
            v = tx.associate_vertex(tx.translate_vertex_id(1))
            tx.delete_vertex(v)
            tx.commit()
            after = sum(db.blocks.allocated_count(ctx, r) for r in range(ctx.nranks))
            assert after == base
        ctx.barrier()

    _with_db(2, body)


# ------------------------------------------------------------ concurrency --
def test_write_conflict_causes_failed_transaction():
    def body(ctx, db):
        person, knows, name, age, weight = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(1, properties=[(age, 0)])
            tx.commit()
        ctx.barrier()
        # All ranks try to update the same vertex concurrently, many times.
        successes = 0
        failures = 0
        for _ in range(10):
            tx = db.start_transaction(ctx, write=True)
            try:
                v = tx.associate_vertex(tx.translate_vertex_id(1))
                v.set_property(age, ctx.rank)
                tx.commit()
                successes += 1
            except GdiLockFailed:
                tx.abort()
                failures += 1
        total_ok = ctx.allreduce(successes)
        assert total_ok >= 1  # progress
        # final state readable and consistent
        tx = db.start_transaction(ctx)
        v = tx.associate_vertex(tx.translate_vertex_id(1))
        assert v.property(age) in range(ctx.nranks)
        tx.commit()
        return successes, failures

    config = GdaConfig(lock_max_retries=4)
    _, res = _with_db(4, body, config)
    del res


def test_concurrent_disjoint_writers_all_commit():
    def body(ctx, db):
        person, knows, name, age, weight = _schema(ctx, db)
        base = 100 * (ctx.rank + 1)
        for i in range(5):
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(base + i, properties=[(age, i)])
            tx.commit()
        ctx.barrier()
        tx = db.start_transaction(ctx)
        for r in range(ctx.nranks):
            for i in range(5):
                vid = tx.translate_vertex_id(100 * (r + 1) + i)
                assert tx.associate_vertex(vid).property(age) == i
        tx.commit()
        assert db.total_stats().failed == 0

    _with_db(4, body)


def test_reader_blocks_writer_upgrade_but_not_other_readers():
    def body(ctx, db):
        _schema(ctx, db)
        age = db.property_type(ctx, "age")
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(1, properties=[(age, 5)])
            tx.commit()
        ctx.barrier()
        # Everyone holds a read lock simultaneously.
        tx = db.start_transaction(ctx)
        v = tx.associate_vertex(tx.translate_vertex_id(1))
        assert v.property(age) == 5
        ctx.barrier()
        if ctx.rank == 1:
            # A writer cannot get in while readers hold the lock.
            txw = db.start_transaction(ctx, write=True)
            with pytest.raises(GdiLockFailed):
                w = txw.associate_vertex(txw.translate_vertex_id(1))
                w.set_property(age, 9)
            txw.abort()
        ctx.barrier()
        tx.commit()

    config = GdaConfig(lock_max_retries=3)
    _with_db(3, body, config)


# ---------------------------------------------------- collective txns -----
def test_collective_read_transaction_scans_all_vertices():
    def body(ctx, db):
        person, knows, name, age, weight = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            for i in range(12):
                tx.create_vertex(i, labels=[person], properties=[(age, i)])
            tx.commit()
        ctx.barrier()
        tx = db.start_collective_transaction(ctx)
        local = db.directory.local_vertices(ctx)
        local_sum = 0
        for vid in local:
            v = tx.associate_vertex(vid)
            local_sum += v.property(age)
        total = ctx.allreduce(local_sum)
        tx.commit()
        assert total == sum(range(12))

    _with_db(4, body)


def test_collective_write_bulk_ingestion_disjoint():
    def body(ctx, db):
        person, *_ = _schema(ctx, db)
        tx = db.start_collective_transaction(ctx, write=True)
        # each rank creates its own app-ID range (disjoint ownership)
        for i in range(4):
            tx.create_vertex(1000 * (ctx.rank + 1) + i, labels=[person])
        tx.commit()
        tx = db.start_collective_transaction(ctx)
        n = db.num_vertices(ctx)
        tx.commit()
        assert n == 4 * ctx.nranks

    _with_db(4, body)


# -------------------------------------------------------------- indexes ----
def test_explicit_index_build_and_query():
    def body(ctx, db):
        person, knows, name, age, weight = _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            for i in range(10):
                labels = [person] if i % 2 == 0 else []
                tx.create_vertex(i, labels=labels, properties=[(age, i)])
            tx.commit()
        ctx.barrier()
        idx = db.create_index(
            ctx, "person_idx", Constraint.has_label(person.int_id)
        )
        found = ctx.allreduce(len(idx.local_vertices(ctx)))
        assert found == 5
        # Every indexed vertex is local to the querying rank.
        from repro.gda.dptr import unpack_dptr

        assert all(
            unpack_dptr(v).rank == ctx.rank for v in idx.local_vertices(ctx)
        )
        return idx.count(ctx)

    _, res = _with_db(3, body)
    assert all(c == 5 for c in res)


def test_index_maintained_on_commit():
    def body(ctx, db):
        person, knows, name, age, weight = _schema(ctx, db)
        idx = db.create_index(ctx, "adults", Constraint.prop(age.int_id, ">=", 18))
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(1, properties=[(age, 15)])
            tx.create_vertex(2, properties=[(age, 30)])
            tx.commit()
        ctx.barrier()
        assert idx.count(ctx) == 1
        ctx.barrier()  # keep rank 0 from mutating before peers assert
        if ctx.rank == 0:
            # aging vertex 1 into the index, dropping vertex 2 out
            tx = db.start_transaction(ctx, write=True)
            v1 = tx.associate_vertex(tx.translate_vertex_id(1))
            v1.set_property(age, 18)
            v2 = tx.associate_vertex(tx.translate_vertex_id(2))
            v2.set_property(age, 10)
            tx.commit()
        ctx.barrier()
        assert idx.count(ctx) == 1
        ctx.barrier()
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            v1 = tx.associate_vertex(tx.translate_vertex_id(1))
            tx.delete_vertex(v1)
            tx.commit()
        ctx.barrier()
        assert idx.count(ctx) == 0

    _with_db(2, body)


def test_multiple_databases_coexist():
    """Section 3.9: multiple parallel databases in one environment."""

    def prog(ctx):
        db1 = GdaDatabase.create(ctx)
        db2 = GdaDatabase.create(ctx)
        if ctx.rank == 0:
            t1 = db1.start_transaction(ctx, write=True)
            t1.create_vertex(1)
            t1.commit()
            t2 = db2.start_transaction(ctx)
            with pytest.raises(GdiNotFound):
                t2.translate_vertex_id(1)  # db2 never saw it
            t2.commit()
        ctx.barrier()
        return db1.name != db2.name

    _, res = run_spmd(2, prog)
    assert all(res)


def test_commit_log_records_changes():
    def body(ctx, db):
        _schema(ctx, db)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(1)
            tx.commit()
        ctx.barrier()
        kinds = [e[0] for rec in db.commit_log for e in rec.entries]
        assert "new_v" in kinds

    _with_db(2, body)


def test_vertex_scan_columns_agree_with_handle_verbs():
    """``associate_vertices`` answers per batch what its handles answer
    per vertex — whichever of the two its positions are backed by: rows
    of a columnar batch (lock-free reads of 64+ vertices), cache entries
    (locking reads, small reads, a second scan), or a mix; with the
    parts the scan fetched or with parts only a handle can hydrate."""
    from repro.gda.holder import NEED_ENTRIES, NEED_IDENT, NEED_TOPO

    def prog(ctx, db):
        person, knows, _, age, _ = _schema(ctx, db)
        n = 96  # one read of all of them is a columnar batch
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            vs = [
                tx.create_vertex(
                    i,
                    labels=[person] if i % 3 else [knows, person][: 1 + i % 2],
                    properties=[(age, i)] if i % 4 else [],
                )
                for i in range(n)
            ]
            for i in range(n):
                tx.create_edge(
                    vs[i], vs[(i * 7 + 1) % n], label=knows if i % 2 else None
                )
            # a heavy edge: its slot's neighbor sits behind an edge holder
            tx.create_edge(vs[2], vs[5], force_heavy=True)
            tx.commit()
        ctx.barrier()

        def check(tx, vids, need):
            scan = tx.associate_vertices(vids, missing_ok=True, need=need)
            handles = list(scan)
            assert scan.present.tolist() == [h is not None for h in handles]
            live = [(i, h) for i, h in enumerate(handles) if h is not None]
            assert scan.app_ids[[i for i, _ in live]].tolist() == [
                h.app_id for _, h in live
            ]
            for label in (person, knows):
                got = scan.has_label(label)
                assert [bool(got[i]) for i, _ in live] == [
                    h.has_label(label) for _, h in live
                ]
            ages, has = scan.property(age)
            assert [ages[i] if has[i] else None for i, _ in live] == [
                h.property(age) for _, h in live
            ]
            for orientation in (EdgeOrientation.OUTGOING, EdgeOrientation.ANY):
                for label in (None, knows):
                    indptr, nbrs = scan.neighbors(orientation, label)
                    constraint = (
                        Constraint.has_label(label.int_id) if label else None
                    )
                    for i, h in enumerate(handles):
                        mine = nbrs[indptr[i] : indptr[i + 1]].tolist()
                        want = h.neighbors(orientation, constraint) if h else []
                        assert mine == want

        tx = db.start_transaction(ctx)
        vids = [tx.translate_vertex_id(i) for i in range(n)]
        tx.commit()
        vids.insert(3, vids[-1] + (1 << 20))  # no holder there: a hole
        vids.append(vids[0])  # and one vertex asked for twice
        for need in (NEED_IDENT, NEED_IDENT | NEED_TOPO, NEED_IDENT | NEED_ENTRIES, 7):
            for open_tx in (
                lambda: db.start_collective_transaction(ctx),  # columnar rows
                lambda: db.start_transaction(ctx),  # locking: cache entries
            ):
                tx = open_tx()
                check(tx, vids, need)
                # again on a transaction that has materialized some rows
                half = tx.associate_vertices(vids[::2], missing_ok=True, need=need)
                assert [h is not None for h in half] == half.present.tolist()
                check(tx, vids, need)
                tx.commit()
                ctx.barrier()
        return True

    _, res = _with_db(2, prog)
    assert all(res)


# ------------------------------------------------- heavyweight self-loops --
@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("via", ["delete_vertex", "delete_edge"])
def test_heavy_self_loop_deletes_cleanly(directed, via):
    """A directed heavyweight self-loop puts two slots of one vertex on one
    edge holder; deleting must resolve both before the holder goes."""
    from repro.gda.consistency import check_consistency

    def body(ctx, db):
        blocks_before = db.blocks.allocated_count(ctx, 0)
        tx = db.start_transaction(ctx, write=True)
        v = tx.create_vertex(1)
        tx.create_edge(v, v, directed=directed, force_heavy=True)
        tx.commit()

        tx = db.start_transaction(ctx, write=True)
        v = tx.find_vertex(1)
        assert len(v.edges()) == (2 if directed else 1)
        if via == "delete_vertex":
            tx.delete_vertex(v)
        else:
            tx.delete_edge(v.edges()[0])
            assert v.edges() == []
            tx.commit()
            tx = db.start_transaction(ctx, write=True)
            tx.delete_vertex(tx.find_vertex(1))
        tx.commit()

        report = check_consistency(ctx, db)
        assert report.ok, report.problems
        assert report.n_vertices == 0 and report.n_edge_holders == 0
        assert db.blocks.allocated_count(ctx, 0) == blocks_before

    _with_db(1, body)
