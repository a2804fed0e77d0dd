"""Tests for the lock-free fully-offloaded distributed hash table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gda.dht import DistributedHashTable
from repro.mvcc import SnapshotManager
from repro.rma import run_spmd


def _with_dht(nranks, fn, buckets=8, entries=64, seed=None):
    def prog(ctx):
        dht = DistributedHashTable.create(
            ctx, buckets_per_rank=buckets, entries_per_rank=entries
        )
        return fn(ctx, dht)

    return run_spmd(nranks, prog, seed=seed)


def test_insert_lookup_single_rank():
    def body(ctx, dht):
        if ctx.rank == 0:
            dht.insert(ctx, 42, 4242)
            dht.insert(ctx, 7, 77)
            assert dht.lookup(ctx, 42) == 4242
            assert dht.lookup(ctx, 7) == 77
            assert dht.lookup(ctx, 999) is None
        ctx.barrier()

    _with_dht(2, body)


def test_lookup_missing_in_nonempty_bucket():
    def body(ctx, dht):
        if ctx.rank == 0:
            for k in range(20):  # force chains in the few buckets
                dht.insert(ctx, k, k * 10)
            for k in range(20):
                assert dht.lookup(ctx, k) == k * 10
            assert dht.lookup(ctx, 1000) is None
        ctx.barrier()

    _with_dht(1, body, buckets=2)


def test_negative_and_large_keys_and_values():
    def body(ctx, dht):
        if ctx.rank == 0:
            cases = [(-1, -99), (2**62, 2**62), (-(2**62), 5), (0, 0)]
            for k, v in cases:
                dht.insert(ctx, k, v)
            for k, v in cases:
                assert dht.lookup(ctx, k) == v
        ctx.barrier()

    _with_dht(2, body)


def test_newest_insert_shadows_older():
    """Insert prepends, so lookup returns the most recent value."""

    def body(ctx, dht):
        if ctx.rank == 0:
            dht.insert(ctx, 5, 100)
            dht.insert(ctx, 5, 200)
            assert dht.lookup(ctx, 5) == 200
        ctx.barrier()

    _with_dht(1, body)


def test_delete_first_middle_last_of_chain():
    def body(ctx, dht):
        if ctx.rank == 0:
            for k in range(6):
                dht.insert(ctx, k, k)
            # chains exist because there are only 2 buckets
            assert dht.delete(ctx, 0)
            assert dht.lookup(ctx, 0) is None
            assert dht.delete(ctx, 5)
            assert dht.lookup(ctx, 5) is None
            assert dht.delete(ctx, 3)
            assert dht.lookup(ctx, 3) is None
            for k in (1, 2, 4):
                assert dht.lookup(ctx, k) == k
            assert not dht.delete(ctx, 0)  # already gone
            assert not dht.delete(ctx, 777)  # never existed
        ctx.barrier()

    _with_dht(1, body, buckets=2)


def test_delete_then_reinsert():
    def body(ctx, dht):
        if ctx.rank == 0:
            dht.insert(ctx, 1, 10)
            assert dht.delete(ctx, 1)
            dht.insert(ctx, 1, 20)
            assert dht.lookup(ctx, 1) == 20
        ctx.barrier()

    _with_dht(1, body)


def test_parked_entries_return_once_the_floor_passes_their_tag():
    """A deleted entry stays allocated while the GC floor is at or below
    the commit timestamp last issued at its unlink, and goes back to the
    free list once the floor passes it; a pin taken before the floor
    moved holds it back until it closes."""

    def allocated(ctx, dht):
        return sum(dht.heap.allocated_count(ctx, r) for r in range(ctx.nranks))

    def body(ctx, dht):
        if ctx.rank == 0:
            sm = SnapshotManager()
            dht.epochs, sm.reclaim = sm, dht.reclaim
            sm.note_applied(sm.begin_commit(0))  # tags start at 1
            for k in range(10):
                dht.insert(ctx, k, k)
            pin = sm.begin_snapshot(0)  # a transaction open across the unlinks
            for k in range(10):
                assert dht.delete(ctx, k)
            assert dht.parked_count() == 10
            assert dht.reclaim(ctx, 1) == 0  # floor == tag: held
            sm.note_applied(sm.begin_commit(0))
            sm.collect(ctx)  # floor pinned at 1 by the open transaction
            assert allocated(ctx, dht) == 10
            pin.close()
            assert sm.gc_floor() == 2
            sm.collect(ctx)
            assert allocated(ctx, dht) == 0 and dht.parked_count() == 0
        ctx.barrier()

    _with_dht(2, body)


def test_items_scan_sees_all_entries():
    def body(ctx, dht):
        if ctx.rank == 0:
            for k in range(30):
                dht.insert(ctx, k, -k)
        ctx.barrier()
        items = dict(dht.items(ctx))
        assert items == {k: -k for k in range(30)}

    _with_dht(4, body)


def test_buckets_shard_across_ranks():
    def body(ctx, dht):
        ranks = {dht.bucket_of(k)[0] for k in range(1000)}
        assert ranks == set(range(ctx.nranks))

    _with_dht(4, body)


def test_concurrent_disjoint_inserts():
    def body(ctx, dht):
        base = ctx.rank * 100
        for k in range(base, base + 50):
            dht.insert(ctx, k, k + 1)
        ctx.barrier()
        # every rank verifies everyone's keys
        for r in range(ctx.nranks):
            for k in range(r * 100, r * 100 + 50):
                assert dht.lookup(ctx, k) == k + 1

    _with_dht(4, body, buckets=16, entries=256)


def test_concurrent_insert_delete_churn():
    def body(ctx, dht):
        base = ctx.rank * 1000
        for round_no in range(10):
            k = base + round_no
            dht.insert(ctx, k, round_no)
            assert dht.lookup(ctx, k) == round_no
            assert dht.delete(ctx, k)
            assert dht.lookup(ctx, k) is None
        ctx.barrier()
        if ctx.rank == 0:
            assert dht.items(ctx) == []
            # without a timestamp source every tag is 0: held at floor 0,
            # all returned once the floor passes it
            assert dht.reclaim(ctx, 0) == 0
            assert dht.reclaim(ctx, 1) == 40
            assert sum(
                dht.heap.allocated_count(ctx, r) for r in range(ctx.nranks)
            ) == 0

    _with_dht(4, body, buckets=2, entries=64)


def test_contended_same_key_inserts():
    """All ranks insert the same key; chain holds all entries, lookup
    returns one of the inserted values."""

    def body(ctx, dht):
        dht.insert(ctx, 5, ctx.rank)
        ctx.barrier()
        v = dht.lookup(ctx, 5)
        assert v in range(ctx.nranks)
        ctx.barrier()
        if ctx.rank == 0:
            values = sorted(v for k, v in dht.items(ctx) if k == 5)
            assert values == list(range(ctx.nranks))

    _with_dht(4, body)


def test_contended_delete_exactly_one_winner():
    def body(ctx, dht):
        if ctx.rank == 0:
            dht.insert(ctx, 9, 90)
        ctx.barrier()
        won = dht.delete(ctx, 9)
        total = ctx.allreduce(int(won))
        assert total == 1
        assert dht.lookup(ctx, 9) is None

    _with_dht(4, body)


@settings(deadline=None, max_examples=8)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_churn_under_interleavings(seed):
    def body(ctx, dht):
        k = 1 + ctx.rank
        for _ in range(4):
            dht.insert(ctx, k, ctx.rank)
            assert dht.lookup(ctx, k) == ctx.rank
            assert dht.delete(ctx, k)
        ctx.barrier()
        if ctx.rank == 0:
            assert dht.items(ctx) == []

    _with_dht(3, body, buckets=1, entries=32, seed=seed)


@settings(deadline=None, max_examples=5)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "lookup"]),
            st.integers(min_value=0, max_value=15),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_sequential_ops_match_model_dict(ops):
    """Single-rank random op sequences agree with a Python dict model."""

    def body(ctx, dht):
        model: dict[int, int] = {}
        for i, (op, key) in enumerate(ops):
            if op == "insert":
                dht.insert(ctx, key, i)
                model[key] = i
            elif op == "delete":
                did = dht.delete(ctx, key)
                assert did == (key in model)
                # DHT delete removes the newest entry; older shadowed
                # entries may resurface, so mirror by full removal only
                # when the model has a single logical value.
                model.pop(key, None)
                while dht.delete(ctx, key):
                    pass  # clear shadowed duplicates to stay in sync
            else:
                got = dht.lookup(ctx, key)
                if key in model:
                    assert got == model[key]
        parked = dht.parked_count()
        assert dht.reclaim(ctx, 1) == parked
        assert dht.heap.allocated_count(ctx, 0) == len(dht.items(ctx))

    _with_dht(1, body, buckets=4, entries=128)
