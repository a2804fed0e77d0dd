"""Tests for the BGDL lock-free block allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gda import GdaConfig, GdaDatabase
from repro.gda.blocks import BlockManager, OutOfBlocksError
from repro.gda.dht import DistributedHashTable
from repro.gda.dptr import unpack_dptr
from repro.rma import run_spmd


def _with_manager(nranks, fn, block_size=64, blocks_per_rank=32, seed=None):
    def prog(ctx):
        mgr = BlockManager.create(
            ctx, block_size=block_size, blocks_per_rank=blocks_per_rank
        )
        return fn(ctx, mgr)

    return run_spmd(nranks, prog, seed=seed)


def test_acquire_returns_distinct_blocks():
    def body(ctx, mgr):
        if ctx.rank == 0:
            ptrs = [mgr.acquire_block(ctx, 1) for _ in range(5)]
            assert len(set(ptrs)) == 5
            for p in ptrs:
                d = unpack_dptr(p)
                assert d.rank == 1
                assert d.offset % mgr.block_size == 0
        ctx.barrier()

    _with_manager(2, body)


def test_exhaustion_returns_none_then_release_recycles():
    def body(ctx, mgr):
        if ctx.rank == 0:
            ptrs = [mgr.acquire_block(ctx, 0) for _ in range(mgr.blocks_per_rank)]
            assert all(p is not None for p in ptrs)
            assert mgr.acquire_block(ctx, 0) is None
            mgr.release_block(ctx, ptrs[3])
            again = mgr.acquire_block(ctx, 0)
            assert again == ptrs[3]  # LIFO free list returns it first
        ctx.barrier()

    _with_manager(1, body, blocks_per_rank=8)


def test_allocated_counter_tracks_acquire_release():
    def body(ctx, mgr):
        if ctx.rank == 0:
            a = mgr.acquire_block(ctx, 0)
            b = mgr.acquire_block(ctx, 0)
            assert mgr.allocated_count(ctx, 0) == 2
            mgr.release_block(ctx, a)
            assert mgr.allocated_count(ctx, 0) == 1
            mgr.release_block(ctx, b)
            assert mgr.allocated_count(ctx, 0) == 0
        ctx.barrier()

    _with_manager(1, body)


def _fresh_pool_is_the_chain(ctx, mgr):
    """Every segment of a created pool reads back zero, and each rank's
    free list hands out blocks 0 .. n-1 in order, then runs dry."""
    n = mgr.blocks_per_rank
    for win in (mgr.usage_win, mgr.system_win):
        for r in range(ctx.nranks):
            assert win.read(r, 0, win.size) == bytes(win.size)
    ctx.barrier()
    if ctx.rank == 0:
        for r in range(ctx.nranks):
            assert mgr.free_list(ctx, r) == list(range(n))
            got = [mgr.acquire_block(ctx, r) for _ in range(n)]
            assert [unpack_dptr(p) for p in got] == [
                (r, i * mgr.block_size) for i in range(n)
            ]
            assert mgr.acquire_block(ctx, r) is None
            assert mgr.free_list(ctx, r) == []
    ctx.barrier()


def test_fresh_pool_is_the_chain():
    _with_manager(2, _fresh_pool_is_the_chain, blocks_per_rank=12)


def test_fresh_dht_heap_is_the_chain():
    def prog(ctx):
        dht = DistributedHashTable.create(ctx, buckets_per_rank=4, entries_per_rank=9)
        _fresh_pool_is_the_chain(ctx, dht.heap)

    run_spmd(2, prog)


def test_released_blocks_chain_back_in_front():
    def body(ctx, mgr):
        if ctx.rank == 0:
            got = [mgr.acquire_block(ctx, 0) for _ in range(5)]
            mgr.release_block(ctx, got[1])
            mgr.release_block(ctx, got[3])
            assert mgr.free_list(ctx, 0) == [3, 1, 5, 6, 7]
        ctx.barrier()

    _with_manager(1, body, blocks_per_rank=8)


def test_reset_free_list_chains_the_complement():
    def body(ctx, mgr):
        if ctx.rank == 0:
            mgr.acquire_block(ctx, 1)
            mgr.reset_free_list(ctx, 1, [7, 2, 0])
            assert mgr.free_list(ctx, 1) == [1, 3, 4, 5, 6]
            assert mgr.allocated_count(ctx, 1) == 3
            mgr.reset_free_list(ctx, 1, range(8))
            assert mgr.free_list(ctx, 1) == []
            assert mgr.acquire_block(ctx, 1) is None
            mgr.reset_free_list(ctx, 1)
            assert mgr.system_win.read(1, 0, mgr.system_win.size) == bytes(
                mgr.system_win.size
            )
            assert mgr.usage_win.read(1, 0, mgr.usage_win.size) == bytes(
                mgr.usage_win.size
            )
        ctx.barrier()

    _with_manager(2, body, blocks_per_rank=8)


def _rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    pytest.skip("no VmRSS in /proc/self/status")


def test_empty_database_costs_what_it_holds():
    """An empty database under the Fig. 6 weak cell's P=64 config
    (scale 12) adds little RSS: window pages are paid on first touch,
    and creating the pools touches none of them."""
    cfg = GdaConfig(blocks_per_rank=16384, dht_entries_per_rank=4096)

    def prog(ctx):
        GdaDatabase.create(ctx, cfg)

    before = _rss_mb()
    rt, _ = run_spmd(64, prog)  # ``rt`` keeps the windows allocated
    added = _rss_mb() - before
    assert added <= 100, f"an empty P=64 database added {added:.0f} MB RSS"


def test_acquire_anywhere_spills_to_other_ranks():
    def body(ctx, mgr):
        if ctx.rank == 0:
            # Exhaust rank 0, then spill.
            for _ in range(mgr.blocks_per_rank):
                assert mgr.acquire_block(ctx, 0) is not None
            spilled = mgr.acquire_block_anywhere(ctx, preferred=0)
            assert unpack_dptr(spilled).rank == 1
        ctx.barrier()

    _with_manager(2, body, blocks_per_rank=4)


def test_acquire_anywhere_raises_when_pool_exhausted():
    def body(ctx, mgr):
        if ctx.rank == 0:
            for _ in range(2 * mgr.blocks_per_rank):
                mgr.acquire_block_anywhere(ctx, preferred=0)
            with pytest.raises(OutOfBlocksError):
                mgr.acquire_block_anywhere(ctx, preferred=0)
        ctx.barrier()

    _with_manager(2, body, blocks_per_rank=3)


def test_block_read_write_roundtrip():
    def body(ctx, mgr):
        if ctx.rank == 0:
            p = mgr.acquire_block(ctx, 1)
            mgr.write_block(ctx, p, b"A" * 64)
            assert mgr.read_block(ctx, p) == b"A" * 64
            mgr.write_block(ctx, p, b"zz", offset=10)
            assert mgr.read_block(ctx, p, offset=10, nbytes=2) == b"zz"
        ctx.barrier()

    _with_manager(2, body)


def test_block_bounds_enforced():
    def body(ctx, mgr):
        if ctx.rank == 0:
            p = mgr.acquire_block(ctx, 0)
            with pytest.raises(ValueError):
                mgr.write_block(ctx, p, b"x" * 65)
            with pytest.raises(ValueError):
                mgr.read_block(ctx, p, offset=60, nbytes=8)
        ctx.barrier()

    _with_manager(1, body)


def test_lock_location_maps_block_to_system_window():
    def body(ctx, mgr):
        if ctx.rank == 0:
            p0 = mgr.acquire_block(ctx, 1)
            p1 = mgr.acquire_block(ctx, 1)
            r0, off0 = mgr.lock_location(p0)
            r1, off1 = mgr.lock_location(p1)
            assert r0 == r1 == 1
            assert off0 != off1
            assert off0 % 8 == 0 and off1 % 8 == 0
        ctx.barrier()

    _with_manager(2, body)


def test_invalid_geometry_rejected():
    def body(ctx):
        with pytest.raises(ValueError):
            BlockManager.create(ctx, block_size=12, blocks_per_rank=4)

    # block_size must be 8-aligned and >= 16; run with 1 rank so the failed
    # create doesn't leave peers stuck in a collective.
    run_spmd(1, body)


def test_concurrent_acquire_no_double_allocation():
    """All ranks hammer one target; every handed-out block is unique."""

    def body(ctx, mgr):
        mine = [mgr.acquire_block(ctx, 0) for _ in range(4)]
        assert all(p is not None for p in mine)
        everyone = ctx.allgather(mine)
        flat = [p for sub in everyone for p in sub]
        assert len(flat) == len(set(flat))
        return flat

    _with_manager(8, body, blocks_per_rank=64)


def test_concurrent_acquire_release_storm():
    """Acquire/release cycles from all ranks never corrupt the free list."""

    def body(ctx, mgr):
        for _ in range(25):
            p = mgr.acquire_block(ctx, 0)
            assert p is not None
            mgr.release_block(ctx, p)
        ctx.barrier()
        if ctx.rank == 0:
            assert mgr.allocated_count(ctx, 0) == 0
            # The full pool is still allocatable afterwards.
            ptrs = [mgr.acquire_block(ctx, 0) for _ in range(mgr.blocks_per_rank)]
            assert all(p is not None for p in ptrs)
            assert len(set(ptrs)) == mgr.blocks_per_rank

    _with_manager(4, body, blocks_per_rank=16)


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_interleaved_acquire_release_all_schedules(seed):
    """Under many seeded interleavings the allocator stays consistent."""

    def body(ctx, mgr):
        got = []
        for _ in range(6):
            p = mgr.acquire_block(ctx, 0)
            if p is not None:
                got.append(p)
        for p in got[::2]:
            mgr.release_block(ctx, p)
        keep = got[1::2]
        everyone = ctx.allgather(keep)
        flat = [p for sub in everyone for p in sub]
        assert len(flat) == len(set(flat))  # no block held twice

    _with_manager(3, body, blocks_per_rank=10, seed=seed)
