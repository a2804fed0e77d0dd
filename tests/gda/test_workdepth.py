"""Executable checks of the Section 5.9 work-depth bounds.

The paper supports "nearly any function" with a work-depth bound: the
*work* of a routine is its total operation count, the *depth* its
longest dependency chain.  The headline result: most data and metadata
routines are O(1) work and depth; only routines touching ``x`` metadata
items are O(x).  Since the substrate counts every one-sided operation
(:class:`repro.rma.trace.TraceRecorder`), the bounds are checkable: each
test runs one GDA routine uncontended and asserts the number of
one-sided operations it issued stays within the budget :data:`BOUNDS`
declares — the paper's O(1)-work claims as assertions.

Notation: ``k`` = blocks of a holder, ``c`` = chain length of a DHT
bucket, ``x`` = metadata items.  Retries under contention multiply the
contended term; the budgets are the uncontended case the paper reports.
"""

from dataclasses import dataclass

from repro.gda.blocks import BlockManager
from repro.gda.dht import DistributedHashTable
from repro.gda.holder import HolderStorage, VertexHolder
from repro.gda.locks import (
    READ,
    WRITE,
    acquire_read_batch,
    acquire_write_batch,
    release_batch,
)
from repro.rma import run_spmd


@dataclass(frozen=True)
class WorkDepthBound:
    """Declared uncontended bound of one routine: ``work_budget(**params)``
    is its one-sided operation budget for the instance parameters."""

    work_formula: str
    depth_formula: str
    work_budget: object
    section: str

    def budget(self, **params) -> int:
        return int(self.work_budget(**params))


#: Work-depth table of the core GDA routines (paper section per entry).
BOUNDS = {
    "acquire_block": WorkDepthBound(
        "O(1): 2 AGETs + 1 CAS + 1 FAA", "O(1)", lambda **_: 4, "5.5"
    ),
    "release_block": WorkDepthBound(
        "O(1): 1 AGET + 1 APUT + 1 flush + 1 CAS + 1 FAA", "O(1)",
        lambda **_: 5, "5.5",
    ),
    "dht_insert": WorkDepthBound(
        "O(1): alloc (4) + 1 AGET + entry put/flush (2) + 1 CAS", "O(1)",
        lambda **_: 8, "5.7",
    ),
    "dht_lookup": WorkDepthBound(
        "O(c): 1 AGET + c GETs along the chain", "O(c)",
        lambda c=1, **_: 1 + c, "5.7",
    ),
    "dht_delete": WorkDepthBound(
        "O(c): walk (1 + c) + 2 CASes + re-walk (c)", "O(c)",
        lambda c=1, **_: 3 + 2 * c, "5.7",
    ),
    "lock_read_acquire": WorkDepthBound("O(1): 1 FAA", "O(1)", lambda **_: 1, "5.6"),
    "lock_write_acquire": WorkDepthBound("O(1): 1 CAS", "O(1)", lambda **_: 1, "5.6"),
    "holder_read": WorkDepthBound(
        "O(k): 1 GET per block (+index blocks)",
        "O(1): two fetch rounds with indirection", lambda k=1, **_: k, "5.4/5.5",
    ),
    "holder_write": WorkDepthBound(
        "O(k): 1 PUT per block + 1 flush", "O(1)", lambda k=1, **_: k + 1, "5.4/5.5"
    ),
    "metadata_create": WorkDepthBound(
        "O(1) per item; O(x) for x items", "O(1) / O(x)", lambda x=1, **_: x, "5.8"
    ),
    "translate_vertex_id": WorkDepthBound(
        "O(c): one DHT lookup", "O(c)", lambda c=1, **_: 1 + c, "5.3/5.7"
    ),
}


def measure_ops(trace, rank: int):
    """A function returning the one-sided operations ``rank`` issued
    since this call (puts + gets + atomics)."""
    before = trace.counters[rank].snapshot()

    def measured() -> int:
        now = trace.counters[rank].snapshot()
        return sum(now[k] - before[k] for k in ("puts", "gets", "atomics"))

    return measured


def test_bounds_table_is_complete():
    expected = {
        "acquire_block",
        "release_block",
        "dht_insert",
        "dht_lookup",
        "dht_delete",
        "lock_read_acquire",
        "lock_write_acquire",
        "holder_read",
        "holder_write",
        "metadata_create",
        "translate_vertex_id",
    }
    assert set(BOUNDS) == expected
    for b in BOUNDS.values():
        assert b.budget(c=3, k=5, x=2) >= 1


def test_block_routines_constant_work():
    def prog(ctx):
        mgr = BlockManager.create(ctx, block_size=64, blocks_per_rank=16)
        if ctx.rank == 0:
            done = measure_ops(ctx.rt.trace, 0)
            dptr = mgr.acquire_block(ctx, 1)
            assert done() <= BOUNDS["acquire_block"].budget()
            done = measure_ops(ctx.rt.trace, 0)
            mgr.release_block(ctx, dptr)
            assert done() <= BOUNDS["release_block"].budget()
        ctx.barrier()
        return True

    run_spmd(2, prog)


def test_dht_routines_bounded_by_chain_length():
    def prog(ctx):
        dht = DistributedHashTable.create(
            ctx, buckets_per_rank=1, entries_per_rank=32
        )
        if ctx.rank == 0:
            done = measure_ops(ctx.rt.trace, 0)
            dht.insert(ctx, 1, 10)
            assert done() <= BOUNDS["dht_insert"].budget()
            for k in range(2, 6):
                dht.insert(ctx, k, k)
            chain = 5  # single bucket, 5 entries
            done = measure_ops(ctx.rt.trace, 0)
            assert dht.lookup(ctx, 1) == 10  # worst position: oldest entry
            assert done() <= BOUNDS["dht_lookup"].budget(c=chain)
            done = measure_ops(ctx.rt.trace, 0)
            assert dht.delete(ctx, 1)
            assert done() <= BOUNDS["dht_delete"].budget(c=chain)
        ctx.barrier()
        return True

    run_spmd(1, prog)


def test_lock_routines_single_atomic():
    def prog(ctx):
        win = ctx.win_allocate("l", 64)
        word, held = (0, 0), {}
        if ctx.rank == 0:
            done = measure_ops(ctx.rt.trace, 0)
            acquire_read_batch(ctx, win, {word: word}, held, 0, 64)
            assert done() <= BOUNDS["lock_read_acquire"].budget()
            release_batch(ctx, win, [(word, READ)])
            done = measure_ops(ctx.rt.trace, 0)
            acquire_write_batch(ctx, win, {word: word}, held, 0, 64)
            assert done() <= BOUNDS["lock_write_acquire"].budget()
            release_batch(ctx, win, [(word, WRITE)])
        ctx.barrier()
        return True

    run_spmd(2, prog)


def test_holder_io_linear_in_block_count():
    def prog(ctx):
        mgr = BlockManager.create(ctx, block_size=128, blocks_per_rank=128)
        hs = HolderStorage(mgr)
        if ctx.rank == 0:
            v = VertexHolder(app_id=1, properties=[(3, b"x" * 700)])
            done = measure_ops(ctx.rt.trace, 0)
            stored = hs.write_new(ctx, v, home_rank=0)
            k = 1 + len(stored.data_blocks) + len(stored.index_blocks)
            # write = allocation (4 ops/block) + 1 put/block + flush
            assert done() <= 4 * k + BOUNDS["holder_write"].budget(k=k)
            done = measure_ops(ctx.rt.trace, 0)
            hs.read(ctx, stored.primary)
            assert done() <= BOUNDS["holder_read"].budget(k=k)
        ctx.barrier()
        return True

    run_spmd(1, prog)


def test_single_block_vertex_needs_one_remote_read():
    """The paper's BGDL design insight: a vertex fitting in one block is
    fetched with a single remote operation."""

    def prog(ctx):
        mgr = BlockManager.create(ctx, block_size=512, blocks_per_rank=16)
        hs = HolderStorage(mgr)
        if ctx.rank == 0:
            v = VertexHolder(app_id=7, labels=[1], properties=[(3, b"ab")])
            stored = hs.write_new(ctx, v, home_rank=1)
            done = measure_ops(ctx.rt.trace, 0)
            hs.read(ctx, stored.primary)
            assert done() == 1
        ctx.barrier()
        return True

    run_spmd(2, prog)


def test_translate_vertex_id_is_one_lookup():
    from repro.gda import GdaDatabase

    def prog(ctx):
        db = GdaDatabase.create(ctx)
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(42)
            tx.commit()
            tx = db.start_transaction(ctx)
            done = measure_ops(ctx.rt.trace, 0)
            tx.translate_vertex_id(42)
            assert done() <= BOUNDS["translate_vertex_id"].budget(c=1)
            tx.commit()
        ctx.barrier()
        return True

    run_spmd(2, prog)
