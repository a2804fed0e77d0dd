"""Tests for collective operations: correctness vs sequential reference."""

import numpy as np
import pytest

from repro.rma import UNIFORM, SpmdError, run_spmd


NRANKS = 5


def test_barrier_synchronizes_clocks():
    def prog(ctx):
        ctx.charge(ctx.rank * 1e-3)  # ranks drift apart
        ctx.barrier()
        return ctx.clock

    _, res = run_spmd(NRANKS, prog)
    assert len(set(res)) == 1
    assert res[0] >= (NRANKS - 1) * 1e-3


def test_bcast_from_each_root():
    for root in range(3):
        def prog(ctx, root=root):
            value = f"from-{ctx.rank}" if ctx.rank == root else None
            return ctx.bcast(value, root=root)

        _, res = run_spmd(3, prog)
        assert res == [f"from-{root}"] * 3


def test_reduce_sum_at_root():
    def prog(ctx):
        return ctx.reduce(ctx.rank + 1, op="sum", root=2)

    _, res = run_spmd(NRANKS, prog)
    expected = sum(range(1, NRANKS + 1))
    assert res[2] == expected
    assert all(r is None for i, r in enumerate(res) if i != 2)


@pytest.mark.parametrize(
    "op,expected",
    [
        ("sum", sum(range(NRANKS))),
        ("max", NRANKS - 1),
        ("min", 0),
        ("prod", 0),
        ("lor", True),
        ("land", False),
    ],
)
def test_allreduce_named_ops(op, expected):
    def prog(ctx):
        return ctx.allreduce(ctx.rank, op=op)

    _, res = run_spmd(NRANKS, prog)
    assert res == [expected] * NRANKS


def test_allreduce_custom_callable():
    def prog(ctx):
        return ctx.allreduce([ctx.rank], op=lambda a, b: a + b)

    _, res = run_spmd(3, prog)
    assert all(sorted(r) == [0, 1, 2] for r in res)


def test_gather_and_allgather():
    def prog(ctx):
        g = ctx.gather(ctx.rank * 10, root=0)
        ag = ctx.allgather(ctx.rank * 10)
        return g, ag

    _, res = run_spmd(4, prog)
    assert res[0][0] == [0, 10, 20, 30]
    assert all(r[0] is None for r in res[1:])
    assert all(r[1] == [0, 10, 20, 30] for r in res)


def test_scatter():
    def prog(ctx):
        values = [f"v{i}" for i in range(ctx.nranks)] if ctx.rank == 1 else None
        return ctx.scatter(values, root=1)

    _, res = run_spmd(4, prog)
    assert res == ["v0", "v1", "v2", "v3"]


def test_scatter_wrong_length_raises():
    def prog(ctx):
        values = [1, 2] if ctx.rank == 0 else None
        return ctx.scatter(values, root=0)

    with pytest.raises(SpmdError):
        run_spmd(4, prog)


def test_alltoall_transpose():
    def prog(ctx):
        out = [(ctx.rank, dst) for dst in range(ctx.nranks)]
        return ctx.alltoall(out)

    _, res = run_spmd(4, prog)
    for rank, received in enumerate(res):
        assert received == [(src, rank) for src in range(4)]


def test_alltoallv_concatenates_sources_in_rank_then_send_order():
    def prog(ctx):
        # row k of rank r goes to rank (3 - k) % 4, tagged (r, k)
        k = np.arange(6)
        return ctx.alltoallv((3 - k) % 4, np.full(6, ctx.rank), k * 1.5)

    _, res = run_spmd(4, prog)
    for rank, (src, value) in enumerate(res):
        sent = [k * 1.5 for k in range(6) if (3 - k) % 4 == rank]
        assert src.tolist() == [s for s in range(4) for _ in sent]
        assert value.tolist() == sent * 4
        assert src.dtype == np.int64 and value.dtype == np.float64


@pytest.mark.parametrize("rows", [0, 1, 5])
def test_alltoallv_charges_what_alltoall_charges_for_column_slices(rows):
    """The per-pair size is the most rows one peer gets times the row
    width, 8 B at least: exactly the charge of an alltoall of tuples of
    column slices.  With ``min_nbytes=0`` it is that of bare arrays."""

    def prog(ctx):
        owner = np.zeros(rows if ctx.rank == 1 else 0, dtype=np.int64)
        ids = np.arange(len(owner), dtype=np.int64)
        charges = []
        for exchange in (
            lambda: ctx.alltoallv(owner, ids, ids * 0.5),
            lambda: ctx.alltoall([(ids[owner == r], ids[owner == r] * 0.5)
                                  for r in range(ctx.nranks)]),
            lambda: ctx.alltoallv(owner, ids, min_nbytes=0),
            lambda: ctx.alltoall([ids[owner == r] for r in range(ctx.nranks)]),
        ):
            ctx.barrier()
            t0 = ctx.clock
            exchange()
            charges.append(ctx.clock - t0)
        return charges

    _, res = run_spmd(3, prog, profile=UNIFORM)
    for routed, tuples, routed_bare, bare in res:
        assert routed == pytest.approx(tuples, rel=1e-12)
        assert routed_bare == pytest.approx(bare, rel=1e-12)


def test_scan_inclusive_prefix():
    def prog(ctx):
        return ctx.scan(ctx.rank + 1, op="sum")

    _, res = run_spmd(5, prog)
    assert res == [1, 3, 6, 10, 15]


def test_exscan_exclusive_prefix():
    def prog(ctx):
        return ctx.exscan(ctx.rank + 1, op="sum", initial=0)

    _, res = run_spmd(5, prog)
    assert res == [0, 1, 3, 6, 10]


def test_repeated_collectives_use_fresh_generations():
    def prog(ctx):
        acc = []
        for i in range(20):
            acc.append(ctx.allreduce(ctx.rank + i))
        return acc

    _, res = run_spmd(3, prog)
    base = sum(range(3))
    for i in range(20):
        assert all(r[i] == base + 3 * i for r in res)


def test_collective_cost_grows_with_rank_count():
    def prog(ctx):
        ctx.allreduce(1)
        return ctx.clock

    _, small = run_spmd(2, prog)
    _, large = run_spmd(16, prog)
    assert large[0] > small[0]


def test_failed_rank_poisons_collective():
    def prog(ctx):
        if ctx.rank == 1:
            raise ValueError("boom")
        ctx.barrier()  # would hang forever without poisoning
        return True

    with pytest.raises(SpmdError) as ei:
        run_spmd(3, prog)
    assert ei.value.rank in (0, 1, 2)


def test_poison_keeps_the_root_cause():
    """Rank 0 fails while its peers wait in a barrier: every peer's abort
    names the root cause once, instead of each abort embedding the one
    before it (33 KB of nested text at P=16)."""
    from repro.rma.collectives import CollectiveAbort

    texts = {}

    def prog(ctx):
        if ctx.rank == 0:
            raise ValueError("rank 0 failed")
        try:
            ctx.barrier()
        except CollectiveAbort as exc:
            texts[ctx.rank] = str(exc)
            raise

    with pytest.raises(SpmdError) as ei:
        run_spmd(16, prog, seed=5)
    assert isinstance(ei.value.__cause__, ValueError)
    assert sorted(texts) == list(range(1, 16))
    assert all(len(text) < 1024 for text in texts.values())


def test_collectives_under_interleaving_scheduler():
    def prog(ctx):
        win = ctx.win_allocate("w", 64)
        ctx.faa(win, 0, 0, 1)
        ctx.barrier()
        return ctx.aget(win, 0, 0)

    _, res = run_spmd(4, prog, seed=11)
    assert all(v == 4 for v in res)
