"""Additional property-based coverage: edge holders, mixed rewrites, the
columnar batch decode against the per-holder decode, and the per-holder
decode's whole-block shape against its header-first shape."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gda.blocks import BlockManager
from repro.gda.dptr import pack_dptr
from repro.gda.entries import ENTRY_LABEL
from repro.gda.holder import (
    NEED_ALL,
    NEED_ENTRIES,
    NEED_IDENT,
    NEED_TOPO,
    SLOT_DTYPE,
    SLOT_HEAVY,
    EdgeHolder,
    EdgeSlot,
    HolderBatch,
    HolderStorage,
    VertexHolder,
)
from repro.gdi.errors import GdiChecksumError, GdiStateError
from repro.rma import UNIFORM, run_spmd


@settings(deadline=None, max_examples=25)
@given(
    directed=st.booleans(),
    labels=st.lists(st.integers(min_value=1, max_value=60), max_size=5),
    props=st.lists(
        st.tuples(st.integers(min_value=3, max_value=50), st.binary(max_size=200)),
        max_size=5,
    ),
    src_off=st.integers(min_value=0, max_value=100),
    dst_off=st.integers(min_value=0, max_value=100),
)
def test_edge_holder_roundtrip_property(directed, labels, props, src_off, dst_off):
    def prog(ctx):
        bm = BlockManager.create(ctx, block_size=128, blocks_per_rank=128)
        hs = HolderStorage(bm)
        e = EdgeHolder(
            src=pack_dptr(0, 128 * src_off),
            dst=pack_dptr(0, 128 * dst_off),
            directed=directed,
            labels=list(labels),
            properties=list(props),
        )
        stored = hs.write_new(ctx, e, home_rank=0)
        back = hs.read(ctx, stored.primary).holder
        assert back.src == e.src and back.dst == e.dst
        assert back.directed == directed
        assert back.labels == e.labels
        assert back.properties == e.properties
        hs.delete(ctx, stored)
        assert bm.allocated_count(ctx, 0) == 0
        return True

    run_spmd(1, prog)


@settings(deadline=None, max_examples=15)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=3000), min_size=2, max_size=6)
)
def test_repeated_rewrites_never_leak_blocks(sizes):
    """Grow/shrink a holder through arbitrary size sequences; the block
    count always equals exactly what the final layout needs."""

    def prog(ctx):
        from repro.gda.holder import plan_layout

        bm = BlockManager.create(ctx, block_size=256, blocks_per_rank=256)
        hs = HolderStorage(bm)
        v = VertexHolder(app_id=1, properties=[(3, b"")])
        stored = hs.write_new(ctx, v, home_rank=0)
        for size in sizes:
            v.properties = [(3, b"x" * size)]
            hs.rewrite(ctx, stored)
            back = hs.read(ctx, stored.primary).holder
            assert back.properties == v.properties
            payload, _ = v.payload()
            nindex, ndata = plan_layout(len(payload), 256)
            assert bm.allocated_count(ctx, 0) == 1 + nindex + ndata
        hs.delete(ctx, stored)
        assert bm.allocated_count(ctx, 0) == 0
        return True

    run_spmd(1, prog)


# -- columnar read_many == per-holder read_many -------------------------------
#
# Large batches are decoded column-wise (_read_many_columnar -> HolderBatch);
# the per-holder decode (_read_per_holder, what smaller batches run) is the
# reference.  Same holders, same block placement, same counters, same
# charge.  The properties call the columnar decode directly so that small,
# shrinkable batches exercise it; the dispatch on size has its own test.

BS = 128
#: 0 edges; a payload that just fits the primary block; direct multi-block;
#: past the 8-address hint; and around the 132/133-edge boundary where a
#: second index block becomes necessary at 128-byte blocks
EDGE_COUNTS = st.one_of(
    st.integers(min_value=0, max_value=12),
    st.sampled_from([40, 75, 88, 131, 132, 133, 134, 300]),
)
NEEDS = st.sampled_from(
    [NEED_IDENT, NEED_IDENT | NEED_TOPO, NEED_IDENT | NEED_ENTRIES, NEED_ALL]
)
ENTRIES = dict(
    labels=st.lists(st.integers(min_value=1, max_value=6), max_size=3),
    props=st.lists(
        st.tuples(st.integers(min_value=3, max_value=7), st.binary(max_size=40)),
        max_size=4,
    ),
)
VERTEX = st.fixed_dictionaries(
    dict(
        kind=st.just("vertex"),
        n_edges=EDGE_COUNTS,
        heavy=st.booleans(),
        version=st.integers(min_value=0, max_value=9),
        home=st.integers(min_value=0, max_value=1),
        **ENTRIES,
    )
)
EDGE = st.fixed_dictionaries(
    dict(kind=st.just("edge"), directed=st.booleans(), **ENTRIES)
)
HOLE = st.just(dict(kind="hole"))
SPECS = st.lists(
    st.tuples(st.one_of(VERTEX, VERTEX, VERTEX, EDGE, HOLE), NEEDS),
    min_size=8,
    max_size=12,
)


def _write(ctx, bm, hs, spec, seed):
    """Store one holder described by ``spec``; returns its primary."""
    if spec["kind"] == "hole":
        return bm.acquire_block(ctx, 0)  # allocated, never written
    if spec["kind"] == "edge":
        holder = EdgeHolder(
            src=pack_dptr(0, BS * seed),
            dst=pack_dptr(1, BS * seed),
            directed=spec["directed"],
            labels=list(spec["labels"]),
            properties=list(spec["props"]),
        )
        return hs.write_new(ctx, holder, home_rank=0).primary
    rng = np.random.default_rng(seed)
    heavy = SLOT_HEAVY if spec["heavy"] else 0
    holder = VertexHolder(
        app_id=1000 + seed,
        labels=list(spec["labels"]),
        properties=list(spec["props"]),
        edges=[
            EdgeSlot(
                pack_dptr(int(rng.integers(2)), BS * int(rng.integers(500))),
                int(rng.integers(4)),
                int(rng.integers(1, 4)) | (heavy if i % 5 == 0 else 0),
            )
            for i in range(spec["n_edges"])
        ],
    )
    stored = hs.write_new(ctx, holder, home_rank=spec["home"])
    stored.version = spec["version"]
    hs.rewrite(ctx, stored)
    return stored.primary


def _same_holder(got, want):
    if want is None:
        assert got is None
        return
    assert (got.primary, got.parts, got.version) == (
        want.primary, want.parts, want.version
    )
    assert got.data_blocks == want.data_blocks
    assert got.index_blocks == want.index_blocks
    g, w = got.holder, want.holder
    assert (g.kind, g.app_id) == (w.kind, w.app_id)
    assert g.labels == w.labels and g.properties == w.properties
    if w.kind == 1:
        assert g._slot_buf == w._slot_buf
    else:
        assert (g.src, g.dst, g.directed) == (w.src, w.dst, w.directed)


def _measured(ctx, fn):
    trace = ctx.rt.trace
    before = trace.counters[ctx.rank].snapshot()
    shards = trace.shard_snapshot()
    t0 = ctx.clock
    out = fn()
    return out, (
        trace.counters[ctx.rank].diff(before),
        trace.shard_diff(shards),
        round(ctx.clock - t0, 15),
    )


@settings(deadline=None, max_examples=40)
@given(specs=SPECS)
def test_columnar_read_many_equals_per_holder_read_many(specs):
    def prog(ctx):
        bm = BlockManager.create(ctx, block_size=BS, blocks_per_rank=2048)
        hs = HolderStorage(bm)
        if ctx.rank == 0:
            prims = [_write(ctx, bm, hs, s, i) for i, (s, _) in enumerate(specs)]
            needs = [n for _, n in specs]
            got, cost = _measured(
                ctx, lambda: hs._read_many_columnar(ctx, prims, needs, True)
            )
            want, ref_cost = _measured(
                ctx, lambda: hs._read_per_holder(ctx, prims, needs, True)
            )
            assert isinstance(got, HolderBatch) and len(got) == len(want)
            # the same rounds with the same elements: counters, per-shard
            # accounting and the simulated charge all agree
            assert cost == ref_cost
            for g, w in zip(got, want):
                _same_holder(g, w)
            # the columns say what the decoded holders say
            indptr, slots = got.slot_columns()
            assert slots.dtype == SLOT_DTYPE
            row, eid, offset, value = got.entry_table()
            span = got.span.tobytes()
            for i, w in enumerate(want):
                mine = slots[indptr[i] : indptr[i + 1]].tobytes()
                is_vertex = w is not None and w.holder.kind == 1
                assert bool(got.present[i]) == (w is not None)
                if is_vertex and w.parts & NEED_TOPO:
                    assert mine == w.holder._slot_buf
                else:
                    assert mine == b""
                if is_vertex and w.parts & NEED_ENTRIES:
                    sel = row == i
                    assert value[sel & (eid == ENTRY_LABEL)].tolist() == w.holder.labels
                    props = sel & (eid != ENTRY_LABEL)
                    assert [
                        (p, span[o : o + n])
                        for p, o, n in zip(
                            eid[props].tolist(),
                            offset[props].tolist(),
                            value[props].tolist(),
                        )
                    ] == w.holder.properties
                    for lid in range(1, 7):
                        assert bool(got.has_label(lid)[i]) == (lid in w.holder.labels)
                else:
                    assert not (row == i).any()
            # without missing_ok a hole is an error on both paths
            if any(w is None for w in want):
                with pytest.raises(GdiStateError):
                    hs._read_many_columnar(ctx, prims, needs, False)
                with pytest.raises(GdiStateError):
                    hs._read_per_holder(ctx, prims, needs, False)
        ctx.barrier()
        return True

    run_spmd(2, prog, profile=UNIFORM)


# -- the whole-block shape of the per-holder decode ----------------------------
#
# A batch of fewer than eight holders read with NEED_ALL (every point read of
# the RM mix) takes whole primary blocks in round 1.  Its reference is the
# header-first shape of the same decoder over the same primaries, repeated to
# a batch of eight or more.

SMALL = st.lists(st.one_of(VERTEX, VERTEX, EDGE, HOLE), min_size=1, max_size=7)


def _rounds_of(bm):
    """Count ``bm.read_blocks`` calls (read rounds) from now on."""
    rounds = []
    read = bm.read_blocks

    def counted(ctx, specs):
        rounds.append(len(specs))
        return read(ctx, specs)

    bm.read_blocks = counted
    return rounds


@settings(deadline=None, max_examples=40)
@given(specs=SMALL)
def test_small_whole_reads_equal_the_header_first_shape(specs):
    def prog(ctx):
        bm = BlockManager.create(ctx, block_size=BS, blocks_per_rank=2048)
        hs = HolderStorage(bm)
        if ctx.rank == 0:
            prims = [_write(ctx, bm, hs, s, i) for i, s in enumerate(specs)]
            rounds = _rounds_of(bm)
            got = hs.read_many(ctx, prims, missing_ok=True)
            whole_rounds = len(rounds)
            wide = prims * 8
            want = hs._read_per_holder(ctx, wide, [NEED_ALL] * len(wide), True)
            header_first_rounds = len(rounds) - whole_rounds
            assert isinstance(got, list) and len(got) == len(prims)
            for g, w in zip(got, want):
                _same_holder(g, w)
            present = [w for w in want[: len(prims)] if w is not None]
            if present and not any(w.data_blocks for w in present):
                # every holder fits its primary block: one round, not two
                assert (whole_rounds, header_first_rounds) == (1, 2)
            else:
                assert whole_rounds <= header_first_rounds
            if len(present) < len(prims):
                with pytest.raises(GdiStateError):
                    hs.read_many(ctx, prims)
        ctx.barrier()
        return True

    run_spmd(2, prog, profile=UNIFORM)


@settings(deadline=None, max_examples=15)
@given(
    n_edges=st.lists(EDGE_COUNTS, min_size=8, max_size=10),
    victim=st.integers(min_value=0, max_value=7),
    where=st.floats(min_value=0.0, max_value=0.999),
)
def test_columnar_read_detects_a_corrupted_payload_byte(n_edges, victim, where):
    def prog(ctx):
        bm = BlockManager.create(ctx, block_size=BS, blocks_per_rank=2048)
        hs = HolderStorage(bm)
        stored = [
            hs.write_new(
                ctx,
                VertexHolder(
                    app_id=i,
                    labels=[1],
                    edges=[EdgeSlot(pack_dptr(0, BS * j), 1, 1) for j in range(n)],
                ),
                home_rank=0,
            )
            for i, n in enumerate(n_edges)
        ]
        prims = [s.primary for s in stored]
        full = [NEED_ALL] * len(prims)
        hs._read_many_columnar(ctx, prims, full, False)  # clean: fine
        # flip one payload byte of the victim, in whichever block holds it
        s = stored[victim]
        payload_len = len(s.holder.payload()[0])
        at = int(where * payload_len)
        head = BS - 40 - 8 * len(s.index_blocks or s.data_blocks)
        if at < head:
            dptr, off = s.primary, BS - head + at
        else:
            dptr, off = s.data_blocks[(at - head) // BS], (at - head) % BS
        byte = bm.read_block(ctx, dptr, off, 1)
        bm.write_block(ctx, dptr, bytes([byte[0] ^ 0x40]), off)
        # the columnar decode of the batch, and the per-holder decode of
        # fewer than eight primaries around the victim (whole blocks)
        few = prims[max(0, victim - 3) :][:7]
        for read, batch in (
            (hs._read_many_columnar, prims),
            (hs._read_per_holder, few),
        ):
            detected = ctx.rt.trace.counters[0].corruptions_detected
            with pytest.raises(GdiChecksumError):
                read(ctx, batch, [NEED_ALL] * len(batch), False)
            assert ctx.rt.trace.counters[0].corruptions_detected == detected + 1
            # a header-only read of a corrupted holder moves no CRC-covered
            # whole payload: it is not verifiable, on either decode
            read(ctx, batch, [NEED_IDENT] * len(batch), False)
        return True

    run_spmd(1, prog)


def test_read_many_goes_columnar_from_the_measured_break_even_on():
    from repro.gda.holder import _COLUMNAR_MIN_BATCH

    def prog(ctx):
        bm = BlockManager.create(ctx, block_size=BS, blocks_per_rank=2048)
        hs = HolderStorage(bm)
        prims = [
            hs.write_new(ctx, VertexHolder(app_id=i, labels=[1]), 0).primary
            for i in range(_COLUMNAR_MIN_BATCH)
        ]
        small = hs.read_many(ctx, prims[:-1])
        large = hs.read_many(ctx, prims)
        assert isinstance(small, list) and isinstance(large, HolderBatch)
        assert [s.holder.app_id for s in large] == list(range(len(prims)))
        for got, want in zip(large, small):
            _same_holder(got, want)
        return True

    run_spmd(1, prog)
