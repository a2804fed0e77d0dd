"""A fetched holder stays in wire form until touched, and edge iteration
tests an int: both must answer exactly what the eager forms answer.

* the label/property entry stream of a read-back vertex holder is the
  bytes it was read as until ``labels``/``properties`` is touched; an
  untouched holder writes back byte-identical blocks, a touched one
  equals ``decode_entries`` of the same bytes, and ``==`` / ``repr`` /
  ``payload_nbytes`` / mutation cannot tell a lazily from an eagerly
  built holder;
* ``edges()`` / ``degree()`` / ``neighbors()`` filter through a per-call
  truth table derived from ``_orientation_matches``: for every
  orientation mask and every slot direction, light and heavy, wire form
  and materialized, they return what filtering with that function does.
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gda import GdaConfig, GdaDatabase
from repro.gda.blocks import BlockManager
from repro.gda.dptr import pack_dptr
from repro.gda.entries import EntryFormatError, decode_entries, encode_entries
from repro.gda.handles import _matching_directions, _orientation_matches
from repro.gda.holder import (
    DIR_IN,
    DIR_MASK,
    DIR_OUT,
    DIR_UNDIR,
    NEED_ENTRIES,
    NEED_IDENT,
    SLOT_HEAVY,
    EdgeSlot,
    HolderStorage,
    VertexHolder,
)
from repro.gdi import Datatype, EdgeOrientation
from repro.rma import RmaRuntime, ZERO_COST, run_spmd

BLOCK = 128
NBLOCKS = 512

LABELS = st.lists(st.integers(min_value=1, max_value=60), max_size=6)
# multi-entry property types: the same p-type ID may repeat
PROPS = st.lists(
    st.tuples(st.integers(min_value=3, max_value=9), st.binary(max_size=90)),
    max_size=6,
)
SLOTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NBLOCKS - 1),
        st.integers(min_value=0, max_value=5),
        st.sampled_from(
            [d | h for d in (DIR_OUT, DIR_IN, DIR_UNDIR) for h in (0, SLOT_HEAVY)]
        ),
    ),
    max_size=12,
)

_STORAGE = []


def _storage():
    """One single-rank block pool for the whole module (every example
    frees what it wrote)."""
    if not _STORAGE:
        rt = RmaRuntime(1, profile=ZERO_COST)
        mgr = BlockManager(
            rt.allocate_window("wf.data", BLOCK * NBLOCKS),
            rt.allocate_window("wf.usage", 8 * NBLOCKS),
            rt.allocate_window("wf.system", 16 + 8 * NBLOCKS),
            BLOCK,
            NBLOCKS,
        )
        _STORAGE.append((rt.context(0), HolderStorage(mgr)))
    return _STORAGE[0]


def _eager(labels, props, slots):
    return VertexHolder(
        app_id=7,
        labels=list(labels),
        properties=list(props),
        edges=[EdgeSlot(pack_dptr(0, BLOCK * b), lid, fl) for b, lid, fl in slots],
    )


def _written(labels, props, slots):
    """An eagerly built holder on blocks, and a fresh read of it."""
    ctx, hs = _storage()
    stored = hs.write_new(ctx, _eager(labels, props, slots), home_rank=0)
    return ctx, hs, stored, hs.read(ctx, stored.primary)


@settings(deadline=None, max_examples=60)
@given(labels=LABELS, props=PROPS, slots=SLOTS)
def test_untouched_holder_writes_back_the_bytes_it_was_read_as(labels, props, slots):
    ctx, hs, stored, back = _written(labels, props, slots)
    try:
        lazy = back.holder
        assert lazy._entry_buf is not None and lazy._labels is None
        want, flags = stored.holder.payload()
        got, got_flags = lazy.payload()
        assert (got, got_flags) == (want, flags)
        assert zlib.crc32(got) == zlib.crc32(want)
        assert lazy.payload_nbytes() == stored.holder.payload_nbytes() == len(want)
        # block for block, header (lengths, CRC) included
        assert hs._write_items(back, got, got_flags) == hs._write_items(
            stored, want, flags
        )
        assert lazy._entry_buf is not None, "serializing must not decode"
    finally:
        hs.delete(ctx, stored)


@settings(deadline=None, max_examples=60)
@given(labels=LABELS, props=PROPS, slots=SLOTS)
def test_touched_holder_equals_the_eager_decode(labels, props, slots):
    ctx, hs, stored, back = _written(labels, props, slots)
    try:
        lazy, eager = back.holder, stored.holder
        stream = lazy._entry_buf
        assert stream == encode_entries(labels, props)
        assert lazy.payload_nbytes() == eager.payload_nbytes()
        # repr shows the decoded lists, whatever form the holder is in
        shown = f"labels={list(labels)!r}, properties={list(props)!r}"
        assert shown in repr(lazy) and shown in repr(eager)
        assert (lazy.labels, lazy.properties) == decode_entries(stream)
        assert lazy._entry_buf is None
        assert lazy == eager and eager == lazy  # materializes the slots too
        assert repr(lazy) == repr(eager)
        assert lazy.payload() == eager.payload()
        assert lazy.payload_nbytes() == eager.payload_nbytes()
    finally:
        hs.delete(ctx, stored)


@settings(deadline=None, max_examples=60)
@given(
    labels=LABELS,
    props=PROPS,
    slots=SLOTS,
    new_label=st.integers(min_value=61, max_value=70),
    new_value=st.binary(max_size=40),
    first=st.sampled_from(["labels", "properties"]),
)
def test_mutated_holder_equals_the_eager_result(
    labels, props, slots, new_label, new_value, first
):
    """A label added and a property replaced, in either order, on a
    holder that was never touched before."""
    ctx, hs, stored, back = _written(labels, props, slots)
    try:
        pid = props[0][0] if props else 3

        def mutate(h, order):
            for part in order:
                if part == "labels":
                    h.labels.append(new_label)
                else:
                    h.properties = [(p, b) for p, b in h.properties if p != pid]
                    h.properties.append((pid, new_value))

        order = [first] + [p for p in ("labels", "properties") if p != first]
        lazy, eager = back.holder, _eager(labels, props, slots)
        mutate(lazy, order)
        mutate(eager, order)
        assert lazy == eager
        assert lazy.payload() == eager.payload()
        hs.rewrite(ctx, back)
        assert hs.read(ctx, stored.primary).holder == eager
    finally:
        hs.delete(ctx, back)


def test_assigning_one_list_of_an_untouched_holder_keeps_the_other():
    ctx, hs, stored, back = _written([4, 5], [(3, b"abc"), (3, b"de")], [])
    try:
        back.holder.labels = [9]
        assert back.holder.properties == [(3, b"abc"), (3, b"de")]
        assert back.holder.labels == [9]
    finally:
        hs.delete(ctx, stored)


def test_projected_read_without_entries_has_no_lists_and_hydrates_lazily():
    ctx, hs, stored, _ = _written([4], [(3, b"abc")], [(1, 0, DIR_OUT)])
    try:
        ident = hs.read(ctx, stored.primary, need=NEED_IDENT).holder
        assert ident.labels is None and ident.properties is None
        entries = hs.read(ctx, stored.primary, need=NEED_ENTRIES).holder
        assert entries._entry_buf is not None and not entries.has_topology
        assert (entries.labels, entries.properties) == ([4], [(3, b"abc")])
    finally:
        hs.delete(ctx, stored)


def test_format_error_surfaces_on_touch():
    """An unverifiable (projected) span with a broken stream reads fine
    and raises where ``decode_entries`` would have: at the first touch."""
    broken = VertexHolder._from_wire(1, b"\x02\x00\x00\x00", b"")
    assert broken.edge_count == 0
    with pytest.raises(EntryFormatError):
        broken.labels
    with pytest.raises(EntryFormatError):
        broken.properties


# -- edge iteration ----------------------------------------------------------
def test_direction_table_is_orientation_matches_tabulated():
    for mask in range(8):
        wanted = EdgeOrientation(mask)
        table = _matching_directions(wanted)
        assert len(table) == DIR_MASK + 1
        for direction in range(DIR_MASK + 1):
            assert table[direction] is _orientation_matches(direction, wanted)


def _star(ctx):
    """Vertex 0 with one slot of every (direction, weight) kind, twice
    over; vertex 1 the same but lightweight only."""
    db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=2048))
    if ctx.rank == 0:
        db.create_property_type(ctx, "w", dtype=Datatype.INT64)
        db.create_label(ctx, "E")
    ctx.barrier()
    db.replica(ctx).sync()
    if ctx.rank == 0:
        w, label = db.property_type(ctx, "w"), db.label(ctx, "E")
        tx = db.start_transaction(ctx, write=True)
        hub, light, *rim = [tx.create_vertex(a) for a in range(20)]
        it = iter(rim)
        for center, weights in ((hub, (False, True)), (light, (False,))):
            for heavy in weights:
                kw = {"properties": [(w, 1)]} if heavy else {"label": label}
                for _ in range(2):
                    tx.create_edge(center, next(it), **kw)
                    tx.create_edge(next(it), center, **kw)
                    tx.create_edge(center, next(it), directed=False, **kw)
        tx.commit()
    ctx.barrier()
    return db


@pytest.mark.parametrize("app", [0, 1], ids=["light+heavy", "light-only"])
def test_edge_verbs_filter_as_orientation_matches_does(app):
    def prog(ctx):
        db = _star(ctx)
        if ctx.rank != 0:
            return None
        kinds = set()  # (direction, heavy?) of every slot some mask matched
        for mask in range(8):
            wanted = EdgeOrientation(mask)
            tx = db.start_transaction(ctx)
            v = tx.find_vertex(app)
            holder = v._txv.holder
            read = holder._slot_buf
            degree = v.degree(wanted)
            nbrs = v.neighbors(wanted)
            want = [
                s
                for s in holder.edges
                if _orientation_matches(s.flags & DIR_MASK, wanted)
            ]
            assert [e._slot for e in v.edges(wanted)] == want
            assert degree == v.degree(wanted) == len(want)
            assert nbrs == v.neighbors(wanted)
            assert nbrs == [tx._slot_other_endpoint(v.vid, s) for s in want]
            kinds |= {(s.flags & DIR_MASK, e.heavy) for s, e in zip(want, v.edges(wanted))}
            for e in v.edges(wanted):
                s = e._slot
                assert e.heavy == bool(s.flags & SLOT_HEAVY)
                src, dst = e.endpoints()
                other = tx._slot_other_endpoint(v.vid, s)
                if s.flags & DIR_MASK == DIR_IN:
                    assert (src, dst) == (other, v.vid)
                else:
                    assert {src, dst} == {v.vid, other}
            assert holder._slot_buf is read  # reading left the bytes read
            tx.commit()
        return kinds

    _, out = run_spmd(2, prog)
    assert out[0] == {
        (d, heavy)
        for d in (DIR_OUT, DIR_IN, DIR_UNDIR)
        for heavy in ((False, True) if app == 0 else (False,))
    }
