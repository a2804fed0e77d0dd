"""The fused pieces of the RMA issue path answer as their parts did.

* a read-modify-write atomic validates its 8-byte granule once: the
  same ``WindowError`` for the same bad access as ``read_i64`` /
  ``write_i64`` raise, and a refused atomic leaves memory, clock and
  counters untouched;
* ``TraceRecorder._record_issue`` — all counters of one issued verb in
  one call — adds up to one ``record`` per message plus the batch
  counters of a plural verb.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rma import RmaRuntime, TraceRecorder, UNIFORM
from repro.rma.window import Window, WindowError

BAD = [
    ("misaligned", 0, 4),
    ("outside", 0, 64),
    ("negative", 0, -8),
    ("bad rank", 5, 0),
]


@pytest.mark.parametrize("what,rank,offset", BAD, ids=[b[0] for b in BAD])
def test_atomics_refuse_what_the_scalar_granule_access_refuses(what, rank, offset):
    win = Window("w", nranks=2, size=64)
    with pytest.raises(WindowError) as scalar:
        win.read_i64(rank, offset)
    for fused in (
        lambda: win._faa_i64(rank, offset, 1),
        lambda: win._cas_i64(rank, offset, 0, 1),
        lambda: win.write_i64(rank, offset, 1),
    ):
        with pytest.raises(WindowError) as err:
            fused()
        assert str(err.value) == str(scalar.value)
    assert all(win.read(r, 0, 64) == b"\x00" * 64 for r in range(2))


def test_freed_window_refuses_atomics():
    win = Window("w", nranks=1, size=16)
    win.free()
    for fused in (lambda: win._faa_i64(0, 0, 1), lambda: win._cas_i64(0, 0, 0, 1)):
        with pytest.raises(WindowError, match="already freed"):
            fused()


@pytest.mark.parametrize(
    "verb",
    [
        lambda c, w: c.faa(w, 1, 4, 1),
        lambda c, w: c.cas(w, 1, 4, 0, 1),
        lambda c, w: c.faa_batch(w, [(1, 4, 1)]),
        lambda c, w: c.cas_batch(w, [(1, 4, 0, 1)]),
    ],
    ids=["faa", "cas", "faa_batch", "cas_batch"],
)
def test_refused_atomic_leaves_no_trace(verb):
    rt = RmaRuntime(nranks=2, profile=UNIFORM)
    win = rt.allocate_window("w", 64)
    with pytest.raises(WindowError, match="misaligned"):
        verb(rt.context(0), win)
    assert rt.clocks == [0.0, 0.0] and rt.service == [0.0, 0.0]
    assert not any(rt.trace.summary().values())
    assert win.read(1, 0, 64) == b"\x00" * 64


def test_fused_atomics_equal_read_then_write():
    win, ref = Window("w", nranks=1, size=16), Window("r", nranks=1, size=16)
    big = (1 << 63) - 1
    for delta in (1, big, big, -3, -(1 << 63), 1 << 64):
        old = ref.read_i64(0, 8)
        wrapped = ((old + delta + (1 << 63)) % (1 << 64)) - (1 << 63)
        ref.write_i64(0, 8, wrapped)
        assert win._faa_i64(0, 8, delta) == old
        assert win.read(0, 0, 16) == ref.read(0, 0, 16)
    found = win.read_i64(0, 8)
    # a compare given as the unsigned encoding of the stored value swaps
    assert win._cas_i64(0, 8, found % (1 << 64), (1 << 64) - 2) == found
    assert win.read_i64(0, 8) == -2
    assert win._cas_i64(0, 8, 5, 9) == -2 and win.read_i64(0, 8) == -2


_MSGS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # target
        st.integers(min_value=0, max_value=4096),  # payload bytes
        st.integers(min_value=1, max_value=9),  # elements coalesced
    ),
    min_size=1,
    max_size=5,
    unique_by=lambda m: m[0],
)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["get", "put", "atomic"]),
    msgs=_MSGS,
    plural=st.booleans(),
)
def test_record_issue_adds_up_to_record_per_message(kind, msgs, plural):
    one, many = TraceRecorder(3), TraceRecorder(3)
    nops = sum(count for _, _, count in msgs)
    many._record_issue(kind, 1, msgs, nops if plural else 0)
    for msg in msgs:
        one._record_issue(kind, 1, (msg,))
    want = one.summary()
    if plural:
        want["batches"] = 1
        want["batched_ops"] = nops
        want["msgs_saved"] = nops - len(msgs)
        want["bytes_batched"] = sum(nbytes for _, nbytes, _ in msgs)
    assert many.summary() == want
    assert many.shard_snapshot() == one.shard_snapshot()
