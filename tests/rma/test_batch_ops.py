"""Tests for batched one-sided operations (doorbell coalescing).

Covers the PR's satellite checklist:

* hypothesis property — a ``put_batch``/``get_batch`` is observably
  equivalent to the scalar operation sequence (identical final window
  contents, identical payloads) while its simulated cost never exceeds
  the scalar sum;
* flush/wait accounting — a ``wait()`` after the covering window flush
  charges nothing, and back-to-back flushes do not re-charge bandwidth;
* signed 64-bit edge cases — ``faa`` wraps ``INT64_MAX`` to
  ``INT64_MIN`` and ``cas`` treats out-of-range compare values as
  two's-complement;
* determinism — batched programs produce identical state and identical
  coalescing counters under a seeded :class:`InterleavingScheduler`.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rma import (
    FaultInjector,
    FaultPlan,
    RmaError,
    RmaRuntime,
    TraceRecorder,
    UNIFORM,
    run_spmd,
)

WIN_BYTES = 512
NRANKS = 3

INT64_MAX = (1 << 63) - 1
INT64_MIN = -(1 << 63)


def _fresh():
    rt = RmaRuntime(nranks=NRANKS, profile=UNIFORM)
    win = rt.allocate_window("w", WIN_BYTES)
    return rt, win


# strategy: a batch of (target, offset, payload) with in-bounds extents
_put_ops = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=NRANKS - 1),
        st.integers(min_value=0, max_value=WIN_BYTES - 16),
        st.binary(min_size=1, max_size=16),
    ),
    min_size=1,
    max_size=24,
)

_get_ops = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=NRANKS - 1),
        st.integers(min_value=0, max_value=WIN_BYTES - 16),
        st.integers(min_value=1, max_value=16),
    ),
    min_size=1,
    max_size=24,
)


class TestBatchScalarEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(ops=_put_ops)
    def test_put_batch_equals_scalar_puts(self, ops):
        rt_b, win_b = _fresh()
        rt_s, win_s = _fresh()

        cb = rt_b.context(0)
        t0 = cb.clock
        cb.put_batch(win_b, ops)
        batch_cost = cb.clock - t0

        cs = rt_s.context(0)
        t0 = cs.clock
        for target, offset, data in ops:
            cs.put(win_s, target, offset, data)
        scalar_cost = cs.clock - t0

        for r in range(NRANKS):
            assert win_b.read(r, 0, WIN_BYTES) == win_s.read(r, 0, WIN_BYTES)
        assert batch_cost <= scalar_cost + 1e-15

    @settings(max_examples=60, deadline=None)
    @given(ops=_get_ops, blob=st.binary(min_size=WIN_BYTES, max_size=WIN_BYTES))
    def test_get_batch_equals_scalar_gets(self, ops, blob):
        rt_b, win_b = _fresh()
        rt_s, win_s = _fresh()
        for r in range(NRANKS):
            win_b.write(r, 0, blob)
            win_s.write(r, 0, blob)

        cb = rt_b.context(0)
        t0 = cb.clock
        batched = cb.get_batch(win_b, ops)
        batch_cost = cb.clock - t0

        cs = rt_s.context(0)
        t0 = cs.clock
        scalar = [cs.get(win_s, t, o, n) for t, o, n in ops]
        scalar_cost = cs.clock - t0

        assert batched == scalar
        assert batch_cost <= scalar_cost + 1e-15

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=NRANKS - 1),
                st.integers(min_value=0, max_value=WIN_BYTES - 16),
                st.one_of(st.just(8), st.integers(min_value=0, max_value=16)),
            ),
            max_size=24,
        ),
        blob=st.binary(min_size=WIN_BYTES, max_size=WIN_BYTES),
        feedback=st.sampled_from([0.0, 1.0]),
        log_ops=st.booleans(),
    )
    def test_columnar_get_batch_equals_elementwise_get_batch(
        self, ops, blob, feedback, log_ops
    ):
        """An ``(n, 3)`` array of the same triples moves the same bytes and
        leaves every counter, the receiver service and the clock exactly
        where the element-wise form leaves them."""
        profile = dataclasses.replace(UNIFORM, congestion_feedback=feedback)
        state = []
        for form in (list, lambda o: np.array(o, dtype=np.int64).reshape(-1, 3)):
            rt = RmaRuntime(nranks=NRANKS, profile=profile, log_ops=log_ops)
            win = rt.allocate_window("w", WIN_BYTES)
            for r in range(NRANKS):
                win.write(r, 0, blob[r:] + blob[:r])
            got = rt.context(0).get_batch(win, form(ops))
            state.append(
                (
                    bytes(got) if isinstance(got, np.ndarray) else b"".join(got),
                    rt.trace.summary(),
                    rt.trace.shard_snapshot(),
                    rt.trace.ops,
                    rt.clocks,
                    rt.service,
                )
            )
        assert state[0] == state[1]

    def test_counter_batch_forms_add_up_to_the_per_element_calls(self):
        one, many = TraceRecorder(2), TraceRecorder(2)
        sizes = [5, 0, 17, 8]
        for kind, target in (("get", 1), ("put", 0), ("atomic", 1)):
            for nbytes in sizes:
                one._record_issue(kind, 0, ((target, nbytes, 1),))
            many._record_issue(kind, 0, ((target, sum(sizes), len(sizes)),))
        for _ in sizes:
            one.record_snapshot_read(1)
        many.record_snapshot_read(1, len(sizes))
        assert many.summary() == one.summary()
        assert many.shard_snapshot() == one.shard_snapshot()

    @settings(max_examples=40, deadline=None)
    @given(ops=_put_ops)
    def test_iput_batch_then_flush_equals_scalar_puts(self, ops):
        rt_b, win_b = _fresh()
        rt_s, win_s = _fresh()

        cb = rt_b.context(0)
        req = cb.iput_batch(win_b, ops)
        cb.flush(win_b)
        assert req.completed

        cs = rt_s.context(0)
        for target, offset, data in ops:
            cs.put(win_s, target, offset, data)

        for r in range(NRANKS):
            assert win_b.read(r, 0, WIN_BYTES) == win_s.read(r, 0, WIN_BYTES)

    def test_batch_counters(self):
        rt, win = _fresh()
        c = rt.context(0)
        ops = [(1, 0, b"abcd"), (1, 8, b"efgh"), (2, 0, b"ijkl")]
        c.put_batch(win, ops)
        snap = rt.trace.counters[0].snapshot()
        assert snap["batches"] == 1
        assert snap["batched_ops"] == 3
        # three elements coalesced into two per-target messages
        assert snap["msgs_saved"] == 1
        assert snap["bytes_batched"] == 12
        # per-element trace records keep op-count budgets meaningful
        assert snap["puts"] == 3

    def test_empty_batches_are_free(self):
        rt, win = _fresh()
        c = rt.context(0)
        t0 = c.clock
        c.put_batch(win, [])
        assert c.get_batch(win, []) == []
        req = c.iput_batch(win, [])
        assert req.completed
        req.wait()
        req = c.iget_batch(win, [])
        assert req.results() == []
        assert c.clock == t0


# one step of a program: a scalar verb and the plural verb of one element
# that does the same thing, both returning what the scalar returns
_word = st.integers(min_value=INT64_MIN, max_value=INT64_MAX)
_target = st.integers(min_value=0, max_value=NRANKS - 1)
_offset = st.integers(min_value=0, max_value=WIN_BYTES // 8 - 3).map(lambda i: 8 * i)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _target, _offset, st.binary(max_size=16)),
        st.tuples(st.just("get"), _target, _offset, st.integers(0, 16)),
        st.tuples(st.just("cas"), _target, _offset, _word, _word),
        st.tuples(st.just("faa"), _target, _offset, _word),
        st.tuples(st.just("aget"), _target, _offset),
        st.tuples(st.just("aput"), _target, _offset, _word),
        st.tuples(st.just("iput"), _target, _offset, st.binary(max_size=16)),
        st.tuples(st.just("iget"), _target, _offset, st.integers(0, 16)),
    ),
    min_size=1,
    max_size=12,
)


def _waited(req):
    req.wait()
    return req


def _discard(_found):
    return None


_SCALAR = {
    "put": lambda c, w, t, o, d: c.put(w, t, o, d),
    "get": lambda c, w, t, o, n: c.get(w, t, o, n),
    "cas": lambda c, w, t, o, cmp, new: c.cas(w, t, o, cmp, new),
    "faa": lambda c, w, t, o, d: c.faa(w, t, o, d),
    "aget": lambda c, w, t, o: c.aget(w, t, o),
    "aput": lambda c, w, t, o, v: c.aput(w, t, o, v),
    "iput": lambda c, w, t, o, d: _waited(c.iput(w, t, o, d)).completed,
    "iget": lambda c, w, t, o, n: _waited(c.iget(w, t, o, n)).result(),
}

# AGET is a fetch-and-add of zero; APUT a compare-and-swap that cannot
# miss (the compare is the word just found there, and nobody else runs)
_PLURAL = {
    "put": lambda c, w, t, o, d: c.put_batch(w, [(t, o, d)]),
    "get": lambda c, w, t, o, n: c.get_batch(w, [(t, o, n)])[0],
    "cas": lambda c, w, t, o, cmp, new: c.cas_batch(w, [(t, o, cmp, new)])[0],
    "faa": lambda c, w, t, o, d: c.faa_batch(w, [(t, o, d)])[0],
    "aget": lambda c, w, t, o: c.faa_batch(w, [(t, o, 0)])[0],
    "aput": lambda c, w, t, o, v: _discard(
        c.cas_batch(w, [(t, o, w.read_i64(t, o), v)])
    ),
    "iput": lambda c, w, t, o, d: _waited(c.iput_batch(w, [(t, o, d)])).completed,
    "iget": lambda c, w, t, o, n: _waited(c.iget_batch(w, [(t, o, n)])).results()[0],
}

_BATCH_ONLY = ("batches", "batched_ops", "msgs_saved", "bytes_batched")


class TestScalarIsPluralOfOne:
    @settings(max_examples=120, deadline=None)
    @given(
        steps=_steps,
        blob=st.binary(min_size=WIN_BYTES, max_size=WIN_BYTES),
        feedback=st.sampled_from([0.0, 1.0]),
        fault_seed=st.one_of(st.none(), st.integers(0, 1 << 16)),
    )
    def test_scalar_verb_equals_its_plural_verb_of_one_element(
        self, steps, blob, feedback, fault_seed
    ):
        """Bytes, return values, clocks, receiver service, shard counters,
        op log and every counter but the ``batch*`` ones: a scalar verb
        leaves exactly what its plural verb leaves for one element — with
        congestion feedback on, and drawing the same transient faults."""
        profile = dataclasses.replace(UNIFORM, congestion_feedback=feedback)
        state = []
        for verbs in (_SCALAR, _PLURAL):
            faults = None
            if fault_seed is not None:
                faults = FaultInjector(
                    FaultPlan(seed=fault_seed, transient_rate=0.2)
                )
            rt = RmaRuntime(
                nranks=NRANKS, profile=profile, log_ops=True, faults=faults
            )
            win = rt.allocate_window("w", WIN_BYTES)
            for r in range(NRANKS):
                win.write(r, 0, blob[r:] + blob[:r])
            c = rt.context(0)
            returned = [verbs[verb](c, win, *args) for verb, *args in steps]
            summary = rt.trace.summary()
            state.append(
                (
                    [win.read(r, 0, WIN_BYTES) for r in range(NRANKS)],
                    returned,
                    rt.clocks,
                    rt.service,
                    rt.trace.shard_snapshot(),
                    rt.trace.ops,
                    {k: v for k, v in summary.items() if k not in _BATCH_ONLY},
                )
            )
            if verbs is _PLURAL:
                assert summary["batches"] == summary["batched_ops"] == len(steps)
                assert summary["msgs_saved"] == 0
        assert state[0] == state[1]


class TestFlushWaitAccounting:
    """Regression: completion must be charged exactly once."""

    def test_wait_after_flush_charges_zero(self):
        rt, win = _fresh()
        c = rt.context(0)
        req = c.iput(win, 1, 0, b"x" * 64)
        c.flush(win, 1)
        assert req.completed
        t0 = c.clock
        req.wait()
        assert c.clock == t0

    def test_batch_wait_after_flush_charges_zero(self):
        rt, win = _fresh()
        c = rt.context(0)
        req = c.iput_batch(win, [(1, 0, b"x" * 32), (2, 0, b"y" * 32)])
        c.flush(win)
        assert req.completed
        t0 = c.clock
        req.wait()
        assert c.clock == t0
        assert win.read(1, 0, 32) == b"x" * 32

    def test_back_to_back_flushes_do_not_recharge(self):
        rt, win = _fresh()
        c = rt.context(0)
        c.iput_batch(win, [(1, 0, b"x" * 128)])
        c.flush(win)
        t0 = c.clock
        c.flush(win)
        second = c.clock - t0
        # the second flush is an empty fence: one round trip, and in
        # particular the 128 bytes of bandwidth are NOT charged again
        assert second == pytest.approx(rt.cost.flush(0, None))
        assert second < rt.cost.profile.alpha + 128 * rt.cost.profile.beta

    def test_iget_batch_results_after_wait_only(self):
        rt, win = _fresh()
        rt.context(1).put(win, 2, 16, b"payload!")
        c = rt.context(0)
        req = c.iget_batch(win, [(2, 16, 8), (1, 0, 4)])
        with pytest.raises(RmaError):
            req.results()
        req.wait()
        assert req.results() == [b"payload!", b"\x00" * 4]


class TestSigned64EdgeCases:
    def test_faa_wraps_int64_max_to_min(self):
        rt, win = _fresh()
        c = rt.context(0)
        win.write_i64(1, 0, INT64_MAX)
        old = c.faa(win, 1, 0, 1)
        assert old == INT64_MAX
        assert win.read_i64(1, 0) == INT64_MIN

    def test_faa_wraps_below_int64_min(self):
        rt, win = _fresh()
        c = rt.context(0)
        win.write_i64(1, 0, INT64_MIN)
        old = c.faa(win, 1, 0, -1)
        assert old == INT64_MIN
        assert win.read_i64(1, 0) == INT64_MAX

    def test_cas_compare_accepts_twos_complement_encoding(self):
        """compare=2**64-1 must match a stored -1 (same 8-byte pattern)."""
        rt, win = _fresh()
        c = rt.context(0)
        win.write_i64(1, 0, -1)
        found = c.cas(win, 1, 0, (1 << 64) - 1, 7)
        assert found == -1
        assert win.read_i64(1, 0) == 7

    def test_cas_negative_compare_matches_negative_value(self):
        rt, win = _fresh()
        c = rt.context(0)
        win.write_i64(2, 8, INT64_MIN)
        found = c.cas(win, 2, 8, INT64_MIN, -5)
        assert found == INT64_MIN
        assert win.read_i64(2, 8) == -5

    def test_cas_mismatch_leaves_value(self):
        rt, win = _fresh()
        c = rt.context(0)
        win.write_i64(1, 0, -2)
        found = c.cas(win, 1, 0, -1, 9)
        assert found == -2
        assert win.read_i64(1, 0) == -2


def _batched_program(ctx):
    win = ctx.rt.window("w")
    base = ctx.rank * 64
    ops = [((ctx.rank + 1) % NRANKS, base + i * 8, bytes([ctx.rank + 1] * 8))
           for i in range(4)]
    req = ctx.iput_batch(win, ops)
    ctx.flush(win)
    assert req.completed
    ctx.barrier()
    return ctx.get_batch(win, [(r, 0, 64 * NRANKS) for r in range(NRANKS)])


class TestSchedulerDeterminism:
    def test_batched_ops_deterministic_under_seeded_scheduler(self):
        def run(seed):
            rt = RmaRuntime(nranks=NRANKS, profile=UNIFORM)
            rt.allocate_window("w", 64 * NRANKS)
            rt2, res = run_spmd(
                NRANKS, _batched_program, seed=seed, runtime=rt
            )
            counters = [rt2.trace.counters[r].snapshot() for r in range(NRANKS)]
            return res, counters

        res_a, cnt_a = run(seed=13)
        res_b, cnt_b = run(seed=13)
        assert res_a == res_b
        assert cnt_a == cnt_b
        # non-trivial coalescing actually happened under the scheduler
        assert all(c["batches"] >= 2 for c in cnt_a)
        assert all(c["msgs_saved"] >= 3 for c in cnt_a)
