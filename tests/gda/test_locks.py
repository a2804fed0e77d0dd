"""Tests for the scalable distributed reader-writer lock."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gda.locks import WRITE_BIT, LockTimeout, RWLock
from repro.rma import run_spmd


def _with_lock(nranks, fn, max_retries=64, seed=None):
    def prog(ctx):
        win = ctx.win_allocate("locks", 64)
        lock = RWLock(win, rank=0, offset=0, max_retries=max_retries)
        return fn(ctx, lock)

    return run_spmd(nranks, prog, seed=seed)


def test_read_lock_counts_readers():
    def body(ctx, lock):
        lock.acquire_read(ctx)
        ctx.barrier()
        if ctx.rank == 0:
            wbit, readers = lock.peek(ctx)
            assert not wbit
            assert readers == ctx.nranks
        ctx.barrier()
        lock.release_read(ctx)
        ctx.barrier()
        if ctx.rank == 0:
            assert lock.peek(ctx) == (False, 0)

    _with_lock(4, body)


def test_write_lock_excludes_other_writers():
    def body(ctx, lock):
        got = False
        try:
            lock.acquire_write(ctx)
            got = True
        except LockTimeout:
            pass
        ctx.barrier()
        winners = ctx.allreduce(int(got))
        assert winners == 1  # exactly one writer
        if got:
            lock.release_write(ctx)
        ctx.barrier()
        return got

    _with_lock(4, body, max_retries=1)


def test_writer_blocks_readers_and_vice_versa():
    def body(ctx, lock):
        if ctx.rank == 0:
            lock.acquire_write(ctx)
        ctx.barrier()
        if ctx.rank == 1:
            with pytest.raises(LockTimeout):
                lock.acquire_read(ctx)
        ctx.barrier()
        if ctx.rank == 0:
            lock.release_write(ctx)
            lock.acquire_read(ctx)
        ctx.barrier()
        if ctx.rank == 1:
            # Reader present: write CAS(0 -> WRITE_BIT) must fail.
            with pytest.raises(LockTimeout):
                lock.acquire_write(ctx)
        ctx.barrier()
        if ctx.rank == 0:
            lock.release_read(ctx)

    _with_lock(2, body, max_retries=3)


def test_multiple_readers_coexist():
    def body(ctx, lock):
        lock.acquire_read(ctx)  # nobody should time out
        ctx.barrier()
        lock.release_read(ctx)

    _with_lock(8, body, max_retries=2)


def test_upgrade_sole_reader():
    def body(ctx, lock):
        if ctx.rank == 0:
            lock.acquire_read(ctx)
            lock.upgrade(ctx)
            assert lock.peek(ctx) == (True, 0)
            lock.release_write(ctx)
        ctx.barrier()

    _with_lock(2, body)


def test_upgrade_fails_with_other_readers():
    def body(ctx, lock):
        lock.acquire_read(ctx)
        ctx.barrier()
        if ctx.rank == 0:
            with pytest.raises(LockTimeout):
                lock.upgrade(ctx)
        ctx.barrier()
        lock.release_read(ctx)

    _with_lock(3, body, max_retries=2)


def test_downgrade_write_to_read():
    def body(ctx, lock):
        if ctx.rank == 0:
            lock.acquire_write(ctx)
            lock.downgrade(ctx)
            assert lock.peek(ctx) == (False, 1)
            lock.release_read(ctx)
        ctx.barrier()

    _with_lock(1, body)


def test_misuse_detected():
    def body(ctx, lock):
        with pytest.raises(RuntimeError):
            lock.release_write(ctx)
        lock.acquire_read(ctx)
        lock.release_read(ctx)
        with pytest.raises(RuntimeError):
            lock.release_read(ctx)

    _with_lock(1, body)


def test_write_bit_value():
    """The write bit must not collide with any realistic reader count."""
    assert WRITE_BIT == 1 << 62


@pytest.mark.parametrize("seed", [2, 9, 17])
def test_lock_storm_escalates_cleanly_under_contention(seed):
    """Satellite: a seeded contention storm on one hot vertex must hit
    the backoff caps and escalate as the transaction-critical
    GdiLockFailed (never deadlock), and quiescence must leave zero
    leaked lock words or blocks."""
    from repro.gda import GdaConfig, GdaDatabase
    from repro.gda.consistency import check_consistency
    from repro.gdi import Datatype
    from repro.gdi.errors import GdiLockFailed, GdiTransactionCritical

    cfg = GdaConfig(blocks_per_rank=512, lock_max_retries=2)
    rounds = 3

    def prog(ctx):
        db = GdaDatabase.create(ctx, cfg)
        if ctx.rank == 0:
            db.create_property_type(ctx, "ts", dtype=Datatype.INT64)
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(0)
            tx.commit()
        ctx.barrier()
        db.replica(ctx).sync()
        ts = db.property_type(ctx, "ts")
        timeouts = commits = 0
        for rnd in range(rounds):
            holder = rnd % ctx.nranks
            if ctx.rank == holder:
                # take the hot vertex's write lock and sit on it while
                # every other rank storms against its retry budget
                tx = db.start_transaction(ctx, write=True)
                tx.find_vertex(0).set_property(ts, rnd)
                ctx.barrier()
                ctx.barrier()  # contenders have all timed out by now
                tx.commit()
                commits += 1
            else:
                ctx.barrier()
                tx = db.start_transaction(ctx, write=True)
                try:
                    tx.find_vertex(0).set_property(ts, -1)
                    tx.commit()
                    commits += 1
                except GdiLockFailed as exc:
                    # escalation is transaction-critical: the failed tx
                    # must abort (and leave no lock word behind)
                    assert isinstance(exc, GdiTransactionCritical)
                    assert tx.failed
                    tx.abort()
                    timeouts += 1
                ctx.barrier()
            ctx.barrier()  # round quiesce
        total_timeouts = ctx.allreduce(timeouts)
        total_commits = ctx.allreduce(commits)
        # every contender of every round hit the cap and escalated;
        # every holder committed (progress: no deadlock, no livelock)
        assert total_timeouts == rounds * (ctx.nranks - 1)
        assert total_commits == rounds
        report = check_consistency(ctx, db)  # incl. lock-word/block leaks
        assert report.ok, report.problems[:5]
        return timeouts, commits

    run_spmd(4, prog, seed=seed)


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_mutual_exclusion_under_interleavings(seed):
    """A writer never observes concurrent readers/writers in the section."""

    def body(ctx, lock):
        violations = 0
        entered = 0
        for _ in range(5):
            try:
                lock.acquire_write(ctx)
            except LockTimeout:
                continue
            entered += 1
            wbit, readers = lock.peek(ctx)
            if not wbit or readers != 0:
                violations += 1
            lock.release_write(ctx)
        total_violations = ctx.allreduce(violations)
        total_entered = ctx.allreduce(entered)
        assert total_violations == 0
        assert total_entered >= 1  # progress: someone got the lock
        return True

    _with_lock(3, body, max_retries=8, seed=seed)


# ------------------------------------------------------ vector protocol --
def test_batch_retries_only_the_contended_words():
    """Three words, the middle one write-held by a peer: the first round
    takes the other two in one batch, each later attempt (after one
    backoff) touches only the contended word, which times out after
    ``max_retries`` attempts.  ``note`` hears the positions of the words
    taken, which stay the caller's to give back, and of each failed
    increment while its back-out round is in flight."""
    from repro.gda.locks import BACKOUT, READ, acquire_read_batch
    from repro.rma import XC40, RmaRuntime

    rt = RmaRuntime(2, profile=XC40)
    win = rt.allocate_window("vector", 64)
    me, peer = rt.context(0), rt.context(1)
    locks = [
        RWLock(win, 1, 8 * i, max_retries=3, backoff_base=2e-6)
        for i in range(3)
    ]
    locks[1].acquire_write(peer)
    rounds = []
    with pytest.raises(LockTimeout):
        acquire_read_batch(me, locks, lambda got, mode: rounds.append((got, mode)))
    assert rounds == [([0, 2], READ)] + [([1], BACKOUT), ([1], None)] * 3
    c = rt.trace.counters[0]
    assert (c.lock_conflicts, c.batches) == (3, 1)
    # 3 attempts of (+1, back-out -1) on the middle word plus the two
    # first-round +1s
    assert c.atomics == 8
    assert c.backoff_time > 0
    assert [lk.peek(me) for lk in locks] == [(False, 1), (True, 0), (False, 1)]


# ------------------------------------------------- one-word protocol --
def _one_word_run(contended):
    """Read-acquire, write-acquire, upgrade and release one remote word
    with the seeded backoff on; ``contended``: a peer holds the word in
    the conflicting mode across every attempt, so each take times out.
    Returns the op log ``(kind, origin, target, offset)``, both clocks
    and the nonzero trace summary."""
    from repro.rma import XC40, RmaRuntime

    rt = RmaRuntime(2, profile=XC40, log_ops=True)
    win = rt.allocate_window("one-word", 64)
    me, peer = rt.context(0), rt.context(1)
    lock = RWLock(win, 1, 8, max_retries=4, backoff_base=2e-6, seed=3)

    def take(verb, peer_holds):
        if contended:
            getattr(lock, peer_holds)(peer)
        try:
            getattr(lock, verb)(me)
        except LockTimeout:
            assert contended
        if contended:
            (lock.release_write if peer_holds == "acquire_write"
             else lock.release_read)(peer)

    take("acquire_read", "acquire_write")
    if not contended:
        lock.release_read(me)
    take("acquire_write", "acquire_read")
    if not contended:
        lock.release_write(me)
    lock.acquire_read(me)
    take("upgrade", "acquire_read")
    if contended:
        lock.release_read(me)
    else:
        lock.downgrade(me)
        lock.release_read(me)
    assert lock.peek(me) == (False, 0)
    ops = [(kind, origin, target, offset)
           for kind, origin, target, _, offset, _ in rt.trace.ops]
    summary = {k: v for k, v in rt.trace.summary().items() if v}
    return ops, list(rt.clocks), summary


#: :func:`_one_word_run` as recorded before the lock verbs became
#: one-word calls of the batched protocol (run this file as a script to
#: print a fresh literal)
ONE_WORD = {False: ([('atomic', 0, 1, 8),
          ('atomic', 0, 1, 8),
          ('atomic', 0, 1, 8),
          ('atomic', 0, 1, 8),
          ('atomic', 0, 1, 8),
          ('atomic', 0, 1, 8),
          ('atomic', 0, 1, 8),
          ('atomic', 0, 1, 8),
          ('atomic', 0, 1, 8)],
         [1.89e-05, 0.0],
         {'atomics': 9, 'remote_ops': 9}),
 True: ([('atomic', 1, 1, 8),
         ('atomic', 0, 1, 8),
         ('atomic', 0, 1, 8),
         ('atomic', 0, 1, 8),
         ('atomic', 0, 1, 8),
         ('atomic', 0, 1, 8),
         ('atomic', 0, 1, 8),
         ('atomic', 0, 1, 8),
         ('atomic', 0, 1, 8),
         ('atomic', 1, 1, 8),
         ('atomic', 1, 1, 8),
         ('atomic', 0, 1, 8),
         ('atomic', 0, 1, 8),
         ('atomic', 0, 1, 8),
         ('atomic', 0, 1, 8),
         ('atomic', 1, 1, 8),
         ('atomic', 0, 1, 8),
         ('atomic', 1, 1, 8),
         ('atomic', 0, 1, 8),
         ('atomic', 0, 1, 8),
         ('atomic', 0, 1, 8),
         ('atomic', 0, 1, 8),
         ('atomic', 1, 1, 8),
         ('atomic', 0, 1, 8),
         ('atomic', 0, 1, 8)],
        [7.393616333432842e-05, 4.8e-07],
        {'atomics': 25,
         'backoff_time': 3.403616333432845e-05,
         'local_ops': 6,
         'lock_conflicts': 12,
         'remote_ops': 19})}


@pytest.mark.parametrize("contended", [False, True])
def test_one_word_protocol_is_the_recorded_one(contended):
    """A one-word call issues the scalar atomics, waits the scalar
    backoff and counts what the scalar retry loop did, op for op."""
    assert _one_word_run(contended) == ONE_WORD[contended]


#: seed -> (lock conflicts, failed operations, max rank clock in s) of
#: the Fig. 4 weak cell at P=4 under the WI mix (write-heaviest: every
#: update contends for multi-word lock sets), recorded before the gate
#: existed.  A lock change may lower these; one that raises any must
#: re-record it and say why.
CONTENDED_WI = {
    1: (506, 0, 0.0074295559944744915),
    2: (599, 0, 0.006723552197987168),
    3: (1141, 1, 0.010275072044446784),
}


@pytest.mark.parametrize("seed", sorted(CONTENDED_WI))
def test_contended_wi_cell_is_no_worse_than_recorded(seed):
    from repro.gda import GdaConfig, GdaDatabase
    from repro.gda.retry import RetryPolicy
    from repro.generator import KroneckerParams, build_lpg, default_schema
    from repro.rma import XC40
    from repro.workloads.oltp import MIXES, run_oltp_rank

    params = KroneckerParams(scale=9, edge_factor=8, seed=2)

    def prog(ctx):
        # the configuration of benchmarks/test_fig4_oltp_scaling.py's cells
        db = GdaDatabase.create(ctx, GdaConfig(
            blocks_per_rank=max(16384, 8 * params.n_edges // ctx.nranks),
            dht_entries_per_rank=max(4096, 4 * params.n_vertices // ctx.nranks),
        ))
        g = build_lpg(ctx, db, params, default_schema())
        return run_oltp_rank(
            ctx, g, MIXES["WI"], 100, seed=5, retry=RetryPolicy(max_attempts=3)
        )

    rt, res = run_spmd(4, prog, profile=XC40, seed=seed)
    conflicts, failed, clock = CONTENDED_WI[seed]
    assert sum(r.n_ops for r in res) == 400
    assert rt.trace.total("lock_conflicts") <= conflicts
    assert sum(r.n_failed for r in res) <= failed
    assert max(rt.clocks) <= clock


if __name__ == "__main__":
    import pprint

    print("ONE_WORD = " + pprint.pformat(
        {c: _one_word_run(c) for c in (False, True)}, width=79))
