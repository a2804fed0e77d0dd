"""Tests for the scalable distributed reader-writer lock: one remote word
at an address ``(rank, offset)``, taken and given back through the vector
verbs of :mod:`repro.gda.locks`, each writing a plain dict ledger."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gda.locks import (
    BACKOUT,
    READ,
    UPGRADE,
    WRITE,
    WRITE_BIT,
    LockTimeout,
    acquire_read_batch,
    acquire_write_batch,
    release_batch,
    upgrade_batch,
)
from repro.rma import run_spmd

#: the lock word of the single-word tests: rank 0, offset 0
W = (0, 0)


def _take(ctx, win, verb, tries, word=W):
    """Take ``word`` in a one-word call of ``verb``; return the ledger it
    wrote (the word keys its own entry)."""
    held = {}
    verb(ctx, win, {word: word}, held, 0, tries)
    return held


def _give(ctx, win, mode, word=W):
    release_batch(ctx, win, [(word, mode)])


def _with_lock(nranks, fn, max_retries=64, seed=None):
    def prog(ctx):
        win = ctx.win_allocate("locks", 64)
        return fn(ctx, win, max_retries)

    return run_spmd(nranks, prog, seed=seed)


def test_read_lock_counts_readers():
    def body(ctx, win, tries):
        assert _take(ctx, win, acquire_read_batch, tries) == {W: (READ, 0, W)}
        ctx.barrier()
        if ctx.rank == 0:
            assert ctx.aget(win, *W) == ctx.nranks  # no write bit
        ctx.barrier()
        _give(ctx, win, READ)
        ctx.barrier()
        if ctx.rank == 0:
            assert ctx.aget(win, *W) == 0

    _with_lock(4, body)


def test_write_lock_excludes_other_writers():
    def body(ctx, win, tries):
        got = False
        try:
            _take(ctx, win, acquire_write_batch, tries)
            got = True
        except LockTimeout:
            pass
        ctx.barrier()
        winners = ctx.allreduce(int(got))
        assert winners == 1  # exactly one writer
        if got:
            _give(ctx, win, WRITE)
        ctx.barrier()
        return got

    _with_lock(4, body, max_retries=1)


def test_writer_blocks_readers_and_vice_versa():
    def body(ctx, win, tries):
        if ctx.rank == 0:
            _take(ctx, win, acquire_write_batch, tries)
        ctx.barrier()
        if ctx.rank == 1:
            with pytest.raises(LockTimeout):
                _take(ctx, win, acquire_read_batch, tries)
        ctx.barrier()
        if ctx.rank == 0:
            _give(ctx, win, WRITE)
            _take(ctx, win, acquire_read_batch, tries)
        ctx.barrier()
        if ctx.rank == 1:
            # Reader present: write CAS(0 -> WRITE_BIT) must fail.
            with pytest.raises(LockTimeout):
                _take(ctx, win, acquire_write_batch, tries)
        ctx.barrier()
        if ctx.rank == 0:
            _give(ctx, win, READ)

    _with_lock(2, body, max_retries=3)


def test_multiple_readers_coexist():
    def body(ctx, win, tries):
        _take(ctx, win, acquire_read_batch, tries)  # nobody should time out
        ctx.barrier()
        _give(ctx, win, READ)

    _with_lock(8, body, max_retries=2)


def test_upgrade_sole_reader():
    def body(ctx, win, tries):
        if ctx.rank == 0:
            _take(ctx, win, acquire_read_batch, tries)
            assert _take(ctx, win, upgrade_batch, tries) == {W: (WRITE, 0, W)}
            assert ctx.aget(win, *W) == WRITE_BIT  # no readers
            _give(ctx, win, WRITE)
        ctx.barrier()

    _with_lock(2, body)


def test_upgrade_fails_with_other_readers():
    def body(ctx, win, tries):
        _take(ctx, win, acquire_read_batch, tries)
        ctx.barrier()
        if ctx.rank == 0:
            with pytest.raises(LockTimeout):
                _take(ctx, win, upgrade_batch, tries)
        ctx.barrier()
        _give(ctx, win, READ)

    _with_lock(3, body, max_retries=2)


def test_downgrade_write_to_read():
    def body(ctx, win, tries):
        if ctx.rank == 0:
            _take(ctx, win, acquire_write_batch, tries)
            _give(ctx, win, UPGRADE)
            assert ctx.aget(win, *W) == 1  # one reader, no write bit
            _give(ctx, win, READ)
        ctx.barrier()

    _with_lock(1, body)


def test_misuse_detected():
    def body(ctx, win, tries):
        with pytest.raises(RuntimeError):
            _give(ctx, win, WRITE)
        _take(ctx, win, acquire_read_batch, tries)
        _give(ctx, win, READ)
        with pytest.raises(RuntimeError):
            _give(ctx, win, READ)

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

    def body(ctx, win, tries):
        violations = 0
        entered = 0
        for _ in range(5):
            try:
                _take(ctx, win, acquire_write_batch, tries)
            except LockTimeout:
                continue
            entered += 1
            if ctx.aget(win, *W) != WRITE_BIT:  # a reader or no writer
                violations += 1
            _give(ctx, win, WRITE)
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
    ``tries`` attempts.  The ledger lists the words taken, which stay the
    caller's to give back, as soon as their round returned, and each
    failed increment while its back-out round is in flight."""
    from repro.rma import XC40, RmaRuntime

    rt = RmaRuntime(2, profile=XC40)
    win = rt.allocate_window("vector", 64)
    me, peer = rt.context(0), rt.context(1)
    words = [(1, 8 * i) for i in range(3)]
    _take(peer, win, acquire_write_batch, 3, words[1])
    rounds = []

    class LoggedLedger(dict):
        """A dict ledger that logs each write the protocol makes to it."""

        def __setitem__(self, key, entry):
            rounds.append((key, entry[0]))
            super().__setitem__(key, entry)

        def __delitem__(self, key):
            rounds.append((key, None))
            super().__delitem__(key)

    held = LoggedLedger()
    with pytest.raises(LockTimeout):
        acquire_read_batch(me, win, dict(zip("abc", words)), held, 0, 3)
    assert rounds == [("a", READ), ("c", READ)] + [("b", BACKOUT), ("b", None)] * 3
    assert held == {"a": (READ, 0, words[0]), "c": (READ, 0, words[2])}
    c = rt.trace.counters[0]
    assert (c.lock_conflicts, c.batches) == (3, 1)
    # 3 attempts of (+1, back-out -1) on the middle word plus the two
    # first-round +1s
    assert c.atomics == 8
    assert c.backoff_time > 0
    assert [me.aget(win, *w) for w in words] == [1, WRITE_BIT, 1]


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
    word = (1, 8)

    def take(verb, peer_holds):
        if contended:
            _take(peer, win, peer_holds, 4, word)
        try:
            _take(me, win, verb, 4, word)
        except LockTimeout:
            assert contended
        if contended:
            mode = WRITE if peer_holds is acquire_write_batch else READ
            _give(peer, win, mode, word)

    take(acquire_read_batch, acquire_write_batch)
    if not contended:
        _give(me, win, READ, word)
    take(acquire_write_batch, acquire_read_batch)
    if not contended:
        _give(me, win, WRITE, word)
    _take(me, win, acquire_read_batch, 4, word)
    take(upgrade_batch, acquire_read_batch)
    if contended:
        _give(me, win, READ, word)
    else:
        _give(me, win, UPGRADE, word)
        _give(me, win, READ, word)
    assert me.aget(win, *word) == 0
    ops = [(kind, origin, target, offset)
           for kind, origin, target, _, offset, _ in rt.trace.ops]
    summary = {k: v for k, v in rt.trace.summary().items() if v}
    return ops, list(rt.clocks), summary


#: :func:`_one_word_run` as recorded before the lock verbs became
#: one-word calls of the batched protocol (run this file as a script to
#: print a fresh literal); the contended run re-recorded with the backoff
#: seed 0 when the per-lock seed went (it was 3), before the change
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
        [7.287166580512619e-05, 4.8e-07],
        {'atomics': 25,
         'backoff_time': 3.2971665805126215e-05,
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
