"""Snapshot reads are serializable reads (Section 3.8).

A snapshot at watermark ``W`` reads every commit with a timestamp up to
``W`` and none above it.  That is a serializable cut only if timestamp
order agrees with the order in which conflicting writers serialized.
Writers are strict 2PL and draw their timestamp at the commit point,
right after the log append and while every write lock is still held,
so of two commits that wrote a common vertex, the one logged first must
carry the smaller timestamp.  This checks it on a seeded WI storm.
"""

import itertools

from repro.gda import GdaConfig, GdaDatabase, RetryPolicy, commit
from repro.generator import KroneckerParams, build_lpg, default_schema
from repro.rma import run_spmd
from repro.workloads.oltp import MIXES, run_oltp_rank

PARAMS = KroneckerParams(scale=5, edge_factor=3, seed=7)
SCHEMA = default_schema(n_vertex_labels=2, n_edge_labels=2, n_properties=3)


def test_log_order_is_timestamp_order_for_conflicting_commits(monkeypatch):
    applied = []  # (log seq, commit ts, vids written), one per commit

    def finish(plan):
        if plan.ts and plan.seq is not None:
            written = {
                t.vid for t in plan.ordered if t.deleted or t.created or t.dirty
            }
            applied.append((plan.seq, plan.ts, written))
        return commit.finish(plan)

    monkeypatch.setattr(
        commit,
        "STAGES",
        tuple(finish if s is commit.finish else s for s in commit.STAGES),
    )

    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=4096))
        g = build_lpg(ctx, db, PARAMS, SCHEMA)
        run_oltp_rank(
            ctx, g, MIXES["WI"], 60, seed=ctx.rank, ops_per_txn=2,
            retry=RetryPolicy(max_attempts=6),
        )

    run_spmd(3, prog, seed=11)
    conflicts = 0
    for (seq_a, ts_a, va), (seq_b, ts_b, vb) in itertools.combinations(applied, 2):
        if va & vb:
            conflicts += 1
            assert (seq_a < seq_b) == (ts_a < ts_b), (seq_a, ts_a, seq_b, ts_b)
    assert len(applied) > 50 and conflicts > 100, (len(applied), conflicts)
