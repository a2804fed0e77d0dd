"""Versions survive failover: a snapshot opened before a rank crash still
reads its frozen watermark after the dead shard is rehosted from mirrors.

Version chains and the snapshot registry are control-path structures
(like the commit log), so a crash cannot lose them; the live blocks the
visibility rule falls back to are rebuilt byte-identical (version header
included) by the failover repair.  This test kills one rank mid-storm,
lets survivors write through the fence + heal, and checks that their
pre-crash snapshots still resolve every pre-image exactly.
"""

from repro.gda import GdaConfig, GdaDatabase
from repro.gda.retry import RetryPolicy, run_transaction
from repro.gdi import Datatype
from repro.rma import run_spmd
from repro.rma.faults import FaultPlan
from repro.rma.membership import SHARD_REHOSTED

CFG = GdaConfig(blocks_per_rank=1024, replication=True)
N = 18
VICTIM = 2


def test_snapshot_survives_rank_crash_and_failover():
    state = {}

    def build(ctx):
        db = GdaDatabase.create(ctx, CFG)
        if ctx.rank == 0:
            db.create_property_type(ctx, "ts", dtype=Datatype.INT64)
        ctx.barrier()
        db.replica(ctx).sync()
        ts = db.property_type(ctx, "ts")
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            for i in range(N):
                tx.create_vertex(i, properties=[(ts, i)])
            tx.commit()
        ctx.barrier()
        state.update(db=db, ts=ts)
        return True

    rt, _ = run_spmd(3, build)
    mem = rt.membership
    assert mem is not None

    def degraded(ctx):
        db, ts = state["db"], state["ts"]
        mine = range(9) if ctx.rank == 0 else range(9, N)
        if ctx.rank == VICTIM:
            # the victim's first op kills it (FaultPlan below)
            tx = db.start_transaction(ctx)
            tx.find_vertex(0)
            tx.commit()  # pragma: no cover - dead before this
            return True

        # 1. freeze a snapshot while every rank is still alive
        snap = db.start_transaction(ctx, snapshot=True)
        w = snap.snapshot_watermark

        # 2. storm through the crash: these writes hit the fence, heal
        #    the dead shard from its mirrors, and retry transparently
        def bump(tx):
            for i in mine:
                tx.find_vertex(i).set_property(ts, 5000 + i)

        run_transaction(
            ctx, db, bump, write=True, policy=RetryPolicy(max_attempts=8)
        )

        # 3. the pre-crash snapshot still reads its watermark — including
        #    vertices homed on the dead rank, now served by the rehosted
        #    shard + the surviving version chains
        old = [snap.find_vertex(i).property(ts) for i in mine]
        snap.commit()

        # 4. a fresh snapshot sees the post-crash commits.  The barrier
        #    (degraded mode: runs over the live view) makes sure the
        #    *peer's* bump has applied too — the watermark is the
        #    contiguous applied prefix, so a still-pending peer commit
        #    with an earlier timestamp would hold it back
        ctx.barrier()
        snap2 = db.start_transaction(ctx, snapshot=True)
        assert snap2.snapshot_watermark > w
        new = [snap2.find_vertex(i).property(ts) for i in mine]
        snap2.commit()
        return (old, new)

    _, res = run_spmd(
        3,
        degraded,
        runtime=rt,
        faults=FaultPlan(crash_rank=VICTIM, crash_at_op=1),
    )
    assert res[VICTIM] is None  # silent death in degraded mode
    old0, new0 = res[0]
    old1, new1 = res[1]
    assert old0 == list(range(9))  # frozen pre-crash values
    assert old1 == list(range(9, N))
    assert new0 == [5000 + i for i in range(9)]
    assert new1 == [5000 + i for i in range(9, N)]
    assert mem.shard_state(VICTIM) == SHARD_REHOSTED
    db = state["db"]
    # the crash did not pin the watermark: every surviving commit applied
    assert db.mvcc.watermark == db.mvcc.last_issued
    assert db.mvcc.live_snapshots() == 0
