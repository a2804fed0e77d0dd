"""Deleted DHT entries come back through the MVCC GC floor.

An unlinked entry is parked with the last commit timestamp issued at its
unlink and returns to its heap's free list in the first GC pass whose
floor is strictly above that tag.  No collective is involved, so an
OLTP-only database drains as it goes, and a pass that meets a dead
shard leaves that shard's entries to its rebuild instead of failing the
commit that ran it.
"""

from repro.gda import GdaConfig, GdaDatabase
from repro.gda.consistency import check_consistency
from repro.gda.dptr import unpack_dptr
from repro.gda.retry import RetryPolicy
from repro.generator import KroneckerParams, build_lpg, default_schema
from repro.rma import run_spmd
from repro.rma.faults import FaultPlan
from repro.rma.membership import SHARD_NORMAL
from repro.workloads import MIXES, run_oltp_rank


def test_parked_entries_stay_bounded_over_a_long_wi_run():
    """Four rounds of 5,000 WI ops per rank on two ranks: after every GC
    pass each heap holds no more parked entries than were unlinked on
    it since the pass before (at no point do they pile up per round)."""
    passes = []

    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=8192))
        g = build_lpg(
            ctx,
            db,
            KroneckerParams(scale=8, edge_factor=4, seed=1),
            default_schema(),
        )
        if ctx.rank == 0:
            dht, mvcc = db.dht, db.mvcc
            unlinks, last = [0] * ctx.nranks, [0] * ctx.nranks
            park, reclaim = dht._park, dht.reclaim

            def counted_park(ptr):
                park(ptr)
                unlinks[unpack_dptr(ptr).rank] += 1

            def logged_reclaim(c, floor):
                released = reclaim(c, floor)
                since = [u - p for u, p in zip(unlinks, last)]
                passes.append(([len(p) for p in dht._parked], since))
                last[:] = unlinks
                return released

            dht._park, mvcc.reclaim = counted_park, logged_reclaim
        ctx.barrier()
        rounds = []
        for rnd in range(4):
            run_oltp_rank(
                ctx, g, MIXES["WI"], 5000, seed=rnd,
                retry=RetryPolicy(max_attempts=6),
            )
            ctx.barrier()
            rounds.append([len(p) for p in db.dht._parked])
            ctx.barrier()
        return rounds, sum(unlinks) if ctx.rank == 0 else None

    _, res = run_spmd(2, prog, seed=1)
    rounds, total_unlinks = res[0]
    assert len(passes) > 100 and total_unlinks > 300
    for parked, since in passes:
        assert all(p <= s for p, s in zip(parked, since)), (parked, since)
    # without the floor every unlink of the run would still be parked
    assert max(map(max, rounds)) <= max(max(s) for _, s in passes)


def test_a_gc_pass_leaves_a_dead_shards_entries_to_its_rebuild():
    """Rank 2 dies with deleted entries parked on its heap; a survivor's
    commit then runs a GC pass whose floor covers them.  The pass is
    fenced off the dead shard, leaves its entries parked and the commit
    succeeds; heal rebuilds the shard, which drops them, and the DHT
    heap accounting (invariant 6) holds."""
    victim = 2
    cfg = GdaConfig(blocks_per_rank=1024, replication=True, mvcc_gc_interval=1)
    state = {}

    def build(ctx):
        db = GdaDatabase.create(ctx, cfg)
        if ctx.rank == 0:
            homed = {
                r: [k for k in range(400) if db.dht.bucket_of(k)[0] == r]
                for r in (0, victim)
            }
            doomed = homed[victim][:6]
            tx = db.start_transaction(ctx, write=True)
            for k in doomed:
                tx.create_vertex(k)
            tx.commit()
            tx = db.start_transaction(ctx, write=True)
            for k in doomed:
                tx.delete_vertex(tx.find_vertex(k))
            tx.commit()
            # one more commit, so the next transaction starts above the
            # unlinks' tag: its pass is the first whose floor frees them
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(homed[0][0])
            tx.commit()
            state.update(db=db, doomed=doomed, fresh=homed[0][1])
            state["parked"] = len(db.dht._parked[victim])
        ctx.barrier()

    rt, _ = run_spmd(3, build, seed=5)
    assert state["parked"] == len(state["doomed"])

    def degraded(ctx):
        db = state["db"]
        if ctx.rank == victim:
            return None  # dies at the phase's first operation
        after = None
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            tx.create_vertex(state["fresh"])
            tx.commit()  # its GC pass reaches the dead shard
            after = (
                rt.membership.shard_state(victim),
                len(db.dht._parked[victim]),
            )
        ctx.barrier()
        db.heal(ctx)
        ctx.barrier()
        report = check_consistency(ctx, db)
        tx = db.start_transaction(ctx)
        found = [tx.find_vertex(k) is not None for k in state["doomed"]]
        found.append(tx.find_vertex(state["fresh"]) is not None)
        tx.commit()
        return after, len(db.dht._parked[victim]), report, found

    _, res = run_spmd(
        3, degraded, runtime=rt, faults=FaultPlan(crash_rank=victim, crash_at_op=1)
    )
    assert res[victim] is None
    (shard_state, parked_after_pass), parked_after_heal, report, found = res[0]
    assert shard_state != SHARD_NORMAL  # the pass met the dead shard ...
    assert parked_after_pass == len(state["doomed"])  # ... and left it parked
    assert parked_after_heal == 0  # the rebuild dropped them
    assert report.ok, report.problems[:5]
    assert report.dht_allocated == report.dht_reachable
    assert found == [False] * len(state["doomed"]) + [True]
