"""Serving under overload: the admission-control knee (ISSUE 7).

A closed-loop population of simulated users submits the OLTP/analytics
mix through the serving front-end at escalating arrival rates — half,
one, and two times the measured saturation rate of the worker pool.  The
experiment reports p50/p99/p999 latency and goodput of the admitted OLTP
traffic through the knee, demonstrating the robustness contract:

* the bounded admission queue never grows past its capacity — excess
  arrivals are shed explicitly instead of buffering without bound,
* p99 latency of *admitted* OLTP requests stays bounded (by queue
  capacity x worst-case service) even at 2x saturation,
* the circuit breaker opens under backlog and sheds analytics-class
  queries at the front door while OLTP keeps completing,
* with the fault injector killing a worker rank mid-storm, every client
  session still reaches a terminal state (zero hung sessions) and the
  survivors keep serving in degraded mode.

All latencies are simulated seconds (virtual-time queueing, see
``repro.serve.server``); wall-clock only bounds how fast the storm runs.

Environment knobs: ``REPRO_SERVE_USERS`` (simulated user population,
default 10000) and ``REPRO_SERVE_REQUESTS`` (requests per phase,
default 1200).
"""

import os
import threading

import numpy as np

from repro.gda import GdaConfig, GdaDatabase, RetryPolicy
from repro.generator import KroneckerParams, build_lpg, default_schema
from repro.rma import run_spmd
from repro.rma.faults import FaultPlan
from repro.serve import (
    ClientSession,
    ClosedLoopLoad,
    GraphServer,
    ServeConfig,
    ServeMix,
)
from repro.serve.request import OLTP, TERMINAL_STATUSES

NRANKS = 4  # 1 front-end rank + 3 workers
WORKERS = NRANKS - 1
VICTIM = NRANKS - 1
QUEUE_CAP = 64
PARAMS = KroneckerParams(scale=8, edge_factor=8, seed=23)
SCHEMA = default_schema()
CFG = GdaConfig(blocks_per_rank=16384, replication=True)
RETRY = RetryPolicy(max_attempts=10)
N_TENANTS = 16


def serve_users() -> int:
    return int(os.environ.get("REPRO_SERVE_USERS", "10000"))


def serve_requests() -> int:
    return int(os.environ.get("REPRO_SERVE_REQUESTS", "1200"))


def _sessions(server):
    return [
        ClientSession(server, tenant=f"t{i}", session_id=i)
        for i in range(N_TENANTS)
    ]


def _by_status(records):
    out = {}
    for r in records:
        out[r.status] = out.get(r.status, 0) + 1
    return out


def _phase_stats(records, offered_rate):
    """Latency/goodput summary of one load phase (simulated seconds)."""
    ok_oltp = [r for r in records if r.status == "ok" and r.qclass == OLTP]
    lat = np.array([r.latency for r in ok_oltp] or [0.0])
    waits = np.array([r.queue_wait for r in ok_oltp] or [0.0])
    span = max(r.completion for r in records) - min(r.arrival for r in records)
    return {
        "offered_rate": offered_rate,
        "n_requests": len(records),
        "by_status": _by_status(records),
        "ok_oltp": len(ok_oltp),
        "goodput": len(ok_oltp) / span if span > 0 else 0.0,
        "p50_latency": float(np.percentile(lat, 50)),
        "p99_latency": float(np.percentile(lat, 99)),
        "p999_latency": float(np.percentile(lat, 99.9)),
        "p99_wait": float(np.percentile(waits, 99)),
        "max_service": max(
            (r.service for r in records if r.service), default=0.0
        ),
    }


def test_serve_overload_knee(report, metrics):
    users, n_req = serve_users(), serve_requests()
    state = {}
    mix = ServeMix(PARAMS.n_vertices, analytics_fraction=0.03, seed=9)

    def prog(ctx):
        db = GdaDatabase.create(ctx, CFG)
        build_lpg(ctx, db, PARAMS, SCHEMA)
        if ctx.rank == 0:
            state["db"] = db
            state["warm_server"] = GraphServer(
                db, config=ServeConfig(queue_capacity=QUEUE_CAP)
            )
            state["storm_ready"] = threading.Event()
        ctx.barrier()
        if ctx.rank != 0:
            served = state["warm_server"].serve(ctx)
            state["storm_ready"].wait(timeout=300)
            storm = state.get("storm_server")
            return served + (storm.serve(ctx) if storm is not None else 0)
        try:
            return _drive(ctx)
        finally:
            state["storm_ready"].set()  # never strand the workers

    def _drive(ctx):
        db = state["db"]
        # -- warmup: one closed-loop user, zero contention -> mean service
        warm = state["warm_server"]
        warm_load = ClosedLoopLoad(
            warm,
            _sessions(warm),
            mix,
            n_users=1,
            arrival_rate=1.0,
            n_requests=96,
            think=0.0,
        )
        try:
            warm_recs = warm_load.run(ctx)
        finally:
            warm.close()
        services = [r.service for r in warm_recs if r.status == "ok"]
        mean_service = sum(services) / len(services)
        lam_sat = WORKERS / mean_service  # total service rate of the pool
        # pacing window: the driver runs at most 3/4 of a queue's worth of
        # saturation-rate arrivals ahead of the workers' virtual clocks
        horizon = 0.75 * QUEUE_CAP / lam_sat
        # breaker: open when p99 admission wait reaches half a full
        # queue's worth of work per worker
        storm = GraphServer(
            db,
            config=ServeConfig(
                queue_capacity=QUEUE_CAP,
                breaker_p99_threshold=0.5 * QUEUE_CAP * mean_service / WORKERS,
                breaker_cooldown=QUEUE_CAP * mean_service,
                retry=RETRY,
            ),
        )
        state["storm_server"] = storm
        state["mean_service"] = mean_service
        state["lam_sat"] = lam_sat
        state["storm_ready"].set()
        sessions = _sessions(storm)
        phases = []
        start = 0.0
        try:
            for factor in (0.5, 1.0, 2.0):
                rate = factor * lam_sat
                load = ClosedLoopLoad(
                    storm,
                    sessions,
                    mix,
                    n_users=users,
                    arrival_rate=rate,
                    n_requests=n_req,
                    start=start,
                    horizon=horizon,
                )
                recs = load.run(ctx)
                phases.append((factor, rate, recs, storm.breaker.trips))
                # next phase starts after the backlog fully drains
                start = (
                    max(storm.virtual_now(), max(r.arrival for r in recs))
                    + 64.0 * mean_service
                )
        finally:
            storm.close()
        return phases

    _, res = run_spmd(NRANKS, prog)
    phases = res[0]

    rows = []
    payload = {
        "nranks": NRANKS,
        "workers": WORKERS,
        "queue_capacity": QUEUE_CAP,
        "users": users,
        "requests_per_phase": n_req,
        "mean_service": state["mean_service"],
        "saturation_rate": state["lam_sat"],
        "phases": {},
    }
    prev_trips = 0
    for factor, rate, recs, trips in phases:
        st = _phase_stats(recs, rate)
        st["breaker_trips"] = trips - prev_trips
        prev_trips = trips
        payload["phases"][f"{factor:g}x"] = st
        shed = sum(
            st["by_status"].get(s, 0)
            for s in ("shed", "throttled", "shed_analytics")
        )
        rows.append(
            f"{factor:>4g}x {rate:>12.0f} {st['ok_oltp']:>8d} {shed:>6d} "
            f"{st['goodput']:>12.0f} {st['p50_latency'] * 1e6:>9.1f} "
            f"{st['p99_latency'] * 1e6:>9.1f} "
            f"{st['p999_latency'] * 1e6:>10.1f} {st['breaker_trips']:>6d}"
        )

    header = (
        f"{'load':>5} {'rate [1/s]':>12} {'ok-oltp':>8} {'shed':>6} "
        f"{'goodput':>12} {'p50 [us]':>9} {'p99 [us]':>9} {'p999 [us]':>10} "
        f"{'trips':>6}"
    )
    report(
        "serve_overload",
        f"closed-loop serving storm: {users} users, {WORKERS} workers, "
        f"queue capacity {QUEUE_CAP}\n"
        f"saturation rate {state['lam_sat']:.0f} req/s "
        f"(mean service {state['mean_service'] * 1e6:.1f} us)\n\n"
        + "\n".join([header] + rows),
    )
    metrics("serve_overload", payload)

    # -- acceptance: bounded queue, bounded admitted-OLTP p99, shedding --
    half, one, two = (payload["phases"][k] for k in ("0.5x", "1x", "2x"))
    assert half["by_status"].get("shed", 0) == 0  # no shedding below sat
    assert two["by_status"].get("shed", 0) > 0  # overload is shed, not queued
    # every phase completed its full budget: no lost or hung requests
    for ph in (half, one, two):
        assert ph["n_requests"] == n_req
    # queue occupancy (waiting + leased) never exceeded its bound
    assert state["storm_server"].stats()["queue_peak"] <= QUEUE_CAP
    # admitted OLTP latency is bounded by construction: at most a full
    # queue of worst-case services ahead of you, plus your own
    bound = (QUEUE_CAP + WORKERS) * max(
        ph["max_service"] for ph in (half, one, two)
    )
    assert two["p99_latency"] <= bound
    # the breaker opened during the overload phase
    assert two["breaker_trips"] >= 1
    # goodput holds through the knee instead of collapsing
    assert two["goodput"] >= 0.5 * one["goodput"]


def test_serve_overload_with_rank_crash(report, metrics):
    """The storm again at full worker saturation, now with the fault
    injector killing a worker mid-flight: graceful degradation — every
    session terminates, survivors keep serving."""
    users, n_req = serve_users(), serve_requests()
    state = {}
    mix = ServeMix(PARAMS.n_vertices, analytics_fraction=0.03, seed=10)

    def build(ctx):
        db = GdaDatabase.create(ctx, CFG)
        build_lpg(ctx, db, PARAMS, SCHEMA)
        if ctx.rank == 0:
            state["db"] = db
        ctx.barrier()

    rt, _ = run_spmd(NRANKS, build)

    # a closed loop of 3/4-queue-capacity users with zero think time keeps
    # the pool saturated without overflowing the admission queue
    n_loop_users = min(users, 3 * QUEUE_CAP // 4)

    def storm(ctx):
        if ctx.rank == 0:
            state["server"] = GraphServer(
                state["db"],
                config=ServeConfig(queue_capacity=QUEUE_CAP, retry=RETRY),
            )
        ctx.barrier()
        server = state["server"]
        if ctx.rank != 0:
            return server.serve(ctx)
        load = ClosedLoopLoad(
            server,
            _sessions(server),
            mix,
            n_users=n_loop_users,
            arrival_rate=1e6,  # stagger the loop entries 1us apart
            n_requests=n_req,
            think=0.0,
            shed_backoff=1e-4,
        )
        try:
            return load.run(ctx)
        finally:
            server.close()

    # crash the victim roughly a third of the way into the storm's ops
    res = run_spmd(
        NRANKS,
        storm,
        runtime=rt,
        faults=FaultPlan(seed=2, crash_rank=VICTIM, crash_at_op=2 * n_req),
    )[1]
    assert res[VICTIM] is None  # silent death; no SpmdError escaped
    records = res[0]
    assert len(records) == n_req  # the driver's budget fully completed
    hung = [r for r in records if r.status not in TERMINAL_STATUSES]
    assert not hung  # zero hung sessions
    ok = [r for r in records if r.status == "ok"]
    assert [r for r in ok if r.rank != VICTIM]  # survivors kept serving
    assert rt.membership.degraded()

    by_rank = {}
    for r in ok:
        by_rank[r.rank] = by_rank.get(r.rank, 0) + 1
    fences = sum(
        rt.trace.counters[r].snapshot()["epoch_fences"]
        for r in range(NRANKS)
    )
    report(
        "serve_overload",
        f"crash storm: rank {VICTIM} killed mid-storm "
        f"({n_req} requests, {n_loop_users} concurrent closed-loop users)\n"
        f"outcomes: {_by_status(records)}\n"
        f"ok-by-rank: {by_rank} (victim died mid-flight; its queued work "
        f"was re-served)\nepoch fences: {fences}, "
        f"degraded membership: {rt.membership.degraded()}",
    )
    metrics(
        "serve_overload_crash",
        {
            "victim": VICTIM,
            "n_requests": n_req,
            "outcomes": _by_status(records),
            "ok_by_rank": {str(k): v for k, v in by_rank.items()},
            "hung_sessions": len(hung),
            "epoch_fences": fences,
            "degraded": bool(rt.membership.degraded()),
        },
    )
