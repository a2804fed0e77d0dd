"""End-to-end serving: SPMD worker pool over a real database.

Rank 0 plays the front-end (submits client requests, gets the admission
counters); the remaining ranks run :meth:`GraphServer.serve` worker
loops pulling from the shared bounded queue.
"""

import threading
import time

import pytest

from repro.gda import GdaConfig, RetryPolicy
from repro.rma import run_spmd
from repro.rma.faults import FaultPlan

from repro.serve import (
    ClientSession,
    ClosedLoopLoad,
    GraphServer,
    ServeConfig,
    ServeMix,
)
from repro.serve.request import ANALYTICS, TERMINAL_STATUSES

# tests/ sits on sys.path when pytest imports the `serve` package, so the
# query suite's shared social-graph builder is importable as a sibling
from query.conftest import build_social_db

NRANKS = 3  # 1 driver + 2 workers
POINT_READ = "MATCH (v {id = $src}) RETURN v.id"
ONE_HOP = "MATCH (a {id = $src})-[]->(b) RETURN b.id"
PEOPLE_IDS = [100, 101, 102, 103, 104]


def _serve_phase(ctx, state, drive, config=None, build=build_social_db):
    """Common SPMD body: rank 0 builds db+server and drives, others serve."""
    if "db" not in state:
        db = build(ctx)
        if ctx.rank == 0:
            state["db"] = db
            state["server"] = GraphServer(db, config=config or ServeConfig())
        ctx.barrier()
    server = state["server"]
    if ctx.rank == 0:
        try:
            return drive(ctx, server)
        finally:
            server.close()  # even on a failed drive: workers must drain
    return server.serve(ctx)


def test_serve_mixed_requests_end_to_end():
    state = {}
    n = 12

    def drive(ctx, server):
        sess = ClientSession(server, tenant="t0")
        reqs = []
        for i in range(n):
            src = PEOPLE_IDS[i % len(PEOPLE_IDS)]
            text = ONE_HOP if i % 3 == 0 else POINT_READ
            r, ok = sess.submit(
                ctx, text, params={"src": src}, arrival=i * 1e-5
            )
            assert ok
            reqs.append(r)
        return reqs

    def prog(ctx):
        return _serve_phase(
            ctx, state, drive, config=ServeConfig(queue_capacity=64)
        )

    _, res = run_spmd(NRANKS, prog)
    reqs = res[0]
    for r in reqs:
        assert r.wait_done(timeout=30), f"{r.req_id} never completed"
        assert r.status == "ok"
        assert r.rank in (1, 2)
        assert r.queue_wait >= 0.0 and r.service > 0.0
        assert r.latency == pytest.approx(r.queue_wait + r.service)
    # answers are correct, not just delivered
    by_id = {r.req_id: r for r in reqs}
    assert by_id["t0/0/1"].rows == [(101,)]  # point read on app id 101
    hop0 = {row[0] for row in by_id["t0/0/0"].rows}  # one-hop from 100
    assert hop0 == {101, 200}  # KNOWS->101, LIVES_IN->zurich
    # workers split the load; the driver admitted everything
    assert res[1] + res[2] == n
    server = state["server"]
    assert server.stats()["admitted"] == n
    assert server.stats()["outcomes"] == {"ok": n}  # none shed
    assert server.virtual_now() > 0.0


def test_deadline_expires_while_queued():
    """A request whose budget is smaller than the queue wait is dropped
    at dequeue without burning a worker on doomed work."""
    state = {}

    def drive(ctx, server):
        sess = ClientSession(server)
        first, ok = sess.submit(
            ctx, POINT_READ, params={"src": 100}, arrival=0.0
        )
        assert ok
        # admitted (deadline still ahead at arrival) but the worker's
        # virtual clock will already be past 1ns once `first` finishes
        doomed, ok = sess.submit(
            ctx,
            POINT_READ,
            params={"src": 101},
            arrival=0.0,
            deadline_in=1e-9,
        )
        assert ok
        return first, doomed

    def prog(ctx):
        return _serve_phase(ctx, state, drive)

    _, res = run_spmd(2, prog)  # exactly one worker: FIFO is guaranteed
    first, doomed = res[0]
    assert first.wait_done(timeout=30) and doomed.wait_done(timeout=30)
    assert first.status == "ok"
    assert doomed.status == "deadline"
    assert doomed.rows is None and doomed.attempts == 0
    assert state["server"].stats()["outcomes"] == {"ok": 1, "deadline": 1}


def test_breaker_sheds_analytics_under_backlog():
    """Backlog inflates admission waits; the breaker opens and analytics
    is refused at the front door while OLTP keeps flowing."""
    state = {}
    cfg = ServeConfig(
        queue_capacity=64,
        breaker_p99_threshold=1e-9,
        breaker_min_samples=4,
        breaker_window=32,
        breaker_cooldown=100.0,
    )

    def drive(ctx, server):
        sess = ClientSession(server)
        reqs = [
            sess.submit(ctx, POINT_READ, params={"src": 100}, arrival=0.0)[0]
            for _ in range(8)
        ]
        deadline = time.monotonic() + 30
        while server.breaker.trips == 0:  # worker trips it on dequeue
            assert time.monotonic() < deadline, "breaker never tripped"
            time.sleep(0.001)
        bi, ok = sess.submit(
            ctx, POINT_READ, params={"src": 100},
            qclass=ANALYTICS, arrival=1e-6,
        )
        assert not ok and bi.status == "shed_analytics"
        # OLTP is still admitted while the breaker is open
        late, ok = sess.submit(
            ctx, POINT_READ, params={"src": 102}, arrival=1e-6
        )
        assert ok
        return reqs + [late]

    def prog(ctx):
        return _serve_phase(ctx, state, drive, config=cfg)

    _, res = run_spmd(2, prog)
    for r in res[0]:
        assert r.wait_done(timeout=30) and r.status == "ok"
    st = state["server"].stats()
    assert st["breaker_trips"] >= 1  # tripped by the worker
    assert st["outcomes"]["shed_analytics"] == 1


def _build_phase(state, nranks=NRANKS, config=None):
    """Phase 1 of the fault tests: build the graph with no faults armed
    (its schema/data transactions are not retry-wrapped)."""

    def prog(ctx):
        db = build_social_db(ctx, config)
        if ctx.rank == 0:
            state["db"] = db
        ctx.barrier()

    rt, _ = run_spmd(nranks, prog)
    return rt


def _serve_prog(state, drive, config, join=None):
    """Phase 2 body: rank 0 creates the server and drives, others serve
    (each worker once ``join(ctx)`` returns, if given)."""

    def prog(ctx):
        if ctx.rank == 0:
            state["server"] = GraphServer(state["db"], config=config)
        ctx.barrier()
        server = state["server"]
        if ctx.rank == 0:
            try:
                return drive(ctx, server)
            finally:
                server.close()
        if join is not None:
            join(ctx)
        return server.serve(ctx)

    return prog


def _point_read_storm(n):
    def drive(ctx, server):
        sess = ClientSession(server)
        return [
            sess.submit(
                ctx,
                POINT_READ,
                params={"src": PEOPLE_IDS[i % len(PEOPLE_IDS)]},
                arrival=i * 1e-5,
            )[0]
            for i in range(n)
        ]

    return drive


def test_serve_retries_absorb_transient_faults():
    """Injected transient RMA faults surface as transaction restarts, not
    as client-visible errors."""
    state = {}
    n = 24
    cfg = ServeConfig(
        queue_capacity=64, retry=RetryPolicy(max_attempts=16, seed=5)
    )
    rt = _build_phase(state)
    # op_retry_limit=1: every injected fault escalates straight to the
    # transaction layer instead of being absorbed by per-op retries
    _, res = run_spmd(
        NRANKS,
        _serve_prog(state, _point_read_storm(n), cfg),
        runtime=rt,
        faults=FaultPlan(seed=11, transient_rate=0.1, op_retry_limit=1),
    )
    for r in res[0]:
        assert r.wait_done(timeout=60)
        assert r.status == "ok", (r.req_id, r.status, r.error)
    totals = [rt.trace.counters[r].snapshot() for r in range(NRANKS)]
    assert sum(t["faults_injected"] for t in totals) > 0
    # requests needed restarts, and the backoff they charged is part of
    # the service (latency) accounting
    restarts = sum(state["db"].stats[r].restarts for r in range(NRANKS))
    assert restarts > 0
    assert max(r.attempts for r in res[0]) > 0


VICTIM = 2
RCFG = GdaConfig(blocks_per_rank=4096, replication=True)


def test_worker_crash_mid_request_fails_over(monkeypatch):
    """Kill a worker rank mid-storm: its in-flight request is re-queued
    and every session still completes on the survivor — zero hung
    clients, OLTP keeps flowing in degraded mode.  The survivor joins
    the pool only once the victim holds its first request, so the victim
    is serving when the crash lands (the survivor could otherwise win
    every dequeue and leave it idle)."""
    state = {}
    n = 40
    cfg = ServeConfig(
        queue_capacity=64, retry=RetryPolicy(max_attempts=10)
    )
    rt = _build_phase(state, config=RCFG)
    victim_serves = threading.Event()
    checkout = GraphServer._checkout_slot

    def noting_checkout(server, rank, req):
        if rank == VICTIM:
            victim_serves.set()
        checkout(server, rank, req)

    def join(ctx):
        if ctx.rank != VICTIM:
            assert victim_serves.wait(timeout=60)

    monkeypatch.setattr(GraphServer, "_checkout_slot", noting_checkout)
    res = run_spmd(
        NRANKS,
        _serve_prog(state, _point_read_storm(n), cfg, join),
        runtime=rt,
        faults=FaultPlan(seed=4, crash_rank=VICTIM, crash_at_op=60),
    )[1]
    assert res[VICTIM] is None  # silent death, executor absorbed it
    reqs = res[0]
    for r in reqs:  # the acceptance bar: zero hung sessions
        assert r.wait_done(timeout=60), f"{r.req_id} hung after crash"
        assert r.status in TERMINAL_STATUSES
        assert r.status == "ok", (r.req_id, r.status, r.error)
    # the survivor picked up the victim's share (including the re-queued
    # in-flight request); together every request was served exactly once
    served_by_survivor = sum(1 for r in reqs if r.rank == 1)
    assert served_by_survivor + sum(1 for r in reqs if r.rank == VICTIM) == n
    assert served_by_survivor > 0
    assert rt.membership.degraded()
    totals = [rt.trace.counters[r].snapshot() for r in range(NRANKS)]
    assert sum(t["epoch_fences"] for t in totals) > 0


def test_drain_quiesces_then_resume_readmits():
    """The rebalance window: drain() pauses admission and waits out the
    backlog and every lease; resume() re-opens the front door."""
    state = {}

    def drive(ctx, server):
        sess = ClientSession(server)
        reqs = [
            sess.submit(
                ctx, POINT_READ,
                params={"src": PEOPLE_IDS[i % len(PEOPLE_IDS)]},
                arrival=i * 1e-5,
            )[0]
            for i in range(6)
        ]
        assert server.drain(timeout=30.0)
        assert server.queue.paused and server.queue.quiescent()
        assert server.stats()["queue_in_flight"] == 0
        # while drained, new work is shed — never queued behind the
        # maintenance window
        shed, ok = sess.submit(
            ctx, POINT_READ, params={"src": 100}, arrival=1.0
        )
        assert not ok and shed.status == "shed"
        server.resume()
        late, ok = sess.submit(
            ctx, POINT_READ, params={"src": 101}, arrival=1.1
        )
        assert ok
        return reqs + [late]

    def prog(ctx):
        return _serve_phase(
            ctx, state, drive, config=ServeConfig(queue_capacity=16)
        )

    _, res = run_spmd(2, prog)
    for r in res[0]:
        assert r.wait_done(timeout=30) and r.status == "ok"
    outcomes = state["server"].stats()["outcomes"]
    assert outcomes["ok"] == 7 and outcomes["shed"] == 1


def test_closed_loop_run_and_drain_wait_without_timers(monkeypatch):
    """Every serve wait sleeps until the state it needs changes: workers
    waiting for work, a closed-loop driver waiting for completions or for
    its pacing window, and a drain waiting for quiescence.  None polls on
    a fixed interval or sleeps; a drain's only timeout is its caller's."""
    polls = []
    wait, sleep = threading.Condition.wait, time.sleep

    def untimed_wait(self, timeout=None):
        if timeout is not None and timeout < 1.0:
            polls.append(timeout)
        return wait(self, timeout)

    def no_sleep(seconds):
        polls.append(seconds)
        sleep(seconds)

    monkeypatch.setattr(threading.Condition, "wait", untimed_wait)
    monkeypatch.setattr(time, "sleep", no_sleep)
    state = {}

    def drive(ctx, server):
        load = ClosedLoopLoad(
            server,
            [ClientSession(server)],
            # IDs 0..109: the people (100-104) and misses; the analytics
            # text needs the generated schema's labels
            ServeMix(n_vertices=110, analytics_fraction=0.0),
            n_users=4,
            arrival_rate=1e4,
            n_requests=24,
            horizon=1e-5,
        )
        records = load.run(ctx)
        assert server.drain(timeout=30.0)
        return records

    def prog(ctx):
        return _serve_phase(
            ctx, state, drive, config=ServeConfig(queue_capacity=8)
        )

    _, res = run_spmd(NRANKS, prog)
    assert len(res[0]) == 24
    assert {r.status for r in res[0]} == {"ok"}
    assert polls == []
