"""Admission-path unit tests: bounded queue, shedding order, counters.

These run the front-end without any workers (no database needed):
admission is decided entirely on the submitting thread.
"""

import pytest

from repro.rma import RmaRuntime
from repro.serve import (
    AnalyticsShed,
    BoundedQueue,
    ClientSession,
    DeadlineExceeded,
    GraphServer,
    Request,
    ServeConfig,
    ServerClosed,
    ServerOverloaded,
    TenantThrottled,
)
from repro.serve.request import ANALYTICS


@pytest.fixture()
def ctx():
    return RmaRuntime(1).context(0)


def make_server(**kw):
    return GraphServer(None, config=ServeConfig(**kw))


def req(i, **kw):
    kw.setdefault("text", "MATCH (v {id = $src}) RETURN v.id")
    return Request(req_id=f"r{i}", **kw)


# -- BoundedQueue ------------------------------------------------------------
def test_queue_bounds_and_peak():
    q = BoundedQueue(2)
    assert q.try_put("a") and q.try_put("b")
    assert not q.try_put("c")  # full: shed, never block
    assert q.depth == 2 and q.peak_depth == 2
    assert q.get() == "a"
    assert not q.try_put("c")  # "a" is leased: its slot is still held
    q.task_done("a")
    assert q.try_put("c")
    assert [q.get(), q.get()] == ["b", "c"]


def test_queue_close_drains_then_returns_none():
    q = BoundedQueue(4)
    q.try_put("a")
    q.close()
    with pytest.raises(ServerClosed):
        q.try_put("b")
    assert q.get() == "a"  # drain continues after close
    assert q.get() is None  # then consumers see shutdown


def test_queue_requeue_front_bypasses_capacity_and_close():
    q = BoundedQueue(1)
    assert q.try_put("a")
    q.close()
    q.requeue_front("in-flight")  # a dying worker hands its request back
    assert q.admitted == 1  # a re-queue is not an admission
    assert q.get() == "in-flight"
    assert q.get() == "a"
    assert q.get() is None


def test_queue_validation():
    with pytest.raises(ValueError):
        BoundedQueue(0)


# -- admission pipeline ------------------------------------------------------
def test_queue_full_sheds_with_counters(ctx):
    s = make_server(queue_capacity=2)
    s.submit(ctx, req(0, arrival=0.0))
    s.submit(ctx, req(1, arrival=0.0))
    shed = req(2, arrival=0.0)
    with pytest.raises(ServerOverloaded):
        s.submit(ctx, shed)
    assert shed.status == "shed" and shed.done
    st = s.stats()
    assert st["admitted"] == 2
    assert st["outcomes"] == {"shed": 1}
    assert st["queue_peak"] == 2


def test_expired_deadline_rejected_at_admission(ctx):
    s = make_server()
    dead = req(0, arrival=1.0, deadline=0.5)
    with pytest.raises(DeadlineExceeded):
        s.submit(ctx, dead)
    assert dead.status == "deadline"
    assert s.stats()["outcomes"] == {"deadline": 1}
    # nothing entered the queue
    assert s.queue.depth == 0


def test_default_deadline_stamped_from_config(ctx):
    s = make_server(default_deadline=2e-3)
    r = req(0, arrival=1.0)
    s.submit(ctx, r)
    assert r.deadline == 1.0 + 2e-3


def test_tenant_throttled(ctx):
    s = make_server(tenant_rate=1.0, tenant_burst=1.0)
    s.submit(ctx, req(0, arrival=0.0, tenant="a"))
    throttled = req(1, arrival=0.0, tenant="a")
    with pytest.raises(TenantThrottled):
        s.submit(ctx, throttled)
    assert throttled.status == "throttled"
    # another tenant's bucket is untouched
    s.submit(ctx, req(2, arrival=0.0, tenant="b"))
    assert s.stats()["outcomes"] == {"throttled": 1}
    assert s.stats()["throttles_by_tenant"] == {"a": 1}


def test_open_breaker_sheds_analytics_only(ctx):
    s = make_server(breaker_p99_threshold=1e-3, breaker_cooldown=10.0)
    s.breaker.force_trip(0.0)
    bi = req(0, arrival=0.1, qclass=ANALYTICS)
    with pytest.raises(AnalyticsShed):
        s.submit(ctx, bi)
    assert bi.status == "shed_analytics"
    # OLTP still flows while the breaker is open
    oltp = req(1, arrival=0.1)
    s.submit(ctx, oltp)
    assert oltp.status == "pending"
    st = s.stats()
    assert st["outcomes"] == {"shed_analytics": 1} and st["admitted"] == 1


def test_no_breaker_admits_analytics(ctx):
    s = make_server()  # breaker disabled by default
    s.submit(ctx, req(0, arrival=0.0, qclass=ANALYTICS))
    assert s.stats()["admitted"] == 1


def test_closed_server_finishes_request_terminal(ctx):
    s = make_server()
    s.close()
    r = req(0, arrival=0.0)
    with pytest.raises(ServerClosed):
        s.submit(ctx, r)
    assert r.done and r.status == "shed"


def test_session_counts_rejections(ctx):
    s = make_server(queue_capacity=1)
    sess = ClientSession(s, tenant="t", session_id=3)
    r0, ok0 = sess.submit(ctx, "MATCH (v {id = $src}) RETURN v.id", arrival=0.0)
    r1, ok1 = sess.submit(ctx, "MATCH (v {id = $src}) RETURN v.id", arrival=0.0)
    assert ok0 and not ok1
    assert r0.req_id == "t/3/0" and r1.req_id == "t/3/1"
    st = s.stats()
    assert st["submitted"] == 2 and st["outcomes"] == {"shed": 1}


def test_queue_multi_crash_requeue_preserves_order_and_capacity():
    """Simultaneous worker crashes: requeues arrive in arbitrary thread
    order, yet the queue restores arrival order and never exceeds its
    capacity accounting."""
    q = BoundedQueue(3)
    assert q.try_put("a") and q.try_put("b") and q.try_put("c")
    a, b, c = q.get(), q.get(), q.get()  # three workers lease everything
    assert q.depth == 0 and q.in_flight == 3
    assert not q.try_put("d")  # leases still occupy the capacity
    # dying workers hand back in reverse order — the worst case
    q.requeue_front(c)
    q.requeue_front(b)
    q.requeue_front(a)
    assert q.depth == 3 and q.in_flight == 0
    assert not q.try_put("d")  # occupancy unchanged by the crashes
    assert [q.get(), q.get(), q.get()] == ["a", "b", "c"]


def test_queue_requeue_lands_before_younger_waiting_items():
    q = BoundedQueue(4)
    q.try_put("a")
    q.try_put("b")
    a = q.get()
    q.try_put("c")  # younger than the in-flight "a"
    q.requeue_front(a)
    assert [q.get(), q.get(), q.get()] == ["a", "b", "c"]


def test_queue_pause_sheds_and_resume_readmits():
    q = BoundedQueue(2)
    assert q.try_put("a")
    q.pause()
    assert q.paused
    assert not q.try_put("b")  # shed while draining, not an error
    assert q.get() == "a"  # workers keep draining through a pause
    q.task_done("a")
    assert q.quiescent()
    q.resume()
    assert not q.paused and q.try_put("b")


def test_queue_quiescent_requires_leases_released():
    q = BoundedQueue(2)
    assert q.quiescent()
    q.try_put("a")
    assert not q.quiescent()
    item = q.get()
    assert not q.quiescent()  # dequeued but still leased
    q.task_done(item)
    assert q.quiescent()
