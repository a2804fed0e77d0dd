"""The serving front-end: bounded admission, worker pool, degradation.

:class:`GraphServer` multiplexes many client sessions onto the
`QueryEngine`/`run_transaction` stack of one :class:`GdaDatabase`:

* **admission** (:meth:`GraphServer.submit`) — runs on the submitting
  thread and never blocks: an expired deadline, an open circuit breaker
  (analytics class only), an empty tenant token bucket, or a full
  bounded queue each reject the request *immediately* with the matching
  :mod:`repro.serve.errors` exception instead of buffering it.  Explicit
  load shedding keeps queue depth — and with it the admission wait of
  everything that *is* admitted — bounded by construction.
* **execution** (:meth:`GraphServer.serve`) — one worker loop per
  serving rank, thread-pooled by the SPMD executor: each worker pulls
  requests from the shared queue and drives them through
  :func:`repro.gda.retry.run_transaction` with the request's remaining
  deadline folded into the retry policy, so a retry storm can never
  overshoot a client's latency budget.
* **degradation** — every dequeue feeds its admission wait to the
  :class:`~repro.serve.breaker.CircuitBreaker`; when the windowed p99
  crosses the threshold the breaker opens and analytics-class queries
  are shed at admission while OLTP stays live.

Time model: request latency is accounted in *simulated* seconds.  The
workers' virtual clocks form a pool of interchangeable virtual servers:
a dequeuing worker checks out the *earliest* availability in the pool,
serves the request (advancing the slot by the simulated execution time
measured on the rank's RMA clock), and returns the slot, so ``service
start = max(slot, arrival)``, ``admission wait = start - arrival`` and
``completion = start + service`` compose into the same M/G/c queueing
behavior a real deployment would see.  Checking out the pool minimum —
rather than a per-thread clock — matters because OS threads race to pop
the queue in real time: a thread returning from a long analytics scan
would otherwise bill its inflated clock to the next request while other
workers sat virtually idle.  OS threads still provide genuine
concurrency on the underlying lock-free structures.

Worker crashes: a worker that dies mid-request (:class:`RmaRankDead`)
hands its in-flight request back to the head of the queue before
propagating the crash, so a surviving worker completes it — no session
ever hangs on a dead rank.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field, replace

from ..gda.retry import RetryDeadlineExceeded, RetryPolicy, run_transaction
from ..gdi.errors import GdiTransactionCritical
from ..query import QueryEngine
from ..query.errors import QueryError
from ..rma.faults import RmaRankDead, RmaTransientError
from .breaker import CircuitBreaker
from .errors import (
    AnalyticsShed,
    DeadlineExceeded,
    ServerClosed,
    ServerOverloaded,
    TenantThrottled,
)
from .queue import BoundedQueue
from .ratelimit import TenantRateLimiter
from .request import (
    ANALYTICS,
    DEADLINE,
    ERROR,
    FAILED,
    OK,
    SHED,
    SHED_ANALYTICS,
    THROTTLED,
    Request,
)

__all__ = ["ServeConfig", "GraphServer"]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one serving front-end."""

    #: bounded admission queue capacity (requests waiting for a worker)
    queue_capacity: int = 64
    #: default per-request latency budget in simulated seconds from
    #: arrival (None = no deadline unless the request carries one)
    default_deadline: float | None = None
    #: per-tenant token bucket: requests per simulated second
    #: (None = unlimited) and burst capacity
    tenant_rate: float | None = None
    tenant_burst: float = 8.0
    #: circuit breaker on p99 admission wait, simulated seconds
    #: (None disables the breaker: analytics always admitted)
    breaker_p99_threshold: float | None = None
    breaker_window: int = 128
    breaker_min_samples: int = 16
    breaker_cooldown: float = 5e-3
    #: transaction retry/backoff; the per-request remaining deadline is
    #: folded in (min of both budgets) before each execution
    retry: RetryPolicy = field(default_factory=RetryPolicy)


class GraphServer:
    """Concurrent serving front-end over one GDA database."""

    def __init__(
        self, db, engine: QueryEngine | None = None, config: ServeConfig | None = None
    ) -> None:
        self.db = db
        self.engine = engine or QueryEngine(db)
        self.config = config or ServeConfig()
        self.queue = BoundedQueue(self.config.queue_capacity)
        self.limiter = TenantRateLimiter(
            self.config.tenant_rate, self.config.tenant_burst
        )
        self.breaker: CircuitBreaker | None = None
        if self.config.breaker_p99_threshold is not None:
            self.breaker = CircuitBreaker(
                self.config.breaker_p99_threshold,
                window=self.config.breaker_window,
                min_samples=self.config.breaker_min_samples,
                cooldown=self.config.breaker_cooldown,
            )
        #: worker rank -> virtual serving clock (simulated seconds);
        #: diagnostic view of the server pool below
        self._vt: dict[int, float] = {}
        #: free virtual-server availability times (min-heap); each
        #: worker rank contributes one slot on its first dequeue and
        #: holds at most one checked-out slot at a time
        self._free: list[float] = []
        self._pool_ranks: set[int] = set()
        #: id(request) -> slot checked out for it at dequeue
        self._assigned: dict[int, float] = {}
        self._lock = threading.Lock()
        #: terminal status -> count, across admission + execution
        self.outcomes: dict[str, int] = {}
        self._n_submitted = 0

    # -- bookkeeping -------------------------------------------------------
    def _finish(self, req: Request, status: str, **kw) -> None:
        with self._lock:
            self.outcomes[status] = self.outcomes.get(status, 0) + 1
        req.finish(status, **kw)

    def virtual_now(self) -> float:
        """Latest worker virtual clock (phase chaining / diagnostics)."""
        with self._lock:
            return max(self._vt.values(), default=0.0)

    def _register_worker(self, rank: int) -> None:
        """Contribute one virtual-server slot when a worker enters its
        serve loop.  Registration is by *entry*, not by first dequeue:
        the pool must represent provisioned capacity even when the OS
        scheduler lets a few greedy threads win most of the real races
        to pop the queue — the others' slots still serve, virtually."""
        with self._lock:
            if rank not in self._pool_ranks:
                self._pool_ranks.add(rank)
                heapq.heappush(self._free, 0.0)

    def _checkout_slot(self, rank: int, req: Request) -> None:
        """FIFO dispatch to the earliest-available virtual server (see
        the module time-model note).  A popping worker always holds at
        most one slot between checkout and return, so with every worker
        registered the pool can never run dry.

        Runs as the queue's ``on_pop`` hook — under the queue lock — so
        slots are assigned in strict FIFO dequeue order: a worker
        preempted between dequeue and checkout cannot let later
        requests adopt an earlier availability than this one."""
        with self._lock:
            self._assigned[id(req)] = (
                heapq.heappop(self._free) if self._free else 0.0
            )

    def _return_slot(self, rank: int, vt: float) -> None:
        """Return a slot to the pool.  Not called on the worker-crash
        path: a dead worker's slot dies with it, shrinking the virtual
        pool in step with the real one."""
        with self._lock:
            heapq.heappush(self._free, vt)
            self._vt[rank] = vt

    def stats(self) -> dict:
        """Aggregate serving statistics (terminal counts + gauges)."""
        with self._lock:
            outcomes = dict(self.outcomes)
            submitted = self._n_submitted
        return {
            "submitted": submitted,
            "admitted": self.queue.admitted,
            "outcomes": outcomes,
            "queue_depth": self.queue.depth,
            "queue_in_flight": self.queue.in_flight,
            "queue_peak": self.queue.peak_depth,
            "breaker_state": self.breaker.state if self.breaker else None,
            "breaker_trips": self.breaker.trips if self.breaker else 0,
            "throttles_by_tenant": dict(self.limiter.throttles),
            "virtual_now": self.virtual_now(),
        }

    # -- admission ---------------------------------------------------------
    def submit(self, ctx, req: Request) -> Request:
        """Admit ``req`` (arriving at ``req.arrival``) or shed it.

        Rejections mark the request terminal (so closed-loop clients see
        a completion either way, counted in :meth:`stats` ``outcomes``)
        and raise the matching :mod:`repro.serve.errors` exception.
        """
        now = req.arrival
        with self._lock:
            self._n_submitted += 1
        if req.deadline is None and self.config.default_deadline is not None:
            req.deadline = now + self.config.default_deadline
        if self.queue.closed:
            # still a terminal completion: a closed-loop client blocked on
            # this request must wake up rather than hang on shutdown
            self._finish(req, SHED, completion=now, rank=ctx.rank)
            raise ServerClosed("server is shut down")
        if req.deadline is not None and now >= req.deadline:
            self._finish(
                req, DEADLINE, completion=now, rank=ctx.rank
            )
            raise DeadlineExceeded(
                f"{req.req_id}: already past deadline at arrival"
            )
        if (
            self.breaker is not None
            and req.qclass == ANALYTICS
            and not self.breaker.allow_analytics(now)
        ):
            self._finish(
                req, SHED_ANALYTICS, completion=now, rank=ctx.rank
            )
            raise AnalyticsShed(
                f"{req.req_id}: breaker open, analytics shed"
            )
        if not self.limiter.allow(req.tenant, now):
            self._finish(req, THROTTLED, completion=now, rank=ctx.rank)
            raise TenantThrottled(
                f"{req.req_id}: tenant {req.tenant!r} over rate limit"
            )
        if not self.queue.try_put(req):
            self._finish(req, SHED, completion=now, rank=ctx.rank)
            raise ServerOverloaded(
                f"{req.req_id}: admission queue full "
                f"({self.config.queue_capacity})"
            )
        return req

    # -- execution ---------------------------------------------------------
    def serve(self, ctx) -> int:
        """Worker loop: serve queued requests on rank ``ctx`` until the
        server is closed and the queue drained.  Returns the number of
        requests this worker brought to a terminal state."""
        served = 0
        self._register_worker(ctx.rank)
        while True:
            req = self.queue.get(
                on_pop=lambda r: self._checkout_slot(ctx.rank, r)
            )
            if req is None:
                return served
            # the lease survives _execute's crash path: RmaRankDead
            # re-queues the request (converting the lease back into a
            # waiting slot) before the crash propagates past us
            self._execute(ctx, req)
            self.queue.task_done(req)
            served += 1

    def _execute(self, ctx, req: Request) -> None:
        with self._lock:
            vt = self._assigned.pop(id(req), 0.0)
        start = max(vt, req.arrival)
        wait = start - req.arrival
        if self.breaker is not None:
            self.breaker.observe_wait(start, wait)
        if req.deadline is not None and start >= req.deadline:
            # doomed before it ran: shed the work, don't burn a worker
            self._complete(
                ctx, req, DEADLINE, vt, completion=start, queue_wait=wait
            )
            return
        policy = self.config.retry
        if req.deadline is not None:
            budget = req.deadline - start
            if policy.deadline is None or budget < policy.deadline:
                policy = replace(policy, deadline=budget)
        restarts0 = self.db.stats[ctx.rank].restarts
        c0 = ctx.clock
        status, error, rows = OK, None, None
        try:
            plan = self.engine.prepare(ctx, req.text)
            rows = run_transaction(
                ctx,
                self.db,
                lambda tx: self.engine.run(ctx, req.text, req.params, tx=tx),
                write=plan.query.writes,
                # read-only requests (the analytics class above all) run
                # lock-free on an MVCC snapshot: an OLAP scan then neither
                # blocks nor aborts against the concurrent OLTP write
                # traffic
                snapshot=not plan.query.writes,
                policy=policy,
            ).rows
        except RmaRankDead:
            # this worker just died: hand the request back so a survivor
            # serves it, then let the crash propagate to the executor
            self.queue.requeue_front(req)
            raise
        except RetryDeadlineExceeded as exc:
            status, error = DEADLINE, exc
        except (GdiTransactionCritical, RmaTransientError) as exc:
            status, error = FAILED, exc
        except QueryError as exc:
            status, error = ERROR, exc
        service = ctx.clock - c0
        self._complete(
            ctx,
            req,
            status,
            start + service,
            completion=start + service,
            rows=rows,
            error=error,
            queue_wait=wait,
            service=service,
            attempts=self.db.stats[ctx.rank].restarts - restarts0,
        )

    def _complete(self, ctx, req: Request, status: str, slot: float, **kw) -> None:
        """Terminal step of a dequeued request: its virtual server is free
        again from ``slot`` on, and the request finishes on this rank."""
        self._return_slot(ctx.rank, slot)
        self._finish(req, status, rank=ctx.rank, **kw)

    # -- drain / resume (quiesced maintenance windows) ---------------------
    def drain(self, timeout: float = 10.0) -> bool:
        """Pause admission and wait until the server is quiescent.

        New arrivals are shed (closed-loop clients back off and retry);
        workers finish the queued and in-flight requests.  Returns True
        once no request is waiting or leased — the safe point for
        maintenance that requires no open transactions, e.g. a live
        rebalance — or False if quiescence was not reached within
        ``timeout`` wall-clock seconds (admission stays paused so the
        caller can decide).
        """
        self.queue.pause()
        return self.queue.wait_quiescent(timeout)

    def resume(self) -> None:
        """Re-open admission after a :meth:`drain`."""
        self.queue.resume()

    # -- shutdown ----------------------------------------------------------
    def close(self) -> None:
        """Stop admission; workers drain the queue and return."""
        self.queue.close()
