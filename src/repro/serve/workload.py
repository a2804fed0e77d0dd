"""Closed-loop load generation: many simulated users, bounded outstanding.

:class:`ClosedLoopLoad` drives U simulated users against a
:class:`~repro.serve.server.GraphServer`.  Each user has at most one
outstanding request: it issues, blocks until the request reaches a
terminal status, *thinks* for ``think`` simulated seconds, and issues
again — the textbook closed-loop client whose offered arrival rate is
``U / (think + latency)``.  Shed/throttled users back off
(``shed_backoff``) before retrying, which is what makes overload
self-limiting instead of a death spiral.

The driver runs on one front-end rank and keeps a heap of ``(next
arrival, user)``; completions (signalled by the workers through each
request's ``on_done``) re-arm their user.  Arrival timestamps are pure
simulated time — the driver never waits wall-clock between arrivals, so
a 10k-user storm runs as fast as the workers can execute.

:class:`ServeMix` supplies the request stream: a deterministic
per-(user, sequence) choice between OLTP point reads, OLTP one-hop
expansions, and analytics-class aggregates over the generated LPG
schema.
"""

from __future__ import annotations

import heapq
import random
import threading
from dataclasses import dataclass

from .request import ANALYTICS, OLTP, Request
from .server import GraphServer
from .session import ClientSession

__all__ = ["ServeMix", "ClosedLoopLoad"]

#: request templates — texts are reused verbatim so the engine's plan
#: cache absorbs parse+plan for the whole storm
POINT_READ = "MATCH (v {id = $src}) RETURN v.id"
ONE_HOP = "MATCH (a {id = $src})-[]->(b) RETURN b.id"
#: BI2-flavored aggregate over the default generated schema (VL*/EL*
#: labels, p_score property); override for other schemas
ANALYTICS_AGG = (
    "MATCH (per:VL0)-[:EL0]->(v) WHERE per.p_score > $minscore "
    "RETURN count(DISTINCT per)"
)


@dataclass(frozen=True)
class ServeMix:
    """Deterministic request mix over ``n_vertices`` application IDs."""

    n_vertices: int
    analytics_fraction: float = 0.05
    onehop_fraction: float = 0.25
    analytics_text: str = ANALYTICS_AGG
    seed: int = 0

    def make(self, user: int, seq: int) -> tuple[str, str, dict]:
        """The ``(qclass, text, params)`` of ``user``'s ``seq``-th request."""
        rng = random.Random(f"serve/{self.seed}/{user}/{seq}")
        draw = rng.random()
        if draw < self.analytics_fraction:
            return ANALYTICS, self.analytics_text, {"minscore": 50.0}
        src = rng.randrange(self.n_vertices)
        if draw < self.analytics_fraction + self.onehop_fraction:
            return OLTP, ONE_HOP, {"src": src}
        return OLTP, POINT_READ, {"src": src}


class ClosedLoopLoad:
    """Drive ``n_users`` closed-loop users until ``n_requests`` issued."""

    def __init__(
        self,
        server: GraphServer,
        sessions: list[ClientSession],
        mix: ServeMix,
        *,
        n_users: int,
        arrival_rate: float,
        n_requests: int,
        think: float | None = None,
        shed_backoff: float | None = None,
        deadline_in: float | None = None,
        start: float = 0.0,
        horizon: float | None = None,
    ) -> None:
        if n_users < 1 or n_requests < 1:
            raise ValueError("need n_users >= 1 and n_requests >= 1")
        if arrival_rate <= 0.0:
            raise ValueError("arrival_rate must be positive")
        self.server = server
        self.sessions = sessions
        self.mix = mix
        self.n_users = n_users
        self.arrival_rate = arrival_rate
        self.n_requests = n_requests
        #: think time keeping the closed-loop offered rate ~arrival_rate
        self.think = n_users / arrival_rate if think is None else think
        self.shed_backoff = (
            self.think / 2.0 if shed_backoff is None else shed_backoff
        )
        self.deadline_in = deadline_in
        #: virtual-time pacing window (simulated seconds).  With a
        #: horizon the driver never issues an arrival more than
        #: ``horizon`` ahead of the workers' virtual clocks, so the
        #: *real* admission-queue depth tracks the *simulated* backlog:
        #: an underloaded run keeps the queue shallow even though the
        #: submitting thread could outrun the workers in wall-clock
        #: terms, while an overloaded run genuinely fills it and sheds.
        #: ``None`` disables pacing (fire as fast as possible).
        self.horizon = horizon
        #: completed requests in completion order
        self.records: list[Request] = []
        self._seq: dict[int, int] = {}
        # users enter staggered at the target rate: user i's first
        # request arrives at start + i/rate
        self._ready: list[tuple[float, int]] = [
            (start + i / arrival_rate, i) for i in range(n_users)
        ]
        heapq.heapify(self._ready)
        self._cond = threading.Condition()
        self._issued = 0
        self._outstanding = 0

    # -- completion callback (runs on worker threads) ----------------------
    def _on_done(self, req: Request) -> None:
        with self._cond:
            self._outstanding -= 1
            self.records.append(req)
            if self._issued < self.n_requests and req.user is not None:
                if req.status in ("shed", "throttled", "shed_analytics"):
                    nxt = req.completion + self.shed_backoff
                else:
                    nxt = req.completion + self.think
                heapq.heappush(self._ready, (nxt, req.user))
            self._cond.notify_all()

    # -- driver loop (runs on the front-end rank) --------------------------
    def run(self, ctx) -> list[Request]:
        """Issue requests until the budget is spent and all completed.

        Returns every request issued (terminal, in completion order).
        Call from exactly one rank; workers must be serving concurrently
        or admitted requests would never complete.
        """
        while True:
            with self._cond:
                idle = self._issued >= self.n_requests or not self._ready
                if idle and self._outstanding == 0:
                    break  # budget spent, or users exhausted below it
                if idle or (
                    # stay within the pacing window
                    self.horizon is not None
                    and self._outstanding > 0
                    and self._ready[0][0] > self.server.virtual_now() + self.horizon
                ):
                    # every completion re-arms its user and advances the
                    # workers' virtual clocks (the slot returns before
                    # ``on_done`` runs), then notifies
                    self._cond.wait()
                    continue
                t, user = heapq.heappop(self._ready)
                self._issued += 1
                self._outstanding += 1
                seq = self._seq.get(user, 0)
                self._seq[user] = seq + 1
            qclass, text, params = self.mix.make(user, seq)
            session = self.sessions[user % len(self.sessions)]
            session.submit(
                ctx,
                text,
                params=params,
                qclass=qclass,
                arrival=t,
                deadline_in=self.deadline_in,
                user=user,
                on_done=self._on_done,
            )
        return list(self.records)
