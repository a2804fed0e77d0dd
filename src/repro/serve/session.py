"""Client sessions: the connection objects the front-end multiplexes.

A :class:`ClientSession` is one logical connection of one tenant.  It
numbers its requests, stamps tenant/deadline metadata, and funnels them
into :meth:`GraphServer.submit`; each session maps onto GDI transactions
one request at a time (the worker opens/commits a transaction per
request — see GDI_SPEC.md, "Sessions onto GDI transactions").  Sessions
are deliberately thin: all policy (admission, throttling, shedding)
lives in the server, so thousands of sessions cost nothing but their
request numbering.
"""

from __future__ import annotations

import threading

from .errors import ServeError
from .request import OLTP, Request
from .server import GraphServer

__all__ = ["ClientSession"]


class ClientSession:
    """One client connection of ``tenant`` against ``server``."""

    def __init__(
        self,
        server: GraphServer,
        tenant: str = "default",
        session_id: int = 0,
    ) -> None:
        self.server = server
        self.tenant = tenant
        self.session_id = session_id
        self._seq = 0
        self._lock = threading.Lock()

    def build(
        self,
        text: str,
        *,
        params: dict | None = None,
        qclass: str = OLTP,
        arrival: float = 0.0,
        deadline_in: float | None = None,
        user: int | None = None,
        on_done=None,
    ) -> Request:
        """Construct (but do not submit) this session's next request.

        ``deadline_in`` is relative to ``arrival``; the server applies
        its configured default when omitted.
        """
        with self._lock:
            seq = self._seq
            self._seq += 1
        return Request(
            req_id=f"{self.tenant}/{self.session_id}/{seq}",
            text=text,
            params=params,
            tenant=self.tenant,
            qclass=qclass,
            arrival=arrival,
            deadline=None if deadline_in is None else arrival + deadline_in,
            user=user,
            on_done=on_done,
        )

    def submit(self, ctx, text: str, **kw) -> tuple[Request, bool]:
        """Build and submit one request; returns ``(request, admitted)``.

        Admission rejections do not raise here — the request comes back
        finished with its shed/throttled/deadline status, which is what a
        closed-loop client needs to schedule its retry.
        """
        req = self.build(text, **kw)
        try:
            self.server.submit(ctx, req)
            return req, True
        except ServeError:
            return req, False
