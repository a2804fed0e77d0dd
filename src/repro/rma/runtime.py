"""The simulated RMA runtime: ranks, windows, and one-sided operations.

This is the repository's stand-in for foMPI / MPI-3 RMA on Cray hardware
(paper Section 5.1).  It provides the exact operation vocabulary the paper
builds GDI-RMA from::

    GET(local, remote)         PUT(local, remote)
    CAS(new, compare, result, remote)
    APUT / AGET                flush

Remote atomics serialize through a per-target lock, mimicking the NIC
atomic unit of RDMA hardware, so the lock-free algorithms layered on top
(block allocator, DHT, RW locks) experience genuine concurrency semantics
when driven by threads.

Every verb is one *issue* of a vector of ``(target, offset, ...)``
elements — a scalar verb issues a vector of one — and takes the same two
steps around its data movement (``RankContext._admit``/``_account``):
admitted before a byte moves (scheduler step, price, one fault draw),
accounted after (counters in :class:`repro.rma.trace.TraceRecorder`, one
charge to the rank's clock priced by
:class:`repro.rma.costmodel.CostModel`, receiver NIC service).  The
elements coalesce doorbell style into one network message per distinct
``(window, target)`` pair: one latency term plus the summed bandwidth
per target, one served message per target.  This is the GDA-level
analogue of the paper's issue-many-then-flush pattern (Section 5.1) and
the primary lever for remote-traversal latency.

Blocking verbs (``put``/``get``, the atomics, their ``*_batch`` forms)
charge the full cost at issue.  The non-blocking ones (``iput``/``iget``
/``iput_batch``/``iget_batch``) move their data immediately (remote
memory is consistent right away, as it would be by completion time on
real hardware) but charge one CPU injection overhead for the whole
vector; the *network* cost is charged at the completing ``flush`` or
``wait()``, where the pending messages of a window overlap: one latency
term plus the summed bandwidth terms.
"""

from __future__ import annotations

import threading
from itertools import starmap
from typing import Any, Callable, Sequence

import numpy as np

from .collectives import CollectiveEngine
from .costmodel import UNIFORM, CostModel, MachineProfile
from .trace import TraceRecorder
from .window import Window, WindowError, _wrap_i64

__all__ = ["RmaRuntime", "RankContext", "Request", "BatchRequest", "RmaError"]


class RmaError(RuntimeError):
    """Raised on invalid use of the RMA runtime."""


#: payload bytes of one element of a verb's ``ops``, by trace kind; an
#: element starts ``(target, offset, ...)`` whatever its verb
_NBYTES = {
    "put": lambda op: len(op[2]),  # (target, offset, data)
    "get": lambda op: op[2],  # (target, offset, nbytes)
    "atomic": lambda op: 8,  # (target, offset, operand...)
}


def _tally(kind: str, ops) -> Sequence[tuple[int, int, int]]:
    """The coalesced messages of a vector of ``ops``: one ``(target,
    payload bytes, element count)`` per distinct target.

    Targets keep their order of first appearance: it fixes the order of
    the float additions in the charge.  A vector of one — every verb of
    a point read — is its one message.
    """
    nbytes_of = _NBYTES[kind]
    if len(ops) == 1:
        return ((ops[0][0], nbytes_of(ops[0]), 1),)
    acc: dict[int, list[int]] = {}
    for op in ops:
        msg = acc.get(op[0])
        if msg is None:
            acc[op[0]] = [nbytes_of(op), 1]
        else:
            msg[0] += nbytes_of(op)
            msg[1] += 1
    return [(target, nbytes, n) for target, (nbytes, n) in acc.items()]


def _tally_columns(ops: np.ndarray) -> list[tuple[int, int, int]]:
    """:func:`_tally` of an ``(n, 3)`` get vector: same messages, same
    order."""
    uniq, first, inverse = np.unique(
        ops[:, 0], return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    # float weights are exact here: byte totals stay far below 2**53
    sums = np.bincount(inverse, weights=ops[:, 2])[order].tolist()
    counts = np.bincount(inverse)[order].tolist()
    return [
        (target, int(nbytes), n)
        for target, nbytes, n in zip(uniq[order].tolist(), sums, counts)
    ]


class _PendingOp:
    """One coalesced message of a non-blocking issue, awaiting its
    completing flush."""

    __slots__ = ("win_name", "target", "nbytes", "done", "failed")

    def __init__(self, win_name: str, target: int, nbytes: int) -> None:
        self.win_name = win_name
        self.target = target
        self.nbytes = nbytes
        self.done = False
        self.failed = False


class BatchRequest:
    """Handle of a non-blocking issue (MPI_Request analogue): one doorbell
    for one operation (``iput``/``iget``) or a whole vector of them.

    The elements coalesce into one pending message per distinct
    ``(window, target)`` pair; ``wait()`` completes whichever of those
    messages a window flush has not already covered (charging their
    network cost).  For ``iget``/``iget_batch`` the fetched payloads are
    available after completion: all of them in issue order via
    :meth:`results`, one via :meth:`result`.
    """

    __slots__ = ("_ctx", "_ops", "_data")

    def __init__(
        self,
        ctx: "RankContext",
        ops: list[_PendingOp],
        data: list[bytes] | None,
    ) -> None:
        self._ctx = ctx
        self._ops = ops
        self._data = data

    @property
    def completed(self) -> bool:
        return all(op.done for op in self._ops)

    @property
    def failed(self) -> bool:
        return any(op.failed for op in self._ops)

    def wait(self) -> None:
        """Complete the request; idempotent once completed or faulted."""
        undone = {
            id(op) for op in self._ops if not op.done and not op.failed
        }
        if undone:
            self._ctx._complete_pending(lambda op: id(op) in undone)

    def results(self) -> list[bytes]:
        """The fetched payloads of a get (only valid after completion)."""
        if self.failed:
            raise RmaError(
                "request faulted (target rank crashed); no data available"
            )
        if not self.completed:
            raise RmaError("request not yet completed; call wait()/flush()")
        if self._data is None:
            raise RmaError("request carries no data (it was a put)")
        return list(self._data)

    def result(self, i: int = 0) -> bytes:
        """Payload ``i``; the only one for a scalar ``iget``."""
        return self.results()[i]


#: a scalar non-blocking verb returns the batch handle of its one op
Request = BatchRequest


class RmaRuntime:
    """Shared state of one simulated distributed-memory machine.

    Parameters
    ----------
    nranks:
        Number of simulated processes.
    profile:
        :class:`~repro.rma.costmodel.MachineProfile` for the cost model.
    log_ops:
        Record every individual operation in the trace (slow; tests only).
    scheduler:
        Optional interleaving scheduler hook (see
        :mod:`repro.rma.executor`); ``scheduler.step(rank)`` is invoked
        before every one-sided operation.
    faults:
        Optional :class:`~repro.rma.faults.FaultInjector` consulted
        before every one-sided operation (transient failures,
        stragglers, rank crashes).  May also be attached/armed later by
        assigning the ``faults`` attribute between SPMD phases.
    """

    def __init__(
        self,
        nranks: int,
        profile: MachineProfile = UNIFORM,
        log_ops: bool = False,
        scheduler=None,
        faults=None,
    ) -> None:
        if nranks <= 0:
            raise RmaError("nranks must be positive")
        self.nranks = nranks
        self.cost = CostModel(profile)
        self.trace = TraceRecorder(nranks, log_ops=log_ops)
        self.clocks = [0.0] * nranks
        self.scheduler = scheduler
        self.faults = faults
        #: optional :class:`~repro.rma.membership.ClusterMembership`; when
        #: set, rank crashes fail over to backups (epoch fencing) instead
        #: of being fatal, and collectives complete over the live view.
        self.membership = None
        self._windows: dict[str, Window] = {}
        self._windows_lock = threading.Lock()
        self._pending: list[list[_PendingOp]] = [[] for _ in range(nranks)]
        #: target-side NIC busy time accumulated by incoming remote ops
        self.service = [0.0] * nranks
        self._atomic_locks = [threading.Lock() for _ in range(nranks)]
        self.collectives = CollectiveEngine(self)

    # -- windows -----------------------------------------------------------
    def allocate_window(self, name: str, size: int) -> Window:
        """Allocate a window (driver-side; ranks use ``ctx.win_allocate``)."""
        with self._windows_lock:
            if name in self._windows and not self._windows[name].freed:
                raise RmaError(f"window {name!r} already allocated")
            win = Window(name, self.nranks, size)
            self._windows[name] = win
            return win

    def free_window(self, win: Window) -> None:
        with self._windows_lock:
            win.free()
            self._windows.pop(win.name, None)

    def window(self, name: str) -> Window:
        try:
            return self._windows[name]
        except KeyError:
            raise RmaError(f"no window named {name!r}") from None

    # -- rank contexts -------------------------------------------------------
    def context(self, rank: int) -> "RankContext":
        if not 0 <= rank < self.nranks:
            raise RmaError(f"bad rank {rank}")
        return RankContext(self, rank)

    def contexts(self) -> list["RankContext"]:
        return [self.context(r) for r in range(self.nranks)]

    # -- internals shared by contexts ----------------------------------------
    def _charge(self, rank: int, seconds: float) -> None:
        self.clocks[rank] += seconds

    def _serve(self, origin: int, target: int, nbytes: int) -> None:
        """Account receiver-side NIC service of one incoming remote message.

        With ``profile.congestion_feedback > 0`` the target NIC acts as
        a FIFO queue relative to the issuer's clock: the message starts
        at ``max(busy horizon, issuer now)`` and the issuer is charged
        ``congestion_feedback``x its queueing delay, so hot receivers
        slow every rank that touches them (the hot-shard signal).

        Every verb charges its own cost first and serves after: a
        message joins the receiver's queue when it arrives, one op
        latency past the issuer's clock at issue.  (With feedback off
        the two commute.)
        """
        svc = self.cost.target_service(nbytes)
        fb = self.cost.profile.congestion_feedback
        wait = 0.0
        with self._atomic_locks[target]:
            if fb > 0.0:
                now = self.clocks[origin]
                start = self.service[target] if self.service[target] > now else now
                self.service[target] = start + svc
                wait = start + svc - now
            else:
                self.service[target] += svc
        if wait > 0.0:
            self._charge(origin, fb * wait)
            self.trace.record_congestion(origin, fb * wait)

    def effective_clock(self, rank: int) -> float:
        """A rank's progress bound: own clock or its NIC's busy horizon."""
        return max(self.clocks[rank], self.service[rank])

    def max_clock(self) -> float:
        """Makespan: the latest simulated per-rank clock."""
        return max(self.clocks)


class RankContext:
    """Per-rank facade over the runtime: the SPMD programmer's API.

    One :class:`RankContext` corresponds to one MPI process.  All GDI-RMA
    code receives a context and never touches the runtime directly, which
    is what keeps the engine portable across executors.
    """

    __slots__ = ("rt", "rank", "nranks")

    def __init__(self, runtime: RmaRuntime, rank: int) -> None:
        self.rt = runtime
        self.rank = rank
        self.nranks = runtime.nranks

    # -- the one issue path ---------------------------------------------------
    def _admit(self, kind: str, msgs, pending: bool = False) -> tuple:
        """Gate one issue before any byte moves; returns it, priced.

        ``msgs`` are its coalesced messages, one ``(target, payload
        bytes, element count)`` per distinct target.  Scheduler step,
        then the price — the sum of its messages' prices (one latency
        plus the summed bandwidth for puts/gets, one full round plus
        pipelined issue slots for atomics), or one injection overhead
        for a non-blocking issue (``pending``; its network is paid at
        the completing flush/wait) — then one fault draw over the
        targets.  A raise leaves memory and counters untouched.
        """
        rt = self.rt
        if rt.scheduler is not None:
            rt.scheduler.step(self.rank)
        model = rt.cost
        if pending:
            cost = model.profile.alpha_local
        else:
            cost = 0.0
            for target, nbytes, count in msgs:
                if kind == "atomic":
                    cost += model.atomic(self.rank, target, count)
                else:
                    cost += model.onesided(self.rank, target, nbytes)
        if rt.faults is not None:
            rt.faults.before_batch(rt, self.rank, [m[0] for m in msgs], cost)
        return kind, msgs, cost, pending

    def _account(
        self, issue: tuple, win: Window, ops, plural: bool = False
    ) -> "list[_PendingOp] | None":
        """Account an admitted issue after its bytes moved.

        One op-log entry per element of ``ops`` when the log is on,
        one clock charge, the counters of all its messages (and the
        ``batches`` counters of a ``plural`` verb) in one call, receiver
        service per remote message, and one pending message per target
        (returned) for a non-blocking one.
        """
        kind, msgs, cost, pending = issue
        rt, rank, name = self.rt, self.rank, win.name
        trace = rt.trace
        if trace.log_ops:
            nbytes_of = _NBYTES[kind]
            for op in ops.tolist() if isinstance(ops, np.ndarray) else ops:
                trace.ops.append((kind, rank, op[0], name, op[1], nbytes_of(op)))
        rt.clocks[rank] += cost
        trace._record_issue(kind, rank, msgs, len(ops) if plural else 0)
        for target, nbytes, _ in msgs:
            if target != rank:
                rt._serve(rank, target, nbytes)
        if not pending:
            return None
        waiting = [_PendingOp(name, target, nbytes) for target, nbytes, _ in msgs]
        rt._pending[rank].extend(waiting)
        return waiting

    # -- one-sided data movement ----------------------------------------------
    def put(self, win: Window, target: int, offset: int, data: bytes) -> None:
        """One-sided write of ``data`` into ``target``'s segment."""
        issue = self._admit("put", ((target, len(data), 1),))
        win.write(target, offset, data)
        self._account(issue, win, ((target, offset, data),))

    def get(self, win: Window, target: int, offset: int, nbytes: int) -> bytes:
        """One-sided read of ``nbytes`` from ``target``'s segment."""
        issue = self._admit("get", ((target, nbytes, 1),))
        data = win.read(target, offset, nbytes)
        self._account(issue, win, ((target, offset, nbytes),))
        return data

    # -- remote atomics (64-bit granules) ---------------------------------------
    def cas(
        self, win: Window, target: int, offset: int, compare: int, new: int
    ) -> int:
        """Remote compare-and-swap; returns the value found at the target."""
        issue = self._admit("atomic", ((target, 8, 1),))
        with self.rt._atomic_locks[target]:
            old = win._cas_i64(target, offset, compare, new)
        self._account(issue, win, ((target, offset),))
        return old

    def faa(self, win: Window, target: int, offset: int, delta: int) -> int:
        """Remote fetch-and-add; returns the pre-add value."""
        issue = self._admit("atomic", ((target, 8, 1),))
        with self.rt._atomic_locks[target]:
            old = win._faa_i64(target, offset, delta)
        self._account(issue, win, ((target, offset),))
        return old

    def aget(self, win: Window, target: int, offset: int) -> int:
        """Atomic 64-bit read (AGET in the paper's notation)."""
        issue = self._admit("atomic", ((target, 8, 1),))
        with self.rt._atomic_locks[target]:
            value = win.read_i64(target, offset)
        self._account(issue, win, ((target, offset),))
        return value

    def aput(self, win: Window, target: int, offset: int, value: int) -> None:
        """Atomic 64-bit write (APUT)."""
        issue = self._admit("atomic", ((target, 8, 1),))
        with self.rt._atomic_locks[target]:
            win.write_i64(target, offset, _wrap_i64(value))
        self._account(issue, win, ((target, offset),))

    # -- batched remote atomics ---------------------------------------------------
    def faa_batch(
        self, win: Window, ops: Sequence[tuple[int, int, int]]
    ) -> list[int]:
        """Batched fetch-and-add: ``ops`` is ``(target, offset, delta)``.

        Returns the pre-add values in issue order.  Same-target atomics
        pipeline behind one full-latency round (doorbell batching), so a
        vector of ``n`` AMOs to one NIC costs ``atomic + (n-1) *
        o_atomic`` instead of ``n * atomic``.  Each element is still an
        individually-atomic 64-bit operation; the batch as a whole is
        *not* atomic.
        """
        if not ops:
            return []
        issue = self._admit("atomic", _tally("atomic", ops))
        out: list[int] = []
        for target, offset, delta in ops:
            with self.rt._atomic_locks[target]:
                out.append(win._faa_i64(target, offset, delta))
        self._account(issue, win, ops, plural=True)
        return out

    def cas_batch(
        self, win: Window, ops: Sequence[tuple[int, int, int, int]]
    ) -> list[int]:
        """Batched compare-and-swap: ``(target, offset, compare, new)``.

        Returns the found values in issue order; element ``i`` swapped
        iff ``result[i] == compare[i]``.  Cost model matches
        :meth:`faa_batch`.
        """
        if not ops:
            return []
        issue = self._admit("atomic", _tally("atomic", ops))
        out: list[int] = []
        for target, offset, compare, new in ops:
            with self.rt._atomic_locks[target]:
                out.append(win._cas_i64(target, offset, compare, new))
        self._account(issue, win, ops, plural=True)
        return out

    # -- batched data movement ----------------------------------------------------
    def put_batch(
        self, win: Window, ops: Sequence[tuple[int, int, bytes]]
    ) -> None:
        """Blocking batched put: ``ops`` is ``(target, offset, data)`` triples.

        All writes land immediately; the network charge is one latency
        term plus the summed bandwidth per *distinct* target (doorbell
        coalescing), and the receiver NIC serves one coalesced message
        per target instead of one per element.
        """
        if not ops:
            return
        issue = self._admit("put", _tally("put", ops))
        for target, offset, data in ops:
            win.write(target, offset, data)
        self._account(issue, win, ops, plural=True)

    def get_batch(
        self, win: Window, ops: "Sequence[tuple[int, int, int]] | np.ndarray"
    ) -> "list[bytes] | np.ndarray":
        """Blocking batched get: ``ops`` is ``(target, offset, nbytes)``.

        Returns the payloads in issue order.  Cost: one latency term plus
        the summed bandwidth per distinct target.

        ``ops`` given as an ``(n, 3)`` int64 array is the columnar form
        for bulk scans: the per-target totals come from one pass over
        the columns and the payloads come back as one ``uint8`` array,
        back to back in issue order, gathered per target in one pass
        over the segment.  What is accounted is exactly what the
        element-wise form accounts.
        """
        columnar = isinstance(ops, np.ndarray)
        if len(ops) == 0:
            return np.empty(0, dtype=np.uint8) if columnar else []
        msgs = _tally_columns(ops) if columnar else _tally("get", ops)
        issue = self._admit("get", msgs)
        if columnar:
            out = win.gather(ops[:, 0], ops[:, 1], ops[:, 2])
        else:
            out = list(starmap(win.read, ops))
        self._account(issue, win, ops, plural=True)
        return out

    def iput_batch(
        self, win: Window, ops: Sequence[tuple[int, int, bytes]]
    ) -> "BatchRequest":
        """Non-blocking batched put: one injection overhead for the vector.

        Elements coalesce into one pending message per distinct target;
        the network is paid at the completing flush/wait.
        """
        if not ops:
            return BatchRequest(self, [], None)
        issue = self._admit("put", _tally("put", ops), pending=True)
        for target, offset, data in ops:
            win.write(target, offset, data)
        return BatchRequest(
            self, self._account(issue, win, ops, plural=True), None
        )

    def iget_batch(
        self, win: Window, ops: Sequence[tuple[int, int, int]]
    ) -> "BatchRequest":
        """Non-blocking batched get: data valid after wait()/flush.

        One injection overhead for the whole vector; one pending message
        per distinct target carries the summed payload.
        """
        if not ops:
            return BatchRequest(self, [], [])
        issue = self._admit("get", _tally("get", ops), pending=True)
        out = list(starmap(win.read, ops))
        return BatchRequest(
            self, self._account(issue, win, ops, plural=True), out
        )

    # -- non-blocking data movement ---------------------------------------------
    def iput(self, win: Window, target: int, offset: int, data: bytes) -> "Request":
        """Non-blocking put: issue now, pay the network at the flush."""
        issue = self._admit("put", ((target, len(data), 1),), pending=True)
        win.write(target, offset, data)
        return Request(
            self, self._account(issue, win, ((target, offset, data),)), None
        )

    def iget(self, win: Window, target: int, offset: int, nbytes: int) -> "Request":
        """Non-blocking get: data is valid after wait()/flush."""
        issue = self._admit("get", ((target, nbytes, 1),), pending=True)
        data = win.read(target, offset, nbytes)
        return Request(
            self, self._account(issue, win, ((target, offset, nbytes),)), [data]
        )

    def _complete_pending(self, selector) -> None:
        """Charge and retire the pending ops matched by ``selector``.

        Overlap model: the selected messages are in flight concurrently,
        so completion costs one latency term (remote if any message is
        remote) plus the summed bandwidth terms.
        """
        rt = self.rt
        pending = rt._pending[self.rank]
        chosen = [op for op in pending if selector(op)]
        if not chosen:
            return
        inj = rt.faults
        if inj is not None and inj.dead:
            inj.check_alive(self.rank)
            fates = {
                id(op): inj.pending_fate(rt, self.rank, op.target)
                for op in chosen
            }
            bad = [op for op in chosen if fates[id(op)] is not None]
            if bad:
                # the message can never complete: fail the ops so waiters
                # see a clear error instead of stale data
                for op in bad:
                    op.failed = True
                rt._pending[self.rank] = [
                    op for op in pending if not (op.done or op.failed)
                ]
                from .faults import RmaRankDead, RmaStaleEpoch

                if any(fates[id(op)] == "dead" for op in bad):
                    raise RmaRankDead(
                        f"pending operation towards crashed rank "
                        f"{bad[0].target} cannot complete"
                    )
                raise RmaStaleEpoch(
                    f"pending operation towards reconfigured shard "
                    f"{bad[0].target} was fenced; heal and retry"
                )
        p = rt.cost.profile
        any_remote = any(op.target != self.rank for op in chosen)
        cost = p.alpha if any_remote else p.alpha_local
        for op in chosen:
            beta = p.beta if op.target != self.rank else p.beta_local
            cost += op.nbytes * beta
            op.done = True
        rt._charge(self.rank, cost)
        rt._pending[self.rank] = [op for op in pending if not op.done]

    def flush(self, win: Window, target: int | None = None) -> None:
        """Complete pending non-blocking operations towards ``target``.

        With ``target=None`` flushes the whole window.  A flush with no
        pending operations still costs one round trip (the hardware
        fence), as in MPI RMA.
        """
        rt = self.rt
        at = self.rank if target is None else target
        cost = rt.cost.flush(self.rank, target)
        if rt.faults is not None:
            rt.faults.before_batch(rt, self.rank, (at,), cost)
        rt.trace.record("flush", self.rank, at, win.name, 0, 0)

        def covered(op: _PendingOp) -> bool:
            return op.win_name == win.name and (
                target is None or op.target == target
            )

        if any(covered(op) for op in rt._pending[self.rank]):
            self._complete_pending(covered)
        else:
            rt._charge(self.rank, cost)

    # -- local compute cost -------------------------------------------------------
    def compute(self, nops: int) -> None:
        """Charge ``nops`` local scalar operations to this rank's clock."""
        self.rt._charge(self.rank, self.rt.cost.compute(nops))

    def charge(self, seconds: float) -> None:
        """Charge raw simulated seconds (used by workload drivers)."""
        self.rt._charge(self.rank, seconds)

    @property
    def clock(self) -> float:
        """This rank's simulated time in seconds."""
        return self.rt.clocks[self.rank]

    # -- collectives -----------------------------------------------------------------
    def barrier(self) -> None:
        self.rt.collectives.barrier(self.rank)

    def bcast(self, value: Any = None, root: int = 0) -> Any:
        return self.rt.collectives.bcast(self.rank, value, root)

    def reduce(self, value: Any, op="sum", root: int = 0) -> Any:
        return self.rt.collectives.reduce(self.rank, value, op, root)

    def allreduce(self, value: Any, op="sum") -> Any:
        return self.rt.collectives.allreduce(self.rank, value, op)

    def gather(self, value: Any, root: int = 0) -> list | None:
        return self.rt.collectives.gather(self.rank, value, root)

    def allgather(self, value: Any) -> list:
        return self.rt.collectives.allgather(self.rank, value)

    def scatter(self, values: Sequence | None = None, root: int = 0) -> Any:
        return self.rt.collectives.scatter(self.rank, values, root)

    def alltoall(self, values: Sequence) -> list:
        return self.rt.collectives.alltoall(self.rank, values)

    def alltoallv(self, owner, *columns, min_nbytes: int = 8) -> tuple:
        return self.rt.collectives.alltoallv(self.rank, owner, columns, min_nbytes)

    def scan(self, value: Any, op="sum") -> Any:
        return self.rt.collectives.scan(self.rank, value, op)

    def exscan(self, value: Any, op="sum", initial: Any = 0) -> Any:
        return self.rt.collectives.exscan(self.rank, value, op, initial)

    # -- collective window management -----------------------------------------------
    def win_allocate(self, name: str, size: int) -> Window:
        """Collectively allocate a window of ``size`` bytes per rank."""
        if self.rank == 0:
            win = self.rt.allocate_window(name, size)
        else:
            win = None
        win = self.bcast(win, root=0)
        self.charge(self.rt.cost.barrier(self.nranks))
        return win

    def win_free(self, win: Window) -> None:
        """Collectively free a window."""
        self.barrier()
        if self.rank == 0:
            self.rt.free_window(win)
        self.barrier()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"<RankContext rank={self.rank}/{self.nranks}>"
