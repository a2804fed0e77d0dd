"""The simulated RMA runtime: ranks, windows, and one-sided operations.

This is the repository's stand-in for foMPI / MPI-3 RMA on Cray hardware
(paper Section 5.1).  It provides the exact operation vocabulary the paper
builds GDI-RMA from::

    GET(local, remote)         PUT(local, remote)
    CAS(new, compare, result, remote)
    APUT / AGET                flush

Every operation charges simulated time into per-rank clocks via
:class:`repro.rma.costmodel.CostModel` and increments the counters in
:class:`repro.rma.trace.TraceRecorder`.  Remote atomics serialize through a
per-target lock, mimicking the NIC atomic unit of RDMA hardware, so the
lock-free algorithms layered on top (block allocator, DHT, RW locks)
experience genuine concurrency semantics when driven by threads.

Non-blocking operations: the paper issues non-blocking puts/gets and
completes them with flushes, overlapping communication with computation.
Two flavours exist here:

* blocking ``put``/``get`` — data moves and the full one-sided cost is
  charged at issue;
* non-blocking ``iput``/``iget`` — data moves immediately (remote memory
  is consistent right away, as it would be by completion time on real
  hardware), but only a small CPU injection overhead is charged at issue;
  the *network* cost is charged at the completing ``flush``, where
  messages to the same window overlap: one latency term plus the summed
  bandwidth term, instead of one latency per message.  ``Request.wait()``
  completes a single operation.

Batched operations: ``get_batch``/``put_batch`` and their non-blocking
siblings ``iget_batch``/``iput_batch`` take a whole vector of
``(target, offset, ...)`` elements at once and coalesce them doorbell
style, one network message per distinct ``(window, target)`` pair: the
cost model charges one latency term plus the summed bandwidth per
distinct target, the receiver NIC serves one coalesced message per
target, and a non-blocking batch pays a single injection overhead for
the whole vector.  This is the GDA-level analogue of the paper's
issue-many-then-flush pattern (Section 5.1) and the primary lever for
remote-traversal latency.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

import numpy as np

from .collectives import CollectiveEngine
from .costmodel import UNIFORM, CostModel, MachineProfile
from .trace import TraceRecorder
from .window import Window, WindowError

__all__ = ["RmaRuntime", "RankContext", "Request", "BatchRequest", "RmaError"]

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


class RmaError(RuntimeError):
    """Raised on invalid use of the RMA runtime."""


def _wrap_i64(value: int) -> int:
    """Wrap a Python int to signed 64-bit two's complement."""
    value &= (1 << 64) - 1
    if value > _I64_MAX:
        value -= 1 << 64
    return value


class _PendingOp:
    """A non-blocking operation awaiting its completing flush."""

    __slots__ = ("win_name", "target", "nbytes", "done", "failed")

    def __init__(self, win_name: str, target: int, nbytes: int) -> None:
        self.win_name = win_name
        self.target = target
        self.nbytes = nbytes
        self.done = False
        self.failed = False


class Request:
    """Handle of a non-blocking operation (MPI_Request analogue).

    ``wait()`` completes this single operation (charging its network cost
    unless a window flush already covered it); for ``iget`` the fetched
    bytes are available via :meth:`result` after completion.
    """

    __slots__ = ("_ctx", "_op", "_data")

    def __init__(self, ctx: "RankContext", op: _PendingOp, data: bytes | None) -> None:
        self._ctx = ctx
        self._op = op
        self._data = data

    @property
    def completed(self) -> bool:
        return self._op.done

    @property
    def failed(self) -> bool:
        return self._op.failed

    def wait(self) -> None:
        """Complete the operation; idempotent once completed or faulted."""
        if not self._op.done and not self._op.failed:
            self._ctx._complete_pending(
                lambda op: op is self._op
            )

    def result(self) -> bytes:
        """The data of an ``iget`` (only valid after completion)."""
        if self._op.failed:
            raise RmaError(
                "request faulted (target rank crashed); no data available"
            )
        if not self._op.done:
            raise RmaError("request not yet completed; call wait()/flush()")
        if self._data is None:
            raise RmaError("request carries no data (it was a put)")
        return self._data


class BatchRequest:
    """Handle of a batched non-blocking operation (one doorbell, many ops).

    A batch coalesces its elements into one pending message per distinct
    ``(window, target)`` pair; ``wait()`` completes whichever of those
    messages a window flush has not already covered.  For ``iget_batch``
    the fetched payloads are available via :meth:`results` (in the order
    the elements were issued) after completion.
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
        """Complete the batch; idempotent once completed or faulted."""
        undone = {
            id(op) for op in self._ops if not op.done and not op.failed
        }
        if undone:
            self._ctx._complete_pending(lambda op: id(op) in undone)

    def results(self) -> list[bytes]:
        """The payloads of an ``iget_batch`` (only valid after completion)."""
        if self.failed:
            raise RmaError(
                "batch faulted (target rank crashed); no data available"
            )
        if not self.completed:
            raise RmaError("batch not yet completed; call wait()/flush()")
        if self._data is None:
            raise RmaError("batch carries no data (it was a put batch)")
        return list(self._data)

    def result(self, i: int) -> bytes:
        return self.results()[i]


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
    def _step(self, rank: int) -> None:
        if self.scheduler is not None:
            self.scheduler.step(rank)

    def _charge(self, rank: int, seconds: float) -> None:
        self.clocks[rank] += seconds

    def _serve(self, origin: int, target: int, nbytes: int) -> None:
        """Account receiver-side NIC service of one incoming message.

        With ``profile.congestion_feedback > 0`` the target NIC acts as
        a FIFO queue relative to the issuer's clock: the message starts
        at ``max(busy horizon, issuer now)`` and the issuer is charged
        ``congestion_feedback``x its queueing delay, so hot receivers
        slow every rank that touches them (the hot-shard signal).
        """
        if origin == target:
            return
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

    def reset_clocks(self) -> None:
        self.clocks = [0.0] * self.nranks


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

    # -- one-sided data movement ----------------------------------------------
    def put(self, win: Window, target: int, offset: int, data: bytes) -> None:
        """Non-blocking one-sided write of ``data`` into ``target``'s segment."""
        rt = self.rt
        rt._step(self.rank)
        if rt.faults is not None:
            rt.faults.before_op(
                rt, self.rank, target,
                rt.cost.onesided(self.rank, target, len(data)),
            )
        win.write(target, offset, data)
        rt.trace.record("put", self.rank, target, win.name, offset, len(data))
        rt._charge(self.rank, rt.cost.onesided(self.rank, target, len(data)))
        rt._serve(self.rank, target, len(data))

    def get(self, win: Window, target: int, offset: int, nbytes: int) -> bytes:
        """One-sided read of ``nbytes`` from ``target``'s segment."""
        rt = self.rt
        rt._step(self.rank)
        if rt.faults is not None:
            rt.faults.before_op(
                rt, self.rank, target,
                rt.cost.onesided(self.rank, target, nbytes),
            )
        data = win.read(target, offset, nbytes)
        rt.trace.record("get", self.rank, target, win.name, offset, nbytes)
        rt._charge(self.rank, rt.cost.onesided(self.rank, target, nbytes))
        rt._serve(self.rank, target, nbytes)
        return data

    # -- remote atomics (64-bit granules) ---------------------------------------
    def cas(
        self, win: Window, target: int, offset: int, compare: int, new: int
    ) -> int:
        """Remote compare-and-swap; returns the value found at the target."""
        rt = self.rt
        rt._step(self.rank)
        if rt.faults is not None:
            rt.faults.before_op(
                rt, self.rank, target, rt.cost.atomic(self.rank, target)
            )
        compare = _wrap_i64(compare)
        with rt._atomic_locks[target]:
            old = win.read_i64(target, offset)
            if old == compare:
                win.write_i64(target, offset, _wrap_i64(new))
        rt.trace.record("atomic", self.rank, target, win.name, offset, 8)
        rt._charge(self.rank, rt.cost.atomic(self.rank, target))
        rt._serve(self.rank, target, 8)
        return old

    def faa(self, win: Window, target: int, offset: int, delta: int) -> int:
        """Remote fetch-and-add; returns the pre-add value."""
        rt = self.rt
        rt._step(self.rank)
        if rt.faults is not None:
            rt.faults.before_op(
                rt, self.rank, target, rt.cost.atomic(self.rank, target)
            )
        with rt._atomic_locks[target]:
            old = win.read_i64(target, offset)
            win.write_i64(target, offset, _wrap_i64(old + delta))
        rt.trace.record("atomic", self.rank, target, win.name, offset, 8)
        rt._charge(self.rank, rt.cost.atomic(self.rank, target))
        rt._serve(self.rank, target, 8)
        return old

    def aget(self, win: Window, target: int, offset: int) -> int:
        """Atomic 64-bit read (AGET in the paper's notation)."""
        rt = self.rt
        rt._step(self.rank)
        if rt.faults is not None:
            rt.faults.before_op(
                rt, self.rank, target, rt.cost.atomic(self.rank, target)
            )
        with rt._atomic_locks[target]:
            value = win.read_i64(target, offset)
        rt.trace.record("atomic", self.rank, target, win.name, offset, 8)
        rt._charge(self.rank, rt.cost.atomic(self.rank, target))
        rt._serve(self.rank, target, 8)
        return value

    def aput(self, win: Window, target: int, offset: int, value: int) -> None:
        """Atomic 64-bit write (APUT)."""
        rt = self.rt
        rt._step(self.rank)
        if rt.faults is not None:
            rt.faults.before_op(
                rt, self.rank, target, rt.cost.atomic(self.rank, target)
            )
        with rt._atomic_locks[target]:
            win.write_i64(target, offset, _wrap_i64(value))
        rt.trace.record("atomic", self.rank, target, win.name, offset, 8)
        rt._charge(self.rank, rt.cost.atomic(self.rank, target))
        rt._serve(self.rank, target, 8)

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
        rt = self.rt
        rt._step(self.rank)
        per_t: dict[int, int] = {}
        for target, _, _ in ops:
            per_t[target] = per_t.get(target, 0) + 1
        if rt.faults is not None:
            rt.faults.before_batch(
                rt, self.rank,
                {t: 8 * n for t, n in per_t.items()},
                rt.cost.batched_atomic(self.rank, per_t),
            )
        out: list[int] = []
        for target, offset, delta in ops:
            with rt._atomic_locks[target]:
                old = win.read_i64(target, offset)
                win.write_i64(target, offset, _wrap_i64(old + delta))
            rt.trace.record("atomic", self.rank, target, win.name, offset, 8)
            out.append(old)
        for target, n in per_t.items():
            rt._serve(self.rank, target, 8 * n)
        rt._charge(self.rank, rt.cost.batched_atomic(self.rank, per_t))
        rt.trace.record_batch(self.rank, len(ops), len(per_t), 8 * len(ops))
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
        rt = self.rt
        rt._step(self.rank)
        per_t: dict[int, int] = {}
        for target, _, _, _ in ops:
            per_t[target] = per_t.get(target, 0) + 1
        if rt.faults is not None:
            rt.faults.before_batch(
                rt, self.rank,
                {t: 8 * n for t, n in per_t.items()},
                rt.cost.batched_atomic(self.rank, per_t),
            )
        out: list[int] = []
        for target, offset, compare, new in ops:
            compare = _wrap_i64(compare)
            with rt._atomic_locks[target]:
                old = win.read_i64(target, offset)
                if old == compare:
                    win.write_i64(target, offset, _wrap_i64(new))
            rt.trace.record("atomic", self.rank, target, win.name, offset, 8)
            out.append(old)
        for target, n in per_t.items():
            rt._serve(self.rank, target, 8 * n)
        rt._charge(self.rank, rt.cost.batched_atomic(self.rank, per_t))
        rt.trace.record_batch(self.rank, len(ops), len(per_t), 8 * len(ops))
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
        rt = self.rt
        rt._step(self.rank)
        if rt.faults is not None:
            per_t: dict[int, int] = {}
            for target, _, data in ops:
                per_t[target] = per_t.get(target, 0) + len(data)
            rt.faults.before_batch(
                rt, self.rank, per_t,
                rt.cost.batched_onesided(self.rank, per_t),
            )
        per_target: dict[int, int] = {}
        for target, offset, data in ops:
            win.write(target, offset, data)
            rt.trace.record(
                "put", self.rank, target, win.name, offset, len(data)
            )
            per_target[target] = per_target.get(target, 0) + len(data)
        for target, nbytes in per_target.items():
            rt._serve(self.rank, target, nbytes)
        rt._charge(self.rank, rt.cost.batched_onesided(self.rank, per_target))
        rt.trace.record_batch(
            self.rank, len(ops), len(per_target), sum(per_target.values())
        )

    def get_batch(
        self, win: Window, ops: "Sequence[tuple[int, int, int]] | np.ndarray"
    ) -> "list[bytes] | np.ndarray":
        """Blocking batched get: ``ops`` is ``(target, offset, nbytes)``.

        Returns the payloads in issue order.  Cost: one latency term plus
        the summed bandwidth per distinct target.

        ``ops`` given as an ``(n, 3)`` int64 array is the columnar form
        for bulk scans: the payloads come back as one ``uint8`` array,
        back to back in issue order, gathered per target in one pass
        over the segment, and the counters, the receiver service and
        the charge are accounted once per target — to exactly the totals
        the element-wise form reaches.
        """
        if isinstance(ops, np.ndarray):
            return self._get_batch_columnar(win, ops)
        if not ops:
            return []
        rt = self.rt
        rt._step(self.rank)
        if rt.faults is not None:
            per_t: dict[int, int] = {}
            for target, _, nbytes in ops:
                per_t[target] = per_t.get(target, 0) + nbytes
            rt.faults.before_batch(
                rt, self.rank, per_t,
                rt.cost.batched_onesided(self.rank, per_t),
            )
        out: list[bytes] = []
        per_target: dict[int, int] = {}
        for target, offset, nbytes in ops:
            out.append(win.read(target, offset, nbytes))
            rt.trace.record(
                "get", self.rank, target, win.name, offset, nbytes
            )
            per_target[target] = per_target.get(target, 0) + nbytes
        for target, nbytes in per_target.items():
            rt._serve(self.rank, target, nbytes)
        rt._charge(self.rank, rt.cost.batched_onesided(self.rank, per_target))
        rt.trace.record_batch(
            self.rank, len(ops), len(per_target), sum(per_target.values())
        )
        return out

    def _get_batch_columnar(self, win: Window, ops: np.ndarray) -> np.ndarray:
        n = len(ops)
        if n == 0:
            return np.empty(0, dtype=np.uint8)
        rt = self.rt
        rt._step(self.rank)
        targets, offsets, lengths = ops[:, 0], ops[:, 1], ops[:, 2]
        # per-target totals in order of first appearance: the order the
        # element-wise loop fills its dict in, which fixes the order of
        # the float additions in the charge
        uniq, first, inverse = np.unique(
            targets, return_index=True, return_inverse=True
        )
        order = np.argsort(first, kind="stable")
        counts = np.bincount(inverse)[order].tolist()
        # float weights are exact here: byte totals stay far below 2**53
        sums = np.bincount(inverse, weights=lengths)[order].tolist()
        per_target = {
            t: int(nbytes) for t, nbytes in zip(uniq[order].tolist(), sums)
        }
        if rt.faults is not None:
            rt.faults.before_batch(
                rt, self.rank, per_target,
                rt.cost.batched_onesided(self.rank, per_target),
            )
        out = win.gather(targets, offsets, lengths)
        trace = rt.trace
        if trace.log_ops:  # the op log wants one entry per element
            for t, off, nb in ops.tolist():
                trace.record("get", self.rank, t, win.name, off, nb)
        else:
            for (t, nbytes), count in zip(per_target.items(), counts):
                trace.record(
                    "get", self.rank, t, win.name, 0, nbytes, count=count
                )
        for target, nbytes in per_target.items():
            rt._serve(self.rank, target, nbytes)
        rt._charge(self.rank, rt.cost.batched_onesided(self.rank, per_target))
        trace.record_batch(
            self.rank, n, len(per_target), sum(per_target.values())
        )
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
        rt = self.rt
        rt._step(self.rank)
        if rt.faults is not None:
            per_t: dict[int, int] = {}
            for target, _, data in ops:
                per_t[target] = per_t.get(target, 0) + len(data)
            rt.faults.before_batch(
                rt, self.rank, per_t, rt.cost.profile.alpha_local
            )
        per_target: dict[int, int] = {}
        for target, offset, data in ops:
            win.write(target, offset, data)
            rt.trace.record(
                "put", self.rank, target, win.name, offset, len(data)
            )
            per_target[target] = per_target.get(target, 0) + len(data)
        rt._charge(self.rank, rt.cost.profile.alpha_local)  # one doorbell
        pend: list[_PendingOp] = []
        for target, nbytes in per_target.items():
            rt._serve(self.rank, target, nbytes)
            op = _PendingOp(win.name, target, nbytes)
            rt._pending[self.rank].append(op)
            pend.append(op)
        rt.trace.record_batch(
            self.rank, len(ops), len(per_target), sum(per_target.values())
        )
        return BatchRequest(self, pend, None)

    def iget_batch(
        self, win: Window, ops: Sequence[tuple[int, int, int]]
    ) -> "BatchRequest":
        """Non-blocking batched get: data valid after wait()/flush.

        One injection overhead for the whole vector; one pending message
        per distinct target carries the summed payload.
        """
        if not ops:
            return BatchRequest(self, [], [])
        rt = self.rt
        rt._step(self.rank)
        if rt.faults is not None:
            per_t: dict[int, int] = {}
            for target, _, nbytes in ops:
                per_t[target] = per_t.get(target, 0) + nbytes
            rt.faults.before_batch(
                rt, self.rank, per_t, rt.cost.profile.alpha_local
            )
        out: list[bytes] = []
        per_target: dict[int, int] = {}
        for target, offset, nbytes in ops:
            out.append(win.read(target, offset, nbytes))
            rt.trace.record(
                "get", self.rank, target, win.name, offset, nbytes
            )
            per_target[target] = per_target.get(target, 0) + nbytes
        rt._charge(self.rank, rt.cost.profile.alpha_local)  # one doorbell
        pend: list[_PendingOp] = []
        for target, nbytes in per_target.items():
            rt._serve(self.rank, target, nbytes)
            op = _PendingOp(win.name, target, nbytes)
            rt._pending[self.rank].append(op)
            pend.append(op)
        rt.trace.record_batch(
            self.rank, len(ops), len(per_target), sum(per_target.values())
        )
        return BatchRequest(self, pend, out)

    # -- non-blocking data movement ---------------------------------------------
    def iput(self, win: Window, target: int, offset: int, data: bytes) -> "Request":
        """Non-blocking put: issue now, pay the network at the flush."""
        rt = self.rt
        rt._step(self.rank)
        if rt.faults is not None:
            rt.faults.before_op(
                rt, self.rank, target, rt.cost.profile.alpha_local
            )
        win.write(target, offset, data)
        rt.trace.record("put", self.rank, target, win.name, offset, len(data))
        rt._charge(self.rank, rt.cost.profile.alpha_local)  # injection CPU
        rt._serve(self.rank, target, len(data))
        op = _PendingOp(win.name, target, len(data))
        rt._pending[self.rank].append(op)
        return Request(self, op, None)

    def iget(self, win: Window, target: int, offset: int, nbytes: int) -> "Request":
        """Non-blocking get: data is valid after wait()/flush."""
        rt = self.rt
        rt._step(self.rank)
        if rt.faults is not None:
            rt.faults.before_op(
                rt, self.rank, target, rt.cost.profile.alpha_local
            )
        data = win.read(target, offset, nbytes)
        rt.trace.record("get", self.rank, target, win.name, offset, nbytes)
        rt._charge(self.rank, rt.cost.profile.alpha_local)
        rt._serve(self.rank, target, nbytes)
        op = _PendingOp(win.name, target, nbytes)
        rt._pending[self.rank].append(op)
        return Request(self, op, data)

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
        if rt.faults is not None:
            rt.faults.before_op(
                rt,
                self.rank,
                target if target is not None else self.rank,
                rt.cost.flush(self.rank, target),
            )
        rt.trace.record(
            "flush", self.rank, target if target is not None else self.rank,
            win.name, 0, 0,
        )
        pending = rt._pending[self.rank]
        has_pending = any(
            op.win_name == win.name
            and (target is None or op.target == target)
            for op in pending
        )
        if has_pending:
            self._complete_pending(
                lambda op: op.win_name == win.name
                and (target is None or op.target == target)
            )
        else:
            rt._charge(self.rank, rt.cost.flush(self.rank, target))

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
