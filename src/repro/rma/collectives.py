"""Collective communication for the simulated RMA substrate.

GDI prescribes collective routines with MPI semantics (paper Section 3.2);
GDI-RMA uses them for collective transactions, bulk ingestion, and global
reductions in OLAP queries.  This module provides barrier, bcast, reduce,
allreduce, gather, allgather, scatter, alltoall, alltoallv, and scan over
the ranks of one :class:`repro.rma.runtime.RmaRuntime`.

Implementation: rank threads rendezvous through a generation-numbered
exchange (every participant deposits a contribution, the last arrival
publishes the round, every participant then reads all contributions).  The
*simulated* cost charged to each rank follows the binomial-tree /
dissemination models in :mod:`repro.rma.costmodel`: collectives also act as
clock synchronization points, so after a collective every participant's
clock equals ``max(entry clocks) + collective cost`` — exactly the
semantics of a synchronizing MPI collective.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Callable, Sequence

import numpy as np

from .parking import Parking

__all__ = ["CollectiveEngine", "CollectiveAbort", "REDUCE_OPS", "payload_nbytes"]


class CollectiveAbort(RuntimeError):
    """Raised in every waiting rank when a peer dies mid-collective."""


class _Dead:
    """Sentinel contribution of a crashed, excluded participant."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return "<dead contribution>"


_DEAD = _Dead()


def _max(a, b):
    return a if a >= b else b


def _min(a, b):
    return a if a <= b else b


def _land(a, b):
    return bool(a) and bool(b)


def _lor(a, b):
    return bool(a) or bool(b)


#: Named reduction operators accepted wherever an ``op`` is expected.
REDUCE_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": operator.add,
    "max": _max,
    "min": _min,
    "prod": operator.mul,
    "land": _land,
    "lor": _lor,
}


def payload_nbytes(value: Any) -> int:
    """Best-effort estimate of a contribution's wire size in bytes.

    Exact sizes matter only for the bandwidth term of the cost model;
    unknown Python objects are charged a flat 64 bytes.
    """
    if value is None:
        return 0
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, (int, float, bool)):
        return 8
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    if isinstance(value, (list, tuple)):
        return sum(payload_nbytes(v) for v in value) or 8
    if isinstance(value, str):
        return len(value.encode())
    if isinstance(value, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in value.items()) or 8
    return 64


def _resolve_op(op) -> Callable[[Any, Any], Any]:
    if callable(op):
        return op
    try:
        return REDUCE_OPS[op]
    except KeyError:
        raise ValueError(f"unknown reduction op {op!r}") from None


class CollectiveEngine:
    """Rendezvous-based collective engine shared by all ranks of a runtime."""

    def __init__(self, runtime) -> None:
        self._rt = runtime
        self._nranks = runtime.nranks
        self._parking = Parking()
        self._generation = 0
        self._arrived = 0
        self._slots: dict[int, list] = {}
        self._ready: set[int] = set()
        self._left: dict[int, int] = {}
        #: participant count a published generation waits to release
        self._readers: dict[int, int] = {}
        #: generations deterministically aborted by a mid-collective crash
        self._aborted: set[int] = set()
        #: crashed ranks permanently excluded from the rendezvous (only
        #: populated when the runtime has a membership view: collectives
        #: then complete over the live view instead of aborting)
        self._excluded: set[int] = set()
        self._poisoned: BaseException | None = None

    # -- failure handling -------------------------------------------------
    def poison(self, exc: BaseException) -> None:
        """Wake every waiting rank with :class:`CollectiveAbort`.

        Called by the executor when any rank raises, so sibling ranks do
        not hang forever inside a half-entered collective.
        """
        with self._parking.cond:
            self._poisoned = exc
            self._parking.cond.notify_all()

    def rank_exited(self) -> None:
        """Rescan the open generation: a thread exit is how a crash shows."""
        with self._parking.cond:
            self._scan_for_dead(self._generation)

    def _check_open(self, gen: int) -> bool:
        """Raise if poisoned or ``gen`` aborted; else: has it published?"""
        if self._poisoned is not None:
            raise CollectiveAbort(
                f"collective aborted: peer rank failed ({self._poisoned!r})"
            )
        if gen in self._aborted:
            self._raise_dead(
                "collective aborted: a participant crashed mid-collective"
            )
        return gen in self._ready

    def reset_for_new_run(self) -> None:
        """Drop the poison and half-entered rendezvous state of an
        aborted SPMD phase.

        Called by the executor when a runtime is reused for another
        phase: no rank threads exist between phases, so the pending
        generations can never be completed and would otherwise abort the
        next phase's first collective.  Crashed ranks stay excluded (the
        generation counter also keeps advancing, so a stale ``gen`` can
        never collide with a live one).
        """
        with self._parking.cond:
            self._poisoned = None
            self._arrived = 0
            self._slots.clear()
            self._ready.clear()
            self._left.clear()
            self._readers.clear()
            self._aborted.clear()

    # -- core rendezvous ---------------------------------------------------
    def _raise_dead(self, detail: str):
        from .faults import RmaRankDead  # local: avoid an import cycle

        raise RmaRankDead(detail)

    def _try_publish(self, gen: int) -> bool:
        """Publish ``gen`` if every non-excluded rank has arrived."""
        expected = self._nranks - len(self._excluded)
        if self._arrived < expected:
            return False
        self._arrived = 0
        self._generation += 1
        self._ready.add(gen)
        self._readers[gen] = expected
        # Release every waiter here, before the publisher leaves: were each
        # one to unblock itself on waking, the publisher (never blocked)
        # could win op-grant rounds while its peers still count as
        # blocked, and the OS wake-up order would pick the interleaving.
        self._parking.release()
        return True

    def _scan_for_dead(self, gen: int) -> None:
        """Detect participants that died before arriving in ``gen``.

        Without a membership view the whole generation is aborted and
        every participant deterministically observes ``RmaRankDead``.
        With a membership view the dead rank is excluded, its shard fails
        over, and the collective completes over the live view with a
        sentinel in the dead rank's slot.
        """
        faults = getattr(self._rt, "faults", None)
        if faults is None or not faults.dead:
            return
        slots = self._slots.get(gen)
        if slots is None:
            return
        missing = [
            r
            for r in range(self._nranks)
            if r in faults.dead
            and r not in self._excluded
            and slots[r] is _DEAD
        ]
        if not missing:
            return
        mem = getattr(self._rt, "membership", None)
        for r in missing:
            if mem is None or not mem.note_failure(r):
                # fatal: no live backup can take over -> abort this
                # generation for everyone, deterministically
                self._aborted.add(gen)
                self._arrived = 0
                self._parking.release()
                return
            self._excluded.add(r)
        self._try_publish(gen)

    def _exchange(self, rank: int, value: Any) -> list:
        """Deposit ``value`` and return the list of all contributions.

        Contributions of crashed, excluded ranks come back as the
        module-level ``_DEAD`` sentinel; the per-collective wrappers skip
        (or, for rooted collectives, reject) them.
        """
        faults = getattr(self._rt, "faults", None)
        if faults is not None:
            # a crashed rank must not keep participating in collectives
            faults.check_alive(rank)
        with self._parking.cond:
            gen = self._generation
            self._check_open(gen)
            slots = self._slots.setdefault(gen, [_DEAD] * self._nranks)
            slots[rank] = value
            self._arrived += 1
            # a peer that died before arriving shows here or at its thread's
            # exit (rank_exited): the generation publishes without it or aborts
            self._scan_for_dead(gen)
            self._try_publish(gen)
            self._parking.wait(
                self._rt.scheduler, rank, lambda: self._check_open(gen)
            )
            result = self._slots[gen]
            self._left[gen] = self._left.get(gen, 0) + 1
            if self._left[gen] >= self._readers.get(gen, self._nranks):
                del self._slots[gen]
                del self._left[gen]
                self._readers.pop(gen, None)
                self._ready.discard(gen)
            return result

    def _rendezvous(
        self,
        rank: int,
        value: Any,
        price: "Callable[[dict[int, Any]], float]",
        root: int | None = None,
    ) -> "dict[int, Any]":
        """Exchange ``value``, then advance this rank's clock to
        ``max(entry clocks) + price(live)``.

        Returns ``live``: the contributions as ``{rank: value}`` in rank
        order, without those of crashed, excluded ranks (a crashed
        ``root`` raises).
        """
        # a rank enters a collective no earlier than its NIC is drained
        entry = self._rt.effective_clock(rank)
        contribs = self._exchange(rank, (entry, value))
        if root is not None and contribs[root] is _DEAD:
            self._raise_dead(f"collective root {root} crashed mid-collective")
        live = {i: c[1] for i, c in enumerate(contribs) if c is not _DEAD}
        clocks = [c[0] for c in contribs if c is not _DEAD]
        self._rt.clocks[rank] = max(clocks) + price(live)
        # The NIC-busy horizon was included in the entry clocks, so after
        # the synchronization the NIC is considered drained: advance the
        # horizon to the synced clock (future service extends from here).
        with self._rt._atomic_locks[rank]:
            self._rt.service[rank] = max(
                self._rt.service[rank], self._rt.clocks[rank]
            )
        self._rt.trace.record("collective", rank, rank, "-", 0, 0)
        return live

    def _tree(self, operand: Any) -> float:
        return self._rt.cost.tree_collective(
            self._nranks, payload_nbytes(operand)
        )

    # -- collectives -------------------------------------------------------
    def barrier(self, rank: int) -> None:
        self._rendezvous(
            rank, None, lambda live: self._rt.cost.barrier(self._nranks)
        )

    def bcast(self, rank: int, value: Any, root: int = 0) -> Any:
        live = self._rendezvous(
            rank, value, lambda live: self._tree(live[root]), root
        )
        return live[root]

    def reduce(self, rank: int, value: Any, op="sum", root: int = 0) -> Any:
        result = self.allreduce(rank, value, op)
        return result if rank == root else None

    def allreduce(self, rank: int, value: Any, op="sum") -> Any:
        fn = _resolve_op(op)
        live = self._rendezvous(rank, value, lambda live: self._tree(value))
        return functools.reduce(fn, live.values())

    def gather(self, rank: int, value: Any, root: int = 0) -> list | None:
        result = self.allgather(rank, value)
        return result if rank == root else None

    def allgather(self, rank: int, value: Any) -> list:
        nbytes = payload_nbytes(value)
        live = self._rendezvous(
            rank, value, lambda live: self._rt.cost.gather(self._nranks, nbytes)
        )
        return list(live.values())

    def scatter(self, rank: int, values: Sequence | None, root: int = 0) -> Any:
        if rank == root:
            if values is None or len(values) != self._nranks:
                raise ValueError(
                    "scatter root must supply exactly one value per rank"
                )
        live = self._rendezvous(
            rank, values, lambda live: self._tree(live[root][rank]), root
        )
        return live[root][rank]

    def alltoall(self, rank: int, values: Sequence) -> list:
        """Personalized exchange: ``values[j]`` is sent to rank ``j``.

        The returned list always has ``nranks`` entries; the slot of a
        crashed, excluded source is ``None`` (degraded mode only).
        """
        if len(values) != self._nranks:
            raise ValueError("alltoall requires exactly one value per peer")
        per_pair = max(payload_nbytes(v) for v in values) if values else 0
        live = self._rendezvous(
            rank,
            list(values),
            lambda live: self._rt.cost.alltoall(self._nranks, per_pair),
        )
        return [
            live[src][rank] if src in live else None
            for src in range(self._nranks)
        ]

    def alltoallv(
        self, rank: int, owner: np.ndarray, columns: Sequence, min_nbytes: int = 8
    ) -> tuple:
        """Routed exchange (``MPI_Alltoallv``): row ``i`` of every column
        goes to rank ``owner[i]``.

        Returns the received columns, each the concatenation of every
        source's rows in source-rank order, a source's rows in the order
        it sent them; a crashed, excluded source contributes none.  Priced
        like :meth:`alltoall` of per-peer column slices: the most rows any
        one peer gets times the row width, at least ``min_nbytes`` per
        pair (8 B: what an empty box is charged).
        """
        order = np.argsort(owner, kind="stable")
        counts = np.bincount(owner, minlength=self._nranks)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        width = sum(column.itemsize for column in columns)
        per_pair = max(min_nbytes, int(counts.max()) * width)
        live = self._rendezvous(
            rank,
            (bounds, [column[order] for column in columns]),
            lambda live: self._rt.cost.alltoall(self._nranks, per_pair),
        )
        # one comprehension per column, none per source
        received = live.values()
        return tuple(
            np.concatenate([sent[j][b[rank] : b[rank + 1]] for b, sent in received])
            for j in range(len(columns))
        )

    def scan(self, rank: int, value: Any, op="sum") -> Any:
        """Inclusive prefix reduction over live ranks in rank order."""
        fn = _resolve_op(op)
        live = self._rendezvous(rank, value, lambda live: self._tree(value))
        return functools.reduce(fn, [v for i, v in live.items() if i <= rank])

    def exscan(self, rank: int, value: Any, op="sum", initial: Any = 0) -> Any:
        """Exclusive prefix reduction; the first live rank receives ``initial``."""
        fn = _resolve_op(op)
        live = self._rendezvous(rank, value, lambda live: self._tree(value))
        return functools.reduce(
            fn, [v for i, v in live.items() if i < rank], initial
        )
