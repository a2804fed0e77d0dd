"""The bounded admission queue: explicit shedding, never unbounded buffering.

A classic bounded MPMC queue guarded by one condition variable.  The
front-end uses :meth:`BoundedQueue.try_put` — a full queue returns
``False`` (the caller sheds the request) instead of blocking, so queue
depth, and with it admission wait, stays bounded by construction.
Workers block in :meth:`BoundedQueue.get` until an item arrives or the
queue is closed *and* drained, which is the graceful-shutdown path.

Leases: capacity counts *admitted-but-incomplete* work, not just
waiting items.  :meth:`get` hands the worker a lease that
:meth:`task_done` releases; a worker that crashes mid-request returns
its item with :meth:`requeue_front` instead.  Two consequences fix the
multi-crash hazards:

* occupancy (waiting + leased) never exceeds ``capacity``, so a burst
  of crashed workers re-queuing their in-flight requests cannot grow
  the queue past what admission allowed;
* every item carries its admission sequence number and a re-queue
  inserts in sequence order, so simultaneous crashes hand requests back
  in *arrival order* regardless of which dying worker thread runs
  first.

Pause/resume: :meth:`pause` sheds new arrivals without closing the
queue (workers keep draining), which is the serving front-end's drain
point for quiesced maintenance such as a live rebalance;
:meth:`resume` re-opens admission.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

from .errors import ServerClosed

__all__ = ["BoundedQueue"]


class BoundedQueue:
    """Bounded FIFO with non-blocking producers and blocking consumers."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        #: waiting items as (admission seq, item), ascending seq
        self._items: deque[tuple[int, Any]] = deque()
        #: id(item) -> admission seq of dequeued-but-unfinished items
        self._leases: dict[int, int] = {}
        self._seq = 0
        lock = threading.RLock()
        self._cond = threading.Condition(lock)  # workers wait for items
        self._idle = threading.Condition(lock)  # drainers wait for quiescence
        self._closed = False
        self._paused = False
        self._peak = 0

    @property
    def depth(self) -> int:
        """Current number of *waiting* items."""
        with self._cond:
            return len(self._items)

    @property
    def in_flight(self) -> int:
        """Leased items: dequeued but neither finished nor re-queued."""
        with self._cond:
            return len(self._leases)

    @property
    def admitted(self) -> int:
        """Items ever accepted by :meth:`try_put` (re-queues not counted)."""
        with self._cond:
            return self._seq

    @property
    def peak_depth(self) -> int:
        """Deepest occupancy ever observed (bounded by ``capacity``)."""
        with self._cond:
            return self._peak

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def paused(self) -> bool:
        return self._paused

    def quiescent(self) -> bool:
        """No waiting items and no leases: safe for maintenance."""
        with self._cond:
            return not self._items and not self._leases

    def try_put(self, item: Any) -> bool:
        """Enqueue ``item``; ``False`` (shed) when occupancy is at capacity."""
        with self._cond:
            if self._closed:
                raise ServerClosed("admission queue is closed")
            if self._paused:
                return False
            occupancy = len(self._items) + len(self._leases)
            if occupancy >= self.capacity:
                return False
            self._items.append((self._seq, item))
            self._seq += 1
            if occupancy + 1 > self._peak:
                self._peak = occupancy + 1
            self._cond.notify()
            return True

    def requeue_front(self, item: Any) -> None:
        """Hand an already-admitted item back near the head of the queue.

        Used by a dying worker to return its in-flight request so a
        surviving worker picks it up.  The item's lease converts back
        into a waiting slot (occupancy is unchanged, so the capacity
        bound holds even when several workers crash at once) and the
        item is inserted in *admission order*: simultaneous crashes
        cannot invert the arrival order no matter which dying thread
        runs first.  Works on a closed or paused queue, so a crash
        during drain still leaves no hung request behind.
        """
        with self._cond:
            seq = self._leases.pop(id(item), -1)
            # ascending-seq insertion; re-queues cluster near the front
            # (their seqs predate everything still waiting)
            pos = 0
            for pos, (s, _) in enumerate(self._items):
                if s > seq:
                    break
            else:
                pos = len(self._items)
            self._items.insert(pos, (seq, item))
            self._cond.notify()

    def get(self, on_pop=None) -> Any | None:
        """Dequeue the next item; ``None`` once closed and drained.

        The caller holds the item's lease until :meth:`task_done` (or
        :meth:`requeue_front`, if it cannot finish the work).

        ``on_pop`` runs on the dequeued item *under the queue lock*, so
        consumers can bind per-item state atomically with FIFO order —
        without it, a consumer preempted between dequeue and binding
        would let later items bind first, inverting the order.
        """
        with self._cond:
            while True:
                if self._items:
                    seq, item = self._items.popleft()
                    self._leases[id(item)] = seq
                    if on_pop is not None:
                        on_pop(item)
                    return item
                if self._closed:
                    return None
                self._cond.wait()

    def task_done(self, item: Any) -> None:
        """Release ``item``'s lease, freeing its capacity slot."""
        with self._cond:
            self._leases.pop(id(item), None)
            if not self._items and not self._leases:
                self._idle.notify_all()

    def wait_quiescent(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for :meth:`quiescent`; return it."""
        with self._idle:
            return self._idle.wait_for(self.quiescent, timeout)

    def pause(self) -> None:
        """Shed new arrivals (drain mode); waiting items still serve."""
        with self._cond:
            self._paused = True

    def resume(self) -> None:
        """Re-open admission after a :meth:`pause`."""
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    def close(self) -> None:
        """Stop admitting; wake all consumers so they drain and return."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
