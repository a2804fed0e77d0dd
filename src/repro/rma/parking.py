"""Parking, the one way a rank thread waits for another rank: it sleeps
on a condition, blocked at the interleaving scheduler so grant rounds go
on without it, and the rank that sets the awaited state releases every
waiter before its next op (a point in program order, not an OS wake-up).
"""

import threading


class Parking:
    """Ranks waiting on one condition; callers hold ``cond`` throughout."""

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self._parked: list = []  # (scheduler, rank) of each blocked waiter

    def wait(self, scheduler, rank: int, ready) -> None:
        """Park ``rank`` until ``ready()`` holds: no poll, no timeout."""
        me = (scheduler, rank)
        try:
            while not ready():
                if scheduler is not None and me not in self._parked:
                    scheduler.block(rank)
                    self._parked.append(me)
                self.cond.wait()
        finally:  # a waiter leaving unreleased (abort, poison) unparks
            if me in self._parked:
                self._parked.remove(me)
                scheduler.unblock(rank)

    def release(self) -> None:
        """Unblock every parked waiter at its scheduler, then wake them."""
        for scheduler, rank in self._parked:
            scheduler.unblock(rank)
        self._parked.clear()
        self.cond.notify_all()
