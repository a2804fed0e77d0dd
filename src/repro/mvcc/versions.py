"""Pre-image version chains: the storage side of snapshot isolation.

A chain entry ``(boundary_ts, image)`` records that *immediately before*
the commit with timestamp ``boundary_ts`` applied, the object's state
was ``image`` (``None`` = the object did not exist).  Entries are
installed by the committing transaction while it still holds every
write lock, *before* the live blocks are rewritten, which yields the
visibility rule snapshot readers rely on:

* a reader at watermark ``W`` sees the effects of exactly the commits
  with ``ts <= W``;
* the smallest chain entry with ``boundary_ts > W`` is the object's
  state at ``W`` (no commit in ``(W, boundary_ts)`` touched the object,
  else it would have installed its own entry — and entries above a live
  watermark are never pruned);
* no such entry means no commit after ``W`` modified the object, so the
  *live* blocks are the state at ``W``.  The reader validates that
  with one more pass over the chains *after* its read returns: a writer
  racing the read installed its pre-image before it touched the blocks,
  so every holder it tore is covered by then and served from the chain.

Keys are opaque hashables — the transaction layer uses ``("v", vid)``
for vertex holders and ``("e", eptr)`` for heavyweight-edge holders so
the two ID spaces cannot collide.

GC: :meth:`VersionStore.prune` drops every entry with ``boundary_ts <=
floor`` where ``floor`` is the smallest live snapshot watermark.  Any
future reader has ``W >= floor`` and only ever consults entries with
``boundary_ts > W``, so the dropped entries are unreachable.
"""

from __future__ import annotations

import threading
from bisect import bisect_right, insort

__all__ = ["VersionStore"]

#: sentinel distinguishing "no chain entry covers this watermark — read
#: the live blocks" from "the chain says the object was absent" (None)
_MISS = object()


class VersionStore:
    """Thread-safe pre-image chains for one database."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: key -> [(boundary_ts, image)] sorted ascending by boundary_ts
        self._chains: dict[object, list[tuple[int, object]]] = {}

    def install(self, key, boundary_ts: int, image) -> bool:
        """Record ``image`` as the state of ``key`` before commit
        ``boundary_ts``.  Returns False if that boundary was already
        installed (idempotent under replay)."""
        with self._lock:
            chain = self._chains.setdefault(key, [])
            ts_list = [t for t, _ in chain]
            i = bisect_right(ts_list, boundary_ts)
            if i > 0 and ts_list[i - 1] == boundary_ts:
                return False
            insort(chain, (boundary_ts, image), key=lambda e: e[0])
            return True

    def resolve(self, key, watermark: int) -> tuple[bool, object]:
        """Resolve ``key`` at ``watermark``.

        Returns ``(True, image)`` when a chain entry covers the
        watermark (``image`` may be None: absent at that time), or
        ``(False, None)`` when the live blocks are authoritative.
        """
        with self._lock:
            chain = self._chains.get(key)
            if not chain:
                return (False, None)
            ts_list = [t for t, _ in chain]
            i = bisect_right(ts_list, watermark)
            if i == len(chain):
                return (False, None)
            return (True, chain[i][1])

    def resolve_many(self, keys, watermark: int) -> dict:
        """:meth:`resolve` for a whole batch under one lock.

        Returns ``{key: image}`` for exactly the keys a chain entry
        serves at ``watermark``; every other key reads its live blocks.
        A store without chains (a read-mostly database after GC) answers
        without looking at the keys.
        """
        with self._lock:
            chains = self._chains
            if not chains:
                return {}
            out = {}
            for key in keys:
                chain = chains.get(key)
                if chain and chain[-1][0] > watermark:
                    ts_list = [t for t, _ in chain]
                    out[key] = chain[bisect_right(ts_list, watermark)][1]
            return out

    def covered(self, key, watermark: int) -> bool:
        """True when a chain entry (not the live blocks) serves ``key``
        at ``watermark``."""
        with self._lock:
            chain = self._chains.get(key)
            if not chain:
                return False
            return chain[-1][0] > watermark

    def prune(self, floor: int) -> int:
        """Drop every entry with ``boundary_ts <= floor``; returns how
        many entries were reclaimed."""
        reclaimed = 0
        with self._lock:
            for key in list(self._chains):
                chain = self._chains[key]
                ts_list = [t for t, _ in chain]
                i = bisect_right(ts_list, floor)
                if i:
                    reclaimed += i
                    del chain[:i]
                if not chain:
                    del self._chains[key]
        return reclaimed

    def rekey(self, mapping: dict) -> None:
        """Rename chain keys after a relocation (old key -> new key).

        Relocation runs with no transaction open (so no live
        snapshots), but chains above the applied watermark must
        follow the object to its new home for *future* snapshots.
        """
        with self._lock:
            moved = {}
            for old, new in mapping.items():
                chain = self._chains.pop(old, None)
                if chain is not None:
                    moved[new] = chain
            self._chains.update(moved)

    # -- introspection (tests, GC accounting) ------------------------------
    def total_entries(self) -> int:
        with self._lock:
            return sum(len(c) for c in self._chains.values())

    def chain_len(self, key) -> int:
        with self._lock:
            return len(self._chains.get(key, ()))
