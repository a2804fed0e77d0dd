"""Commit-timestamp authority, watermark tracking, snapshots, and GC.

Timestamps piggyback on the commit log's append order: a committing
transaction calls :meth:`SnapshotManager.begin_commit` immediately
after its log append, while it still holds every write lock, so the
timestamp order *is* the serialization order of conflicting commits.
The **applied watermark** is the largest ``W`` such that every commit
with ``ts <= W`` has finished write-back (commits apply out of order
across ranks, so the watermark is the contiguous applied prefix).  A
snapshot taken at watermark ``W`` therefore sees a state that really
existed: all of commits ``1..W``, none after.

Crashed commits: a rank that dies between ``begin_commit`` and
``note_applied`` would pin the watermark forever.  Each pending
timestamp remembers its issuing rank; failover's heal step calls
:meth:`force_apply` for the dead ranks once their shards are repaired
and the log replayed — the replay re-applies surviving effects under
*fresh* timestamps, so the orphaned one is safe to retire.

GC: every transaction announces the applied watermark it starts at (a
snapshot reads at it, any other kind only pins it); the reclamation
floor is the smallest one announced, or the applied watermark when no
transaction is open.  :meth:`collect` prunes version chains and unpublish
tombstones up to the floor and frees the DHT entries parked below it.
It runs every ``gc_interval`` applied commits and from the checkpoint
machinery, so history is bounded by transaction lifetime, not run
length; a long transaction of any kind, lock mode too, holds it back.
"""

from __future__ import annotations

import threading
from bisect import insort

from .versions import VersionStore

__all__ = ["Snapshot", "SnapshotManager"]


class Snapshot:
    """A watermark one rank announced, held until the handle closes."""

    __slots__ = ("watermark", "rank", "manager", "closed")

    def __init__(
        self, watermark: int, rank: int, manager: "SnapshotManager"
    ) -> None:
        self.watermark = watermark
        self.rank = rank
        self.manager = manager
        self.closed = False

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.manager.release(self)


class SnapshotManager:
    """Timestamp authority + snapshot registry + watermark GC driver.

    One instance per database, shared by every rank (control path, like
    the commit log).  All methods are thread-safe.
    """

    def __init__(self, gc_interval: int = 32) -> None:
        self._lock = threading.Lock()
        self.gc_interval = max(1, int(gc_interval))
        self._last_ts = 0
        self._watermark = 0
        #: issued-but-not-applied commit ts -> issuing rank
        self._pending: dict[int, int] = {}
        #: applied ts above the watermark, awaiting the contiguous prefix
        self._applied_ahead: set[int] = set()
        #: the open handles: every announced watermark
        self._live: set[Snapshot] = set()
        #: ranks retired by :meth:`force_apply`, whose pins never count
        self._dead: set[int] = set()
        self.versions = VersionStore()
        #: unpublish tombstones for deleted vertices, so snapshots can
        #: still *find* and *enumerate* them: app_id -> [(delete_ts, vid)]
        #: sorted by ts, and shard -> [(delete_ts, vid)] for directory
        #: sweeps.  Pruned with the same GC floor as the chains.
        self._unpublished: dict[int, list[tuple[int, int]]] = {}
        self._deleted_by_shard: dict[int, list[tuple[int, int]]] = {}
        self._applied_since_gc = 0
        #: ``fn(ctx, floor)`` freeing the DHT entries parked below the floor
        self.reclaim = None
        #: lifetime GC statistics, the one ledger of them: entries and
        #: tombstones reclaimed, and the highest floor reached
        self.total_reclaimed = 0
        self.gc_floor_high = 0

    # -- timestamp authority ----------------------------------------------
    def begin_commit(self, rank: int) -> int:
        """Allocate the next commit timestamp (call right after the log
        append, while the write locks are still held)."""
        with self._lock:
            self._last_ts += 1
            ts = self._last_ts
            self._pending[ts] = rank
            return ts

    def note_applied(self, ts: int) -> None:
        """Mark commit ``ts`` fully written back; advance the watermark
        over the contiguous applied prefix."""
        with self._lock:
            self._pending.pop(ts, None)
            self._applied_ahead.add(ts)
            while self._watermark + 1 in self._applied_ahead:
                self._watermark += 1
                self._applied_ahead.discard(self._watermark)
            self._applied_since_gc += 1

    def force_apply(self, ranks) -> int:
        """Retire the pending timestamps and announced watermarks of (now
        dead) ``ranks``, and ignore any they announce later, so neither
        the watermark nor the floor stays pinned.  Returns how many
        timestamps were retired."""
        dead = set(ranks)
        with self._lock:
            self._dead |= dead
            orphans = [t for t, r in self._pending.items() if r in dead]
            pins = [s for s in self._live if s.rank in dead]
        for ts in orphans:
            self.note_applied(ts)
        for snap in pins:
            snap.close()
        return len(orphans)

    @property
    def watermark(self) -> int:
        with self._lock:
            return self._watermark

    @property
    def last_issued(self) -> int:
        with self._lock:
            return self._last_ts

    # -- snapshot registry -------------------------------------------------
    def begin_snapshot(self, rank: int) -> Snapshot:
        """Announce the current applied watermark on behalf of ``rank``."""
        return self.share(None, rank)

    def share(self, snap: Snapshot | None, rank: int) -> Snapshot:
        """``rank``'s handle at ``snap``'s watermark (collective
        transactions: rank 0 begins, every other rank joins the broadcast
        handle), or at the current one for ``None``."""
        with self._lock:
            w = self._watermark if snap is None else snap.watermark
            joined = Snapshot(w, rank, self)
            if rank not in self._dead:
                self._live.add(joined)
        return joined

    def release(self, snap: Snapshot) -> None:
        with self._lock:
            self._live.discard(snap)

    def live_snapshots(self) -> int:
        with self._lock:
            return len(self._live)

    # -- unpublish tombstones ---------------------------------------------
    def note_unpublished(
        self, app_id: int, vid: int, shard: int, ts: int
    ) -> None:
        """Record that the vertex ``vid`` (application ID ``app_id``,
        homed on ``shard``) was deleted by commit ``ts`` — snapshots at
        watermarks below ``ts`` still see it."""
        with self._lock:
            insort(self._unpublished.setdefault(app_id, []), (ts, vid))
            insort(self._deleted_by_shard.setdefault(shard, []), (ts, vid))

    def lookup_unpublished(self, app_id: int, watermark: int) -> int | None:
        """The vid that carried ``app_id`` at ``watermark`` if a later
        commit deleted it (DHT lookup misses it now)."""
        with self._lock:
            for ts, vid in self._unpublished.get(app_id, ()):
                if ts > watermark:
                    return vid
        return None

    def deleted_vids(self, shard: int, watermark: int) -> list[int]:
        """Vids homed on ``shard`` that existed at ``watermark`` but
        have since been deleted (missing from the live directory)."""
        with self._lock:
            entries = self._deleted_by_shard.get(shard, ())
            return [vid for ts, vid in entries if ts > watermark]

    def rekey(self, mapping: dict[int, int]) -> None:
        """Follow a relocation: version chains and tombstones move with
        their vertices (``old vid -> new vid``)."""
        self.versions.rekey({("v", old): ("v", new) for old, new in mapping.items()})
        with self._lock:
            for table in (self._unpublished, self._deleted_by_shard):
                for entries in table.values():
                    entries[:] = [(t, mapping.get(v, v)) for t, v in entries]

    # -- GC ----------------------------------------------------------------
    def gc_floor(self) -> int:
        """Reclamation floor: nothing at or below it is reachable."""
        with self._lock:
            if self._live:
                return min(s.watermark for s in self._live)
            return self._watermark

    def collect(self, ctx=None) -> int:
        """Prune version chains and tombstones up to the floor.

        Every pass adds its count to :attr:`total_reclaimed` and raises
        :attr:`gc_floor_high` to its floor.  With ``ctx`` it also frees
        the DHT entries parked below the floor (:attr:`reclaim`) and pays
        one read of each rank's announced watermarks.  Returns the number
        of version entries and tombstones reclaimed.
        """
        floor = self.gc_floor()
        reclaimed = self.versions.prune(floor)
        with self._lock:
            # a tombstone sits in both tables: count it in the last
            for table in (self._deleted_by_shard, self._unpublished):
                dropped = 0
                for key, entries in list(table.items()):
                    kept = [e for e in entries if e[0] > floor]
                    dropped += len(entries) - len(kept)
                    if kept:
                        table[key] = kept
                    else:
                        del table[key]
            reclaimed += dropped
            self.total_reclaimed += reclaimed
            if floor > self.gc_floor_high:
                self.gc_floor_high = floor
        if ctx is not None:
            cost = ctx.rt.cost.onesided
            ctx.charge(sum(cost(ctx.rank, r, 8) for r in range(ctx.nranks)))
            if self.reclaim is not None:
                self.reclaim(ctx, floor)
        return reclaimed

    def maybe_collect(self, ctx=None) -> int:
        """Opportunistic GC: runs :meth:`collect` once every
        ``gc_interval`` applied commits (called from commit write-back,
        so a write-heavy storm reclaims as it goes)."""
        with self._lock:
            if self._applied_since_gc < self.gc_interval:
                return 0
            self._applied_since_gc = 0
        return self.collect(ctx)
