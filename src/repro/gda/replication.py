"""Primary-backup block replication and live failover (availability layer).

The paper's system is explicitly non-fault-tolerant (Section 8 lists fault
tolerance as future work); this module supplies the GDA half of the online
fault-tolerance extension, on top of the substrate's failure detector and
epoch-fenced membership view (:mod:`repro.rma.membership`):

* **Asynchronous primary-backup mirroring** — every commit's dirty blocks
  are additionally staged, via the batched ``iput`` path, into a dedicated
  *mirror* window on the owning shard's deterministic backup rank
  ``(shard + 1) % P``, at the block's own offset.  The mirror flush rides
  the commit (one extra batched message per touched backup plus one
  flush), and a per-shard :class:`ReplicationLog` records the highest
  commit sequence number whose writes are fully mirrored.
* **Commit intents** — a committing rank publishes its replayable entry
  list *before* appending to the commit log and withdraws it only after
  its mirror flush completes.  Because no one-sided operation separates
  intent publication from the log append, a crashed rank left an intent
  exactly when its last logged record may be torn — which bounds backups
  to **at most one commit behind** (see :meth:`ReplicationManager.commit_lag`).
* **Failover repair** — :meth:`ReplicationManager.repair_shard` rebuilds a
  dead rank's shard in place: undo its held locks (via the
  :class:`~repro.gda.locks.LockRegistry`), reconstruct the free list as
  the complement of the mirrored live-block set, restore the mirrored
  blocks (each verified against its recorded CRC32 before promotion),
  rebuild the shard's DHT segment, then roll the intent's entries forward
  idempotently through the commit-log replay vocabulary and sweep blocks
  the dead rank allocated but never published.  Internal DPtrs survive
  (blocks are restored at their original offsets); the membership view's
  translation table redirects liveness, fencing and cost accounting to the
  backup host.

What is survivable: any single rank crash (detected, repaired online,
degraded service continues).  Not survivable online: a concurrent crash of
a shard and its backup (``note_failure`` refuses, operations raise
:class:`~repro.rma.faults.RmaRankDead`, recovery falls back to
checkpoint-plus-log replay), and corruption of a mirror block (CRC32
mismatch at promotion raises :class:`~repro.gdi.errors.GdiChecksumError`).
"""

from __future__ import annotations

import threading
import zlib
from typing import TYPE_CHECKING

from ..gdi.errors import GdiChecksumError, GdiTransactionCritical
from ..rma.faults import RmaRankDead, RmaTransientError
from ..rma.runtime import RankContext
from ..rma.window import Window
from .dptr import unpack_dptr

if TYPE_CHECKING:  # pragma: no cover
    from ..rma.membership import ClusterMembership
    from .blocks import BlockManager
    from .database_impl import GdaDatabase

__all__ = ["ReplicationLog", "ReplicationManager"]


class ReplicationLog:
    """Per-shard and per-committer mirror high-water marks.

    ``shard_high[s]`` is the highest commit sequence number whose writes
    to shard ``s`` are known mirrored; ``rank_high[r]`` the highest
    sequence number committer ``r`` has fully mirrored.  Together with the
    commit-intent protocol these prove each backup is at most one commit
    behind its primary.
    """

    def __init__(self, nranks: int) -> None:
        self._mu = threading.Lock()
        self.shard_high = [-1] * nranks
        self.rank_high = [-1] * nranks

    def advance(self, rank: int, seq: int, shards) -> None:
        with self._mu:
            if seq > self.rank_high[rank]:
                self.rank_high[rank] = seq
            for s in shards:
                if seq > self.shard_high[s]:
                    self.shard_high[s] = seq


class ReplicationManager:
    """Mirrors dirty blocks to backups and repairs crashed shards."""

    def __init__(
        self,
        mirror_win: Window,
        membership: "ClusterMembership",
        blocks: "BlockManager",
        nranks: int,
    ) -> None:
        self.mirror_win = mirror_win
        self.membership = membership
        self.blocks = blocks
        self.block_size = blocks.block_size
        self.nranks = nranks
        #: shard -> {block index: (crc32, nbytes)} of mirrored live blocks
        self.meta: list[dict[int, tuple[int, int]]] = [
            dict() for _ in range(nranks)
        ]
        self._meta_mu = threading.Lock()
        #: per-origin staged (shard, index, crc, nbytes) awaiting the
        #: commit's mirror flush
        self._staged: list[list[tuple[int, int, int, int]]] = [
            [] for _ in range(nranks)
        ]
        self._staged_mu = threading.Lock()
        #: commit intents: replay entries of the commit each rank is
        #: currently applying (None outside the commit window)
        self.intent: list[tuple | None] = [None] * nranks
        self.intent_seq: list[int | None] = [None] * nranks
        #: allocation journal: block DPtr -> acquiring rank, for blocks
        #: acquired since that rank's last completed commit (sweep source)
        self._journal: dict[int, int] = {}
        self._journal_mu = threading.Lock()
        self.log = ReplicationLog(nranks)

    # -- allocation journal (installed as BlockManager hooks) ---------------
    def note_acquire(self, ctx: RankContext, dptr: int) -> None:
        with self._journal_mu:
            self._journal[dptr] = ctx.rank

    def note_release(self, ctx: RankContext, dptr: int) -> None:
        with self._journal_mu:
            self._journal.pop(dptr, None)
        d = unpack_dptr(dptr)
        with self._meta_mu:
            self.meta[d.rank].pop(d.offset // self.block_size, None)

    def journal_of(self, rank: int) -> list[int]:
        with self._journal_mu:
            return [d for d, owner in self._journal.items() if owner == rank]

    # -- the mirroring data path -------------------------------------------
    def stage(self, ctx: RankContext, items: list[tuple[int, bytes]]) -> None:
        """Stage block writes towards their owners' backups (batched iput).

        Rides the holder write-back: called with the same ``(dptr, data)``
        items, issues one non-blocking batch against the mirror window and
        records the pending metadata; :meth:`commit_mirrors` completes
        both.
        """
        if not items:
            return
        mem = self.membership
        ops = []
        staged = []
        for dptr, data in items:
            d = unpack_dptr(dptr)
            ops.append((mem.backup_of(d.rank), d.offset, data))
            staged.append(
                (
                    d.rank,
                    d.offset // self.block_size,
                    zlib.crc32(data) & 0xFFFFFFFF,
                    len(data),
                )
            )
        ctx.iput_batch(self.mirror_win, ops)
        with self._staged_mu:
            self._staged[ctx.rank].extend(staged)

    def begin_commit(self, rank: int, entries: tuple) -> None:
        """Publish the commit intent (crash-atomic with the log append:
        no one-sided operation separates this from ``log_commit``)."""
        self.intent[rank] = entries
        self.intent_seq[rank] = None

    def note_logged(self, rank: int, seq: int) -> None:
        self.intent_seq[rank] = seq

    def commit_mirrors(self, ctx: RankContext, seq: int | None) -> None:
        """Complete the commit's mirror traffic and publish its metadata.

        The flush is the only operation (and thus the only crash point);
        metadata, high-water marks, journal and intent then settle in one
        uninterruptible Python step, so a crashed rank either left its
        intent (torn commit, roll it forward) or completed everything.
        """
        with self._staged_mu:
            pending = bool(self._staged[ctx.rank])
        if pending:
            ctx.flush(self.mirror_win)
        with self._staged_mu:
            staged, self._staged[ctx.rank] = self._staged[ctx.rank], []
        touched: set[int] = set()
        nbytes = 0
        with self._meta_mu:
            for shard, idx, crc, n in staged:
                self.meta[shard][idx] = (crc, n)
                touched.add(shard)
                nbytes += n
        if staged:
            ctx.rt.trace.record_mirror(ctx.rank, len(staged), nbytes)
        if seq is not None:
            self.log.advance(ctx.rank, seq, touched)
        self.end_commit(ctx.rank)

    def end_commit(self, rank: int) -> None:
        self.intent[rank] = None
        self.intent_seq[rank] = None
        with self._journal_mu:
            for d in [k for k, o in self._journal.items() if o == rank]:
                self._journal.pop(d)

    def abort_commit(self, ctx: RankContext) -> None:
        """Withdraw a failed commit's staged mirrors.

        Staged iputs may already sit in the network queues carrying
        uncommitted bytes that a *later* mirror flush would apply; rather
        than trying to unsend them, re-mirror the affected blocks from the
        (still committed) data window so mirror content and metadata
        agree again.
        """
        with self._staged_mu:
            staged, self._staged[ctx.rank] = self._staged[ctx.rank], []
        self.intent[ctx.rank] = None
        self.intent_seq[ctx.rank] = None
        if not staged:
            return
        bs = self.block_size
        mem = self.membership
        blocks = sorted({(shard, idx) for shard, idx, _, _ in staged})
        try:
            blobs = ctx.get_batch(
                self.blocks.data_win, [(s, i * bs, bs) for s, i in blocks]
            )
            ops = [
                (mem.backup_of(s), i * bs, blob)
                for (s, i), blob in zip(blocks, blobs)
            ]
            ctx.iput_batch(self.mirror_win, ops)
            ctx.flush(self.mirror_win)
        except (RmaTransientError, RmaRankDead):
            # The abort itself raced a failover (e.g. the re-read fenced,
            # or a backup died too).  The affected shard is being rebuilt
            # from mirror + intent anyway; skipping the re-mirror only
            # risks a stale mirror block that the next commit of the same
            # block overwrites.
            pass

    def commit_lag(self, db: "GdaDatabase", rank: int) -> int:
        """Number of ``rank``'s logged commits not yet fully mirrored.

        The intent protocol bounds this at 1: a rank publishes one intent,
        logs one record, and withdraws the intent only when the record's
        mirrors are flushed — it cannot log a second record in between.
        """
        high = self.log.rank_high[rank]
        return sum(
            1
            for rec in db.commit_log.tail(max(0, high + 1))
            if rec.rank == rank and rec.entries
        )

    # -- failover repair ----------------------------------------------------
    def repair_shard(
        self, ctx: RankContext, db: "GdaDatabase", shard: int
    ) -> dict[str, int]:
        """Rebuild the crashed ``shard`` in place from its backup mirror.

        Caller must have won ``membership.begin_repair(shard, ctx.rank)``.
        Returns repair statistics (restored blocks, redone commits, swept
        blocks, re-inserted DHT entries).
        """
        rt = ctx.rt
        mem = self.membership
        rt.trace.record_repair(ctx.rank)
        mem.adopt_epoch(ctx.rank)
        bs = self.block_size

        # 0. The dead rank's staged mirrors die with it; capture its intent.
        with self._staged_mu:
            self._staged[shard] = []
        intent = self.intent[shard]
        intent_seq = self.intent_seq[shard]
        self.intent[shard] = None
        self.intent_seq[shard] = None

        # 1. Undo the dead rank's held locks on healthy shards (its own
        # shard's lock words are rebuilt to zero below).
        if db.lock_registry is not None:
            for lrank, loff, mode in db.lock_registry.purge(shard):
                if lrank != shard:
                    ctx.faa(db.blocks.system_win, lrank, loff, mode.undo)

        # 2. Fetch and verify the mirrored live blocks (promotion gate).
        with self._meta_mu:
            live = sorted(self.meta[shard].items())
        backup = mem.backup_of(shard)
        blobs = (
            ctx.get_batch(
                self.mirror_win,
                [(backup, idx * bs, nb) for idx, (_, nb) in live],
            )
            if live
            else []
        )
        for (idx, (crc, _)), blob in zip(live, blobs):
            if zlib.crc32(blob) & 0xFFFFFFFF != crc:
                rt.trace.record_corruption_detected(ctx.rank)
                raise GdiChecksumError(
                    f"mirror of shard {shard} block {idx} failed CRC32 "
                    "verification at failover promotion"
                )

        # 3. Rebuild the shard's BGDL segments in place: data zeroed, then
        # restored at original offsets (DPtrs survive); the pool holds
        # exactly the live set.
        ctx.put(db.blocks.data_win, shard, 0, bytes(db.blocks.data_win.size))
        db.blocks.reset_free_list(ctx, shard, (idx for idx, _ in live))
        if live:
            ctx.iput_batch(
                db.blocks.data_win,
                [(shard, idx * bs, blob) for (idx, _), blob in zip(live, blobs)],
            )
            ctx.flush(db.blocks.data_win)

        # 4. Rebuild the shard's DHT segment from the key mirror.
        reinserted = db.dht.rebuild_shard(ctx, shard)

        # 5. Roll the dead rank's logged-but-possibly-torn commit forward.
        redone = 0
        if intent is not None and intent_seq is not None:
            from .recovery import replay_entries_idempotent

            for attempt in range(8):
                try:
                    replay_entries_idempotent(ctx, db, intent)
                    redone = 1
                    break
                except GdiTransactionCritical:
                    if attempt == 7:
                        raise
            self.log.advance(shard, intent_seq, range(self.nranks))

        # 6. Sweep blocks the dead rank allocated but never published
        # (in-flight uncommitted creations, torn resizes).  Reachability
        # is computed under read locks on the intent's touched vertices.
        swept = self._sweep_dead_allocations(ctx, db, shard, intent)

        return {
            "restored_blocks": len(live),
            "redone_commits": redone,
            "swept_blocks": swept,
            "dht_reinserted": reinserted,
        }

    def _sweep_dead_allocations(
        self, ctx: RankContext, db: "GdaDatabase", shard: int, intent
    ) -> int:
        journal = self.journal_of(shard)
        if not journal:
            return 0
        reachable: set[int] = set()
        if intent:
            apps: set[int] = set()
            for e in intent:
                if e[0] in ("del_v", "new_v", "upd_v"):
                    apps.add(e[1])
                elif e[0] in ("edge+", "edge-", "hedge+", "hedge-", "hedge*"):
                    apps.add(e[1])
                    apps.add(e[2])
            try:
                tx = db.start_transaction(ctx, write=False)
                try:
                    for app in sorted(apps):
                        h = tx.find_vertex(app)
                        if h is None:
                            continue
                        stored = h._txv.stored
                        reachable.update(stored.all_blocks)
                        for slot in stored.holder.edges:
                            if slot.heavy:
                                es = db.storage.read(ctx, slot.dptr)
                                reachable.update(es.all_blocks)
                    tx.commit()
                except BaseException:
                    if tx.open:
                        tx.abort()
                    raise
            except (GdiTransactionCritical, RmaTransientError):
                # Could not pin the touched vertices (heavy contention);
                # leave the journal in place rather than risk freeing a
                # block a survivor just adopted.
                return 0
        swept = 0
        for dptr in journal:
            d = unpack_dptr(dptr)
            if d.rank == shard or dptr in reachable:
                with self._journal_mu:
                    self._journal.pop(dptr, None)
                continue
            db.blocks.release_block(ctx, dptr)  # hook drops journal + meta
            swept += 1
        return swept
