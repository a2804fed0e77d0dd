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
  flush), and a per-committer high-water mark records the highest
  commit sequence number whose writes are fully mirrored.
* **Commit intents** — a committing rank publishes its replayable entry
  list *before* appending to the commit log and clears it only after
  its mirror flush completes.  Because no one-sided operation separates
  intent publication from the log append, a crashed rank left an intent
  exactly when its last logged record may be torn — which bounds backups
  to **at most one commit behind** (see :meth:`ReplicationManager.commit_lag`).
  A logged commit is never taken back: a live committer fenced past its
  commit point rolls it forward itself (:func:`repro.gda.commit.roll_forward`),
  and its staged mirrors are published with the redo's.
* **Failover repair** — :meth:`ReplicationManager.repair_shard` rebuilds a
  dead rank's shard in place: back out the lock words its open lock
  tables hold (``db.lock_tables``), reconstruct the free list as
  the complement of the mirrored live-block set, restore the mirrored
  blocks (each verified against its recorded CRC32, or one any rank
  staged for it, before promotion), rebuild the shard's DHT segment, then
  roll the intent's entries forward idempotently through the commit-log
  replay vocabulary (as a live committer does its own), sweep blocks
  the dead rank allocated but never published, and set the lock words
  that live ranks' tables hold on the shard again.  Internal DPtrs survive
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
from ..rma.faults import RmaTransientError
from ..rma.runtime import RankContext
from ..rma.window import Window
from .dptr import unpack_dptr

if TYPE_CHECKING:  # pragma: no cover
    from ..rma.membership import ClusterMembership
    from .blocks import BlockManager
    from .database_impl import GdaDatabase

__all__ = ["ReplicationManager"]


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
        #: committer -> highest commit sequence number it has fully
        #: mirrored (guarded by ``_meta_mu``); with the commit-intent
        #: protocol this proves each backup at most one commit behind
        self.rank_high = [-1] * nranks

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
        mem, ops, staged = self.membership, [], []
        for dptr, data in items:
            d = unpack_dptr(dptr)
            ops.append((mem.backup_of(d.rank), d.offset, data))
            crc = zlib.crc32(data) & 0xFFFFFFFF
            staged.append((d.rank, d.offset // self.block_size, crc, len(data)))
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
        nbytes = 0
        with self._meta_mu:
            for shard, idx, crc, n in staged:
                self.meta[shard][idx] = (crc, n)
                nbytes += n
        if staged:
            ctx.rt.trace.record_mirror(ctx.rank, len(staged), nbytes)
        if seq is not None:
            self._mirrored(ctx.rank, seq)
        self.end_commit(ctx.rank)

    def _mirrored(self, rank: int, seq: int) -> None:
        """Raise committer ``rank``'s mirror high-water mark to ``seq``."""
        with self._meta_mu:
            self.rank_high[rank] = max(self.rank_high[rank], seq)

    def end_commit(self, rank: int) -> None:
        self.intent[rank] = None
        self.intent_seq[rank] = None
        with self._journal_mu:
            for d in [k for k, o in self._journal.items() if o == rank]:
                self._journal.pop(d)

    def commit_lag(self, db: "GdaDatabase", rank: int) -> int:
        """Number of ``rank``'s logged commits not yet fully mirrored.

        The intent protocol bounds this at 1: a rank publishes one intent,
        logs one record, and clears the intent only when the record's
        mirrors are flushed — it cannot log a second record in between.
        """
        tail = db.commit_log.tail(max(0, self.rank_high[rank] + 1))
        return sum(rec.rank == rank for rec in tail)

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
        mem.adopt_epoch(ctx.rank)
        bs = self.block_size

        # 1. Back out the dead rank's words on healthy shards as its open
        # lock tables list them (forgotten first: a retry issues none).
        with db.lock_tables_mu:
            tables = list(db.lock_tables[shard])
            db.lock_tables[shard].clear()
        for table in tables:
            for mode, _, (rank, offset) in list(table._held.values()):
                if rank != shard:
                    ctx.faa(db.blocks.system_win, rank, offset, mode.undo)

        # 2. Fetch and verify the mirrored live blocks (promotion gate).  A
        # CRC any rank staged for a block passes too: an iput lands when
        # issued, and staged bytes are a logged commit's, which is rolled
        # forward (step 5, or by its live committer).  A staged block not
        # in ``meta`` stays free (step 3): the roll-forward rewrites it.
        with self._meta_mu, self._staged_mu:
            live = sorted(self.meta[shard].items())
            staged = {
                (i, crc) for rows in self._staged for s, i, crc, _ in rows
                if s == shard
            }
        backup = mem.backup_of(shard)
        blobs = ctx.get_batch(self.mirror_win, [
            (backup, idx * bs, nb) for idx, (_, nb) in live
        ]) if live else []
        for (idx, (crc, _)), blob in zip(live, blobs):
            got = zlib.crc32(blob) & 0xFFFFFFFF
            if got != crc and (idx, got) not in staged:
                rt.trace.record_corruption_detected(ctx.rank)
                raise GdiChecksumError(
                    f"mirror of shard {shard} block {idx} failed CRC32 "
                    "verification at failover promotion"
                )
        rt.trace.record_repair(ctx.rank)
        # The dead rank's staged mirrors die with it; capture its intent.
        with self._staged_mu:
            self._staged[shard] = []
        intent, intent_seq = self.intent[shard], self.intent_seq[shard]
        self.intent[shard] = self.intent_seq[shard] = None

        # 3. Rebuild the shard's BGDL segments in place: data zeroed, then
        # restored at original offsets (DPtrs survive); the pool holds
        # exactly the live set, and lock words are zero until step 7.
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

            replay_entries_idempotent(ctx, db, intent)
            redone = 1
            self._mirrored(shard, intent_seq)

        # 6. Sweep blocks the dead rank allocated but never published
        # (in-flight uncommitted creations, torn resizes).  Reachability
        # is computed under read locks on the intent's touched vertices.
        swept = self._sweep_dead_allocations(ctx, db, shard, intent)

        # 7. Set each lock word of the shard to what the live ranks' lock
        # tables hold of it, as the repair's last ops, and stamp those
        # entries with this epoch so that their give-backs issue them.  A
        # word a table forgets meanwhile (the shard is unserviceable to
        # its rank) is backed out again, until a round sees none forgotten.
        with db.lock_tables_mu:
            mine = [
                (held, vid, e) for tables in db.lock_tables for t in tables
                for held in (t._held,) for vid, e in held.items()
                if e[2][0] == shard
            ]
        ops = [(shard, word[1], -mode.undo) for _, _, (mode, _, word) in mine]
        while ops:
            ctx.faa_batch(db.blocks.system_win, ops)
            gone = [e for held, vid, e in mine if held.get(vid) is not e]
            mine = [m for m in mine if m[0].get(m[1]) is m[2]]
            ops = [(shard, word[1], mode.undo) for mode, _, word in gone]
        for held, vid, (mode, _, word) in mine:
            held[vid] = (mode, mem.epoch, word)
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
            # a vertex entry names one vertex, an edge entry its two ends
            apps = {
                a for e in intent
                for a in (e[1:2] if e[0].endswith("_v") else e[1:3])
            }
            try:
                with db.start_transaction(ctx, write=False) as tx:
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
