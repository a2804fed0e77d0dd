"""Dynamic vertex relocation between collective transactions (Section 3.4).

The paper's motivation for *volatile* internal IDs: "it facilitates
redistributing the graph across processes between collective
transactions, without fearing that internal IDs become stale".  This
module implements that redistribution:

* :func:`plan_balance` computes a greedy move plan equalizing per-rank
  vertex counts;
* :func:`plan_offload` spreads a *hot shard*'s vertices round-robin over
  the other ranks (the hot-shard detector's remediation);
* :func:`rebalance` collectively executes a plan in two crash-safe
  phases and publishes the old→new mapping so stale permanent DPTRs
  raise :class:`~repro.gdi.errors.GdiStaleDptr` instead of silently
  reading the vacated blocks.

Crash-safe execution
--------------------
``rebalance`` is structured as **prepare → vote → commit → patch**:

1. *prepare* — each rank copies its departing vertex holders into
   freshly acquired blocks on their new owners.  Nothing authoritative
   (DHT, directory, indexes, the old holder) is touched, so a rank that
   crashes here simply contributes no moves: its prepared copies are
   unregistered orphans and the database is unchanged (= rollback).
2. *vote* — an allgather publishes every rank's move intents.  With a
   :class:`~repro.rma.membership.ClusterMembership` armed, the
   collective completes over the live view, so survivors learn exactly
   which intents are in flight.
3. *commit* — each rank re-points the DHT, migrates directory and index
   postings, and deletes the old holders for its own intents.  Every
   step is replay-idempotent (the DHT entry is re-pointed only if it
   still names the old location; directory migration is guarded by
   presence; deleting an already-deleted holder is a no-op), so after
   the final barrier the lowest surviving rank *completes* the intents
   of any rank that crashed mid-commit.  Operations fenced by the
   failover machinery (:class:`~repro.rma.faults.RmaStaleEpoch`) heal
   through the database's repair hook and retry.
4. *patch* — every rank rewrites the edge slots and edge-holder
   endpoints of the shards it *hosts* (its own, plus any adopted ward
   after a mid-rebalance failover) against the full allgathered mapping.

Afterwards the membership epoch is bumped with every shard stamped
(:meth:`~repro.rma.membership.ClusterMembership.bump_epoch`), so any
issuer that did not participate is fenced exactly once before touching
relocated data.  The mapping is also recorded on the database
(:meth:`~repro.gda.database_impl.GdaDatabase.note_relocations`): reads
through pre-move permanent IDs raise
:class:`~repro.gdi.errors.GdiStaleDptr` carrying the fresh ID.

Correctness contract: no transactions may be open during a rebalance
(exactly the idle point between collective transactions the paper
describes).  Crash tolerance additionally requires block replication
(the dead rank's shard must remain readable through its mirror); without
it a mid-rebalance crash is fatal to the run, as in the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..rma.faults import RmaStaleEpoch
from ..rma.runtime import RankContext
from .database_impl import GdaDatabase
from .dptr import unpack_dptr
from .holder import KIND_EDGE, SLOT_DTYPE, SLOT_HEAVY

__all__ = ["plan_balance", "plan_offload", "rebalance", "MoveIntent"]

#: bounded heal-and-retry attempts for fenced commit operations
_MAX_HEALS = 4


@dataclass
class MoveIntent:
    """One planned vertex move, self-contained enough to be replayed by
    a *surviving* rank if the planning rank crashes mid-commit."""

    old_vid: int
    new_vid: int
    app_id: int
    labels: list[int] = field(default_factory=list)


def plan_balance(
    ctx: RankContext, db: GdaDatabase, tolerance: int = 1
) -> dict[int, int]:
    """Greedy move plan ``{vid: target_rank}`` flattening shard sizes.

    Ranks above the mean shed their excess vertices round-robin onto the
    ranks below the mean.  The plan only names vertices local to the
    calling rank; every rank computes a consistent global view from the
    allgathered shard sizes.
    """
    sizes = ctx.allgather(len(db.directory.local_vertices(ctx)))
    total = sum(sizes)
    mean = total / ctx.nranks
    deficits = [
        (r, int(mean - sizes[r])) for r in range(ctx.nranks)
        if sizes[r] < mean - tolerance
    ]
    if not deficits or sizes[ctx.rank] <= mean + tolerance:
        return {}
    surplus = int(sizes[ctx.rank] - mean)
    # deterministic carve-up: this rank takes a slice of each deficit
    # proportional to its share of the global surplus
    overs = [r for r in range(ctx.nranks) if sizes[r] > mean + tolerance]
    my_pos = overs.index(ctx.rank)
    plan: dict[int, int] = {}
    movable = sorted(db.directory.local_vertices(ctx))[:surplus]
    cursor = my_pos  # stagger starting deficit per overloaded rank
    for vid in movable:
        for _ in range(len(deficits)):
            r, need = deficits[cursor % len(deficits)]
            if need > 0:
                deficits[cursor % len(deficits)] = (r, need - 1)
                plan[vid] = r
                cursor += 1
                break
            cursor += 1
        else:
            break
    return plan


def plan_offload(
    ctx: RankContext,
    db: GdaDatabase,
    hot_shard: int,
    keep_fraction: float = 0.0,
    window: dict[str, list[int]] | None = None,
) -> dict[int, int]:
    """Spread a hot shard's vertices over the ranks with NIC headroom.

    The remediation the hot-shard detector triggers: unlike
    :func:`plan_balance` (which equalizes *counts*), this deliberately
    empties ``hot_shard`` down to ``keep_fraction`` of its vertices so
    the celebrity keys colocated there stop sharing one NIC.

    Targets are weighted by *measured* NIC headroom rather than
    round-robin: the trace's per-shard access counters
    (:meth:`~repro.rma.trace.TraceRecorder.shard_snapshot`, or the delta
    against an earlier ``window`` snapshot — the detector already holds
    one) give each candidate's observed load in one-sided ops plus moved
    bytes, and the move set is split by largest-remainder shares of
    ``peak_load - load + 1``.  A quiet rank therefore absorbs more of
    the celebrity traffic than one already near its NIC limit, instead
    of each receiving an equal slice.  Only the hot rank's plan is
    non-empty; the move set is deterministic (sorted vertex order).
    """
    if ctx.rank != hot_shard or ctx.nranks < 2:
        return {}
    vids = sorted(db.directory.local_vertices(ctx))
    n_keep = int(len(vids) * keep_fraction)
    movable = vids[n_keep:]
    if not movable:
        return {}
    trace = ctx.rt.trace
    snap = (
        trace.shard_diff(window) if window is not None
        else trace.shard_snapshot()
    )
    # measured per-shard NIC load: one-sided op count, with the moved
    # bytes folded in at cache-line-ish granularity so a byte-heavy but
    # op-light shard still reads as busy
    load = [
        ops + nbytes // 1024
        for ops, nbytes in zip(snap["ops"], snap["bytes"])
    ]
    targets = [r for r in range(ctx.nranks) if r != hot_shard]
    peak = max(load[r] for r in targets)
    headroom = {r: peak - load[r] + 1 for r in targets}
    total = sum(headroom.values())
    # blend a uniform base (half the set, split evenly) with the
    # headroom-proportional half: the skew follows the measurement, but
    # no target is starved or flooded outright when absolute loads are
    # small — flooding one quiet rank would just mint the next hotspot
    quota = {
        r: len(movable) * (0.5 / len(targets) + 0.5 * headroom[r] / total)
        for r in targets
    }
    share = {r: int(quota[r]) for r in targets}
    leftover = len(movable) - sum(share.values())
    for r in sorted(
        targets, key=lambda r: (quota[r] - share[r], -r), reverse=True
    )[:leftover]:
        share[r] += 1
    plan: dict[int, int] = {}
    it = iter(movable)
    for r in sorted(targets, key=lambda r: (-headroom[r], r)):
        for _ in range(share[r]):
            plan[next(it)] = r
    return plan


def _with_heal(ctx: RankContext, db: GdaDatabase, fn):
    """Run ``fn()`` healing through bounded epoch fences.

    A mid-rebalance crash fails the dead rank's shard over; the next
    operation a survivor issues against it is fenced with
    :class:`RmaStaleEpoch`.  The database's heal hook repairs the shard
    from its mirror (single-flight) and adopts the new epoch, after
    which the operation is retried.
    """
    for _ in range(_MAX_HEALS):
        try:
            return fn()
        except RmaStaleEpoch:
            db.heal(ctx)
    return fn()


def _commit_intent(
    ctx: RankContext, db: GdaDatabase, intent: MoveIntent
) -> None:
    """Commit (or replay) one move.  Idempotent per step:

    * the DHT is re-pointed only while it still resolves to the old
      location (or to nothing, after a crash between delete and insert);
    * the directory migration is guarded by the old posting's presence
      (the directory update itself has no crash point: it is a
      control-path structure mutated between RMA operations);
    * explicit-index relocations are internally presence-guarded;
    * deleting the already-deleted old holder is a no-op.
    """
    cur = _with_heal(ctx, db, lambda: db.dht.lookup(ctx, intent.app_id))
    if cur != intent.new_vid:
        if cur is not None:
            _with_heal(ctx, db, lambda: db.dht.delete(ctx, intent.app_id))
        _with_heal(
            ctx, db,
            lambda: db.dht.insert(ctx, intent.app_id, intent.new_vid),
        )
    if db.directory.contains(intent.old_vid):
        db.directory.relocate(
            ctx, intent.old_vid, intent.new_vid, labels=intent.labels
        )
    elif not db.directory.contains(intent.new_vid):
        db.directory.add(ctx, intent.new_vid, labels=intent.labels)
    for idx in db.indexes.values():
        idx.relocate(ctx, intent.old_vid, intent.new_vid)
    for eidx in db.edge_indexes.values():
        eidx.relocate(ctx, intent.old_vid, intent.new_vid)

    def _delete_old() -> None:
        stored = db.storage.read_many(
            ctx, [intent.old_vid], missing_ok=True
        )[0]
        if stored is not None and stored.holder.app_id == intent.app_id:
            db.storage.delete(ctx, stored)

    _with_heal(ctx, db, _delete_old)


def rebalance(
    ctx: RankContext,
    db: GdaDatabase,
    plan: dict[int, int] | None = None,
) -> dict[int, int]:
    """Collectively move vertices per ``plan`` (default: balance shards).

    Returns the global ``{old_vid: new_vid}`` mapping.  Must run with no
    open transactions; see the module docstring for the crash-safety
    phases and their failure semantics.
    """
    if plan is None:
        plan = plan_balance(ctx, db)
    mem = getattr(ctx.rt, "membership", None)

    # -- phase 1: prepare (copy holders; nothing authoritative moves) ----
    intents: list[MoveIntent] = []
    for old_vid, target in sorted(plan.items()):
        if unpack_dptr(old_vid).rank != ctx.rank:
            continue  # only the owner moves a vertex
        if target == ctx.rank:
            continue
        stored = db.storage.read(ctx, old_vid)
        primary = db.blocks.acquire_block(ctx, target)
        if primary is None:
            continue  # target shard full: skip the move
        new_stored = type(stored)(
            holder=stored.holder,
            primary=primary,
            # the MVCC version rides along: a snapshot reader validating
            # the relocated holder must see the same commit stamp
            version=stored.version,
        )
        db.storage.rewrite(ctx, new_stored)
        intents.append(
            MoveIntent(
                old_vid=old_vid,
                new_vid=primary,
                app_id=stored.holder.app_id,
                labels=list(stored.holder.labels),
            )
        )

    # -- phase 2: vote (publish intents; survivors learn what's in flight)
    voted = ctx.allgather((ctx.rank, intents))
    all_intents: dict[int, list[MoveIntent]] = {r: i for r, i in voted}

    # -- phase 3: commit own intents, then complete any dead rank's ------
    for intent in intents:
        _commit_intent(ctx, db, intent)
    done = ctx.allgather(ctx.rank)
    survivors = sorted(done)
    if len(survivors) < len(all_intents) and ctx.rank == survivors[0]:
        # a rank that voted died mid-commit: replay its intents (each
        # step is idempotent, so partially committed moves complete)
        for dead_rank in sorted(set(all_intents) - set(survivors)):
            for intent in all_intents[dead_rank]:
                _with_heal(
                    ctx, db, lambda i=intent: _commit_intent(ctx, db, i)
                )
    ctx.barrier()

    # -- phase 4: patch references over every *hosted* shard -------------
    mapping: dict[int, int] = {}
    for part in all_intents.values():
        for intent in part:
            mapping[intent.old_vid] = intent.new_vid
    if mapping:
        _patch_references(ctx, db, mapping)
    ctx.barrier()

    # -- publish: stale-DPTR table + epoch fence --------------------------
    if ctx.rank == survivors[0]:
        db.note_relocations(mapping)
        if mem is not None and mapping:
            mem.bump_epoch(fence_all=True)
    ctx.barrier()
    if mem is not None:
        # participants observed the new placement; adopt so only
        # non-participants are fenced
        mem.adopt_epoch(ctx.rank)
    return mapping


def _patch_references(
    ctx: RankContext, db: GdaDatabase, mapping: dict[int, int]
) -> None:
    """Rewrite edge slots and edge-holder endpoints naming moved vertices.

    Walks every shard this rank *hosts* — after a mid-rebalance failover
    the backup patches its adopted ward too, so no edge referencing a
    moved vertex survives unpatched.
    """
    mem = getattr(ctx.rt, "membership", None)
    if mem is not None:
        hosted = mem.shards_of(ctx.rank)
        vids: list[int] = []
        for shard in hosted:
            vids.extend(db.directory.shard_vertices(ctx, shard))
    else:
        vids = db.directory.local_vertices(ctx)
    for vid in vids:
        def _patch_one(vid=vid) -> None:
            stored = db.storage.read_many(ctx, [vid], missing_ok=True)[0]
            if stored is None:
                return
            holder = stored.holder
            slots = np.frombuffer(holder._slot_buf, dtype=SLOT_DTYPE).copy()
            heavy = (slots["flags"] & SLOT_HEAVY) != 0
            for eptr in slots["dptr"][heavy].tolist():
                eh_stored = db.storage.read(ctx, eptr)
                eh = eh_stored.holder
                if eh.kind != KIND_EDGE:
                    continue
                patched = False
                if eh.src in mapping:
                    eh.src = mapping[eh.src]
                    patched = True
                if eh.dst in mapping:
                    eh.dst = mapping[eh.dst]
                    patched = True
                if patched:
                    db.storage.rewrite(ctx, eh_stored)
            dptr = slots["dptr"]  # a view: writes land in ``slots``
            moved = ~heavy & np.isin(dptr, list(mapping))
            if moved.any():
                dptr[moved] = [mapping[d] for d in dptr[moved].tolist()]
                holder._slot_buf = slots.tobytes()
                db.storage.rewrite(ctx, stored)

        _with_heal(ctx, db, _patch_one)
