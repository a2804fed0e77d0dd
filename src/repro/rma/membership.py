"""Cluster membership, failure detection, and epoch fencing.

The paper's RDMA substrate is explicitly non-fault-tolerant (Section 8
names fault-tolerance extensions as future work); production systems in
its related-work set (A1, Microsoft) survive machine failures with
replicated in-memory state and online failover.  This module supplies the
substrate half of that story:

* a **seeded heartbeat/timeout failure detector** — every one-sided
  operation doubles as a heartbeat of its issuing rank (there is no
  out-of-band messaging in an RMA-only machine), and a rank whose last
  heartbeat is older than ``heartbeat_timeout`` on an observer's
  simulated clock becomes *suspected*.  Suspicion alone never fences: in
  the simulation a suspect is only confirmed dead against the fault
  injector's ground truth, which models a perfect failure detector after
  the timeout (no false positives, matching the single-crash failure
  model documented in DESIGN.md).  Operation failure against a crashed
  rank is the second, immediate evidence channel.
* a **membership view with monotonically increasing epochs** — the view
  maps logical *shards* (the rank-indexed slices of every window) to the
  physical host currently serving them.  A crash moves the dead rank's
  shard to its deterministic backup ``(shard + 1) % nranks`` and bumps
  the epoch; finishing the repair bumps it again.  Every issuing rank
  carries an adopted epoch; an operation whose issuer epoch predates a
  shard's rehosting is **fenced** (the injector raises
  :class:`~repro.rma.faults.RmaStaleEpoch`) exactly once, after which the
  issuer adopts the current epoch and retries against the new view.

The membership object is pure shared state plus transitions; *raising*
fencing errors is the :class:`~repro.rma.faults.FaultInjector`'s job, and
*rebuilding* a failed shard's bytes is the GDA layer's
(:mod:`repro.gda.replication`).  Shard lifecycle::

    NORMAL --crash detected--> FAILED --begin_repair--> REPAIRING
           --finish_repair--> REHOSTED        (serviceable again)

While a shard is FAILED or REPAIRING, only the repairing rank may touch
it; everyone else is fenced and must call the database's ``heal`` hook
(single-flight) before retrying; a healer that finds another rank's repair
in flight parks (:mod:`repro.rma.parking`) until it finishes or aborts.
"""

from __future__ import annotations

from .parking import Parking

__all__ = [
    "SHARD_NORMAL",
    "SHARD_FAILED",
    "SHARD_REPAIRING",
    "SHARD_REHOSTED",
    "ClusterMembership",
    "STABLE",
]

SHARD_NORMAL = "normal"
SHARD_FAILED = "failed"
SHARD_REPAIRING = "repairing"
SHARD_REHOSTED = "rehosted"


class _Stable:
    """The membership of a cluster that never reconfigures: what a reader
    of epochs sees when no view is armed."""

    epoch = 0

    @staticmethod
    def rebuilt_since(shard: int, epoch: int) -> bool:
        return False


#: the one :class:`_Stable` view
STABLE = _Stable()


class ClusterMembership:
    """Shared membership view of one simulated machine.

    Parameters
    ----------
    nranks:
        Number of ranks (= number of logical shards).
    heartbeat_timeout:
        Simulated seconds without a heartbeat after which a rank becomes
        suspected (and, confirmed against the injector's ground truth,
        declared failed even if nobody ever targets its shard).
    """

    def __init__(self, nranks: int, heartbeat_timeout: float = 1e-3) -> None:
        self.nranks = nranks
        self.heartbeat_timeout = heartbeat_timeout
        self.epoch = 0
        self.live: set[int] = set(range(nranks))
        #: shard -> physical host rank (identity until a failover)
        self.host = list(range(nranks))
        self.state = [SHARD_NORMAL] * nranks
        #: epoch at which each shard was last rehosted (0 = never)
        self.rehosted_at = [0] * nranks
        #: shard -> rank currently repairing it (None outside repair)
        self.repairer: list[int | None] = [None] * nranks
        #: per-issuer adopted epoch ("the epoch every op carries")
        self.issuer_epoch = [0] * nranks
        self.last_heartbeat = [0.0] * nranks
        self._healers = Parking()
        self._lock = self._healers.cond

    # -- failure detector --------------------------------------------------
    def heartbeat(self, rank: int, clock: float) -> None:
        """Record rank activity; every one-sided op is a heartbeat."""
        if clock > self.last_heartbeat[rank]:
            self.last_heartbeat[rank] = clock

    def suspects(self, now: float) -> list[int]:
        """Live ranks whose last heartbeat is older than the timeout."""
        return [
            r
            for r in range(self.nranks)
            if r in self.live
            and now - self.last_heartbeat[r] > self.heartbeat_timeout
        ]

    # -- view queries ------------------------------------------------------
    def backup_of(self, shard: int) -> int:
        """Deterministic backup host of ``shard``: ``(shard + 1) % P``."""
        return (shard + 1) % self.nranks

    def host_of(self, shard: int) -> int:
        """Physical rank currently serving ``shard`` (translation table)."""
        return self.host[shard]

    def shards_of(self, rank: int) -> list[int]:
        """All shards ``rank`` currently hosts (own shard + adopted wards)."""
        return [s for s in range(self.nranks) if self.host[s] == rank]

    def shard_state(self, shard: int) -> str:
        return self.state[shard]

    def rebuilt_since(self, shard: int, epoch: int) -> bool:
        """Has ``shard`` failed or been rebuilt since ``epoch``?  A repair
        rebuilds its lock words from zero, so a word taken before it holds
        nothing of ours any more."""
        return (
            self.state[shard] in (SHARD_FAILED, SHARD_REPAIRING)
            or self.rehosted_at[shard] > epoch
        )

    def serviceable(self, shard: int, origin: int) -> bool:
        """May ``origin`` issue operations against ``shard`` right now?"""
        st = self.state[shard]
        if st in (SHARD_NORMAL, SHARD_REHOSTED):
            return True
        if st == SHARD_REPAIRING:
            return self.repairer[shard] == origin
        return False  # FAILED: nobody until a repair begins

    # -- view transitions --------------------------------------------------
    def note_failure(self, rank: int) -> bool:
        """Declare ``rank`` dead and fail its shard over to the backup.

        Returns True if a failover was initiated (now or previously) —
        i.e. the shard has a live backup and degraded service is
        possible; False if the backup is dead too (concurrent
        primary+backup crash: availability is lost and callers fall back
        to checkpoint recovery).  Idempotent; the epoch bumps only on the
        first declaration.
        """
        with self._lock:
            if self.state[rank] != SHARD_NORMAL:
                return True  # already failed over / repaired
            backup = self.backup_of(rank)
            if backup not in self.live or backup == rank:
                return False
            self.live.discard(rank)
            self.state[rank] = SHARD_FAILED
            self.host[rank] = backup
            self.epoch += 1
            return True

    def begin_repair(self, shard: int, rank: int) -> bool:
        """Claim the repair of ``shard`` for ``rank`` (single-flight).

        Returns True if this rank won the claim (it must now rebuild the
        shard and call :meth:`finish_repair`); False if the shard is not
        in FAILED state (already repaired, being repaired, or healthy).
        """
        with self._lock:
            if self.state[shard] != SHARD_FAILED:
                return False
            self.state[shard] = SHARD_REPAIRING
            self.repairer[shard] = rank
            return True

    def abort_repair(self, shard: int) -> None:
        """Return a failed repair's shard to FAILED so another attempt (or
        a fallback to checkpoint recovery) can proceed."""
        with self._lock:
            if self.state[shard] == SHARD_REPAIRING:
                self.state[shard] = SHARD_FAILED
                self.repairer[shard] = None
            self._healers.release()

    def finish_repair(self, shard: int) -> None:
        """Publish the rebuilt shard: serviceable again, epoch bumped."""
        with self._lock:
            self.state[shard] = SHARD_REHOSTED
            self.repairer[shard] = None
            self.epoch += 1
            self.rehosted_at[shard] = self.epoch
            self._healers.release()

    def await_repairs(self, scheduler, rank: int) -> None:
        """Park ``rank`` until no shard is being repaired."""
        with self._lock:
            self._healers.wait(
                scheduler, rank, lambda: SHARD_REPAIRING not in self.state
            )

    # -- planned reconfiguration (rebalance) -------------------------------
    def bump_epoch(self) -> int:
        """Advance the epoch for a *planned* reconfiguration (rebalance).

        Unlike a crash failover, a rebalance changes where *vertices*
        live without moving any shard to a different host, so the
        translation table is untouched.  Every shard's ``rehosted_at`` is
        stamped with the new epoch: each issuer's next
        operation against *any* shard fails the :meth:`check_epoch` fence
        exactly once (:class:`~repro.rma.faults.RmaStaleEpoch`), forcing
        it through the database's heal hook where it drops stale DPTR
        caches and adopts the new placement.  Returns the new epoch.
        """
        with self._lock:
            self.epoch += 1
            self.rehosted_at[:] = [self.epoch] * self.nranks
            return self.epoch

    # -- epoch fencing -----------------------------------------------------
    def check_epoch(self, origin: int, shard: int) -> bool:
        """Fence check: is ``origin``'s adopted epoch current for ``shard``?

        Returns True if the op may proceed.  Returns False exactly once
        per (issuer, reconfiguration): the issuer's epoch is stale, it
        adopts the current epoch as a side effect, and the caller raises
        :class:`~repro.rma.faults.RmaStaleEpoch` so the retry machinery
        re-issues against the new view.
        """
        with self._lock:
            if self.issuer_epoch[origin] >= self.rehosted_at[shard]:
                return True
            self.issuer_epoch[origin] = self.epoch
            return False

    def adopt_epoch(self, origin: int) -> None:
        """Explicitly adopt the current epoch (after a heal)."""
        with self._lock:
            self.issuer_epoch[origin] = self.epoch

    def failed_shards(self) -> list[int]:
        """Shards awaiting repair (FAILED state)."""
        return [s for s in range(self.nranks) if self.state[s] == SHARD_FAILED]

    def degraded(self) -> bool:
        """True once any failover has happened (epoch ever bumped)."""
        return self.epoch > 0

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            f"<ClusterMembership epoch={self.epoch} live={sorted(self.live)} "
            f"states={self.state}>"
        )
