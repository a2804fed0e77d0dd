"""Operation counters and optional op-level tracing for the RMA substrate.

Every one-sided operation and collective increments per-rank counters.
Benchmarks use these to report message/byte volumes alongside simulated
time, and the work-depth tests (``tests/gda/test_workdepth.py``) assert
that GDA routines issue the operation counts the paper's analysis promises.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["RankCounters", "TraceRecorder"]


@dataclass
class RankCounters:
    """Communication counters of a single rank."""

    puts: int = 0
    gets: int = 0
    atomics: int = 0
    flushes: int = 0
    collectives: int = 0
    bytes_put: int = 0
    bytes_got: int = 0
    remote_ops: int = 0
    local_ops: int = 0
    #: batched-operation accounting (doorbell coalescing): ``batches`` counts
    #: batch calls, ``batched_ops`` the logical operations inside them,
    #: ``msgs_saved`` how many network messages coalescing removed
    #: (ops minus distinct targets), ``bytes_batched`` the payload moved
    #: through batch calls.
    batches: int = 0
    batched_ops: int = 0
    msgs_saved: int = 0
    bytes_batched: int = 0
    #: fault-injection accounting (:mod:`repro.rma.faults`):
    #: ``faults_injected`` counts injected transient failures,
    #: ``op_retries`` the substrate-level retries that absorbed them,
    #: ``backoff_time`` the total seeded backoff charged (seconds — also
    #: fed by lock and transaction backoff), ``straggler_time`` the extra
    #: slowdown charged to straggler ranks (seconds).
    faults_injected: int = 0
    op_retries: int = 0
    backoff_time: float = 0.0
    straggler_time: float = 0.0
    #: availability-layer accounting (:mod:`repro.rma.membership`,
    #: :mod:`repro.gda.replication`): ``mirrored_blocks``/``mirrored_bytes``
    #: count primary-backup block replication traffic, ``epoch_fences`` the
    #: stale-epoch rejections, ``corruptions_injected``/``corruptions_detected``
    #: the bit-flip faults and their CRC32 detections, ``shard_repairs`` the
    #: failover reconstructions this rank performed.
    mirrored_blocks: int = 0
    mirrored_bytes: int = 0
    epoch_fences: int = 0
    corruptions_injected: int = 0
    corruptions_detected: int = 0
    shard_repairs: int = 0
    #: query-layer accounting (:mod:`repro.query.engine`): a cache *hit*
    #: re-executes a previously built physical plan, skipping parse+plan;
    #: ``plan_cache_evictions`` counts LRU evictions from the bounded
    #: plan cache.
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    plan_cache_evictions: int = 0
    #: traffic-layer accounting (:mod:`repro.traffic`): ``congestion_time``
    #: is the receiver-queueing delay charged to this rank's one-sided ops
    #: when the profile enables ``congestion_feedback`` (a hot target NIC
    #: backs up its issuers); ``lock_conflicts`` counts failed lock
    #: acquisition attempts (the word was held), the per-origin side of the
    #: per-shard conflict accounting the hot-shard detector consumes.
    congestion_time: float = 0.0
    lock_conflicts: int = 0
    #: MVCC accounting (:mod:`repro.mvcc`): ``snapshot_reads`` counts
    #: holder reads served to snapshot transactions without touching lock
    #: words, and ``versions_installed`` the pre-image chain entries
    #: written at commit write-back.
    snapshot_reads: int = 0
    versions_installed: int = 0

    @property
    def total_ops(self) -> int:
        return self.puts + self.gets + self.atomics

    def snapshot(self) -> dict[str, int]:
        """Every counter field by name, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def diff(self, earlier: dict[str, int]) -> dict[str, int]:
        """Counter deltas relative to an earlier :meth:`snapshot`."""
        now = self.snapshot()
        return {k: now[k] - earlier.get(k, 0) for k in now}


@dataclass
class TraceRecorder:
    """Aggregates counters for all ranks; optionally logs each operation.

    Keeping a full op log is expensive, so it is off by default and only
    enabled by tests that assert on exact operation sequences.
    """

    nranks: int
    log_ops: bool = False
    counters: list[RankCounters] = field(default_factory=list)
    ops: list[tuple] = field(default_factory=list)
    #: per-*target-shard* access accounting (hot-shard detection): how
    #: many one-sided operations, payload bytes, and lock-acquisition
    #: conflicts landed on each shard, regardless of which rank issued
    #: them.  Kept outside :class:`RankCounters` because they are indexed
    #: by target, not origin.
    shard_ops: list[int] = field(default_factory=list)
    shard_bytes: list[int] = field(default_factory=list)
    shard_conflicts: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.counters:
            self.counters = [RankCounters() for _ in range(self.nranks)]
        if not self.shard_ops:
            self.shard_ops = [0] * self.nranks
            self.shard_bytes = [0] * self.nranks
            self.shard_conflicts = [0] * self.nranks

    def record(
        self,
        kind: str,
        origin: int,
        target: int,
        window: str,
        offset: int,
        nbytes: int,
        count: int = 1,
    ) -> None:
        """Account ``count`` events at the origin, not messages:
        ``"flush"`` or ``"collective"`` (issued verbs are counted by
        :meth:`_record_issue`)."""
        if self.log_ops:
            self.ops.append((kind, origin, target, window, offset, nbytes))
        if kind == "flush":
            self.counters[origin].flushes += count
        else:
            self.counters[origin].collectives += count

    def _record_issue(
        self, kind: str, origin: int, msgs, batched_ops: int = 0
    ) -> None:
        """Counters of one issued verb in one call: its coalesced
        messages, ``(target, payload bytes, element count)`` each, and —
        for a plural verb — one batch call that coalesced
        ``batched_ops`` logical operations into those messages."""
        c = self.counters[origin]
        shard_ops, shard_bytes = self.shard_ops, self.shard_bytes
        total = 0
        for target, nbytes, count in msgs:
            if kind == "get":
                c.gets += count
                c.bytes_got += nbytes
            elif kind == "put":
                c.puts += count
                c.bytes_put += nbytes
            else:
                c.atomics += count
            if origin == target:
                c.local_ops += count
            else:
                c.remote_ops += count
            shard_ops[target] += count
            shard_bytes[target] += nbytes
            total += nbytes
        if batched_ops:
            c.batches += 1
            c.batched_ops += batched_ops
            c.msgs_saved += batched_ops - len(msgs)
            c.bytes_batched += total

    # -- fault-injection accounting ---------------------------------------
    def record_fault(self, origin: int) -> None:
        """Account one injected transient failure at ``origin``."""
        self.counters[origin].faults_injected += 1

    def record_retry(self, origin: int) -> None:
        """Account one substrate-level retry of a faulted operation."""
        self.counters[origin].op_retries += 1

    def record_backoff(self, origin: int, seconds: float) -> None:
        """Account ``seconds`` of seeded backoff charged to ``origin``."""
        self.counters[origin].backoff_time += seconds

    def record_straggler(self, origin: int, seconds: float) -> None:
        """Account ``seconds`` of straggler slowdown charged to ``origin``."""
        self.counters[origin].straggler_time += seconds

    # -- availability-layer accounting -------------------------------------
    def record_mirror(self, origin: int, nblocks: int, nbytes: int) -> None:
        """Account ``nblocks`` blocks (``nbytes`` payload) mirrored to a backup."""
        c = self.counters[origin]
        c.mirrored_blocks += nblocks
        c.mirrored_bytes += nbytes

    def record_fence(self, origin: int) -> None:
        """Account one stale-epoch fence rejection at ``origin``."""
        self.counters[origin].epoch_fences += 1

    def record_corruption(self, rank: int) -> None:
        """Account one injected bit-flip in ``rank``'s memory."""
        self.counters[rank].corruptions_injected += 1

    def record_corruption_detected(self, origin: int) -> None:
        """Account one CRC32 checksum mismatch detected by ``origin``."""
        self.counters[origin].corruptions_detected += 1

    def record_repair(self, origin: int) -> None:
        """Account one failover shard reconstruction performed by ``origin``."""
        self.counters[origin].shard_repairs += 1

    # -- query-layer accounting --------------------------------------------
    def record_plan_cache(self, origin: int, hit: bool) -> None:
        """Account one plan-cache lookup by the query engine at ``origin``."""
        c = self.counters[origin]
        if hit:
            c.plan_cache_hits += 1
        else:
            c.plan_cache_misses += 1

    def record_plan_cache_eviction(self, origin: int) -> None:
        """Account one LRU eviction from the bounded plan cache."""
        self.counters[origin].plan_cache_evictions += 1

    # -- traffic-layer accounting ------------------------------------------
    def record_congestion(self, origin: int, seconds: float) -> None:
        """Account receiver-queueing delay charged to ``origin``'s op."""
        self.counters[origin].congestion_time += seconds

    def record_lock_conflict(self, origin: int, shard: int) -> None:
        """Account one failed lock attempt by ``origin`` on ``shard``."""
        self.counters[origin].lock_conflicts += 1
        self.shard_conflicts[shard] += 1

    # -- MVCC accounting ----------------------------------------------------
    def record_snapshot_read(self, origin: int, n: int = 1) -> None:
        """Account ``n`` holder reads served through a snapshot watermark."""
        self.counters[origin].snapshot_reads += n

    def record_versions_installed(self, origin: int, n: int = 1) -> None:
        """Account ``n`` pre-image versions installed at commit write-back."""
        self.counters[origin].versions_installed += n

    def shard_snapshot(self) -> dict[str, list[int]]:
        """Copy of the per-target-shard access counters (detector input)."""
        return {
            "ops": list(self.shard_ops),
            "bytes": list(self.shard_bytes),
            "conflicts": list(self.shard_conflicts),
        }

    def shard_diff(
        self, earlier: dict[str, list[int]]
    ) -> dict[str, list[int]]:
        """Per-shard counter deltas relative to an earlier
        :meth:`shard_snapshot` (one detection window)."""
        now = self.shard_snapshot()
        return {
            k: [a - b for a, b in zip(now[k], earlier[k])] for k in now
        }

    # -- aggregation ------------------------------------------------------
    def total(self, field_name: str) -> int:
        return sum(getattr(c, field_name) for c in self.counters)

    def summary(self) -> dict[str, int]:
        snaps = [c.snapshot() for c in self.counters]
        keys = snaps[0] if snaps else ()
        return {k: sum(s[k] for s in snaps) for k in keys}

    def reset(self) -> None:
        self.counters = [RankCounters() for _ in range(self.nranks)]
        self.ops = []
        self.shard_ops = [0] * self.nranks
        self.shard_bytes = [0] * self.nranks
        self.shard_conflicts = [0] * self.nranks
