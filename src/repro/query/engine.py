"""The :class:`QueryEngine` facade: plan cache, EXPLAIN/PROFILE, execution.

``run()`` is the single entry point: parse → plan → execute inside one
GDI transaction (the caller's, when it passes one: a collective one
makes the call collective).  Parsed-and-planned queries are cached
keyed on the whitespace-normalized query text plus a fingerprint of the
database's index set, so re-executing a query skips both parse and plan
entirely — cache hits/misses are recorded per rank in the RMA trace
recorder (``plan_cache_hits`` / ``plan_cache_misses``), which is how
benchmarks verify that the cache engages.

Cache entries carry the vertex-directory version they were planned
against.  Staleness never affects correctness (every operator
re-validates fetched data against its constraints), but when the
version has moved the entry is *revalidated* with
:func:`~repro.query.planner.plan_is_current`: if current statistics
would still choose the same scan access paths the entry is refreshed in
place (a hit); if an access path flipped — an index overtaking a label
sweep, a label histogram inversion — the query is re-planned (a miss).
Creating or dropping an index changes the fingerprint and naturally
re-plans.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from .errors import QueryError, QueryPlanError
from .logical import LogicalPlan
from .parser import parse_query
from .physical import ExecState, execute_plan
from .planner import plan_is_current, plan_query

__all__ = ["QueryEngine", "QueryResult"]


@dataclass
class QueryResult:
    """Outcome of one query execution."""

    columns: tuple[str, ...]
    rows: list[tuple]
    stats: dict = field(default_factory=dict)
    plan: LogicalPlan | None = None
    #: EXPLAIN/PROFILE rendering (None for plain runs)
    plan_text: str | None = None

    def scalar(self):
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise QueryPlanError(
                f"expected a 1x1 result, got {len(self.rows)} row(s)"
            )
        return self.rows[0][0]


#: default LRU bound of the plan cache: generous for any benchmark's
#: working set of distinct query texts, yet a hard ceiling so a
#: many-tenant serving workload with diverse text cannot grow the
#: engine's memory without limit.
DEFAULT_PLAN_CACHE_ENTRIES = 256


class QueryEngine:
    """Cypher-lite query engine over one GDA database.

    One engine may be shared by all ranks of a simulation (its plan
    cache is guarded by a lock); per-execution state lives in the
    transaction, never in the engine.

    The plan cache is an LRU bounded to ``max_cache_entries``: lookups
    and refreshes touch the entry, inserts beyond the bound evict the
    least-recently-used plan (counted per rank as
    ``plan_cache_evictions`` in the trace recorder).
    """

    def __init__(
        self, db, max_cache_entries: int = DEFAULT_PLAN_CACHE_ENTRIES
    ) -> None:
        if max_cache_entries < 1:
            raise ValueError("max_cache_entries must be >= 1")
        self.db = db
        self.max_cache_entries = max_cache_entries
        #: cache key -> (plan, directory version it was validated against),
        #: in least-recently-used-first order
        self._cache: OrderedDict[tuple, tuple[LogicalPlan, int]] = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    @classmethod
    def of(cls, db) -> "QueryEngine":
        """The engine of ``db`` that library callers without their own
        share (one plan cache per database, kept on the database)."""
        return vars(db).get("_query_engine") or vars(db).setdefault("_query_engine", cls(db))

    # -- plan cache --------------------------------------------------------
    def _cache_key(self, text: str) -> tuple:
        return (
            " ".join(text.split()),
            tuple(sorted(self.db.indexes)),
            tuple(sorted(self.db.edge_indexes)),
        )

    def _cache_store(self, ctx, key: tuple, value: tuple) -> None:
        """Insert/refresh ``key`` as most-recently-used; evict past the cap."""
        with self._lock:
            self._cache[key] = value
            self._cache.move_to_end(key)
            n_evicted = 0
            while len(self._cache) > self.max_cache_entries:
                self._cache.popitem(last=False)
                n_evicted += 1
        for _ in range(n_evicted):
            ctx.rt.trace.record_plan_cache_eviction(ctx.rank)

    def _get_plan(self, ctx, text: str) -> LogicalPlan:
        key = self._cache_key(text)
        version = self.db.directory.version
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None:
                self._cache.move_to_end(key)
        plan: LogicalPlan | None = None
        if entry is not None:
            plan, seen_version = entry
            if seen_version != version:
                # data moved underneath the plan: keep it only if current
                # statistics would still pick the same scan access paths
                if plan_is_current(self.db, ctx, plan):
                    self._cache_store(ctx, key, (plan, version))
                else:
                    plan = None
        ctx.rt.trace.record_plan_cache(ctx.rank, hit=plan is not None)
        if plan is None:
            plan = plan_query(self.db, ctx, parse_query(text))
            self._cache_store(ctx, key, (plan, version))
        return plan

    def cache_info(self, ctx) -> dict[str, int]:
        """This rank's plan-cache hit/miss/eviction counters + cache size."""
        counters = ctx.rt.trace.counters[ctx.rank]
        with self._lock:
            size = len(self._cache)
        return {
            "hits": counters.plan_cache_hits,
            "misses": counters.plan_cache_misses,
            "entries": size,
            "evictions": counters.plan_cache_evictions,
        }

    # -- entry points ------------------------------------------------------
    def prepare(self, ctx, text: str) -> LogicalPlan:
        """Parse and plan (cached) without executing.

        Callers that wrap execution in their own transaction (the serving
        front-end, retry loops) use the returned plan's ``query.writes``
        to pick the transaction mode before opening it.
        """
        return self._get_plan(ctx, text)

    def explain(self, ctx, text: str) -> str:
        """The EXPLAIN rendering of a query's plan (no execution)."""
        return self._get_plan(ctx, text).explain()

    def run(
        self,
        ctx,
        text: str,
        params: dict | None = None,
        tx=None,
    ) -> QueryResult:
        """Parse, plan (cached), and execute one query.

        Without ``tx`` the engine opens its own transaction (write iff
        the query mutates) and commits it; with ``tx`` the query joins
        the caller's open transaction, which the caller commits — that
        is how :func:`repro.gda.retry.run_transaction` retry loops wrap
        engine queries.

        A collective ``tx`` makes the call collective: every rank passes
        the same read query and gets the same result (see
        :func:`~repro.query.physical.execute_plan`).
        """
        if tx is None or not tx.collective:
            plan = self._get_plan(ctx, text)
        else:  # rank 0's plan for every rank; its errors raise everywhere
            try:
                plan = self._get_plan(ctx, text) if ctx.rank == 0 else None
            except QueryError as exc:
                plan = exc
            plan = ctx.bcast(plan, root=0)
            if isinstance(plan, QueryError):
                raise plan
            if plan.query.writes:
                raise QueryPlanError("a collective transaction runs read queries only")
        query = plan.query
        if query.mode == "explain":
            return QueryResult(
                columns=plan.columns,
                rows=[],
                plan=plan,
                plan_text=plan.explain(),
            )
        profile = query.mode == "profile"
        own_tx = tx is None
        if own_tx:
            # read-only plans ride an MVCC snapshot: lock-free scans at a
            # frozen watermark instead of read-locking every touched
            # vertex (pass a transaction to read under locks)
            tx = self.db.start_transaction(
                ctx, write=query.writes, snapshot=not query.writes
            )
        try:
            ex = ExecState(self.db, ctx, tx, params)
            rows, stats, prof = execute_plan(plan, ex, profile=profile)
            if own_tx:
                tx.commit()
        except BaseException:
            if own_tx and tx.open:
                tx.abort()
            raise
        return QueryResult(
            columns=plan.columns,
            rows=rows,
            stats=stats,
            plan=plan,
            plan_text=plan.explain(prof) if profile else None,
        )
