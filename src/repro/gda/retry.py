"""Automatic transaction restart with seeded exponential backoff.

GDI's transaction-critical errors guarantee the enclosing transaction
fails; the prescribed user reaction is "abort and start a new
transaction" (Section 3.3).  :func:`run_transaction` packages that loop:
it runs a transaction body, and on a transaction-critical error (or an
RMA transient fault that escaped the substrate's own per-op retries)
aborts, charges a seeded exponential backoff to the rank's simulated
clock, and restarts — turning the paper's "failed transactions" into
automatic restarts with bounded attempts.

Backoff is pure simulated time (``ctx.charge``): no extra one-sided
operations are issued, so work-depth accounting of the transaction
protocol is unchanged.  Restarts are counted in
``db.stats[rank].restarts`` and the delay in the trace's per-rank
``backoff_time``.

Collective transactions can only be retried when *every* participant
fails symmetrically (all ranks observe the error and re-enter
``run_transaction``'s next attempt together); asymmetric failures poison
the collective engine and propagate.  Rank crashes
(:class:`~repro.rma.faults.RmaRankDead`) are never retried — they require
:mod:`repro.gda.recovery`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from ..gdi.errors import GdiTransactionCritical
from ..rma.faults import RmaStaleEpoch, RmaTransientError, backoff_delay
from ..rma.runtime import RankContext

if TYPE_CHECKING:  # pragma: no cover
    from .database_impl import GdaDatabase
    from .transaction_impl import Transaction

__all__ = ["RetryPolicy", "RetryDeadlineExceeded", "run_transaction"]


class RetryDeadlineExceeded(RuntimeError):
    """The retry loop ran out of wall-clock budget before succeeding.

    Deliberately *not* a :class:`~repro.gdi.errors.GdiTransactionCritical`
    (nor an :class:`~repro.rma.faults.RmaTransientError`): an enclosing
    retry loop must treat an exhausted deadline as terminal, never as one
    more retryable abort.  The failure that exhausted the budget is
    attached as ``last_error`` (and as ``__cause__``), together with the
    elapsed simulated time and the number of attempts made.
    """

    def __init__(
        self,
        deadline: float,
        elapsed: float,
        attempts: int,
        last_error: BaseException,
    ) -> None:
        super().__init__(
            f"transaction deadline of {deadline:.3g}s exhausted after "
            f"{attempts} attempt(s) ({elapsed:.3g}s elapsed); "
            f"last error: {last_error!r}"
        )
        self.deadline = deadline
        self.elapsed = elapsed
        self.attempts = attempts
        self.last_error = last_error


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently to restart failed transactions.

    ``deadline`` is a total wall-clock budget in simulated seconds,
    measured on the rank's clock from entry to :func:`run_transaction`
    across *all* attempts and backoffs (``None`` keeps the legacy
    attempts-only behavior).  The first attempt always runs; once a
    restart — including the backoff it would charge — can no longer
    finish within the budget, the loop stops and raises
    :class:`RetryDeadlineExceeded` wrapping the last failure instead of
    overshooting the caller's latency budget.
    """

    max_attempts: int = 8
    backoff_base: float = 5e-6
    backoff_factor: float = 2.0
    backoff_cap: float = 500e-6
    seed: int = 0
    deadline: float | None = None


def run_transaction(
    ctx: RankContext,
    db: "GdaDatabase",
    fn: "Callable[[Transaction], Any]",
    *,
    write: bool = True,
    collective: bool = False,
    snapshot: bool = False,
    policy: RetryPolicy | None = None,
) -> Any:
    """Run ``fn(tx)`` in a transaction, retrying aborts with backoff.

    ``fn`` receives an open transaction, performs its operations, and
    returns a value; the transaction is committed afterwards (unless
    ``fn`` already closed it).  On :class:`GdiTransactionCritical` or
    :class:`~repro.rma.faults.RmaTransientError` the transaction is
    aborted and restarted up to ``policy.max_attempts`` times; the last
    failure is re-raised.  ``fn`` must be safe to re-execute from scratch
    (apply external side effects only after this function returns).
    """
    policy = policy or RetryPolicy()
    if policy.max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    stats = db.stats[ctx.rank]
    t0 = ctx.clock
    for attempt in range(policy.max_attempts):
        kwargs = {"write": write}
        if snapshot:
            # only forwarded when set, so duck-typed stand-in databases
            # that take no ``snapshot`` keep working
            kwargs["snapshot"] = True
        if collective:
            tx = db.start_collective_transaction(ctx, **kwargs)
        else:
            tx = db.start_transaction(ctx, **kwargs)
        try:
            out = fn(tx)
            if tx.open:
                tx.commit()
            return out
        except (GdiTransactionCritical, RmaTransientError) as exc:
            if tx.open:
                if isinstance(exc, RmaTransientError) and not tx.failed:
                    tx._fail("rma")
                try:
                    tx.abort()
                except RmaTransientError:
                    # The abort itself raced a reconfiguration; the heal
                    # below (or the failover repair) reclaims its state.
                    tx.open = False
            if isinstance(exc, RmaStaleEpoch):
                # Fenced by a failover: repair the failed shard from its
                # block mirrors before retrying against the new view.
                heal = getattr(db, "heal", None)
                if heal is not None:
                    heal(ctx)
            if attempt + 1 >= policy.max_attempts:
                raise
            delay = backoff_delay(
                policy.backoff_base,
                attempt,
                cap=policy.backoff_cap,
                factor=policy.backoff_factor,
                seed=policy.seed,
                token=(ctx.rank << 20) ^ stats.started,
            )
            if policy.deadline is not None:
                elapsed = ctx.clock - t0
                if elapsed + delay >= policy.deadline:
                    # a restart could not finish in time: abort now
                    # instead of burning backoff past the caller's budget
                    raise RetryDeadlineExceeded(
                        policy.deadline, elapsed, attempt + 1, exc
                    ) from exc
            stats.restarts += 1
            ctx.charge(delay)
            ctx.rt.trace.record_backoff(ctx.rank, delay)
    raise AssertionError("unreachable")  # pragma: no cover
