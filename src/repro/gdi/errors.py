"""GDI exception hierarchy, mirroring the spec's error-code classes.

GDI distinguishes *transaction-critical* errors (the transaction is
guaranteed to fail and must be restarted by the user) from non-critical
ones (Section 3.3).  The Python binding expresses this distinction in the
class hierarchy so callers can ``except GdiTransactionCritical``.
"""

from __future__ import annotations

from .constants import ErrorCode

__all__ = [
    "GdiError",
    "GdiInvalidArgument",
    "GdiNotFound",
    "GdiStaleDptr",
    "GdiObjectMismatch",
    "GdiStateError",
    "GdiNoMemory",
    "GdiTransactionCritical",
    "GdiLockFailed",
    "GdiStaleMetadata",
    "GdiReadOnly",
    "GdiNonUniqueId",
    "GdiSizeLimit",
    "GdiChecksumError",
]


class GdiError(Exception):
    """Base of all GDI errors; carries the spec error code."""

    code: ErrorCode = ErrorCode.ERROR_STATE


class GdiInvalidArgument(GdiError):
    code = ErrorCode.ERROR_ARGUMENT


class GdiNotFound(GdiError):
    code = ErrorCode.ERROR_NOT_FOUND


class GdiStaleDptr(GdiNotFound):
    """A permanent internal ID (DPTR) predates a vertex relocation.

    Raised instead of a bare :class:`GdiNotFound` when the database can
    prove the ID named a vertex that a rebalance has since moved: the
    DPTR is not merely unknown, it points at a block the vertex vacated.
    Reading through it silently would return the wrong shard's bytes —
    the stale-DPTR hazard of paper Section 3.4, and the reason users who
    want relocation choose *volatile* internal IDs.  ``fresh_vid``
    carries the post-move ID when the relocation table still remembers
    it, so resolvable callers can heal instead of aborting.
    """

    code = ErrorCode.ERROR_NOT_FOUND

    def __init__(self, message: str, fresh_vid: int | None = None) -> None:
        super().__init__(message)
        self.fresh_vid = fresh_vid


class GdiObjectMismatch(GdiError):
    """A handle was used with an object of the wrong type or database."""

    code = ErrorCode.ERROR_OBJECT_MISMATCH


class GdiStateError(GdiError):
    """Operation invalid in the current state (e.g. closed transaction)."""

    code = ErrorCode.ERROR_STATE


class GdiTransactionCritical(GdiError):
    """The enclosing transaction is guaranteed to fail.

    Per the spec there is no recovery: the user aborts and starts a new
    transaction.  The high-level workload drivers count these as the
    "failed transactions" percentages of the paper's Figure 4.
    """

    code = ErrorCode.ERROR_TRANSACTION_CRITICAL


class GdiLockFailed(GdiTransactionCritical):
    """A reader-writer lock could not be obtained in the retry budget."""

    code = ErrorCode.ERROR_LOCK_FAILED


class GdiNoMemory(GdiTransactionCritical):
    """Storage exhausted (no free blocks) or a holder exceeds the block
    addressing capacity.  Transaction-critical: the enclosing transaction
    cannot complete and must be aborted."""

    code = ErrorCode.ERROR_NO_MEMORY


class GdiStaleMetadata(GdiTransactionCritical):
    """Graph data referenced metadata this process has not yet synced.

    This is the abort path required by GDI's eventual consistency for
    metadata (Section 3.8).
    """

    code = ErrorCode.ERROR_STALE_METADATA


class GdiReadOnly(GdiTransactionCritical):
    """A mutation was attempted inside a read-only transaction."""

    code = ErrorCode.ERROR_READ_ONLY


class GdiNonUniqueId(GdiTransactionCritical):
    """An application vertex ID is already present in the database."""

    code = ErrorCode.ERROR_NON_UNIQUE_ID


class GdiSizeLimit(GdiError):
    """A property value violates its declared size type/limit."""

    code = ErrorCode.ERROR_SIZE_LIMIT


class GdiChecksumError(GdiTransactionCritical):
    """A holder payload failed its CRC32 verification.

    Raised when the checksum stored in a holder header does not match the
    payload read back from the block store (silent corruption), or when a
    mirrored block fails verification during failover promotion.
    Transaction-critical: retrying re-reads the same corrupt bytes, so the
    transaction cannot complete; recovery requires restoring the affected
    shard from its replica or a checkpoint.
    """

    code = ErrorCode.ERROR_STATE
