"""The read view of a transaction: "fetch these ids stably".

Fixed when the transaction starts, a view is one of three things, told
apart by what the transaction already is — never by an option:

* **locking** (local transactions): 2PL — the lock table takes the
  vertex's lock word *before* the read, so what comes back cannot change
  until the transaction ends;
* **lock-free collective**: GDI read transactions may assume no
  participant modifies the data, and the bulk loader's collective write
  transactions touch disjoint vertices (Section 3.3) — the lock table is
  inert and one read is stable by contract;
* **snapshot at W** (MVCC): no lock word is touched; a chain entry with
  ``boundary_ts > W`` serves the object's state at ``W`` (see
  :mod:`repro.mvcc.versions`), otherwise the live blocks are
  authoritative, validated by the version stamped in the holder header
  being ``<= W``.  A too-new version, a reused block or a checksum
  failure all mean a commit after the watermark is (re)writing the
  holder — its pre-image is already installed (install-before-rewrite),
  so the id simply re-resolves against the chain on the next attempt.

All three run the same resolve → read → validate → retry loop
(:meth:`ReadView.fetch`) and classify every row the same way, for
vertices (``"v"``) and heavyweight edge holders (``"e"``) alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from ..gdi.errors import (
    GdiChecksumError,
    GdiNotFound,
    GdiObjectMismatch,
    GdiStateError,
)
from .holder import (
    KIND_EDGE,
    KIND_VERTEX,
    NEED_ENTRIES,
    NEED_IDENT,
    NEED_TOPO,
    HolderBatch,
    StoredHolder,
)

if TYPE_CHECKING:  # pragma: no cover
    from .transaction_impl import Transaction, _TxVertex

__all__ = ["ReadView"]

#: read attempts before a snapshot read gives up on a holder that keeps
#: being rewritten underneath it
_ATTEMPTS = 4

_KINDS = {"v": (KIND_VERTEX, "vertex"), "e": (KIND_EDGE, "edge holder")}


class ReadView:
    """How one transaction obtains stable copies of holders it has not
    cached yet."""

    def __init__(self, tx: "Transaction") -> None:
        ctx, mvcc = tx.ctx, tx.db.mvcc
        self.ctx = ctx
        self.storage = tx.db.storage
        self.locks = tx._locks
        self._mvcc = mvcc if tx.snapshot else None
        self._snap = None
        if tx.snapshot and tx.collective:
            # every participant must read at the same watermark: rank 0
            # begins the snapshot and broadcasts the handle, the others
            # join it (each rank holds its own refcount)
            snap0 = mvcc.begin_snapshot() if ctx.rank == 0 else None
            snap0 = ctx.bcast(snap0, root=0)
            self._snap = snap0 if ctx.rank == 0 else mvcc.share(snap0)
        elif tx.snapshot:
            self._snap = mvcc.begin_snapshot()
        #: the frozen watermark of a snapshot view, else ``None``
        self.watermark: int | None = (
            self._snap.watermark if self._snap is not None else None
        )
        #: ``tx._scanned`` when fetched rows may stay columnar: a
        #: lock-free read-only transaction owes a freshly read vertex
        #: nothing but a cache entry
        self.scanned = (
            tx._scanned
            if not tx.write and (tx.collective or tx.snapshot)
            else None
        )

    def close(self) -> None:
        if self._snap is not None:
            self._snap.close()
            self._snap = None

    def unpublished(self, app_id: int) -> "int | None":
        """The vid a tombstone says carried ``app_id`` at the watermark."""
        return self._mvcc.lookup_unpublished(app_id, self.watermark)

    def fetch(
        self,
        tag: str,
        ids: "list[int]",
        for_write: bool,
        need: int,
        expected: "dict[int, int] | None",
        missing_ok: bool,
    ) -> "Iterator[tuple[int, StoredHolder]]":
        """Yield ``(id, holder)`` for every distinct id in ``ids`` that
        holds an object of kind ``tag``, stable under this view.

        Every row ends in one of four outcomes: *served*; *missing* (no
        holder — deleted, never existed at the watermark); *wrong kind*
        (the block holds the other kind of object); *recycled* (a vertex
        whose application ID is not the ``expected`` one: the block was
        reused between the caller's ID translation and this read).
        Missing and recycled are read misses — an error unless
        ``missing_ok`` — and a wrong kind always is one; the first error
        is raised after the last row was yielded, so one bad element
        never hides the others.  A locking view drops the lock of every
        row it does not serve.  Vertex rows a bulk scan can leave
        columnar are noted in the transaction's scan table instead of
        being yielded (:meth:`_keep_columnar`).
        """
        kind, noun = _KINDS[tag]
        w = self.watermark
        versions = self._mvcc.versions if self._mvcc is not None else None
        ctx, trace = self.ctx, self.ctx.rt.trace
        # one lock word per *vertex* (Section 5.6): an edge holder is
        # guarded by the lock of the vertex whose slot led to it
        locks = self.locks if tag == "v" else None
        error: BaseException | None = None

        def servable(oid: int, stored: "StoredHolder | None") -> bool:
            nonlocal error
            want = expected.get(oid) if expected else None
            if stored is None:
                exc: BaseException = GdiNotFound(
                    f"{noun} {oid:#x} no longer exists"
                    if w is None
                    else f"{noun} {oid:#x} absent at snapshot watermark {w}"
                )
            elif stored.holder.kind != kind:
                exc = GdiObjectMismatch(f"{oid:#x} holds no {noun}")
            elif want is not None and stored.holder.app_id != want:
                exc = GdiNotFound(
                    f"{noun} {oid:#x} was recycled (expected application "
                    f"ID {want}, found {stored.holder.app_id})"
                )
            else:
                return True
            if locks is not None:
                locks.drop(oid)
            if error is None and not (
                missing_ok and isinstance(exc, GdiNotFound)
            ):
                error = exc
            return False

        pending = list(dict.fromkeys(ids))
        if locks is not None:
            # lock *before* reading so the fetched holders are stable
            locks.acquire(pending, for_write)
        for _ in range(1 if w is None else _ATTEMPTS):
            live = pending
            if versions is not None:
                # one pass over the chains, under one lock, finds the ids
                # a pre-image serves; the live blocks answer for the rest
                images = versions.resolve_many(
                    ((tag, oid) for oid in pending), w
                )
                if images:
                    live = []
                    for oid in pending:
                        if (tag, oid) not in images:
                            live.append(oid)
                            continue
                        trace.record_snapshot_read(ctx.rank)
                        image = images[(tag, oid)]
                        if servable(oid, image):
                            yield oid, image
            pending = []
            if not live:
                break
            try:
                rows = self.storage.read_many(
                    ctx, live, missing_ok=True, need=need
                )
            except BaseException as exc:
                if w is not None and isinstance(exc, GdiChecksumError):
                    pending = live  # torn read under a concurrent rewrite
                    continue
                if locks is not None:
                    for oid in live:
                        locks.drop(oid)
                raise
            for i in self._keep_columnar(live, rows, need, expected):
                oid, stored = live[i], rows[i]
                if versions is not None:
                    if stored is not None and stored.version > w:
                        pending.append(oid)  # rewritten after W: re-resolve
                        continue
                    if (
                        stored is None or stored.holder.kind != kind
                    ) and versions.covered((tag, oid), w):
                        # deleted, or the block reused, by a commit > W
                        # between our chain pass and the read; the fresh
                        # chain entry serves W
                        pending.append(oid)
                        continue
                    if stored is not None and stored.holder.kind == kind:
                        trace.record_snapshot_read(ctx.rank)
                if servable(oid, stored):
                    yield oid, stored
            if not pending:
                break
        if pending:
            raise GdiStateError(
                f"snapshot read of {len(pending)} {noun}(s) did not "
                f"stabilize after {_ATTEMPTS} attempts (watermark {w})"
            )
        if error is not None:
            raise error

    def hydrate(self, txvs: "list[_TxVertex]", need: int) -> None:
        """Batched in-place hydration of cached projection holders.

        Re-reads only the missing payload parts (the holders are stable:
        this transaction holds their locks, or runs collectively under
        the no-concurrent-writer contract) and merges them into the
        *existing* holder objects, so handles held by the caller stay
        valid.
        """
        want = list(
            {
                t.vid: t
                for t in txvs
                if not t.created and (t.stored.parts & need) != need
            }.values()
        )
        if not want:
            return
        masks = [((need & ~t.stored.parts) | NEED_IDENT) for t in want]
        fresh_list = self.storage.read_many(
            self.ctx, [t.vid for t in want], missing_ok=False, need=masks
        )
        for txv, fresh in zip(want, fresh_list):
            holder = txv.stored.holder
            fholder = fresh.holder
            got = fresh.parts
            if got & NEED_ENTRIES and not txv.stored.parts & NEED_ENTRIES:
                # as fetched: still wire bytes unless something decoded them
                holder._entry_buf = fholder._entry_buf
                holder._labels = fholder._labels
                holder._properties = fholder._properties
            if got & NEED_TOPO and not txv.stored.parts & NEED_TOPO:
                # the pre-image shares the region read: still unchanged
                holder._slot_buf = fholder._slot_buf
                if txv.loaded is not None:
                    txv.loaded.holder._slot_buf = fholder._slot_buf
            txv.stored.data_blocks = fresh.data_blocks
            txv.stored.index_blocks = fresh.index_blocks
            txv.stored.parts |= got

    def _keep_columnar(
        self,
        ids: "list[int]",
        rows,
        need: int,
        expected: "dict[int, int]",
    ) -> "Iterable[int]":
        """Note the rows of a columnar read that need no per-row work
        without decoding them; returns the rows that still need it.

        The rows of a :class:`~repro.gda.holder.HolderBatch` that hold a
        vertex (no newer than the watermark for a snapshot) are noted as
        ``vid -> (batch, row, parts)`` and become cache entries when
        something first touches them (``Transaction._cached``).  Holes,
        edge holders and too-new versions — and every row of a small or
        locking read — go through the caller's per-row path.
        """
        if (
            self.scanned is None
            or not isinstance(rows, HolderBatch)
            or expected
        ):
            return range(len(ids))
        ok = rows.kind == KIND_VERTEX
        if self.watermark is not None:
            ok &= rows.version <= self.watermark
        kept = np.flatnonzero(ok).tolist()
        self.scanned.update({ids[row]: (rows, row, need) for row in kept})
        if self.watermark is not None:
            self.ctx.rt.trace.record_snapshot_read(self.ctx.rank, len(kept))
        return np.flatnonzero(~ok).tolist()
