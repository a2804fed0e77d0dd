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
  authoritative.  Reads fetch only the holder parts asked for, exactly
  as under locks; what makes them safe is one **post-read chain pass**.
  Every commit after the watermark installs its pre-image before it
  touches a live block, so a holder rewritten, freed or reused while
  the read was in flight is covered by a chain entry by the time the
  read returns, and that entry serves it in the same attempt.  A row
  the pass does not cover was not touched after ``W`` before the read
  ended: its bytes are the state at ``W``, whatever parts they are.

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
from .commit import _TxVertex
from .holder import (
    KIND_EDGE,
    KIND_VERTEX,
    NEED_ENTRIES,
    NEED_IDENT,
    NEED_TOPO,
    HolderBatch,
    StoredHolder,
    csr_indptr,
    ragged_index,
)

if TYPE_CHECKING:  # pragma: no cover
    from .transaction_impl import Transaction

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
        self._mvcc = mvcc
        if tx.snapshot and tx.collective:
            # every participant must read at the same watermark: rank 0
            # begins the snapshot and broadcasts the handle, the others
            # join it (each rank holds its own handle)
            snap0 = mvcc.begin_snapshot(0) if ctx.rank == 0 else None
            snap0 = ctx.bcast(snap0, root=0)
            self._snap = snap0 if ctx.rank == 0 else mvcc.share(snap0, ctx.rank)
        else:
            # every transaction announces the watermark it starts at, so
            # the GC floor frees nothing it may still reach: no version a
            # snapshot reads, no DHT entry a lookup walks into
            self._snap = mvcc.begin_snapshot(ctx.rank)
        #: the frozen watermark of a snapshot view, else ``None``
        self.watermark: int | None = (
            self._snap.watermark if tx.snapshot else None
        )
        #: ``tx._scanned`` when fetched rows may stay columnar: a
        #: lock-free read-only transaction owes a freshly read vertex
        #: nothing but a cache entry
        self.scanned = (
            tx._scanned
            if not tx.write and (tx.collective or tx.snapshot)
            else None
        )
        self._vertices, self._noted = tx._vertices, tx._scanned

    def cached(self, vid: int) -> "_TxVertex | None":
        """The transaction's cache entry of ``vid``; a row a bulk scan
        left in its columnar batch becomes an entry on this first touch."""
        txv = self._vertices.get(vid)
        if txv is None and vid in self._noted:
            batch, row, _ = self._noted[vid]
            txv = self._vertices[vid] = _TxVertex(vid=vid, stored=batch[row])
        return txv

    def close(self) -> None:
        self._snap.close()

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
            # one pass over the chains, under one lock, finds the ids a
            # pre-image serves; the live blocks answer for the rest
            images = self._images(tag, pending)
            for (_, oid), image in images.items():
                trace.record_snapshot_read(ctx.rank)
                if servable(oid, image):
                    yield oid, image
            live = (
                [oid for oid in pending if (tag, oid) not in images]
                if images
                else pending
            )
            pending = []
            if not live:
                break
            try:
                rows = self.storage.read_many(
                    ctx, live, missing_ok=True, need=need
                )
            except BaseException as exc:
                # a read torn by a commit after W (a checksum failure, or
                # addresses read from blocks it reused): that commit's
                # chain entry now covers an id, which the next attempt
                # serves from the chain
                if (
                    w is not None
                    and isinstance(exc, Exception)
                    and (
                        isinstance(exc, GdiChecksumError)
                        or self._images(tag, live)
                    )
                ):
                    pending = live
                    continue
                if locks is not None:
                    for oid in live:
                        locks.drop(oid)
                raise
            # the post-read pass: a commit after W installs its pre-image
            # before it touches a live block, so a row rewritten or freed
            # while we read it is covered by now and its image serves W
            images = self._images(tag, live)
            for i in self._keep_columnar(live, rows, need, expected, images):
                oid = live[i]
                if images and (tag, oid) in images:
                    stored = images[(tag, oid)]
                    trace.record_snapshot_read(ctx.rank)
                else:
                    stored = rows[i]
                    if w is not None and stored is not None:
                        if stored.version > w:
                            raise GdiStateError(
                                f"{noun} {oid:#x} carries version "
                                f"{stored.version} above watermark {w} "
                                "but no chain entry covers it"
                            )
                        if stored.holder.kind == kind:
                            trace.record_snapshot_read(ctx.rank)
                if servable(oid, stored):
                    yield oid, stored
        if pending:
            raise GdiStateError(
                f"snapshot read of {len(pending)} {noun}(s) did not "
                f"stabilize after {_ATTEMPTS} attempts (watermark {w})"
            )
        if error is not None:
            raise error

    def hydrate(
        self, txvs: "list[_TxVertex]", need: int, rows: "list[int]" = ()
    ) -> None:
        """Batched in-place hydration of cached projection holders.

        Re-reads only the missing payload parts and merges them into the
        *existing* holder objects, so handles held by the caller stay
        valid.  ``rows`` are vertices still noted as rows of a columnar
        batch: the same read widens them, and those it returns as a
        batch are noted again, as columns (:meth:`_renote`).  Under
        locks, or under the no-concurrent-writer contract of a
        collective, the holders are stable.  Under a snapshot the
        post-read chain pass of :meth:`fetch` decides: a vertex a commit
        after the watermark rewrote or freed takes its missing parts from
        its chain image; any other must read back the version it was
        cached with.
        """
        want = list(
            {
                t.vid: t
                for t in txvs
                if not t.created and (t.stored.parts & need) != need
            }.values()
        )
        if not want and not rows:
            return
        w = self.watermark
        vids = [t.vid for t in want]
        vids += rows
        masks = [((need & ~t.stored.parts) | NEED_IDENT) for t in want]
        masks += [
            ((need & ~self.scanned[vid][2]) | NEED_IDENT) for vid in rows
        ]
        try:
            fresh_list = self.storage.read_many(
                self.ctx, vids, missing_ok=w is not None, need=masks
            )
        except Exception:
            # torn by a commit after W (see fetch): serve the vertices the
            # chain covers now, read the others again
            if not self._images("v", vids):
                raise
            fresh_list = None
        images = self._images("v", vids)
        pairs = [(txv, i) for i, txv in enumerate(want)]
        if rows:
            first = len(want)
            noted = (
                self._renote(rows, fresh_list, first, images)
                if isinstance(fresh_list, HolderBatch)
                else np.zeros(len(rows), dtype=bool)
            )
            pairs += [
                (self.cached(rows[i]), first + i)
                for i in np.flatnonzero(~noted).tolist()
            ]
        again = []
        for txv, i in pairs:
            live = ("v", txv.vid) not in images
            if not live:
                fresh = images[("v", txv.vid)]
            elif fresh_list is None:
                again.append(txv)
                continue
            else:
                fresh = fresh_list[i]
                if w is not None and fresh is not None and (
                    fresh.holder.kind != KIND_VERTEX
                    or fresh.version != txv.stored.version
                ):
                    fresh = None
            if fresh is None:
                raise GdiStateError(
                    f"vertex {txv.vid:#x} no longer reads back as cached "
                    f"at watermark {w}"
                )
            holder = txv.stored.holder
            fholder = fresh.holder
            got = fresh.parts & ~txv.stored.parts
            if got & NEED_ENTRIES:
                # as fetched: still wire bytes unless something decoded them
                holder._entry_buf = fholder._entry_buf
                holder._labels = fholder._labels
                holder._properties = fholder._properties
            if got & NEED_TOPO:
                # the pre-image shares the region read: still unchanged
                holder._slot_buf = fholder._slot_buf
                if txv.loaded is not None:
                    txv.loaded.holder._slot_buf = fholder._slot_buf
            if live:  # a chain image keeps no block lists
                txv.stored.data_blocks = fresh.data_blocks
                txv.stored.index_blocks = fresh.index_blocks
            txv.stored.parts |= got
        if again:
            self.hydrate(again, need)

    def _renote(
        self,
        rows: "list[int]",
        fresh: HolderBatch,
        first: int,
        images: dict,
    ) -> np.ndarray:
        """Note columnar rows again after :meth:`hydrate` read the parts
        they lacked; returns which of ``rows`` were noted.

        Row ``first + i`` of ``fresh`` holds the new parts of ``rows[i]``.
        Each row that reads back as the vertex it was noted as (for a
        snapshot: at the same version, and not covered by a chain entry
        in ``images``) gets one span joining its old bytes and the new
        ones, in payload order — the two are disjoint, adjacent parts —
        in one batch that shares ``fresh``'s header and block columns;
        any other row is left to the per-row path.
        """
        old = [self.scanned[vid] for vid in rows]
        batches = [b for b, _, _ in old]
        sel = np.arange(first, first + len(rows))
        o_row = np.array([r for _, r, _ in old], dtype=np.int64)
        o_parts = np.array([p for _, _, p in old], dtype=np.int64)
        o_ver, o_start, o_lo, o_len = np.zeros((4, len(rows)), dtype=np.int64)
        bufs, at = [fresh.span], len(fresh.span)
        for b in {id(b): b for b in batches}.values():
            mine = np.flatnonzero([x is b for x in batches])
            r = o_row[mine]
            o_ver[mine] = b.version[r]
            o_start[mine] = b.start[r]
            o_lo[mine] = b.span_indptr[r] + at
            o_len[mine] = b.span_indptr[r + 1] - b.span_indptr[r]
            bufs.append(b.span)
            at += len(b.span)
        ok = fresh.present[sel] & (fresh.kind[sel] == KIND_VERTEX)
        if self.watermark is not None:
            ok &= fresh.version[sel] == o_ver
            if images:
                ok &= ~np.isin(rows, [oid for _, oid in images])
        n_lo = fresh.span_indptr[sel]
        n_len = np.where(ok, fresh.span_indptr[sel + 1] - n_lo, 0)
        o_len = np.where(ok, o_len, 0)
        new_first = (o_len == 0) | ((n_len > 0) & (fresh.start[sel] < o_start))
        lo = np.zeros((len(fresh), 2), dtype=np.int64)
        length = np.zeros((len(fresh), 2), dtype=np.int64)
        lo[sel] = np.where(new_first, [n_lo, o_lo], [o_lo, n_lo]).T
        length[sel] = np.where(new_first, [n_len, o_len], [o_len, n_len]).T
        start = np.zeros(len(fresh), dtype=np.int64)
        start[sel] = np.where(new_first, fresh.start[sel], o_start)
        keep = np.zeros(len(fresh), dtype=bool)
        keep[sel] = ok
        need = np.where(keep, fresh.need, 0)
        need[sel] |= np.where(ok, o_parts, 0)
        merged = HolderBatch(
            fresh.primaries,
            {
                "present": keep,
                "kind": np.where(keep, fresh.kind, 0),
                "flags": fresh.flags,
                "app_id": fresh.app_id,
                "edge_count": fresh.edge_count,
                "version": fresh.version,
            },
            need,
            start,
            np.concatenate(bufs)[ragged_index(lo.ravel(), length.ravel())],
            csr_indptr(length.sum(axis=1)),
            fresh.data_blocks,
            fresh.data_indptr,
            fresh.index_blocks,
        )
        kept = np.flatnonzero(ok)
        self.scanned.update(
            zip(
                [rows[i] for i in kept.tolist()],
                zip(
                    [merged] * len(kept),
                    (kept + first).tolist(),
                    merged.parts[kept + first].tolist(),
                ),
            )
        )
        return ok

    def _images(self, tag: str, oids: "list[int]") -> dict:
        """``{(tag, oid): image}`` for the ids a chain entry serves at the
        watermark — one pass over the chains, under one lock, charged
        nothing (control path); empty outside a snapshot."""
        if self.watermark is None:
            return {}
        return self._mvcc.versions.resolve_many(
            ((tag, oid) for oid in oids), self.watermark
        )

    def _keep_columnar(
        self,
        ids: "list[int]",
        rows,
        need: int,
        expected: "dict[int, int]",
        images: dict,
    ) -> "Iterable[int]":
        """Note the rows of a columnar read that need no per-row work
        without decoding them; returns the rows that still need it.

        The rows of a :class:`~repro.gda.holder.HolderBatch` that hold a
        vertex (for a snapshot: no newer than the watermark, and not
        covered by a chain entry in ``images``) are noted as
        ``vid -> (batch, row, parts)`` and become cache entries when
        something first touches them (:meth:`cached`).  Holes,
        edge holders, too-new versions and covered rows — and every row
        of a small or locking read — go through the caller's per-row
        path.
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
            if images:
                ok &= ~np.isin(ids, [oid for _, oid in images])
        kept = np.flatnonzero(ok).tolist()
        self.scanned.update({ids[row]: (rows, row, need) for row in kept})
        if self.watermark is not None:
            self.ctx.rt.trace.record_snapshot_read(self.ctx.rank, len(kept))
        return np.flatnonzero(~ok).tolist()
