"""The bulk loader's holder writer (paper Section 4, BULK).

A bulk load is a collective: every rank writes the vertices it owns and
the heavyweight edges whose source it owns, taking them as arrays —
application IDs, label/property :class:`Entries` and routed half-edges.
Per rank, :func:`load` acquires the vertices' primaries in
application-ID order and logs the vertex record (``new_v`` entries);
allgathers the internal IDs as int64 arrays (:class:`VidMap`); creates
the heavy edges and routes each one's far slot with one ``alltoallv``;
orders every vertex's slots as they were appended (half-edges, then
heavy edges at their source, then at their destination); logs the edge
record (``edge+``, ``hedge+``); installs the MVCC "absent" images;
encodes each holder once and writes them all in one batched write-back
(mirrors staged with it); and publishes every vertex as a commit's
``publish`` stage does: DHT, label directory, existing indexes.

The records are those of the two collective commits (vertices, then
edges) of the verb-by-verb loader this replaced, without its ``upd_v``
entries, which restated every vertex that gained an edge.  The
allgather separates them, so every vertex record precedes every edge
record and the log replays in order; each record draws its own MVCC
timestamp.  Blocks are acquired in that loader's order — primaries, the
entry-only layouts, edge holders, then each vertex's growth in the
order its first slot came — so a load places every holder, DHT entry
and directory entry where it did, but writes each holder once.  DHT
inserts and block acquisitions stay one verb per vertex or block
(DESIGN.md, "Bulk loading").
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..rma.runtime import RankContext
from .dptr import MAX_RANK, OFFSET_BITS
from .entries import ENTRY_LABEL, ENTRY_LAST
from .holder import (
    DIR_IN,
    DIR_OUT,
    DIR_UNDIR,
    SLOT_BYTES,
    SLOT_DTYPE,
    SLOT_HEAVY,
    EdgeHolder,
    StoredHolder,
    VertexHolder,
    csr_indptr,
    plan_layout,
    ragged_index,
)

__all__ = ["Entries", "VidMap", "load"]

_I64 = np.zeros(0, dtype=np.int64)


@dataclass
class Entries:
    """Label and property entries of many holders, one element each.

    ``row`` is the holder an entry belongs to (non-decreasing; a
    holder's labels first, as :func:`~repro.gda.entries.encode_entries`
    writes them), ``eid`` its entry ID (:data:`ENTRY_LABEL` or the
    p-type's integer ID), ``word`` the label's integer ID or the payload
    length; ``payload`` holds the property payloads back to back.
    """

    row: np.ndarray
    eid: np.ndarray
    word: np.ndarray
    payload: np.ndarray

    @classmethod
    def of_column(cls, rows, eid: int, word=None, payload=None) -> "Entries":
        """One label column (``word``: the label IDs) or one p-type's
        values (``payload`` row ``i`` belongs to holder ``rows[i]``)."""
        rows = np.asarray(rows, dtype=np.int64)
        if payload is not None:
            word, payload = np.full(len(rows), payload.shape[1]), payload.ravel()
        return cls(
            rows,
            np.full(len(rows), eid),
            np.asarray(word, dtype=np.int64),
            np.zeros(0, np.uint8) if payload is None else payload,
        )

    @classmethod
    def merge(cls, parts: "list[Entries]") -> "Entries":
        """Columns' entries in holder order, within a holder in the order
        of ``parts``."""
        row, eid, word = (
            np.concatenate([getattr(p, f) for p in parts] + [_I64])
            for f in ("row", "eid", "word")
        )
        payload = np.concatenate([p.payload for p in parts] + [np.zeros(0, np.uint8)])
        plen = np.where(eid == ENTRY_LABEL, 0, word)
        order = np.argsort(row, kind="stable")
        start = csr_indptr(plen)[:-1][order]
        payload = payload[ragged_index(start, plen[order])]
        return cls(row[order], eid[order], word[order], payload)

    def nbytes(self, n: int) -> np.ndarray:
        """Entry-stream length of each of ``n`` holders."""
        plen = np.where(self.eid == ENTRY_LABEL, 0, self.word)
        return np.bincount(self.row, plen + 8, n).astype(np.int64) + 4

    def streams(self, n: int) -> "tuple[bytes, list[int]]":
        """The ``n`` holders' entry streams back to back, and each one's
        bounds (``csr_indptr`` form)."""
        plen = np.where(self.eid == ENTRY_LABEL, 0, self.word)
        indptr = csr_indptr(self.nbytes(n))
        # after the entries before it and one terminator per holder before
        at = csr_indptr(plen + 8)[:-1] + 4 * self.row
        out = np.zeros(int(indptr[-1]), dtype=np.uint8)
        head = np.stack([self.eid, self.word], 1).astype("<i4")
        out[ragged_index(at, np.full(len(at), 8))] = head.view(np.uint8).ravel()
        out[ragged_index(at + 8, plen)] = self.payload
        out[indptr[1:] - 4] = ENTRY_LAST  # a little-endian int32
        return out.tobytes(), indptr.tolist()

    def per_holder(self, n: int, label_name: dict, ptype_name: dict) -> list:
        """Per holder: label IDs, label names, ``(p-type ID, payload)``
        and ``(p-type name, payload)`` pairs, as four lists of tuples."""
        is_label = self.eid == ENTRY_LABEL
        ids, pids = self.word[is_label].tolist(), self.eid[~is_label].tolist()
        ends = np.add.accumulate(self.word[~is_label]).tolist()
        buf = self.payload.tobytes()
        blobs = [buf[a:b] for a, b in zip([0, *ends], ends)]
        lp, pp = (
            csr_indptr(np.bincount(self.row[m], minlength=n)).tolist()
            for m in (is_label, ~is_label)
        )
        return [
            [tuple(seq[a:b]) for a, b in zip(ptr, ptr[1:])]
            for seq, ptr in (
                (ids, lp),
                (list(map(label_name.__getitem__, ids)), lp),
                (list(zip(pids, blobs)), pp),
                (list(zip(map(ptype_name.__getitem__, pids), blobs)), pp),
            )
        ]


class VidMap(Mapping):
    """Application ID -> internal ID of a bulk load, kept as the int64
    arrays the load allgathered rather than a dict of every vertex.

    Round-robin placement (``apps`` omitted): the IDs are ``0 .. n-1``
    and rank ``a % P`` created ``a`` as its ``(a // P)``-th vertex, so
    ``vid(a) = vids[a % P][a // P]``.  Otherwise the allgathered IDs are
    sorted once and searched.
    """

    def __init__(self, parts: list, apps: "list | None" = None) -> None:
        self._nranks, self._start = len(parts), csr_indptr([len(p) for p in parts])
        self._vids, self._apps = np.concatenate(parts + [_I64]), None
        if apps is not None:
            keys = np.concatenate(apps + [_I64])
            order = np.argsort(keys, kind="stable")
            self._apps, self._vids = keys[order], self._vids[order]

    def lookup(self, app_ids) -> np.ndarray:
        """The internal IDs of many application IDs; ``KeyError`` if one
        is not in the load."""
        app_ids = np.asarray(app_ids, dtype=np.int64)
        if self._apps is None:
            at = self._start[app_ids % self._nranks] + app_ids // self._nranks
            ok = (app_ids >= 0) & (app_ids < len(self._vids))
        elif len(self._apps):
            at = np.searchsorted(self._apps, app_ids) % len(self._apps)
            ok = self._apps[at] == app_ids
        else:
            at = ok = np.zeros(app_ids.shape, dtype=bool)
        if not ok.all():
            raise KeyError("application ID outside the load")
        return self._vids[at]

    def __getitem__(self, app_id) -> int:
        return int(self.lookup([app_id])[0])

    def __iter__(self):
        return iter(range(len(self)) if self._apps is None else self._apps.tolist())

    def __len__(self) -> int:
        return len(self._vids)


def load(
    ctx: RankContext,
    db,
    apps: np.ndarray,
    entries: Entries,
    half_edges: np.ndarray,
    heavy: "tuple[np.ndarray, np.ndarray, Entries] | None" = None,
    *,
    directed: bool = True,
    round_robin: bool = False,
) -> VidMap:
    """Collectively write one bulk load (see the module docstring).

    ``apps``: sorted application IDs of the vertices this rank owns;
    ``entries``: their labels and properties (``row`` indexes ``apps``);
    ``half_edges``: ``(a, b, direction, label)`` rows in append order as
    :func:`~repro.gda.database_impl._route_half_edges` delivers them (a
    ``DIR_IN`` half is ``b``'s, any other ``a``'s); ``heavy``: ``(src,
    dst, entries)`` of the ``directed`` heavyweight edges whose source
    this rank owns, ``None`` on every rank when the load has none;
    ``round_robin``: the ranks' ``apps`` are their shares of ``0 .. n-1``.
    """
    rank, bs = ctx.rank, db.blocks.block_size
    acquire = partial(db.blocks.acquire_block_anywhere, ctx)
    resize = partial(db.storage._resize, ctx)

    def place(rows, lengths, homes, data, index) -> None:
        for i, length in zip(rows, lengths):
            nindex, ndata = plan_layout(length, bs)
            resize(data[i], ndata, homes[i])
            resize(index[i], nindex, homes[i])

    replica = db.replica(ctx)
    label_name = {label.int_id: label.name for label in replica.labels}
    ptype_name = {ptype.int_id: ptype.name for ptype in replica.ptypes}
    n, app_list = len(apps), apps.tolist()
    labels, label_names, _, props = entries.per_holder(n, label_name, ptype_name)
    stream, stream_at = entries.streams(n)

    # -- vertices: primaries, entry-only layouts, the vertex record ----------
    primaries = [acquire(rank) for _ in app_list]
    for primary in primaries if db.relocations else ():
        db.relocations.pop(primary, None)  # a recycled block is live again
    mine = np.array(primaries, dtype=np.int64)
    homes = ((mine >> OFFSET_BITS) & MAX_RANK).tolist()
    data, index = [[] for _ in app_list], [[] for _ in app_list]
    place(range(n), np.diff(stream_at).tolist(), homes, data, index)
    vertex_record = [("new_v", *v) for v in zip(app_list, label_names, props)]
    seq, ts_v = _commit_point(ctx, db, vertex_record, n > 0, vertex_record)

    # -- heavyweight edges: holders at their source's home ------------------
    edges, eptrs, heavy_record = [], [], []
    if heavy is not None:
        hs, hd, hentries = heavy
        h_ids, h_names, h_props, h_named = hentries.per_holder(
            len(hs), label_name, ptype_name
        )
        src_rows = np.searchsorted(apps, hs)
        e_homes = [homes[r] for r in src_rows.tolist()]
        eptrs = [acquire(home) for home in e_homes]
        e_data, e_index = [[] for _ in eptrs], [[] for _ in eptrs]
        lengths = (hentries.nbytes(len(hs)) + 16).tolist()
        place(range(len(eptrs)), lengths, e_homes, e_data, e_index)

    if round_robin:
        vid_map = VidMap(ctx.allgather(mine))
    else:
        parts = ctx.allgather(np.stack([mine, apps]))
        vid_map = VidMap([p[0] for p in parts], [p[1] for p in parts])

    # -- slots as appended, columns (vertex row, dptr, label, flags) ---------
    a, b, direction, label = np.asarray(half_edges, np.int64).reshape(-1, 4).T
    inward = direction == DIR_IN
    base, other = np.where(inward, b, a), np.where(inward, a, b)
    appends = [(np.searchsorted(apps, base), vid_map.lookup(other), label, direction)]
    if heavy is not None:
        eptr = np.array(eptrs, dtype=np.int64)
        # at the source: the edge, then a directed self-loop's IN side
        twice = 1 + ((hs == hd) & directed)
        first = csr_indptr(twice)
        flags = np.full(int(first[-1]), SLOT_HEAVY)
        flags[first[:-1]] |= DIR_OUT if directed else DIR_UNDIR
        flags[first[:-1][twice == 2] + 1] |= DIR_IN
        appends.append((np.repeat(src_rows, twice), np.repeat(eptr, twice), 0, flags))
        # at the destination, after every rank's first round
        away = hs != hd
        far, _, far_eptr = ctx.alltoallv(
            db.home_rank(hd[away]), hd[away], hs[away], eptr[away]
        )
        rev = (DIR_IN if directed else DIR_UNDIR) | SLOT_HEAVY
        appends.append((np.searchsorted(apps, far), far_eptr, 0, rev))
        edges = [
            EdgeHolder(s, d, directed, list(ids), list(pairs))
            for s, d, ids, pairs in zip(
                mine[src_rows].tolist(), vid_map.lookup(hd).tolist(), h_ids, h_props
            )
        ]
        heavy_record = [
            ("hedge+", *ends, directed, *rest)
            for ends, *rest in zip(zip(hs.tolist(), hd.tolist()), h_names, h_named)
        ]
    row = np.concatenate([cols[0] for cols in appends])
    order = np.argsort(row, kind="stable")
    slots = np.empty(len(row), dtype=SLOT_DTYPE)
    for i, field in enumerate(("dptr", "label", "flags"), 1):
        slots[field] = np.concatenate(
            [np.broadcast_to(cols[i], len(cols[0])) for cols in appends]
        )[order]
    slot_buf = slots.tobytes()
    degree = np.bincount(row, minlength=n)
    slot_at = (csr_indptr(degree) * SLOT_BYTES).tolist()

    # -- each vertex's growth, in the order its first slot came --------------
    touched, first_at = np.unique(row, return_index=True)
    touched = touched[np.argsort(first_at)]
    grown = (degree * SLOT_BYTES + np.diff(stream_at))[touched].tolist()
    place(touched.tolist(), grown, homes, data, index)

    # -- the edge record: light slots from their canonical side (the OUT
    # side, an undirected edge's smaller endpoint), by first append --------
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[touched] = np.arange(len(touched))
    logged = np.argsort(rank_of[row[: len(base)]], kind="stable")
    way = direction[logged]
    logged = logged[(way != DIR_IN) & ((way != DIR_UNDIR) | (base <= other)[logged])]
    edge_label = {0: None, **label_name}
    edge_record = [
        ("edge+", s, o, d == DIR_OUT, edge_label[lab])
        for s, o, d, lab in zip(
            *(col[logged].tolist() for col in (base, other, direction, label))
        )
    ] + heavy_record
    seq_e, ts_e = _commit_point(
        ctx, db, edge_record, len(touched) + len(edges) > 0, vertex_record + edge_record
    )

    # -- MVCC: nothing of the load is visible below its timestamps ----------
    mvcc = db.mvcc
    for vid in primaries:
        mvcc.versions.install(("v", vid), ts_v, None)
    for eptr_k in eptrs:
        mvcc.versions.install(("e", eptr_k), ts_e, None)
    ctx.rt.trace.record_versions_installed(rank, n + len(eptrs))
    version = np.full(n, ts_v, dtype=np.int64)
    version[touched] = ts_e

    # -- one write-back of every holder, each encoded once -------------------
    write_items, items = db.storage._write_items, []
    for i, (app, primary, ver) in enumerate(zip(app_list, primaries, version.tolist())):
        slot_region = slot_buf[slot_at[i] : slot_at[i + 1]]
        entry_stream = stream[stream_at[i] : stream_at[i + 1]]
        holder = VertexHolder._from_wire(app, entry_stream, slot_region)
        stored = StoredHolder(holder, primary, data[i], index[i], version=ver)
        items += write_items(stored, slot_region + entry_stream, 0)
    for k, holder in enumerate(edges):
        stored = StoredHolder(holder, eptrs[k], e_data[k], e_index[k], version=ts_e)
        items += write_items(stored, *holder.payload())
    db.storage._write_out(ctx, items)

    # -- publish ----------------------------------------------------------------
    for app, primary, vertex_labels in zip(app_list, primaries, labels):
        db.dht.insert(ctx, app, primary)
        db.directory.add(ctx, primary, labels=vertex_labels)
    for idx in [*db.indexes.values(), *db.edge_indexes.values()]:
        db.fill_index(ctx, idx, primaries)
    if db.replication is not None:
        db.replication.commit_mirrors(ctx, seq if seq_e is None else seq_e)
    for ts in (ts_v, ts_e):
        if ts:
            mvcc.note_applied(ts)
            mvcc.maybe_collect(ctx)
    ctx.barrier()  # every rank's part of the load is readable from here
    return vid_map


def _commit_point(ctx, db, record: list, versioned: bool, intent: list) -> tuple:
    """Append one record and draw its MVCC timestamp, as
    :func:`repro.gda.commit.append_log` does; ``intent`` is what a
    failover rolls forward: everything the load logged so far."""
    repl, seq = db.replication, None
    if record:
        if repl is not None:
            repl.begin_commit(ctx.rank, tuple(intent))
        seq = db.log_commit(ctx.rank, tuple(record))
        if repl is not None:
            repl.note_logged(ctx.rank, seq)
    ts = db.mvcc.begin_commit(ctx.rank) if versioned else 0
    return seq, ts
