"""The columnar result of one large holder read.

:class:`HolderBatch` is what :meth:`HolderStorage.read_many
<repro.gda.holder.HolderStorage.read_many>` returns for a bulk scan: the
header fields as columns, the payload bytes of all rows in one buffer,
and array answers for topology, labels and properties that never build
a per-holder object.  Indexing a row decodes it into the very
:class:`~repro.gda.holder_model.StoredHolder` the per-holder read
produces.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .entries import ENTRY_EMPTY, ENTRY_LABEL, ENTRY_LAST, EntryFormatError
from .holder_model import (
    KIND_VERTEX,
    NEED_ALL,
    NEED_ENTRIES,
    NEED_IDENT,
    NEED_TOPO,
    SLOT_BYTES,
    SLOT_DTYPE,
    StoredHolder,
    _decode_span,
)

__all__ = ["HolderBatch", "csr_indptr", "ragged_index"]


def csr_indptr(counts) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``: the row boundaries of a ragged array
    whose rows hold ``counts`` elements."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    # the ufunc itself: np.cumsum's wrapper adds ~1 us per call, and
    # small queries call these two helpers several times each
    np.add.accumulate(counts, dtype=np.int64, out=indptr[1:])
    return indptr


def ragged_index(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices ``starts[i] .. starts[i] + counts[i]`` for every ``i``,
    concatenated (the gather index of a ragged selection)."""
    ends = np.add.accumulate(counts, dtype=np.int64)
    idx = (starts - (ends - counts)).repeat(counts)
    idx += np.arange(idx.size)
    return idx

def _i32_at(words: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Little-endian int32 at each (unaligned) byte position ``pos`` of
    a buffer, given its 4-byte ``sliding_window_view``."""
    return words[pos].view("<i4")[:, 0].astype(np.int64)


class HolderBatch(Sequence):
    """Columnar result of one large :meth:`HolderStorage.read_many`.

    Row ``i`` describes ``primaries[i]``.  Header fields are int64
    columns, zero where ``present`` is false (the block holds no
    holder).  Payload bytes stay in one shared buffer: the span fetched
    for row ``i`` is ``span[span_indptr[i]:span_indptr[i + 1]]`` and
    begins at payload offset ``start[i]``; ``parts[i]`` says which
    holder parts it covers.  Direct continuation blocks are
    ``data_blocks[data_indptr[i]:data_indptr[i + 1]]``.

    Bulk readers take arrays — :meth:`slot_columns` for the topology,
    :meth:`entry_table` / :meth:`has_label` / :meth:`property_spans` for
    labels and properties, which stay undecoded bytes until asked for.
    As a sequence the batch yields, per row, the very
    :class:`StoredHolder` the per-holder decode produces (``None`` for a
    hole), built on first access and then kept.
    """

    def __init__(
        self,
        primaries: np.ndarray,
        header: dict[str, np.ndarray],
        need: np.ndarray,
        start: np.ndarray,
        span: np.ndarray,
        span_indptr: np.ndarray,
        data_blocks: np.ndarray,
        data_indptr: np.ndarray,
        index_blocks: dict[int, list[int]],
    ) -> None:
        self.primaries = primaries
        self.present = header["present"]
        self.kind = header["kind"]
        self.flags = header["flags"]
        self.app_id = header["app_id"]
        self.edge_count = header["edge_count"]
        self.version = header["version"]
        self.need = need
        self.start = start
        self.span = span
        self.span_indptr = span_indptr
        self.data_blocks = data_blocks
        self.data_indptr = data_indptr
        #: index blocks of the (rare) indirect rows, by row
        self.index_blocks = index_blocks
        vertex = self.kind == KIND_VERTEX
        self.parts = np.where(
            vertex,
            NEED_IDENT | (need & (NEED_TOPO | NEED_ENTRIES)),
            np.where(self.present, NEED_ALL, 0),
        )
        self._vertex = vertex
        self._rows: dict[int, StoredHolder | None] = {}
        self._lists: list[list] | None = None
        self._slots: tuple[np.ndarray, np.ndarray] | None = None
        self._entries: tuple[np.ndarray, ...] | None = None

    # -- sequence of StoredHolder ------------------------------------------
    def __len__(self) -> int:
        return len(self.primaries)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("holder batch row out of range")
        try:
            return self._rows[i]
        except KeyError:
            stored = self._rows[i] = self._materialize(i)
            return stored

    def _materialize(self, i: int) -> "StoredHolder | None":
        if self._lists is None:
            self._lists = [
                col.tolist()
                for col in (
                    self.present, self.kind, self.flags, self.app_id,
                    self.edge_count, self.need, self.version, self.primaries,
                    self.span_indptr, self.data_indptr,
                )
            ]
        (present, kind, flags, app_id, edge_count, need, version, primaries,
         span_indptr, data_indptr) = self._lists
        if not present[i]:
            return None
        info = {
            "kind": kind[i],
            "flags": flags[i],
            "app_id": app_id[i],
            "edge_count": edge_count[i],
            "need": need[i],
            "version": version[i],
            "primary": primaries[i],
            "data_blocks": self.data_blocks[
                data_indptr[i] : data_indptr[i + 1]
            ].tolist(),
            "index_blocks": self.index_blocks.get(i, []),
        }
        span = self.span[span_indptr[i] : span_indptr[i + 1]].tobytes()
        return _decode_span(info, span)

    # -- topology columns ----------------------------------------------------
    def slot_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, slots)``: the edge slots of all vertex rows read
        with ``NEED_TOPO`` as one :data:`SLOT_DTYPE` array; row ``i``
        owns ``slots[indptr[i]:indptr[i + 1]]`` (nothing for holes, edge
        holders and rows read without their topology)."""
        if self._slots is None:
            counts = np.where(
                self._vertex & ((self.need & NEED_TOPO) != 0),
                self.edge_count,
                0,
            )
            indptr = csr_indptr(counts)
            rows = np.flatnonzero(counts)
            # topology spans start at payload offset 0: the slot region
            # is the head of the row's span
            lo = self.span_indptr[rows]
            hi = lo + SLOT_BYTES * counts[rows]
            buf = memoryview(self.span)
            packed = b"".join(
                [buf[a:b] for a, b in zip(lo.tolist(), hi.tolist())]
            )
            self._slots = (indptr, np.frombuffer(packed, dtype=SLOT_DTYPE))
        return self._slots

    # -- label / property columns ----------------------------------------------
    def entry_table(self) -> tuple[np.ndarray, ...]:
        """``(row, entry_id, offset, value)`` of every label and property
        entry of the vertex rows read with ``NEED_ENTRIES``.

        For a label entry ``value`` is the label ID; for a property
        entry it is the byte length of the encoded value, which sits at
        ``span[offset:offset + value]``.  All rows' entry streams are
        parsed in lock step (one numpy pass per entry position, not per
        holder); within a row, entries keep their stream order.
        """
        if self._entries is None:
            self._entries = self._parse_entries()
        return self._entries

    def _parse_entries(self) -> tuple[np.ndarray, ...]:
        rows = np.flatnonzero(self._vertex & ((self.need & NEED_ENTRIES) != 0))
        topo = SLOT_BYTES * self.edge_count[rows]
        pos = self.span_indptr[rows] + topo - self.start[rows]
        end = self.span_indptr[rows + 1]
        out: list[tuple[np.ndarray, ...]] = []
        if rows.size:
            if len(self.span) < 4:
                raise EntryFormatError("entry stream missing terminator")
            words = np.lib.stride_tricks.sliding_window_view(self.span, 4)
        while rows.size:
            if (pos + 4 > end).any():
                raise EntryFormatError("entry stream missing terminator")
            eid = _i32_at(words, pos)
            if (eid < 0).any():
                raise EntryFormatError("corrupt entry ID")
            live = eid != ENTRY_LAST
            rows, pos, end, eid = rows[live], pos[live], end[live], eid[live]
            step = np.full(rows.size, 4, dtype=np.int64)  # ENTRY_EMPTY
            valued = np.flatnonzero(eid != ENTRY_EMPTY)
            if valued.size:
                at = pos[valued]
                if (at + 8 > end[valued]).any():
                    raise EntryFormatError("truncated entry header")
                # the label ID, or the property value's length
                value = _i32_at(words, at + 4)
                is_label = eid[valued] == ENTRY_LABEL
                if (value[is_label] <= 0).any():
                    raise EntryFormatError("corrupt label ID")
                plen = np.where(is_label, 0, value)
                if (plen < 0).any() or (at + 8 + plen > end[valued]).any():
                    raise EntryFormatError("truncated property payload")
                step[valued] = 8 + plen
                out.append((rows[valued], eid[valued], at + 8, value))
            pos = pos + step
        if not out:
            empty = np.empty(0, dtype=np.int64)
            return (empty, empty, empty, empty)
        return tuple(np.concatenate(cols) for cols in zip(*out))

    def has_label(self, label_id: int) -> np.ndarray:
        """Per row: does the holder carry label ``label_id``?"""
        row, eid, _, value = self.entry_table()
        out = np.zeros(len(self), dtype=bool)
        out[row[(eid == ENTRY_LABEL) & (value == label_id)]] = True
        return out

    def property_spans(
        self, ptype_id: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, offsets, lengths)``: where in :attr:`span` the first
        ``ptype_id`` property value of each row that has one sits."""
        row, eid, offset, value = self.entry_table()
        sel = np.flatnonzero(eid == ptype_id)
        # entries of one row appear in stream order: keep the first
        rows, first = np.unique(row[sel], return_index=True)
        sel = sel[first]
        return rows, offset[sel], value[sel]
