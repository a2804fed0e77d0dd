"""Vertex and edge holder objects: the Logical Layout level (Section 5.4).

A *holder* is the variable-sized structure describing one vertex or one
heavyweight edge: selected metadata, the addresses of the blocks storing
the data, lightweight edges (stored inline in the source vertex holder,
Section 5.4.2), and the label/property entry stream (Section 5.4.3).

The holder is serialized into fixed-size BGDL blocks:

* the **primary block** starts with a 40-byte header followed by the
  block-address area and the beginning of the payload;
* the payload continues into *continuation data blocks* in order;
* for very large holders (heavy-tail vertices can have thousands of
  edges) the address area switches to **indirect addressing**: the
  primary block stores the addresses of *index blocks*, each packed with
  data-block addresses.  This keeps access depth at O(1) (two fetch
  rounds) regardless of holder size, in the spirit of the paper's
  "one remote operation per block" design.

Payload layout:

* vertex: ``edge_count`` 16-byte edge slots, then the entry stream;
* edge:   two 8-byte endpoint DPtrs, then the entry stream.

Edge slots pack ``(target DPtr, label integer ID, flags)`` where flags
carry the direction (OUT/IN/UNDIRECTED) and a HEAVY bit marking slots
whose DPtr points at an edge holder instead of a neighbor vertex.

Zero-copy codec
---------------

The on-wire layouts are mirrored by numpy structured dtypes
(:data:`SLOT_DTYPE`, :data:`HEADER_DTYPE`) so decoded holders keep the
raw slot region as an opaque buffer instead of eagerly unpacking one
:class:`EdgeSlot` per edge.  :meth:`VertexHolder.edges_as_arrays` views
that buffer directly (no per-edge Python objects); the ``edges`` list is
materialized lazily only when slot-granular mutation is needed, at which
point the buffer is dropped so the two representations can never
diverge.

Projected reads
---------------

:meth:`HolderStorage.read_many` accepts a *needs mask* (NEED_IDENT /
NEED_TOPO / NEED_ENTRIES) describing which holder parts the caller will
touch.  Partial reads fetch the 40-byte header plus a small
address-area hint first, then only the exact payload spans covering the
requested parts — a 2-hop traversal that only follows edges never pays
for property bytes.  The CRC covers the whole payload, so it is only
verified on full-payload reads; partial reads trade that check for
bandwidth (the block headers still catch stale/freed blocks).
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..gdi.errors import GdiChecksumError, GdiNoMemory, GdiStateError
from ..rma.runtime import RankContext
from .blocks import BlockManager
from .entries import (
    ENTRY_EMPTY,
    ENTRY_LABEL,
    ENTRY_LAST,
    EntryFormatError,
    decode_entries,
    encode_entries,
    entries_nbytes,
)
from .dptr import unpack_dptr

__all__ = [
    "HEADER_BYTES",
    "VERSION_OFFSET",
    "SLOT_BYTES",
    "DIR_OUT",
    "DIR_IN",
    "DIR_UNDIR",
    "DIR_MASK",
    "SLOT_HEAVY",
    "KIND_VERTEX",
    "KIND_EDGE",
    "NEED_IDENT",
    "NEED_TOPO",
    "NEED_ENTRIES",
    "NEED_ALL",
    "SLOT_DTYPE",
    "HEADER_DTYPE",
    "EdgeSlot",
    "VertexHolder",
    "EdgeHolder",
    "StoredHolder",
    "HolderBatch",
    "HolderStorage",
    "plan_layout",
    "csr_indptr",
    "ragged_index",
]

HEADER_BYTES = 40
SLOT_BYTES = 16

KIND_VERTEX = 1
KIND_EDGE = 2

# flags byte
FLAG_DIRECTED = 1  # edge holders: the edge is directed
FLAG_INDIRECT = 2  # address area holds index-block addresses

# edge-slot flags word
DIR_OUT = 1
DIR_IN = 2
DIR_UNDIR = 3
DIR_MASK = 3
SLOT_HEAVY = 4

# holder-part needs mask (projected reads)
NEED_IDENT = 1  # header only: kind, app_id, edge count
NEED_TOPO = 2  # the edge-slot region
NEED_ENTRIES = 4  # the label/property entry stream
NEED_ALL = NEED_IDENT | NEED_TOPO | NEED_ENTRIES

_HEADER = struct.Struct("<BBHIIqIIII")  # 36 bytes, padded to 40
_SLOT = struct.Struct("<qii")
_ENDPOINTS = struct.Struct("<qq")

#: numpy mirror of the 16-byte edge slot (``<qii``).
SLOT_DTYPE = np.dtype(
    [("dptr", "<i8"), ("label", "<i4"), ("flags", "<i4")]
)

#: numpy mirror of the 36-byte packed header (``<BBHIIqIIII``).
HEADER_DTYPE = np.dtype(
    [
        ("kind", "u1"),
        ("flags", "u1"),
        ("pad", "<u2"),
        ("ndata", "<u4"),
        ("nindex", "<u4"),
        ("app_id", "<i8"),
        ("edge_count", "<u4"),
        ("entries_len", "<u4"),
        ("payload_len", "<u4"),
        ("crc", "<u4"),
    ]
)

# The dtypes must mirror the struct layouts bit-for-bit, and the packed
# header must pad to exactly the documented HEADER_BYTES — the writers
# assume it, and a silent drift would corrupt every stored holder.
assert SLOT_DTYPE.itemsize == _SLOT.size == SLOT_BYTES
assert HEADER_DTYPE.itemsize == _HEADER.size == 36
assert HEADER_BYTES - _HEADER.size == 4, "header pads 36 -> 40 bytes"

#: byte offset of the MVCC commit version inside the 40-byte header: the
#: u32 occupying what used to be the trailing pad (bytes 36..40).  Holders
#: written before MVCC decode as version 0 — visible to every snapshot.
VERSION_OFFSET = _HEADER.size

#: bytes of address area fetched speculatively with every header read;
#: covers holders with up to 8 continuation/index addresses in one round.
_ADDR_HINT = 64

#: NEED_ALL batches smaller than this use the classic full-primary-block
#: read (one round fewer for small holders; CRC always verified).
_HEADER_FIRST_MIN_BATCH = 8

#: Batches of at least this many holders are decoded column-wise
#: (:class:`HolderBatch`).  The array pipeline has a fixed cost of ~100
#: numpy calls (~0.3 ms) against ~14 us per holder for the per-holder
#: decode: measured on the benchmark graph it breaks even at ~20 holders
#: when the caller reads columns and at ~64 when every row is turned
#: back into a ``StoredHolder``, so mid-sized OLTP batches (a one-hop
#: frontier, the neighbors of a deleted vertex) stay per-holder.
_COLUMNAR_MIN_BATCH = 64


@dataclass
class EdgeSlot:
    """One edge slot inside a vertex holder.

    For lightweight edges ``dptr`` addresses the neighbor vertex and
    ``label_id`` is the (single, optional — 0 means none) edge label.
    For heavy slots (``flags & SLOT_HEAVY``) ``dptr`` addresses the edge
    holder and ``label_id`` is unused.
    """

    dptr: int
    label_id: int
    flags: int

    @property
    def direction(self) -> int:
        return self.flags & DIR_MASK

    @property
    def heavy(self) -> bool:
        return bool(self.flags & SLOT_HEAVY)


class VertexHolder:
    """Decoded vertex: application ID, labels, properties, edge slots.

    The edge slots live in exactly one of two representations:

    * ``_slot_buf`` — the raw 16-byte-per-slot region as read off the
      wire (zero-copy; served to bulk consumers as numpy views);
    * ``_edges`` — a materialized ``list[EdgeSlot]`` for slot-granular
      mutation.

    Reading :attr:`edges` materializes the list and *drops the buffer*,
    so a mutated list can never coexist with a stale buffer.  Holders
    from projected reads may carry neither (topology not fetched);
    touching :attr:`edges` then raises :class:`GdiStateError` — the
    transaction layer hydrates missing parts before handing out slots.
    """

    kind = KIND_VERTEX

    __slots__ = ("app_id", "labels", "properties", "_edges", "_slot_buf")

    def __init__(
        self,
        app_id: int,
        labels: list[int] | None = None,
        properties: list[tuple[int, bytes]] | None = None,
        edges: list[EdgeSlot] | None = None,
    ) -> None:
        self.app_id = app_id
        self.labels = [] if labels is None else labels
        self.properties = [] if properties is None else properties
        self._edges: list[EdgeSlot] | None = (
            [] if edges is None else edges
        )
        self._slot_buf: bytes | None = None

    @classmethod
    def _from_wire(
        cls,
        app_id: int,
        labels: list[int] | None,
        properties: list[tuple[int, bytes]] | None,
        slot_buf: bytes | None,
    ) -> "VertexHolder":
        """Build a decoded holder, possibly with unfetched parts."""
        h = cls(app_id)
        h.labels = labels  # type: ignore[assignment]  # None = not fetched
        h.properties = properties  # type: ignore[assignment]
        h._edges = None
        h._slot_buf = slot_buf
        return h

    # -- edge-slot access --------------------------------------------------
    @property
    def edges(self) -> list[EdgeSlot]:
        if self._edges is None:
            if self._slot_buf is None:
                raise GdiStateError(
                    "vertex holder topology not loaded (projected read)"
                )
            self._edges = [
                EdgeSlot(dptr, label_id, flags)
                for dptr, label_id, flags in _SLOT.iter_unpack(self._slot_buf)
            ]
            self._slot_buf = None  # single source of truth from here on
        return self._edges

    @edges.setter
    def edges(self, value: list[EdgeSlot]) -> None:
        self._edges = value
        self._slot_buf = None

    @property
    def has_topology(self) -> bool:
        return self._edges is not None or self._slot_buf is not None

    @property
    def edge_count(self) -> int:
        if self._edges is not None:
            return len(self._edges)
        if self._slot_buf is not None:
            return len(self._slot_buf) // SLOT_BYTES
        raise GdiStateError(
            "vertex holder topology not loaded (projected read)"
        )

    def edges_as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(dptr, label, flags)`` arrays over the edge slots, zero-copy.

        When the holder still carries its wire buffer the arrays are
        read-only views straight over it (no per-edge objects, no
        copies); a materialized list is packed on the fly.
        """
        if self._slot_buf is not None:
            view = np.frombuffer(self._slot_buf, dtype=SLOT_DTYPE)
            return view["dptr"], view["label"], view["flags"]
        edges = self.edges
        n = len(edges)
        arr = np.empty(n, dtype=SLOT_DTYPE)
        if n:
            arr["dptr"] = [s.dptr for s in edges]
            arr["label"] = [s.label_id for s in edges]
            arr["flags"] = [s.flags for s in edges]
        return arr["dptr"], arr["label"], arr["flags"]

    def targets(self, label_id: int | None = None) -> np.ndarray:
        """DPtrs of lightweight neighbors, optionally for one edge label.

        Heavy slots are excluded (their DPtr addresses an edge holder,
        not a neighbor); bulk analytics consumers resolve those rarely
        and separately.
        """
        dptr, label, flags = self.edges_as_arrays()
        mask = (flags & SLOT_HEAVY) == 0
        if label_id is not None:
            mask &= label == label_id
        return dptr[mask]

    # -- serialization -----------------------------------------------------
    def _slot_bytes(self) -> bytes:
        if self._edges is None and self._slot_buf is not None:
            return self._slot_buf
        edges = self.edges
        if len(edges) >= 64:
            arr = np.empty(len(edges), dtype=SLOT_DTYPE)
            arr["dptr"] = [s.dptr for s in edges]
            arr["label"] = [s.label_id for s in edges]
            arr["flags"] = [s.flags for s in edges]
            return arr.tobytes()
        return b"".join(
            _SLOT.pack(s.dptr, s.label_id, s.flags) for s in edges
        )

    def payload(self) -> tuple[bytes, int]:
        stream = encode_entries(self.labels, self.properties)
        return self._slot_bytes() + stream, 0

    def payload_nbytes(self) -> int:
        return SLOT_BYTES * self.edge_count + entries_nbytes(
            self.labels, self.properties
        )

    # -- value semantics (kept from the dataclass era) ---------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexHolder):
            return NotImplemented
        return (
            self.app_id == other.app_id
            and self.labels == other.labels
            and self.properties == other.properties
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        edges = (
            f"<{len(self._slot_buf) // SLOT_BYTES} packed slots>"
            if self._edges is None and self._slot_buf is not None
            else self._edges
        )
        return (
            f"VertexHolder(app_id={self.app_id!r}, labels={self.labels!r}, "
            f"properties={self.properties!r}, edges={edges!r})"
        )


@dataclass
class EdgeHolder:
    """Decoded heavyweight edge: endpoints, direction, labels, properties."""

    src: int
    dst: int
    directed: bool = True
    labels: list[int] = field(default_factory=list)
    properties: list[tuple[int, bytes]] = field(default_factory=list)

    kind = KIND_EDGE
    app_id = 0
    edges: list = field(default=None, repr=False)  # type: ignore[assignment]

    def payload(self) -> tuple[bytes, int]:
        stream = encode_entries(self.labels, self.properties)
        flags = FLAG_DIRECTED if self.directed else 0
        return _ENDPOINTS.pack(self.src, self.dst) + stream, flags

    def payload_nbytes(self) -> int:
        return 16 + entries_nbytes(self.labels, self.properties)


def plan_layout(payload_len: int, block_size: int) -> tuple[int, int]:
    """Choose (nindex, ndata) for a holder of ``payload_len`` bytes.

    Returns ``nindex == 0`` for direct addressing.  Raises
    :class:`GdiNoMemory` if the holder cannot be represented even with
    full indirection (the user should raise the block size).
    """
    head_room = block_size - HEADER_BYTES
    if head_room < 8:
        raise GdiNoMemory(f"block size {block_size} below holder minimum")
    # Direct: primary holds ndata addresses + leading payload bytes.
    if payload_len <= head_room:
        return 0, 0
    # smallest ndata such that (head_room - 8*ndata) + ndata*block_size >= payload_len
    ndata = -(-(payload_len - head_room) // (block_size - 8))
    if HEADER_BYTES + 8 * ndata <= block_size:
        return 0, ndata
    # Indirect: primary holds nindex index-block addresses.
    per_index = block_size // 8
    max_index = head_room // 8
    for nindex in range(1, max_index + 1):
        cap_primary = head_room - 8 * nindex
        remaining = payload_len - cap_primary
        ndata = -(-remaining // block_size)
        if ndata <= nindex * per_index:
            return nindex, ndata
    raise GdiNoMemory(
        f"holder payload of {payload_len} B exceeds the addressing capacity "
        f"of {block_size}-byte blocks; increase the block size"
    )


@dataclass
class StoredHolder:
    """A holder together with its block placement (transaction cache unit)."""

    holder: VertexHolder | EdgeHolder
    primary: int
    data_blocks: list[int] = field(default_factory=list)
    index_blocks: list[int] = field(default_factory=list)
    #: which holder parts were actually fetched (projected reads); holders
    #: built locally or read in full carry NEED_ALL.
    parts: int = NEED_ALL
    #: commit timestamp of the transaction that last wrote this holder
    #: (the MVCC version in the header pad bytes); 0 for pre-MVCC data
    #: and for databases running without :mod:`repro.mvcc`.
    version: int = 0

    @property
    def all_blocks(self) -> list[int]:
        return [self.primary, *self.index_blocks, *self.data_blocks]

    @property
    def home_rank(self) -> int:
        return unpack_dptr(self.primary).rank


def csr_indptr(counts) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``: the row boundaries of a ragged array
    whose rows hold ``counts`` elements."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def ragged_index(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices ``starts[i] .. starts[i] + counts[i]`` for every ``i``,
    concatenated (the gather index of a ragged selection)."""
    ends = np.cumsum(counts)
    idx = np.repeat(starts - (ends - counts), counts)
    idx += np.arange(idx.size)
    return idx


def _specs(dptr, offset, nbytes) -> np.ndarray:
    """``(dptr, offset, nbytes)`` rows for :meth:`BlockManager.read_blocks`
    (scalars broadcast)."""
    out = np.empty((len(dptr), 3), dtype=np.int64)
    out[:, 0] = dptr
    out[:, 1] = offset
    out[:, 2] = nbytes
    return out


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
                    self.start, self.span_indptr, self.data_indptr,
                )
            ]
        (present, kind, flags, app_id, edge_count, need, version, primaries,
         start, span_indptr, data_indptr) = self._lists
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
        return HolderStorage._decode_span(info, start[i], span)

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


class HolderStorage:
    """Reads and writes holders over a :class:`BlockManager`.

    This is the translation layer between the Logical Layout (rich,
    variable-sized holders) and BGDL (fixed-size blocks) — the core of
    Section 5.5.
    """

    def __init__(self, blocks: BlockManager) -> None:
        self.blocks = blocks
        #: optional :class:`~repro.gda.replication.ReplicationManager`; when
        #: set, every block write-back is also staged to the owner's backup.
        self.mirror = None

    # -- serialization helpers --------------------------------------------
    def _pack_header(
        self,
        holder,
        flags: int,
        nindex: int,
        ndata: int,
        payload_len: int,
        crc: int = 0,
        version: int = 0,
    ) -> bytes:
        entries_len = entries_nbytes(holder.labels, holder.properties)
        edge_count = (
            holder.edge_count if holder.kind == KIND_VERTEX else 0
        )
        hdr = _HEADER.pack(
            holder.kind,
            flags,
            0,
            ndata,
            nindex,
            holder.app_id,
            edge_count,
            entries_len,
            payload_len,
            crc,
        )
        assert HEADER_BYTES - len(hdr) == 4
        # the former pad bytes carry the MVCC commit version
        return hdr + (version & 0xFFFFFFFF).to_bytes(4, "little")

    @staticmethod
    def _parse_payload(kind: int, flags: int, edge_count: int, payload: bytes):
        if kind == KIND_VERTEX:
            topo_len = SLOT_BYTES * edge_count
            labels, props = decode_entries(payload[topo_len:])
            # app_id is filled in by the caller from the header; the raw
            # slot region is kept as-is (zero-copy decode).
            return VertexHolder._from_wire(
                0, labels, props, payload[:topo_len]
            )
        if kind == KIND_EDGE:
            src, dst = _ENDPOINTS.unpack_from(payload, 0)
            labels, props = decode_entries(payload[16:])
            return EdgeHolder(
                src=src,
                dst=dst,
                directed=bool(flags & FLAG_DIRECTED),
                labels=labels,
                properties=props,
            )
        raise GdiStateError(f"corrupt holder kind {kind}")

    # -- write -----------------------------------------------------------------
    def write_new(
        self, ctx: RankContext, holder, home_rank: int
    ) -> StoredHolder:
        """Allocate blocks and write a fresh holder; returns its placement."""
        payload, extra_flags = holder.payload()
        nindex, ndata = plan_layout(len(payload), self.blocks.block_size)
        primary = self.blocks.acquire_block_anywhere(ctx, preferred=home_rank)
        stored = StoredHolder(holder=holder, primary=primary)
        stored.index_blocks = [
            self.blocks.acquire_block_anywhere(ctx, home_rank)
            for _ in range(nindex)
        ]
        stored.data_blocks = [
            self.blocks.acquire_block_anywhere(ctx, home_rank)
            for _ in range(ndata)
        ]
        self._write_out(ctx, self._write_items(stored, payload, extra_flags))
        return stored

    def rewrite(self, ctx: RankContext, stored: StoredHolder) -> None:
        """Write back a (mutated) holder, resizing its block set in place.

        Reuses the primary block and as many existing continuation blocks
        as possible; acquires extras or releases surplus as the holder
        grew or shrank.
        """
        self.rewrite_many(ctx, [stored])

    def rewrite_many(
        self, ctx: RankContext, stored_list: list[StoredHolder]
    ) -> None:
        """Write back many mutated holders with one batched flush.

        Each holder's block set is resized as in :meth:`rewrite`, then all
        block writes of all holders go out together — the transaction
        write pipeline.
        """
        if not stored_list:
            return
        items: list[tuple[int, bytes]] = []
        for stored in stored_list:
            payload, extra_flags = stored.holder.payload()
            nindex, ndata = plan_layout(len(payload), self.blocks.block_size)
            home = stored.home_rank
            self._resize(ctx, stored.data_blocks, ndata, home)
            self._resize(ctx, stored.index_blocks, nindex, home)
            items.extend(self._write_items(stored, payload, extra_flags))
        self._write_out(ctx, items)

    def _write_out(self, ctx: RankContext, items: list[tuple[int, bytes]]) -> None:
        """Write ``(dptr, data)`` block items, stage their mirror, flush.

        All block writes are non-blocking, coalesced into one network
        message per distinct owner rank, and complete at one data-window
        flush: the paper's overlap of one-sided communication (Section
        5.1).
        """
        self.blocks.iwrite_blocks(ctx, items)
        if self.mirror is not None:
            self.mirror.stage(ctx, items)
        ctx.flush(self.blocks.data_win)

    def _resize(
        self, ctx: RankContext, blocks: list[int], want: int, home: int
    ) -> None:
        """Grow or shrink a block list in place to ``want`` entries."""
        while len(blocks) < want:
            blocks.append(self.blocks.acquire_block_anywhere(ctx, home))
        while len(blocks) > want:
            self.blocks.release_block(ctx, blocks.pop())

    def _write_items(
        self,
        stored: StoredHolder,
        payload: bytes,
        extra_flags: int,
    ) -> list[tuple[int, bytes]]:
        """Serialize a holder into ``(dptr, data)`` block-write items."""
        bs = self.blocks.block_size
        holder = stored.holder
        flags = extra_flags | (FLAG_INDIRECT if stored.index_blocks else 0)
        nindex = len(stored.index_blocks)
        ndata = len(stored.data_blocks)
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        header = self._pack_header(
            holder, flags, nindex, ndata, len(payload), crc, stored.version
        )
        items: list[tuple[int, bytes]] = []
        if nindex:
            addr_area = b"".join(
                p.to_bytes(8, "little", signed=True) for p in stored.index_blocks
            )
            # index blocks hold the data-block addresses, packed.
            per_index = bs // 8
            for j, iptr in enumerate(stored.index_blocks):
                chunk = stored.data_blocks[j * per_index : (j + 1) * per_index]
                blob = b"".join(
                    p.to_bytes(8, "little", signed=True) for p in chunk
                )
                items.append((iptr, blob))
        else:
            addr_area = b"".join(
                p.to_bytes(8, "little", signed=True) for p in stored.data_blocks
            )
        cap_primary = bs - HEADER_BYTES - len(addr_area)
        head = payload[:cap_primary]
        primary_blob = header + addr_area + head
        primary_blob += b"\x00" * (bs - len(primary_blob))
        items.append((stored.primary, primary_blob))
        pos = len(head)
        for dptr in stored.data_blocks:
            chunk = payload[pos : pos + bs]
            items.append((dptr, chunk))
            pos += len(chunk)
        return items

    # -- read -------------------------------------------------------------------
    def read(
        self, ctx: RankContext, primary: int, need: int = NEED_ALL
    ) -> StoredHolder:
        """Fetch and decode the holder whose primary block is ``primary``."""
        return self.read_many(ctx, [primary], need=need)[0]  # type: ignore[return-value]

    def read_many(
        self,
        ctx: RankContext,
        primaries: list[int],
        missing_ok: bool = False,
        need: int | list[int] = NEED_ALL,
    ) -> "list[StoredHolder | None] | HolderBatch":
        """Fetch and decode many holders with batched per-rank reads.

        ``need`` is a holder-parts mask (or one mask per primary):
        callers that will only follow edges pass ``NEED_TOPO``, property
        filters pass ``NEED_ENTRIES``, pure existence checks
        ``NEED_IDENT``.  Partial reads fetch the header plus only the
        exact payload spans covering the requested parts; full reads of
        small batches keep the classic full-primary-block path (and its
        CRC verification).  Edge holders are always read in full.

        A constant number of fetch rounds regardless of holder count,
        each round one coalesced message per distinct owner rank.  With
        ``missing_ok`` a primary block that holds no holder yields
        ``None`` instead of raising :class:`GdiStateError`.

        Batches of :data:`_COLUMNAR_MIN_BATCH` or more holders run the
        header-first rounds as array operations and come back as a
        :class:`HolderBatch` — the same sequence of holders, decoded row
        by row only when indexed, plus the columns bulk scans read
        directly.  Smaller batches keep the per-holder decode.
        """
        if not primaries:
            return []
        needs = (
            list(need)
            if isinstance(need, (list, tuple))
            else [need] * len(primaries)
        )
        if len(needs) != len(primaries):
            raise ValueError("needs mask list must match primaries")
        if len(primaries) >= _COLUMNAR_MIN_BATCH:
            return self._read_many_columnar(ctx, primaries, needs, missing_ok)
        if (
            all(n == NEED_ALL for n in needs)
            and len(primaries) < _HEADER_FIRST_MIN_BATCH
        ):
            return self._read_many_full(ctx, primaries, missing_ok)
        return self._read_many_projected(ctx, primaries, needs, missing_ok)

    def _decode_header(
        self, primary: int, blob: bytes, missing_ok: bool
    ) -> dict | None:
        (
            kind,
            flags,
            _,
            ndata,
            nindex,
            app_id,
            edge_count,
            entries_len,
            payload_len,
            crc,
        ) = _HEADER.unpack_from(blob, 0)
        if kind not in (KIND_VERTEX, KIND_EDGE):
            if missing_ok:
                return None
            raise GdiStateError(f"no holder at {primary:#x} (kind={kind})")
        return {
            "primary": primary,
            "kind": kind,
            "flags": flags,
            "ndata": ndata,
            "nindex": nindex,
            "app_id": app_id,
            "edge_count": edge_count,
            "entries_len": entries_len,
            "payload_len": payload_len,
            "crc": crc,
            "version": int.from_bytes(
                blob[VERSION_OFFSET : VERSION_OFFSET + 4], "little"
            ),
            "blob": blob,
            "index_blocks": [],
            "data_blocks": [],
        }

    def _read_index_blocks(self, ctx: RankContext, infos: list[dict]) -> None:
        """One read round over the index blocks of indirect holders: the
        data-block addresses they hold are appended to each
        ``info["data_blocks"]``, ``info["ndata"]`` of them in all."""
        per_index = self.blocks.block_size // 8
        specs: list[tuple[int, int, int]] = []
        owner: list[dict] = []
        for info in infos:
            remaining = info["ndata"]
            for iptr in info["index_blocks"]:
                take = min(per_index, remaining)
                specs.append((iptr, 0, 8 * take))
                owner.append(info)
                remaining -= take
        if specs:
            for info, blob in zip(owner, self.blocks.read_blocks(ctx, specs)):
                info["data_blocks"].extend(
                    np.frombuffer(blob, dtype="<i8").tolist()
                )

    def _read_many_full(
        self,
        ctx: RankContext,
        primaries: list[int],
        missing_ok: bool,
    ) -> list[StoredHolder | None]:
        """Classic path: full primary blocks, then index, then data.

        :meth:`_read_many_projected` with a whole-block hint would read
        the same bytes in the same rounds, but this is the hot path and
        the shared body measured slower: one primary read in full is
        100 % / 97.5 % / 91.1 % of the ``read_many`` calls of the
        benchmark's oltp_read / oltp_write / serve_short workloads, and
        the fold cost 18.5 -> 22.8 us per read of one and 66.6 -> 77.2 us
        per read of five (min of 9 loops) at bit-identical clocks and
        counters.  So the path stays, chosen by :meth:`read_many` from
        batch size and needs mask.
        """
        bs = self.blocks.block_size
        # Round 1: every primary block, coalesced per owner rank.
        blobs = self.blocks.read_blocks(ctx, [(p, 0, bs) for p in primaries])
        infos: list[dict | None] = []
        indirect: list[dict] = []
        for primary, blob in zip(primaries, blobs):
            info = self._decode_header(primary, blob, missing_ok)
            if info is None:
                infos.append(None)
                continue
            pos = HEADER_BYTES
            addrs = np.frombuffer(
                blob,
                dtype="<i8",
                count=(
                    info["nindex"]
                    if info["flags"] & FLAG_INDIRECT
                    else info["ndata"]
                ),
                offset=pos,
            )
            if info["flags"] & FLAG_INDIRECT:
                info["index_blocks"] = addrs.tolist()
                indirect.append(info)
            else:
                info["data_blocks"] = addrs.tolist()
            info["pos"] = pos + 8 * len(addrs)
            infos.append(info)
        # Round 2: index blocks of indirect holders, all in one batch.
        if indirect:
            self._read_index_blocks(ctx, indirect)
        # Round 3: every continuation data block of every holder.
        data_specs: list[tuple[int, int, int]] = []
        data_owner: list[dict] = []
        for info in infos:
            if info is None:
                continue
            head = info["blob"][
                info["pos"] : info["pos"]
                + min(info["payload_len"], bs - info["pos"])
            ]
            info["pieces"] = [head]
            got = len(head)
            for dptr in info["data_blocks"]:
                take = min(bs, info["payload_len"] - got)
                data_specs.append((dptr, 0, take))
                data_owner.append(info)
                got += take
        if data_specs:
            dblobs = self.blocks.read_blocks(ctx, data_specs)
            for info, dblob in zip(data_owner, dblobs):
                info["pieces"].append(dblob)
        out: list[StoredHolder | None] = []
        for info in infos:
            if info is None:
                out.append(None)
                continue
            payload = b"".join(info["pieces"])
            self._check_crc(ctx, info, payload)
            holder = self._parse_payload(
                info["kind"], info["flags"], info["edge_count"], payload
            )
            holder.app_id = info["app_id"]
            out.append(
                StoredHolder(
                    holder=holder,
                    primary=info["primary"],
                    data_blocks=info["data_blocks"],
                    index_blocks=info["index_blocks"],
                    version=info["version"],
                )
            )
        return out

    def _check_crc(self, ctx: RankContext, info: dict, payload: bytes) -> None:
        if zlib.crc32(payload) & 0xFFFFFFFF != info["crc"]:
            ctx.rt.trace.record_corruption_detected(ctx.rank)
            raise GdiChecksumError(
                f"holder at {info['primary']:#x} failed CRC32 "
                f"verification (payload of {len(payload)} B)"
            )

    def _read_many_projected(
        self,
        ctx: RankContext,
        primaries: list[int],
        needs: list[int],
        missing_ok: bool,
    ) -> list[StoredHolder | None]:
        """Header-first path: exact payload spans for the needed parts.

        Rounds: (1) header + address hint, (2) address-area overflow +
        index blocks already addressable, (3) index blocks behind an
        overflow, (4) payload spans.  Rounds 2 and 3 are usually empty.
        """
        bs = self.blocks.block_size
        hint_len = min(bs, HEADER_BYTES + _ADDR_HINT)
        blobs = self.blocks.read_blocks(
            ctx, [(p, 0, hint_len) for p in primaries]
        )
        infos: list[dict | None] = []
        # Round 2: complete the address areas.
        over_specs: list[tuple[int, int, int]] = []
        over_owner: list[dict] = []
        for primary, blob, n in zip(primaries, blobs, needs):
            info = self._decode_header(primary, blob, missing_ok)
            infos.append(info)
            if info is None:
                continue
            if info["kind"] == KIND_EDGE:
                n = NEED_ALL  # endpoints and entries interleave: read all
            info["need"] = n
            indirect = bool(info["flags"] & FLAG_INDIRECT)
            naddr = info["nindex"] if indirect else info["ndata"]
            info["pos"] = HEADER_BYTES + 8 * naddr
            avail = min(naddr, (hint_len - HEADER_BYTES) // 8)
            addrs = np.frombuffer(
                blob, dtype="<i8", count=avail, offset=HEADER_BYTES
            ).tolist()
            if indirect:
                info["index_blocks"] = addrs
            else:
                info["data_blocks"] = addrs
            if avail < naddr:
                over_specs.append(
                    (primary, HEADER_BYTES + 8 * avail, 8 * (naddr - avail))
                )
                over_owner.append(info)
        late_index: list[dict] = []
        if over_specs:
            oblobs = self.blocks.read_blocks(ctx, over_specs)
            for info, oblob in zip(over_owner, oblobs):
                addrs = np.frombuffer(oblob, dtype="<i8").tolist()
                if info["flags"] & FLAG_INDIRECT:
                    info["index_blocks"].extend(addrs)
                    late_index.append(info)
                else:
                    info["data_blocks"].extend(addrs)
        # Rounds 2b/3: index blocks (early for hint-resolved holders).
        late_ids = {id(i) for i in late_index}
        self._read_index_blocks(
            ctx,
            [
                i
                for i in infos
                if i and i["index_blocks"] and id(i) not in late_ids
            ],
        )
        self._read_index_blocks(ctx, late_index)
        # Round 4: exact payload spans.
        span_specs: list[tuple[int, int, int]] = []
        span_owner: list[dict] = []
        for info in infos:
            if info is None:
                continue
            start, end = self._need_span(info)
            info["span"] = (start, end)
            info["pieces"] = []
            if end <= start:
                continue
            head_len = max(0, min(info["payload_len"], bs - info["pos"]))
            if start < head_len:
                take = min(end, head_len) - start
                span_specs.append((info["primary"], info["pos"] + start, take))
                span_owner.append(info)
            if end > head_len:
                lo = max(start, head_len) - head_len
                hi = end - head_len
                first = lo // bs
                last = (hi - 1) // bs
                for j in range(first, last + 1):
                    boff = max(lo - j * bs, 0)
                    bend = min(hi - j * bs, bs)
                    span_specs.append(
                        (info["data_blocks"][j], boff, bend - boff)
                    )
                    span_owner.append(info)
        if span_specs:
            sblobs = self.blocks.read_blocks(ctx, span_specs)
            for info, sblob in zip(span_owner, sblobs):
                info["pieces"].append(sblob)
        out: list[StoredHolder | None] = []
        for info in infos:
            if info is None:
                out.append(None)
                continue
            out.append(self._assemble_projected(ctx, info))
        return out

    def _read_many_columnar(
        self,
        ctx: RankContext,
        primaries: list[int],
        needs: list[int],
        missing_ok: bool,
    ) -> HolderBatch:
        """:meth:`_read_many_projected` over whole columns.

        The same rounds with the same elements — so the same simulated
        charges — but every header is decoded through one
        :data:`HEADER_DTYPE` view, the address and span arithmetic is
        array arithmetic, and the payload spans land in one buffer.
        Only holders with indirect index blocks (a handful of hubs) are
        walked one by one, and only for their index rounds.
        """
        bs = self.blocks.block_size
        read = self.blocks.read_blocks
        n = len(primaries)
        prim = np.asarray(primaries, dtype=np.int64)
        hint_len = min(bs, HEADER_BYTES + _ADDR_HINT)
        nhint = (hint_len - HEADER_BYTES) // 8
        # Round 1: header + address hint of every primary block.
        hint = read(ctx, _specs(prim, 0, hint_len)).view(
            np.dtype(
                [
                    ("h", HEADER_DTYPE),
                    ("version", "<u4"),
                    ("addr", "<i8", (nhint,)),
                ]
            )
        )
        h = hint["h"]
        present = (h["kind"] == KIND_VERTEX) | (h["kind"] == KIND_EDGE)
        if not missing_ok and not present.all():
            i = int(np.argmin(present))
            raise GdiStateError(
                f"no holder at {primaries[i]:#x} (kind={int(h['kind'][i])})"
            )

        def column(values: np.ndarray) -> np.ndarray:
            # int64, and zero in the rows that hold no holder
            return np.where(present, values, 0).astype(np.int64)

        kind = column(h["kind"])
        flags = column(h["flags"])
        ndata = column(h["ndata"])
        edge_count = column(h["edge_count"])
        payload_len = column(h["payload_len"])
        header = {
            "present": present,
            "kind": kind,
            "flags": flags,
            "app_id": column(h["app_id"]),
            "edge_count": edge_count,
            "version": column(hint["version"]),
        }
        # endpoints and entries of an edge holder interleave: read all
        need = np.where(
            kind == KIND_EDGE, NEED_ALL, np.asarray(needs, dtype=np.int64)
        )
        indirect = (flags & FLAG_INDIRECT) != 0
        naddr = np.where(indirect, column(h["nindex"]), ndata)
        pos = HEADER_BYTES + 8 * naddr  # where the payload starts
        addr_indptr = csr_indptr(naddr)
        addrs = np.empty(int(addr_indptr[-1]), dtype=np.int64)
        avail = np.minimum(naddr, nhint)
        hinted = np.arange(nhint) < avail[:, None]
        addrs[ragged_index(addr_indptr[:-1], avail)] = hint["addr"][hinted]
        # Round 2: the address areas the hint did not cover.
        over = np.flatnonzero(avail < naddr)
        if over.size:
            rest = naddr[over] - avail[over]
            words = read(
                ctx,
                _specs(prim[over], HEADER_BYTES + 8 * avail[over], 8 * rest),
            ).view("<i8")
            addrs[
                ragged_index(addr_indptr[over] + avail[over], rest)
            ] = words
        data_blocks, data_indptr = addrs, addr_indptr
        index_blocks: dict[int, list[int]] = {}
        if indirect.any():
            # Rounds 2b/3: index blocks, first of the holders whose index
            # addresses the hint covered, then of those behind an overflow.
            walks = {
                i: {
                    "ndata": int(ndata[i]),
                    "index_blocks": addrs[
                        addr_indptr[i] : addr_indptr[i + 1]
                    ].tolist(),
                    "data_blocks": [],
                }
                for i in np.flatnonzero(indirect).tolist()
            }
            late = set(over.tolist())
            self._read_index_blocks(
                ctx, [w for i, w in walks.items() if i not in late]
            )
            self._read_index_blocks(
                ctx, [w for i, w in walks.items() if i in late]
            )
            index_blocks = {i: w["index_blocks"] for i, w in walks.items()}
            data_indptr = csr_indptr(ndata)
            data_blocks = np.empty(int(data_indptr[-1]), dtype=np.int64)
            direct = np.where(indirect, 0, ndata)
            data_blocks[ragged_index(data_indptr[:-1], direct)] = addrs[
                ragged_index(addr_indptr[:-1], direct)
            ]
            for i, w in walks.items():
                data_blocks[data_indptr[i] : data_indptr[i + 1]] = w[
                    "data_blocks"
                ]
        # Round 4: the exact payload span of every row, as one piece in
        # the primary block and one per continuation block it touches.
        topo_len = np.where(kind == KIND_VERTEX, SLOT_BYTES * edge_count, 0)
        want_topo = (need & NEED_TOPO) != 0
        want_entries = (need & NEED_ENTRIES) != 0
        start = np.where(want_entries & ~want_topo, topo_len, 0)
        end = np.where(
            want_entries, payload_len, np.where(want_topo, topo_len, 0)
        )
        fetch = end > start
        head_len = np.clip(np.minimum(payload_len, bs - pos), 0, None)
        in_primary = fetch & (start < head_len)
        lo = np.maximum(start, head_len) - head_len
        hi = end - head_len
        first_blk = lo // bs
        nblk = np.where(fetch & (hi > 0), (hi - 1) // bs - first_blk + 1, 0)
        pieces = in_primary + nblk
        piece_indptr = csr_indptr(pieces)
        specs = np.empty((int(piece_indptr[-1]), 3), dtype=np.int64)
        prows = np.flatnonzero(in_primary)
        at = piece_indptr[prows]
        specs[at, 0] = prim[prows]
        specs[at, 1] = pos[prows] + start[prows]
        specs[at, 2] = np.minimum(end, head_len)[prows] - start[prows]
        brow = np.repeat(np.arange(n), nblk)  # row of each block piece
        ordinal = np.arange(brow.size) - np.repeat(
            np.cumsum(nblk) - nblk, nblk
        )
        j = first_blk[brow] + ordinal
        boff = np.maximum(lo[brow] - j * bs, 0)
        at = piece_indptr[brow] + in_primary[brow] + ordinal
        specs[at, 0] = data_blocks[data_indptr[brow] + j]
        specs[at, 1] = boff
        specs[at, 2] = np.minimum(hi[brow] - j * bs, bs) - boff
        span = read(ctx, specs) if len(specs) else np.empty(0, np.uint8)
        span_indptr = csr_indptr(np.where(fetch, end - start, 0))
        # the CRC covers the whole payload: verifiable on full spans only
        full = present & (start == 0) & (end == payload_len)
        crc = column(h["crc"])
        check = np.flatnonzero(full & (payload_len > 0))
        spans = map(
            memoryview(span).__getitem__,
            map(slice, span_indptr[check].tolist(), span_indptr[check + 1].tolist()),
        )
        got = np.fromiter(
            map(zlib.crc32, spans), dtype=np.int64, count=check.size
        )
        bad = np.concatenate(
            [check[got != crc[check]],
             np.flatnonzero(full & (payload_len == 0) & (crc != 0))]
        )
        if bad.size:
            i = int(bad.min())
            self._check_crc(
                ctx,
                {"primary": primaries[i], "crc": int(crc[i])},
                span[span_indptr[i] : span_indptr[i + 1]].tobytes(),
            )
        return HolderBatch(
            prim, header, need, start, span, span_indptr,
            data_blocks, data_indptr, index_blocks,
        )

    @staticmethod
    def _need_span(info: dict) -> tuple[int, int]:
        """Payload byte range [start, end) covering the needed parts."""
        n = info["need"]
        if info["kind"] == KIND_EDGE:
            return 0, info["payload_len"]
        topo_len = SLOT_BYTES * info["edge_count"]
        want_topo = bool(n & NEED_TOPO)
        want_entries = bool(n & NEED_ENTRIES)
        if want_topo and want_entries:
            return 0, info["payload_len"]
        if want_topo:
            return 0, topo_len
        if want_entries:
            return topo_len, info["payload_len"]
        return 0, 0

    def _assemble_projected(
        self, ctx: RankContext, info: dict
    ) -> StoredHolder:
        start, end = info["span"]
        span = b"".join(info["pieces"])
        if start == 0 and end == info["payload_len"]:
            # the CRC covers the whole payload; only verifiable here
            self._check_crc(ctx, info, span)
        return self._decode_span(info, start, span)

    @classmethod
    def _decode_span(cls, info: dict, start: int, span: bytes) -> StoredHolder:
        """Build the holder of one header ``info`` from its fetched span
        (the payload bytes from offset ``start`` on)."""
        if info["kind"] == KIND_EDGE:
            holder = cls._parse_payload(
                info["kind"], info["flags"], info["edge_count"], span
            )
            holder.app_id = info["app_id"]
            parts = NEED_ALL
        else:
            topo_len = SLOT_BYTES * info["edge_count"]
            n = info["need"]
            slot_buf = span[: topo_len - start] if n & NEED_TOPO else None
            if n & NEED_ENTRIES:
                labels, props = decode_entries(span[topo_len - start :])
            else:
                labels = props = None
            holder = VertexHolder._from_wire(
                info["app_id"], labels, props, slot_buf
            )
            parts = NEED_IDENT | (n & (NEED_TOPO | NEED_ENTRIES))
        return StoredHolder(
            holder=holder,
            primary=info["primary"],
            data_blocks=info["data_blocks"],
            index_blocks=info["index_blocks"],
            parts=parts,
            version=info["version"],
        )

    # -- delete --------------------------------------------------------------------
    def delete(self, ctx: RankContext, stored: StoredHolder) -> None:
        """Release every block of the holder (primary last)."""
        self.delete_many(ctx, [stored])

    def delete_many(
        self, ctx: RankContext, stored_list: list[StoredHolder]
    ) -> None:
        """Release the blocks of many holders with one batched header clear.

        The header clears (which make stale reads fail loudly) coalesce
        into one non-blocking write batch completed by a single flush;
        the free-list releases stay scalar because each is a CAS chain on
        the owner's allocator head.
        """
        if not stored_list:
            return
        self.blocks.iwrite_blocks(
            ctx,
            [(s.primary, b"\x00" * HEADER_BYTES) for s in stored_list],
        )
        ctx.flush(self.blocks.data_win)
        for stored in stored_list:
            for dptr in stored.data_blocks:
                self.blocks.release_block(ctx, dptr)
            for dptr in stored.index_blocks:
                self.blocks.release_block(ctx, dptr)
            self.blocks.release_block(ctx, stored.primary)
            stored.data_blocks = []
            stored.index_blocks = []
