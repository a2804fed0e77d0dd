"""Vertex and edge holders in memory, and the constants of their wire form.

The Logical Layout objects of Section 5.4 as a transaction holds them —
:class:`VertexHolder`, :class:`EdgeHolder`, the edge slots of a vertex
and :class:`StoredHolder` (a holder plus its block placement) — with the
struct layouts, numpy dtypes and flag values the on-wire form is made
of.  :mod:`repro.gda.holder` (which re-exports every name here) moves
these to and from BGDL blocks; :mod:`repro.gda.holder_batch` is the
columnar form of a bulk read.

Zero-copy codec
---------------

The on-wire layouts are mirrored by numpy structured dtypes
(:data:`SLOT_DTYPE`, :data:`HEADER_DTYPE`).  A vertex keeps its edge
slots in one form only: the packed 16-byte-per-slot region, as read off
the wire or as last rebuilt.  :meth:`VertexHolder.edges_as_arrays` views
it without copying; :attr:`VertexHolder.edges` decodes it into a tuple of
:class:`EdgeSlot` values; adding or removing a slot rebinds the holder to
a new bytes object, so a buffer once read is never changed and a
pre-image may share it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import partial
from itertools import starmap
from typing import NamedTuple

import numpy as np

from ..gdi.errors import GdiNoMemory, GdiStateError
from .dptr import unpack_dptr
from .entries import decode_entries, encode_entries, entries_nbytes

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
    "plan_layout",
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

#: the 40 bytes a primary block starts with: the packed header, then the
#: MVCC commit version
_BLOCK_HEADER = struct.Struct(_HEADER.format + "I")
assert _BLOCK_HEADER.size == HEADER_BYTES


class EdgeSlot(NamedTuple):
    """One edge slot inside a vertex holder, as a value.

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


#: one unpacked ``(dptr, label_id, flags)`` row as an :class:`EdgeSlot`,
#: built at C speed (what ``EdgeSlot._make`` does, without its frame)
_as_slot = partial(tuple.__new__, EdgeSlot)


class VertexHolder:
    """Decoded vertex: application ID, labels, properties, edge slots.

    The edge slots are ``_slot_buf``: the raw 16-byte-per-slot region,
    in slot order, as read off the wire (served to bulk consumers as
    numpy views).  It is ``None`` for a projected read that did not
    fetch the topology; touching the slots then raises
    :class:`GdiStateError` — the transaction layer hydrates missing
    parts before handing out slots.  :attr:`edges` is a read-only tuple
    decoded from it; :meth:`add_slot` and :meth:`remove_slot` rebind it
    to a new bytes object, never change one in place, so "the same
    buffer object" means "the bytes read".

    The label/property entry stream is kept in wire form the same way:
    ``_entry_buf`` holds the bytes as read (checksummed with the rest of
    the payload on a full read) until :attr:`labels` or
    :attr:`properties` is first touched, which decodes them into the two
    lists and drops the buffer (a malformed stream raises
    :class:`~repro.gda.entries.EntryFormatError` there).  A stream nobody
    touched is written back as the bytes it was read as.  Both lists are
    ``None`` when the stream was not fetched.
    """

    kind = KIND_VERTEX

    __slots__ = ("app_id", "_labels", "_properties", "_entry_buf", "_slot_buf")

    def __init__(
        self,
        app_id: int,
        labels: list[int] | None = None,
        properties: list[tuple[int, bytes]] | None = None,
        edges: list[EdgeSlot] | None = None,
    ) -> None:
        self.app_id = app_id
        self._labels = [] if labels is None else labels
        self._properties = [] if properties is None else properties
        self._entry_buf: bytes | None = None
        self._slot_buf: bytes | None = b"".join(starmap(_SLOT.pack, edges or ()))

    @classmethod
    def _from_wire(
        cls, app_id: int, entry_buf: bytes | None, slot_buf: bytes | None
    ) -> "VertexHolder":
        """A holder still in wire form; ``None`` for a part not fetched."""
        h = cls.__new__(cls)
        h.app_id = app_id
        h._labels = h._properties = None
        h._entry_buf = entry_buf
        h._slot_buf = slot_buf
        return h

    # -- label/property access ---------------------------------------------
    def _decode_entries(self) -> None:
        """Decode the fetched entry stream: the first touch of either list."""
        # an MVCC pre-image is served to many readers: whoever comes
        # second must find either the buffer or both lists
        buf = self._entry_buf
        if buf is not None:
            self._labels, self._properties = decode_entries(buf)
            self._entry_buf = None  # single source of truth from here on

    @property
    def labels(self) -> list[int]:
        if self._entry_buf is not None:
            self._decode_entries()
        return self._labels

    @labels.setter
    def labels(self, value: list[int]) -> None:
        if self._entry_buf is not None:
            self._decode_entries()
        self._labels = value

    @property
    def properties(self) -> list[tuple[int, bytes]]:
        if self._entry_buf is not None:
            self._decode_entries()
        return self._properties

    @properties.setter
    def properties(self, value: list[tuple[int, bytes]]) -> None:
        if self._entry_buf is not None:
            self._decode_entries()
        self._properties = value

    # -- edge-slot access --------------------------------------------------
    def _slots(self) -> bytes:
        if self._slot_buf is None:
            raise GdiStateError(
                "vertex holder topology not loaded (projected read)"
            )
        return self._slot_buf

    @property
    def edges(self) -> "tuple[EdgeSlot, ...]":
        return tuple(map(_as_slot, _SLOT.iter_unpack(self._slots())))

    @property
    def has_topology(self) -> bool:
        return self._slot_buf is not None

    @property
    def edge_count(self) -> int:
        return len(self._slots()) // SLOT_BYTES

    def add_slot(self, slot: EdgeSlot) -> None:
        self._slot_buf = self._slots() + _SLOT.pack(*slot)

    def remove_slot(self, slot: EdgeSlot) -> bool:
        """Splice out the first slot equal to ``slot``, keeping slot
        order; ``False`` if there is none."""
        buf, packed = self._slots(), _SLOT.pack(*slot)
        at = buf.find(packed)
        while at > 0 and at % SLOT_BYTES:  # a match straddling two slots
            at = buf.find(packed, at + 1)
        if at < 0:
            return False
        self._slot_buf = buf[:at] + buf[at + SLOT_BYTES :]
        return True

    def edges_as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(dptr, label, flags)`` arrays over the edge slots: read-only
        views straight over the slot region (no per-edge objects, no
        copies)."""
        view = np.frombuffer(self._slots(), dtype=SLOT_DTYPE)
        return view["dptr"], view["label"], view["flags"]

    def _slot_values(self):
        """``(dptr, label_id, flags)`` per slot, in slot order, at C speed."""
        return _SLOT.iter_unpack(self._slots())

    # -- serialization -----------------------------------------------------
    def payload(self) -> tuple[bytes, int]:
        stream = self._entry_buf
        if stream is None:
            stream = encode_entries(self._labels, self._properties)
        return self._slots() + stream, 0

    def payload_nbytes(self) -> int:
        if self._entry_buf is not None:
            return len(self._slots()) + len(self._entry_buf)
        return len(self._slots()) + entries_nbytes(
            self._labels, self._properties
        )

    # -- value semantics (kept from the dataclass era) ---------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexHolder):
            return NotImplemented
        return (
            self.app_id == other.app_id
            and self.labels == other.labels
            and self.properties == other.properties
            and self._slot_buf == other._slot_buf
        )

    def __repr__(self) -> str:
        edges = self.edges if self.has_topology else None
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
    #: (the MVCC version in the header pad bytes); 0 until a commit
    #: stamps it.
    version: int = 0

    @property
    def all_blocks(self) -> list[int]:
        return [self.primary, *self.index_blocks, *self.data_blocks]

    @property
    def home_rank(self) -> int:
        return unpack_dptr(self.primary).rank


def _decode_span(info: dict, span: bytes) -> StoredHolder:
    """Build the holder of one header ``info`` from the payload span its
    ``need`` mask fetched: the edge-slot region, then the entry stream,
    each present only when needed.  A vertex keeps both as the bytes
    they are (zero-copy decode); an edge holder is always read whole."""
    n = info["need"]
    if info["kind"] == KIND_EDGE:
        src, dst = _ENDPOINTS.unpack_from(span, 0)
        labels, props = decode_entries(span[16:])
        holder = EdgeHolder(
            src, dst, bool(info["flags"] & FLAG_DIRECTED), labels, props
        )
    elif n & NEED_TOPO:
        topo_len = SLOT_BYTES * info["edge_count"]
        holder = VertexHolder._from_wire(
            info["app_id"],
            span[topo_len:] if n & NEED_ENTRIES else None,
            span[:topo_len],
        )
    else:
        holder = VertexHolder._from_wire(
            info["app_id"], span if n & NEED_ENTRIES else None, None
        )
    return StoredHolder(
        holder,
        info["primary"],
        info["data_blocks"],
        info["index_blocks"],
        n | NEED_IDENT,
        info["version"],
    )
