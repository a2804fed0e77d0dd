"""64-bit distributed pointers and tagged pointers (paper Section 5.3).

GDA implements internal IDs as 64-bit *distributed hierarchical pointers*
(DPtr): the upper 16 bits name the compute server (rank), the lower 48 bits
a local byte offset to the primary block of the object.  The 64-bit width
is deliberate — it lets every pointer live in a single atomic granule so
that hardware-accelerated remote atomics (CAS/FAA) can operate on them.

The BGDL free lists additionally use the *tagged pointer* technique against
the ABA problem (paper Section 5.5): a 32-bit monotonically increasing tag
packed next to a 32-bit block index, again inside one 64-bit word.

All values are stored in windows as *signed* 64-bit integers (that is what
the atomic granule holds), so the pack functions return Python ints wrapped
to two's complement and the unpack functions accept either signing.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "DPTR_NULL",
    "RANK_BITS",
    "OFFSET_BITS",
    "MAX_RANK",
    "MAX_OFFSET",
    "DPtr",
    "pack_dptr",
    "unpack_dptr",
    "is_null",
    "TAG_NULL_INDEX",
    "pack_tagged",
    "unpack_tagged",
    "pack_edge_uid",
    "unpack_edge_uid",
    "EDGE_UID_BYTES",
]

RANK_BITS = 16
OFFSET_BITS = 48
MAX_RANK = (1 << RANK_BITS) - 1
MAX_OFFSET = (1 << OFFSET_BITS) - 1

#: NULL pointer: all bits set.  Stored in windows as -1, which can never be
#: a valid (rank, offset) combination used by GDA (rank 0xFFFF is reserved).
DPTR_NULL = -1

_U64 = (1 << 64) - 1
_I64_MAX = (1 << 63) - 1


def _to_signed(u: int) -> int:
    u &= _U64
    return u - (1 << 64) if u > _I64_MAX else u


def _to_unsigned(s: int) -> int:
    return s & _U64


class DPtr(NamedTuple):
    """A decoded distributed pointer."""

    rank: int
    offset: int

    def pack(self) -> int:
        return pack_dptr(self.rank, self.offset)


def pack_dptr(rank: int, offset: int) -> int:
    """Encode (rank, offset) into one signed 64-bit word."""
    if not 0 <= rank < MAX_RANK:  # rank 0xFFFF reserved for NULL patterns
        raise ValueError(f"rank {rank} out of range [0, {MAX_RANK})")
    if not 0 <= offset <= MAX_OFFSET:
        raise ValueError(f"offset {offset} out of 48-bit range")
    return _to_signed((rank << OFFSET_BITS) | offset)


def unpack_dptr(value: int) -> DPtr:
    """Decode a signed or unsigned 64-bit word into a :class:`DPtr`."""
    u = value & _U64
    if u == _U64:
        raise ValueError("cannot unpack DPTR_NULL")
    return DPtr(u >> OFFSET_BITS, u & MAX_OFFSET)


def is_null(value: int) -> bool:
    return value & _U64 == _U64


# -- tagged pointers for the BGDL free lists -------------------------------

#: The largest block index a tagged word holds.
TAG_NULL_INDEX = (1 << 32) - 1


def pack_tagged(tag: int, index: int) -> int:
    """Encode (tag, block index) into one signed 64-bit word.

    The tag is taken modulo 2**32, so callers may pass an ever-increasing
    counter without worrying about overflow.
    """
    if not 0 <= index <= TAG_NULL_INDEX:
        raise ValueError(f"index {index} out of 32-bit range")
    return _to_signed(((tag & 0xFFFFFFFF) << 32) | index)


def unpack_tagged(value: int) -> tuple[int, int]:
    """Decode a tagged word into (tag, index)."""
    u = _to_unsigned(value)
    return u >> 32, u & 0xFFFFFFFF


# -- lightweight edge UIDs (paper Section 5.4.2) ---------------------------

#: An edge UID takes 12 bytes: 8 bytes vertex UID + 4 bytes slot offset.
EDGE_UID_BYTES = 12


def pack_edge_uid(vertex_dptr: int, slot: int) -> bytes:
    """Encode a lightweight-edge UID: the source vertex UID plus the
    offset of the edge slot within that vertex's edge array."""
    if not 0 <= slot < (1 << 32):
        raise ValueError(f"slot {slot} out of 32-bit range")
    return _to_unsigned(vertex_dptr).to_bytes(8, "little") + slot.to_bytes(
        4, "little"
    )


def unpack_edge_uid(blob: bytes) -> tuple[int, int]:
    """Decode an edge UID into (vertex DPtr word, slot index)."""
    if len(blob) != EDGE_UID_BYTES:
        raise ValueError(f"edge UID must be {EDGE_UID_BYTES} bytes")
    vertex = _to_signed(int.from_bytes(blob[:8], "little"))
    slot = int.from_bytes(blob[8:], "little")
    return vertex, slot
