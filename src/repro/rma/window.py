"""Registered memory windows for the simulated RMA substrate.

A :class:`Window` mirrors an MPI-3 RMA window: a collectively allocated
region of memory, one segment per rank, that remote ranks may access with
one-sided operations.  GDI-RMA allocates three windows per database — the
*data*, *usage*, and *system* windows (paper Section 5.5) — plus windows
backing the distributed hash table.
"""

from __future__ import annotations

import mmap
import struct

import numpy as np

__all__ = ["Window", "WindowError"]

_I64 = struct.Struct("<q")
_I64_MAX = (1 << 63) - 1


class WindowError(RuntimeError):
    """Raised on out-of-bounds or misaligned window accesses."""


def _wrap_i64(value: int) -> int:
    """Wrap a Python int to signed 64-bit two's complement."""
    value &= (1 << 64) - 1
    if value > _I64_MAX:
        value -= 1 << 64
    return value


class Window:
    """One collectively allocated RMA window.

    Parameters
    ----------
    name:
        Diagnostic name ("data", "usage", "system", ...).
    nranks:
        Number of ranks in the owning runtime.
    size:
        Size in bytes of the segment owned by *each* rank.

    Notes
    -----
    Like ``MPI_Win_allocate`` memory, the segments are zero-filled on
    first touch: one anonymous mapping per window, sliced per rank, so a
    page costs memory only once it is written.  Bulk puts/gets use slice
    assignment; 8-byte atomics go through :meth:`read_i64`/:meth:`write_i64`
    (or, read-modify-write, one fused step) under the owning runtime's
    per-target atomic lock, mimicking the NIC's atomic unit on RDMA
    hardware.
    """

    __slots__ = ("name", "nranks", "size", "_backing", "_segments", "freed")

    def __init__(self, name: str, nranks: int, size: int) -> None:
        if nranks <= 0:
            raise WindowError(f"window {name!r}: nranks must be positive")
        if size < 0:
            raise WindowError(f"window {name!r}: negative size {size}")
        self.name = name
        self.nranks = nranks
        self.size = size
        # an anonymous mapping cannot be empty: a 0-byte window has none
        backing = memoryview(mmap.mmap(-1, size * nranks) if size else bytearray())
        self._backing = backing
        self._segments = [backing[r * size : (r + 1) * size] for r in range(nranks)]
        self.freed = False

    # -- raw access (used only by the runtime) ---------------------------
    def _check(
        self, rank: int, offset: int, nbytes: int, granule: bool = False
    ) -> memoryview:
        """Validate one access — as a whole atomic ``granule``, also its
        alignment — and return the segment it falls in."""
        if self.freed:
            raise WindowError(f"window {self.name!r} already freed")
        if not 0 <= rank < self.nranks:
            raise WindowError(f"window {self.name!r}: bad rank {rank}")
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise WindowError(
                f"window {self.name!r}: access [{offset}, {offset + nbytes})"
                f" outside segment of size {self.size}"
            )
        if granule and offset % 8 != 0:
            raise WindowError(
                f"window {self.name!r}: misaligned atomic at offset {offset}"
            )
        return self._segments[rank]

    def read(self, rank: int, offset: int, nbytes: int) -> bytes:
        return bytes(self._check(rank, offset, nbytes)[offset : offset + nbytes])

    def gather(
        self, ranks: np.ndarray, offsets: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Bulk :meth:`read`: byte range ``i`` is ``lengths[i]`` bytes at
        ``offsets[i]`` of rank ``ranks[i]``'s segment; the ranges come
        back as one ``uint8`` array, back to back in the given order.

        Equal-sized ranges move in one strided gather, ragged ones in one
        join over zero-copy slices.  Each is a single C call, so it
        observes the window at a single instant.
        """
        if self.freed:
            raise WindowError(f"window {self.name!r} already freed")
        if len(offsets) == 0:
            return np.empty(0, dtype=np.uint8)
        if (
            int(ranks.min()) < 0
            or int(ranks.max()) >= self.nranks
            or int(offsets.min()) < 0
            or int(lengths.min()) < 0
            or int((offsets + lengths).max()) > self.size
        ):
            raise WindowError(
                f"window {self.name!r}: batched access outside the "
                f"{self.nranks} segments of size {self.size}"
            )
        starts = ranks * self.size + offsets  # into the one mapping
        width = int(lengths[0])
        if (lengths != width).any():
            flat = self._backing
            spans = zip(starts.tolist(), (starts + lengths).tolist())
            return np.frombuffer(
                b"".join([flat[a:b] for a, b in spans]), dtype=np.uint8
            )
        if not width:
            return np.empty(0, dtype=np.uint8)
        # row i: the ``width`` bytes from byte i of the mapping (no copy)
        rows = (len(self._backing) - width + 1, width)
        return np.ndarray(rows, np.uint8, self._backing, strides=(1, 1))[starts].ravel()

    def write(self, rank: int, offset: int, data: bytes) -> None:
        nbytes = len(data)
        self._check(rank, offset, nbytes)[offset : offset + nbytes] = data

    def read_i64(self, rank: int, offset: int) -> int:
        """Read an aligned signed 64-bit integer (atomic granule)."""
        return _I64.unpack_from(self._check(rank, offset, 8, True), offset)[0]

    def write_i64(self, rank: int, offset: int, value: int) -> None:
        """Write an aligned signed 64-bit integer (atomic granule)."""
        _I64.pack_into(self._check(rank, offset, 8, True), offset, value)

    # The read-modify-write atomics validate their granule once; the
    # runtime calls them under the target's atomic lock.
    def _faa_i64(self, rank: int, offset: int, delta: int) -> int:
        """Add ``delta`` (wrapping) to a granule; returns the old value."""
        seg = self._check(rank, offset, 8, True)
        (old,) = _I64.unpack_from(seg, offset)
        _I64.pack_into(seg, offset, _wrap_i64(old + delta))
        return old

    def _cas_i64(self, rank: int, offset: int, compare: int, new: int) -> int:
        """Store ``new`` in a granule iff it holds ``compare`` (both
        wrapping); returns the value found."""
        seg = self._check(rank, offset, 8, True)
        (old,) = _I64.unpack_from(seg, offset)
        if old == _wrap_i64(compare):
            _I64.pack_into(seg, offset, _wrap_i64(new))
        return old

    def free(self) -> None:
        """Release the window; subsequent accesses raise ``WindowError``."""
        self.freed = True
        self._backing, self._segments = memoryview(b""), []

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        state = "freed" if self.freed else f"{self.nranks}x{self.size}B"
        return f"<Window {self.name!r} {state}>"
