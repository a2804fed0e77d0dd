"""Blocked Graph Data Layout (BGDL) — the block level of GDA (Section 5.5).

All graph data is mapped onto fixed-size memory blocks carved out of one
large distributed-memory pool.  The block size is a user tunable trading
communication (larger blocks → one fetch covers more of a vertex) against
memory (internal fragmentation).  Three RMA windows implement the pool:

* the **data** window — the blocks themselves,
* the **usage** window — a per-rank free list, one link per block,
* the **system** window — the tagged head pointer of the free list, an
  allocation counter, and the per-block lock words used by the
  reader-writer locks of Section 5.6.

Free block ``i``'s link stores ``next - (i + 1)``, where ``next`` is the
following free block and ``n = blocks_per_rank`` ends the list, as it
does in the head ``(tag, first free block)`` of an empty pool.  So zeroed
segments, which is how windows start, already hold a fresh pool: the
chain ``0 -> 1 -> ... -> n-1 -> end``, head ``(0, 0)``, count and lock
words zero.  No other module knows this encoding.

``acquire_block``/``release_block`` follow the paper's lock-free protocol:
AGET the list head, AGET the successor, CAS the head forward; the 32-bit
tag in the head word increments on every successful CAS, which defeats the
ABA problem.  On CAS failure the protocol restarts at step 2 reusing the
value the CAS returned (no extra AGET), exactly as described in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from ..rma.runtime import RankContext
from ..rma.window import Window
from .dptr import (
    MAX_OFFSET,
    MAX_RANK,
    OFFSET_BITS,
    TAG_NULL_INDEX,
    pack_dptr,
    pack_tagged,
    unpack_dptr,
    unpack_tagged,
)

__all__ = ["BlockManager", "OutOfBlocksError", "SYS_HEAD_OFF", "SYS_COUNT_OFF", "SYS_LOCKS_OFF"]

#: System-window layout (per rank).
SYS_HEAD_OFF = 0  # tagged free-list head
SYS_COUNT_OFF = 8  # allocated-block counter
SYS_LOCKS_OFF = 16  # per-block RW lock words


class OutOfBlocksError(MemoryError):
    """Raised when no rank can supply a free block."""


@dataclass
class BlockManager:
    """Manages the three BGDL windows of one database.

    The manager object itself is immutable shared metadata (window handles
    and sizes); all state lives in the windows, so any rank context may
    call any method concurrently.
    """

    data_win: Window
    usage_win: Window
    system_win: Window
    block_size: int
    blocks_per_rank: int
    #: optional callbacks ``fn(ctx, dptr)`` fired after a successful
    #: acquire/release.  The replication layer uses them to keep its
    #: allocation journal and mirror metadata consistent with the free
    #: lists (a freed block must never be restored on failover).
    on_acquire: Any = field(default=None, repr=False, compare=False)
    on_release: Any = field(default=None, repr=False, compare=False)

    # -- construction -------------------------------------------------------
    @classmethod
    def create(
        cls,
        ctx: RankContext,
        block_size: int,
        blocks_per_rank: int,
        name_prefix: str = "bgdl",
    ) -> "BlockManager":
        """Collectively allocate the BGDL windows; zeroed, they already
        hold an empty pool (module docstring), so nothing is written."""
        if block_size < 16 or block_size % 8 != 0:
            raise ValueError("block_size must be >= 16 and 8-byte aligned")
        if blocks_per_rank < 1 or blocks_per_rank >= TAG_NULL_INDEX:
            raise ValueError("blocks_per_rank out of range")
        data_win = ctx.win_allocate(
            f"{name_prefix}.data", block_size * blocks_per_rank
        )
        usage_win = ctx.win_allocate(f"{name_prefix}.usage", 8 * blocks_per_rank)
        system_win = ctx.win_allocate(
            f"{name_prefix}.system", SYS_LOCKS_OFF + 8 * blocks_per_rank
        )
        ctx.barrier()
        return cls(data_win, usage_win, system_win, block_size, blocks_per_rank)

    def reset_free_list(
        self, ctx: RankContext, shard: int, live: Iterable[int] = ()
    ) -> None:
        """Put ``shard``'s usage and system segments back, with two puts,
        to a pool whose allocated blocks are ``live``: the others chained
        in ascending order, count ``|live|``, tag and lock words zero."""
        n = self.blocks_per_rank
        free = np.ones(n + 1, dtype=bool)  # index n: the end of the list
        free[list(live)] = False
        idx = np.flatnonzero(free)
        links = np.zeros(n, dtype="<i8")
        links[idx[:-1]] = np.diff(idx) - 1
        system = np.zeros(SYS_LOCKS_OFF // 8 + n, dtype="<i8")
        system[SYS_HEAD_OFF // 8] = pack_tagged(0, int(idx[0]))
        system[SYS_COUNT_OFF // 8] = n + 1 - len(idx)
        ctx.put(self.usage_win, shard, 0, links.tobytes())
        ctx.put(self.system_win, shard, 0, system.tobytes())

    def free_list(self, ctx: RankContext, shard: int) -> list[int]:
        """``shard``'s free list walked from its head with one AGET and one
        get (diagnostics).  A link out of the pool ends the walk, which
        keeps it; a walk of more than ``n`` blocks has met a cycle."""
        n = self.blocks_per_rank
        idx = unpack_tagged(ctx.aget(self.system_win, shard, SYS_HEAD_OFF))[1]
        raw = np.frombuffer(ctx.get(self.usage_win, shard, 0, 8 * n), dtype="<i8")
        nxt, out = (raw + np.arange(1, n + 1)).tolist(), []
        while 0 <= idx < n and len(out) <= n:
            out.append(idx)
            idx = nxt[idx]
        return out if idx == n else out + [idx]

    # -- address arithmetic ---------------------------------------------------
    def lock_location(self, dptr: int) -> tuple[int, int]:
        """(rank, system-window offset) of the lock word guarding ``dptr``.

        Section 5.6: the lock of a vertex lives in the system window at the
        offset corresponding to the primary block of its holder.
        """
        d = unpack_dptr(dptr)
        return d.rank, SYS_LOCKS_OFF + 8 * (d.offset // self.block_size)

    # -- allocation -------------------------------------------------------------
    def acquire_block(self, ctx: RankContext, target: int) -> int | None:
        """Lock-free allocation of one block on ``target``.

        Returns the packed DPtr of the block, or ``None`` if the target
        has no free blocks (the paper's NULL-handle case).
        """
        sw, uw = self.system_win, self.usage_win
        head = ctx.aget(sw, target, SYS_HEAD_OFF)  # step 1
        while True:
            tag, idx = unpack_tagged(head)
            if idx == self.blocks_per_rank:
                return None
            nxt = ctx.aget(uw, target, 8 * idx) + idx + 1  # step 2
            new_head = pack_tagged(tag + 1, nxt)
            found = ctx.cas(sw, target, SYS_HEAD_OFF, head, new_head)  # step 3
            if found == head:
                ctx.faa(sw, target, SYS_COUNT_OFF, 1)
                dptr = pack_dptr(target, idx * self.block_size)
                if self.on_acquire is not None:
                    self.on_acquire(ctx, dptr)
                return dptr
            head = found  # restart at step 2 with the CAS result

    def acquire_block_anywhere(
        self, ctx: RankContext, preferred: int
    ) -> int:
        """Allocate on ``preferred`` if possible, else spill round-robin.

        Paper Section 5.3: blocks of one vertex need not live on one
        process; this is the policy that makes that happen under memory
        pressure.  Raises :class:`OutOfBlocksError` when the whole pool is
        exhausted.
        """
        for hop in range(ctx.nranks):
            target = (preferred + hop) % ctx.nranks
            dptr = self.acquire_block(ctx, target)
            if dptr is not None:
                return dptr
        raise OutOfBlocksError(
            f"no free blocks on any of {ctx.nranks} ranks "
            f"({self.blocks_per_rank} blocks x {self.block_size} B each)"
        )

    def release_block(self, ctx: RankContext, dptr: int) -> None:
        """Lock-free release of a block back to its owner's free list."""
        d = unpack_dptr(dptr)
        idx = d.offset // self.block_size
        sw, uw = self.system_win, self.usage_win
        head = ctx.aget(sw, d.rank, SYS_HEAD_OFF)
        while True:
            tag, hidx = unpack_tagged(head)
            # our block points at the old head
            ctx.aput(uw, d.rank, 8 * idx, hidx - (idx + 1))
            ctx.flush(uw, d.rank)
            new_head = pack_tagged(tag + 1, idx)
            found = ctx.cas(sw, d.rank, SYS_HEAD_OFF, head, new_head)
            if found == head:
                ctx.faa(sw, d.rank, SYS_COUNT_OFF, -1)
                if self.on_release is not None:
                    self.on_release(ctx, dptr)
                return
            head = found

    def allocated_count(self, ctx: RankContext, target: int) -> int:
        """Number of blocks currently allocated on ``target``."""
        return ctx.aget(self.system_win, target, SYS_COUNT_OFF)

    # -- block data access ----------------------------------------------------------
    def read_block(
        self, ctx: RankContext, dptr: int, offset: int = 0, nbytes: int | None = None
    ) -> bytes:
        """One-sided read of (part of) a block."""
        d = unpack_dptr(dptr)
        if nbytes is None:
            nbytes = self.block_size - offset
        if offset < 0 or offset + nbytes > self.block_size:
            raise ValueError("read outside block bounds")
        return ctx.get(self.data_win, d.rank, d.offset + offset, nbytes)

    def write_block(
        self, ctx: RankContext, dptr: int, data: bytes, offset: int = 0
    ) -> None:
        """One-sided write of (part of) a block."""
        d = unpack_dptr(dptr)
        if offset < 0 or offset + len(data) > self.block_size:
            raise ValueError("write outside block bounds")
        ctx.put(self.data_win, d.rank, d.offset + offset, data)

    def iwrite_block(
        self, ctx: RankContext, dptr: int, data: bytes, offset: int = 0
    ):
        """Non-blocking block write; complete with a data-window flush."""
        d = unpack_dptr(dptr)
        if offset < 0 or offset + len(data) > self.block_size:
            raise ValueError("write outside block bounds")
        return ctx.iput(self.data_win, d.rank, d.offset + offset, data)

    def iread_block(
        self, ctx: RankContext, dptr: int, offset: int = 0, nbytes: int | None = None
    ):
        """Non-blocking block read; data valid after flush/wait."""
        d = unpack_dptr(dptr)
        if nbytes is None:
            nbytes = self.block_size - offset
        if offset < 0 or offset + nbytes > self.block_size:
            raise ValueError("read outside block bounds")
        return ctx.iget(self.data_win, d.rank, d.offset + offset, nbytes)

    # -- batched block data access ------------------------------------------------
    def read_blocks(
        self, ctx: RankContext, specs: "list[tuple[int, int, int]] | np.ndarray"
    ) -> "list[bytes] | np.ndarray":
        """Batched blocking read of many (parts of) blocks.

        ``specs`` is ``(dptr, offset, nbytes)`` per element; the reads
        coalesce into one network message per distinct owner rank.
        Given as an ``(n, 3)`` int64 array the batch takes the columnar
        form of :meth:`RankContext.get_batch` and the payloads come back
        as one ``uint8`` array, back to back in issue order.
        """
        if isinstance(specs, np.ndarray):
            dptr, offset, nbytes = specs[:, 0], specs[:, 1], specs[:, 2]
            if len(specs) and (
                int(offset.min()) < 0
                or int((offset + nbytes).max()) > self.block_size
            ):
                raise ValueError("read outside block bounds")
            ops = np.empty_like(specs)
            # a DPtr is rank in the top 16 bits, byte offset in the low 48
            ops[:, 0] = (dptr >> OFFSET_BITS) & MAX_RANK
            ops[:, 1] = (dptr & MAX_OFFSET) + offset
            ops[:, 2] = nbytes
            return ctx.get_batch(self.data_win, ops)
        ops = []
        for dptr, offset, nbytes in specs:
            d = unpack_dptr(dptr)
            if offset < 0 or offset + nbytes > self.block_size:
                raise ValueError("read outside block bounds")
            ops.append((d.rank, d.offset + offset, nbytes))
        return ctx.get_batch(self.data_win, ops)

    def iwrite_blocks(
        self, ctx: RankContext, items: list[tuple[int, bytes]]
    ):
        """Batched non-blocking write of many whole-or-partial blocks.

        ``items`` is ``(dptr, data)`` per element (written at block
        offset 0); complete with a data-window flush.
        """
        ops = []
        for dptr, data in items:
            d = unpack_dptr(dptr)
            if len(data) > self.block_size:
                raise ValueError("write outside block bounds")
            ops.append((d.rank, d.offset, data))
        return ctx.iput_batch(self.data_win, ops)
