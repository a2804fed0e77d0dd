"""Holder storage: the Logical Layout level on BGDL blocks (Section 5.4).

A *holder* is the variable-sized structure describing one vertex or one
heavyweight edge: selected metadata, the addresses of the blocks storing
the data, lightweight edges (stored inline in the source vertex holder,
Section 5.4.2), and the label/property entry stream (Section 5.4.3).
The in-memory holders and the constants of their wire form live in
:mod:`repro.gda.holder_model`, the columnar result of a bulk read in
:mod:`repro.gda.holder_batch`; this module re-exports both and holds
:class:`HolderStorage`, the reader and writer over
:class:`~repro.gda.blocks.BlockManager`.

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

Reads
-----

:meth:`HolderStorage.read_many` takes a *needs mask* (NEED_IDENT /
NEED_TOPO / NEED_ENTRIES) naming the holder parts the caller will touch,
and decodes the one wire format with one of two decoders, chosen by
batch size alone:

* below :data:`_COLUMNAR_MIN_BATCH` (64) holders, holder by holder,
  header first: the 40-byte header plus a small address-area hint, then
  only the exact payload spans covering the needed parts, so a 2-hop
  traversal that only follows edges never pays for property bytes.  A
  batch of fewer than :data:`_HEADER_FIRST_MIN_BATCH` (8) holders needed
  whole (every point read) reads whole primary blocks instead, one
  round fewer for a holder that fits its primary block;
* from 64 on, the same rounds with the same elements as array
  operations, returning a :class:`HolderBatch`.

Each is the cheaper one on its side.  Microseconds per call with
``NEED_ALL`` / ``NEED_IDENT | NEED_TOPO`` on the benchmark graph (512-byte
blocks, rows not materialized; CPython 3.11, 2-vCPU Xeon; best of 7):

=====  ===============  ===========
batch  per holder       columnar
=====  ===============  ===========
1      7 / 7            212 / 166
16     121 / 119        244 / 275
64     415 / 339        336 / 243
256    1,632 / 1,308    497 / 329
=====  ===============  ===========

The CRC covers the whole payload, so it is verified on every read whose
span is all of it.  Partial reads do not need it to catch a concurrent
rewrite: under locks nothing rewrites the holder, and a snapshot reader
checks the version chains after its read returns (a commit installs its
pre-image before it touches a block; see :mod:`repro.gda.readview`).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ..gdi.errors import GdiChecksumError, GdiStateError
from ..rma.runtime import RankContext
from .blocks import BlockManager
from .holder_batch import HolderBatch, csr_indptr, ragged_index
from .holder_model import (  # every name of the former single module
    _BLOCK_HEADER,
    _ENDPOINTS,
    _HEADER,
    _SLOT,
    FLAG_DIRECTED,
    DIR_IN,
    DIR_MASK,
    DIR_OUT,
    DIR_UNDIR,
    FLAG_INDIRECT,
    HEADER_BYTES,
    HEADER_DTYPE,
    KIND_EDGE,
    KIND_VERTEX,
    NEED_ALL,
    NEED_ENTRIES,
    NEED_IDENT,
    NEED_TOPO,
    SLOT_BYTES,
    SLOT_DTYPE,
    SLOT_HEAVY,
    VERSION_OFFSET,
    EdgeHolder,
    EdgeSlot,
    StoredHolder,
    VertexHolder,
    _decode_span,
    plan_layout,
)

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

#: bytes of address area fetched speculatively with every header read;
#: covers holders with up to 8 continuation/index addresses in one round.
_ADDR_HINT = 64

#: NEED_ALL batches smaller than this read whole primary blocks in
#: round 1 (the per-holder decode's whole-block shape).
_HEADER_FIRST_MIN_BATCH = 8

#: Batches of at least this many holders are decoded column-wise
#: (:class:`HolderBatch`), smaller ones holder by holder: the two cross
#: between 16 and 64 holders (the table in the module docstring).
_COLUMNAR_MIN_BATCH = 64


def _addresses(dptrs: list[int]) -> bytes:
    """Block addresses as the address area stores them: signed 64-bit,
    little-endian, back to back."""
    return struct.pack(f"<{len(dptrs)}q", *dptrs)


def _specs(dptr, offset, nbytes) -> np.ndarray:
    """``(dptr, offset, nbytes)`` rows for :meth:`BlockManager.read_blocks`
    (scalars broadcast)."""
    out = np.empty((len(dptr), 3), dtype=np.int64)
    out[:, 0] = dptr
    out[:, 1] = offset
    out[:, 2] = nbytes
    return out


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
        edge_count = (
            holder.edge_count if holder.kind == KIND_VERTEX else 0
        )
        # the payload is the slot region (a vertex) or the two endpoints
        # (an edge), then the entry stream
        topo_len = SLOT_BYTES * edge_count if holder.kind == KIND_VERTEX else 16
        return _BLOCK_HEADER.pack(
            holder.kind,
            flags,
            0,
            ndata,
            nindex,
            holder.app_id,
            edge_count,
            payload_len - topo_len,
            payload_len,
            crc,
            version & 0xFFFFFFFF,
        )

    # -- write -----------------------------------------------------------------
    def encode(self, holder) -> tuple[bytes, int, int, int]:
        """``(payload, flags, nindex, ndata)`` of a holder; raises
        :class:`GdiNoMemory` for one too large to address."""
        payload, flags = holder.payload()
        bs = self.blocks.block_size
        return payload, flags, *plan_layout(len(payload), bs)

    def write_new(
        self, ctx: RankContext, holder, home_rank: int
    ) -> StoredHolder:
        """Allocate blocks and write a fresh holder; returns its placement."""
        payload, extra_flags, nindex, ndata = self.encode(holder)
        take = self.blocks.acquire_block_anywhere
        stored = StoredHolder(holder=holder, primary=take(ctx, preferred=home_rank))
        stored.index_blocks = [take(ctx, home_rank) for _ in range(nindex)]
        stored.data_blocks = [take(ctx, home_rank) for _ in range(ndata)]
        self._write_out(ctx, self._write_items(stored, payload, extra_flags))
        return stored

    def rewrite(self, ctx: RankContext, stored: StoredHolder) -> None:
        """Write back one (mutated) holder: :meth:`rewrite_many` of one."""
        self.rewrite_many(ctx, [(stored, self.encode(stored.holder))])

    def rewrite_many(
        self, ctx: RankContext, writes: "list[tuple[StoredHolder, tuple]]"
    ) -> None:
        """Write back many mutated holders with one batched flush.

        ``writes`` pairs each holder with its :meth:`encode`.  Each
        holder's block set is resized in place: the primary and as many
        continuation blocks as fit are reused, extras acquired or surplus
        released.  Then all block writes of all holders go out together —
        the transaction write pipeline.
        """
        if not writes:
            return
        items: list[tuple[int, bytes]] = []
        for stored, (payload, extra_flags, nindex, ndata) in writes:
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
            addr_area = _addresses(stored.index_blocks)
            # index blocks hold the data-block addresses, packed.
            per_index = bs // 8
            for j, iptr in enumerate(stored.index_blocks):
                chunk = stored.data_blocks[j * per_index : (j + 1) * per_index]
                items.append((iptr, _addresses(chunk)))
        else:
            addr_area = _addresses(stored.data_blocks)
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
        ``NEED_IDENT``.  Only the payload spans covering the needed parts
        are fetched; edge holders are always read in full.

        A constant number of fetch rounds regardless of holder count,
        each round one coalesced message per distinct owner rank.  With
        ``missing_ok`` a primary block that holds no holder yields
        ``None`` instead of raising :class:`GdiStateError`.

        Two decoders, chosen by batch size alone (module docstring):
        below :data:`_COLUMNAR_MIN_BATCH` holders the per-holder decode
        returns a list; from there on the same rounds run as array
        operations and come back as a :class:`HolderBatch` — the same
        sequence of holders, decoded row by row only when indexed, plus
        the columns bulk scans read directly.
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
        return self._read_per_holder(ctx, primaries, needs, missing_ok)

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

    @staticmethod
    def _corrupted(ctx: RankContext, primary: int, nbytes: int) -> None:
        """Count and raise a holder payload that failed its CRC32."""
        ctx.rt.trace.record_corruption_detected(ctx.rank)
        raise GdiChecksumError(
            f"holder at {primary:#x} failed CRC32 "
            f"verification (payload of {nbytes} B)"
        )

    def _read_per_holder(
        self,
        ctx: RankContext,
        primaries: list[int],
        needs: list[int],
        missing_ok: bool,
    ) -> list[StoredHolder | None]:
        """Header-first decode, one holder at a time.

        Rounds: (1) header + address hint, (2) address-area overflow +
        index blocks already addressable, (3) index blocks behind an
        overflow, (4) the exact payload spans covering the needed parts.
        Rounds 2 and 3 are usually empty.

        A batch of fewer than :data:`_HEADER_FIRST_MIN_BATCH` holders
        that needs them whole reads whole primary blocks in round 1: every
        address is then in hand and the payload head is sliced from the
        block, not fetched again, so a holder that fits its primary block
        costs one round.  The CRC is verified on every whole-payload span.
        """
        bs = self.blocks.block_size
        # every holder needed whole, and fewer of them than the threshold
        whole = needs.count(NEED_ALL) == len(needs) < _HEADER_FIRST_MIN_BATCH
        hint_len = bs if whole else min(bs, HEADER_BYTES + _ADDR_HINT)
        read = self.blocks.read_blocks
        blobs = read(ctx, [(p, 0, hint_len) for p in primaries])
        infos: list[dict | None] = []
        over_specs: list[tuple[int, int, int]] = []
        over_owner: list[dict] = []
        early: list[dict] = []  # index addresses all in the hint
        late: list[dict] = []  # index addresses behind an overflow
        for primary, blob, n in zip(primaries, blobs, needs):
            (kind, flags, _, ndata, nindex, app_id, edge_count, _,
             payload_len, crc, version) = _BLOCK_HEADER.unpack_from(blob, 0)
            if kind != KIND_VERTEX and kind != KIND_EDGE:
                if not missing_ok:
                    raise GdiStateError(f"no holder at {primary:#x} (kind={kind})")
                infos.append(None)
                continue
            indirect = flags & FLAG_INDIRECT
            naddr = nindex if indirect else ndata
            info = {
                "primary": primary,
                "kind": kind,
                "flags": flags,
                "app_id": app_id,
                "edge_count": edge_count,
                "payload_len": payload_len,
                "crc": crc,
                "version": version,
                "blob": blob,
                # endpoints and entries of an edge interleave: read all
                "need": NEED_ALL if kind == KIND_EDGE else n,
                "pos": HEADER_BYTES + 8 * naddr,  # where the payload starts
                "ndata": ndata,
                "index_blocks": [],
                "data_blocks": [],
            }
            infos.append(info)
            if not naddr:  # the holder fits its primary block
                continue
            avail = min(naddr, (hint_len - HEADER_BYTES) // 8)
            addrs = np.frombuffer(
                blob, dtype="<i8", count=avail, offset=HEADER_BYTES
            ).tolist()
            if indirect:
                info["index_blocks"] = addrs
                (early if avail == naddr else late).append(info)
            else:
                info["data_blocks"] = addrs
            if avail < naddr:
                over_specs.append(
                    (primary, HEADER_BYTES + 8 * avail, 8 * (naddr - avail))
                )
                over_owner.append(info)
        # Round 2: complete the address areas.
        if over_specs:
            for info, oblob in zip(over_owner, read(ctx, over_specs)):
                addrs = np.frombuffer(oblob, dtype="<i8").tolist()
                if info["flags"] & FLAG_INDIRECT:
                    info["index_blocks"].extend(addrs)
                else:
                    info["data_blocks"].extend(addrs)
        # Rounds 2b/3: index blocks, early for hint-resolved holders.
        if early:
            self._read_index_blocks(ctx, early)
        if late:
            self._read_index_blocks(ctx, late)
        # Round 4: exact payload spans, as one piece in the primary block
        # and one per continuation block they touch.
        span_specs: list[tuple[int, int, int]] = []
        span_owner: list[dict] = []
        for info in infos:
            if info is None:
                continue
            n, payload_len = info["need"], info["payload_len"]
            pieces = info["pieces"] = []
            if n == NEED_ALL:
                start, end = 0, payload_len
            else:
                topo_len = SLOT_BYTES * info["edge_count"]
                start = 0 if n & NEED_TOPO else topo_len
                end = (
                    payload_len if n & NEED_ENTRIES
                    else topo_len if n & NEED_TOPO
                    else 0
                )
                if end <= start:
                    continue
            pos = info["pos"]  # <= bs: a longer address area failed round 2
            head_len = min(payload_len, bs - pos)
            if start < head_len:
                if whole:  # the whole payload: its head is in the block
                    pieces.append(info["blob"][pos : pos + head_len])
                else:
                    span_specs.append(
                        (info["primary"], pos + start, min(end, head_len) - start)
                    )
                    span_owner.append(info)
            if end > head_len:
                lo = max(start, head_len) - head_len
                hi = end - head_len
                for j in range(lo // bs, (hi - 1) // bs + 1):
                    boff = max(lo - j * bs, 0)
                    span_specs.append(
                        (info["data_blocks"][j], boff, min(hi - j * bs, bs) - boff)
                    )
                    span_owner.append(info)
        if span_specs:
            for info, sblob in zip(span_owner, read(ctx, span_specs)):
                info["pieces"].append(sblob)
        out: list[StoredHolder | None] = []
        for info in infos:
            if info is None:
                out.append(None)
                continue
            span = b"".join(info["pieces"])
            # the CRC covers the whole payload: verifiable when the span
            # is as long as the payload, i.e. is all of it
            if len(span) == info["payload_len"] and zlib.crc32(span) != info["crc"]:
                self._corrupted(ctx, info["primary"], len(span))
            out.append(_decode_span(info, span))
        return out

    def _read_many_columnar(
        self,
        ctx: RankContext,
        primaries: list[int],
        needs: list[int],
        missing_ok: bool,
    ) -> HolderBatch:
        """:meth:`_read_per_holder`'s header-first shape over whole columns.

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
            self._corrupted(
                ctx, primaries[i], int(span_indptr[i + 1] - span_indptr[i])
            )
        return HolderBatch(
            prim, header, need, start, span, span_indptr,
            data_blocks, data_indptr, index_blocks,
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
