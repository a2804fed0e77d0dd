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

Projected reads
---------------

:meth:`HolderStorage.read_many` accepts a *needs mask* (NEED_IDENT /
NEED_TOPO / NEED_ENTRIES) describing which holder parts the caller will
touch.  Partial reads fetch the 40-byte header plus a small
address-area hint first, then only the exact payload spans covering the
requested parts — a 2-hop traversal that only follows edges never pays
for property bytes.  The CRC covers the whole payload, so it is only
verified on full-payload reads.  Partial reads do not need it to catch
a concurrent rewrite: under locks nothing rewrites the holder, and a
snapshot reader checks the version chains after its read returns (a
commit installs its pre-image before it touches a block; see
:mod:`repro.gda.readview`).
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
    _decode_payload,
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
            version,
        ) = _BLOCK_HEADER.unpack_from(blob, 0)
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
            "version": version,
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
            in_index = info["flags"] & FLAG_INDIRECT
            naddr = info["nindex"] if in_index else info["ndata"]
            if naddr:  # none when the holder fits its primary block
                addrs = np.frombuffer(
                    blob, dtype="<i8", count=naddr, offset=HEADER_BYTES
                ).tolist()
                if in_index:
                    info["index_blocks"] = addrs
                    indirect.append(info)
                else:
                    info["data_blocks"] = addrs
            info["pos"] = HEADER_BYTES + 8 * naddr
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
            holder = _decode_payload(
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
        return _decode_span(info, start, span)

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
