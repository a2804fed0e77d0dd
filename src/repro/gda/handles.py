"""Handles: the opaque per-process access objects of Section 3.5.

A :class:`VertexHandle` or :class:`EdgeHandle` wraps one entry of its
transaction's holder cache and, like a :class:`VolatileVertexId`
(Section 3.4), is only valid inside that transaction.  A
:class:`VertexScan` is what a batched associate returns: the same
handles as a sequence, plus whole-batch answers as arrays over the rows
a bulk scan left columnar.  Everything here reads and mutates through
the owning :class:`~repro.gda.transaction_impl.Transaction`; no handle
issues a one-sided operation of its own.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Any

import numpy as np

from ..gdi.constants import EdgeOrientation, Multiplicity, SizeType
from ..gdi.constraint import Constraint, LabelCondition
from ..gdi.errors import (
    GdiInvalidArgument,
    GdiNotFound,
    GdiSizeLimit,
    GdiStateError,
)
from ..gdi.types import Datatype, decode_value, encode_value, value_nbytes
from .dptr import pack_edge_uid
from .holder import (
    DIR_IN,
    DIR_MASK,
    DIR_OUT,
    DIR_UNDIR,
    NEED_ENTRIES,
    NEED_IDENT,
    NEED_TOPO,
    SLOT_HEAVY,
    EdgeSlot,
    VertexHolder,
    csr_indptr,
    ragged_index,
)
from .metadata import Label, PropertyType

if TYPE_CHECKING:  # pragma: no cover
    from .transaction_impl import Transaction, _TxVertex

__all__ = ["VertexHandle", "VertexScan", "EdgeHandle", "VolatileVertexId"]


@dataclass(frozen=True)
class VolatileVertexId:
    """A volatile internal vertex ID (Section 3.4).

    Valid only inside the transaction that produced it; using it in any
    other transaction raises :class:`~repro.gdi.errors.GdiStateError`.
    """

    token: int
    txn: int  # identity of the owning transaction


class VertexHandle:
    """Opaque per-process vertex access object (Section 3.5)."""

    __slots__ = ("_tx", "_txv")

    def __init__(self, tx: "Transaction", txv: "_TxVertex") -> None:
        self._tx = tx
        self._txv = txv

    # handles support assignment/comparison per the spec
    def __eq__(self, other: object) -> bool:
        return isinstance(other, VertexHandle) and other._txv is self._txv

    def __hash__(self) -> int:
        return hash(id(self._txv))

    @property
    def vid(self) -> int:
        """The internal ID (64-bit DPtr) this handle is associated with."""
        return self._txv.vid

    @property
    def app_id(self) -> int:
        return self._holder().app_id

    def _holder(self, need: int = 0) -> VertexHolder:
        """Read access guard: transaction open, vertex not deleted.

        ``need`` names the holder parts this accessor is about to touch;
        vertices loaded through a projected read are hydrated on demand.
        """
        self._tx._check_open()
        if self._txv.deleted:
            raise GdiNotFound("vertex deleted in this transaction")
        if need:
            self._tx._ensure_parts(self._txv, need)
        return self._txv.holder

    # -- labels ------------------------------------------------------------
    def labels(self) -> list[Label]:
        """``GDI_GetAllLabelsOfVertex``."""
        replica = self._tx.db.replica(self._tx.ctx)
        return [
            replica.label_by_id(i)
            for i in self._holder(NEED_ENTRIES).labels
        ]

    def has_label(self, label: Label) -> bool:
        return label.int_id in self._holder(NEED_ENTRIES).labels

    def add_label(self, label: Label) -> None:
        """``GDI_AddLabelToVertex`` (idempotent)."""
        holder = self._tx._mutate(self._txv)
        if label.int_id not in holder.labels:
            holder.labels.append(label.int_id)

    def remove_label(self, label: Label) -> None:
        holder = self._tx._mutate(self._txv)
        try:
            holder.labels.remove(label.int_id)
        except ValueError:
            raise GdiNotFound(
                f"vertex has no label {label.name!r}"
            ) from None

    # -- properties ---------------------------------------------------------
    def properties(self, ptype: PropertyType) -> list[Any]:
        """``GDI_GetPropertiesOfVertex``: all entries of one p-type."""
        return [
            decode_value(ptype.dtype, blob)
            for pid, blob in self._holder(NEED_ENTRIES).properties
            if pid == ptype.int_id
        ]

    def property(self, ptype: PropertyType) -> Any | None:
        """Single-entry convenience; ``None`` if absent."""
        vals = self.properties(ptype)
        return vals[0] if vals else None

    def all_properties(self) -> list[tuple[PropertyType, Any]]:
        replica = self._tx.db.replica(self._tx.ctx)
        out = []
        for pid, blob in self._holder(NEED_ENTRIES).properties:
            pt = replica.ptype_by_id(pid)
            out.append((pt, decode_value(pt.dtype, blob)))
        return out

    def set_property(self, ptype: PropertyType, value: Any) -> None:
        """``GDI_UpdatePropertyOfVertex``: replace all entries by one."""
        blob = encode_property(ptype, value)
        holder = self._tx._mutate(self._txv)
        holder.properties = [
            (pid, b) for pid, b in holder.properties if pid != ptype.int_id
        ]
        holder.properties.append((ptype.int_id, blob))

    def add_property(self, ptype: PropertyType, value: Any) -> None:
        """``GDI_AddPropertyToVertex``: append an entry (MULTI p-types)."""
        blob = encode_property(ptype, value)
        holder = self._tx._mutate(self._txv)
        if ptype.multiplicity == Multiplicity.SINGLE and any(
            pid == ptype.int_id for pid, _ in holder.properties
        ):
            raise GdiInvalidArgument(
                f"{ptype.name} is single-entry and already present"
            )
        holder.properties.append((ptype.int_id, blob))

    def remove_properties(self, ptype: PropertyType) -> int:
        holder = self._tx._mutate(self._txv)
        before = len(holder.properties)
        holder.properties = [
            (pid, b) for pid, b in holder.properties if pid != ptype.int_id
        ]
        return before - len(holder.properties)

    # -- edges ----------------------------------------------------------------
    def edges(
        self,
        orientation: EdgeOrientation = EdgeOrientation.ANY,
        constraint: Constraint | None = None,
    ) -> list["EdgeHandle"]:
        """``GDI_GetEdgesOfVertex`` with an optional constraint filter."""
        tx, txv = self._tx, self._txv
        dirs = _matching_directions(orientation)
        out = [
            EdgeHandle(tx, txv, slot)
            for slot in self._holder(NEED_TOPO).edges
            if dirs[slot.flags & DIR_MASK]
        ]
        if constraint is not None:
            out = [e for e in out if e._satisfies(constraint)]
        return out

    def neighbors(
        self,
        orientation: EdgeOrientation = EdgeOrientation.ANY,
        constraint: Constraint | None = None,
    ) -> list[int]:
        """``GDI_GetNeighborVerticesOfVertex``: neighbor internal IDs.

        One numpy pass over the slot region instead of per-slot
        ``EdgeHandle`` objects; heavy slots or constraints beyond a
        single has-label fall back to the handle loop, which matches
        semantics exactly.
        """
        dptr, label, flags = self._holder(NEED_TOPO).edges_as_arrays()
        vectorized = not (flags & SLOT_HEAVY).any()
        lid: int | None = None
        if vectorized and constraint is not None and not constraint.is_true():
            lid = _constraint_label_id(constraint)
            vectorized = lid is not None
        if not vectorized:
            return [
                e.other_endpoint() for e in self.edges(orientation, constraint)
            ]
        mask = _orientation_mask(flags, orientation)
        if lid is not None:
            mask = mask & (label == lid)
        return dptr[mask].tolist()

    def degree(self, orientation: EdgeOrientation = EdgeOrientation.ANY) -> int:
        _, _, flags = self._holder(NEED_TOPO).edges_as_arrays()
        return int(np.count_nonzero(_orientation_mask(flags, orientation)))

    def delete(self) -> None:
        self._tx.delete_vertex(self)


class VertexScan(Sequence):
    """What :meth:`Transaction.associate_vertices` returns: one position
    per requested vertex ID, readable two ways.

    *As a sequence* it yields a :class:`VertexHandle` per position
    (``None`` where the vertex is missing), created when first asked for.

    *As columns* it answers for all positions at once: :attr:`present`,
    :attr:`app_ids`, :meth:`neighbors` (CSR), :meth:`has_label`,
    :meth:`property`.  Positions whose vertex is still a row of a
    columnar :class:`~repro.gda.holder.HolderBatch` (bulk scans of
    lock-free read transactions) are answered by array operations over
    the batch; every other position — cache entries of locking or write
    transactions, MVCC pre-images, rows with heavy edge slots — is
    answered through its handle, so both views always agree.
    """

    def __init__(self, tx: "Transaction", vids: "list[int]") -> None:
        self._tx = tx
        self._vids = vids
        self._layout: "tuple[list, list] | None" = None  # see _sources

    # -- sequence of handles -------------------------------------------------
    def __len__(self) -> int:
        return len(self._vids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return self._handle(self._vids[i])

    def __iter__(self):
        return map(self._handle, self._vids)

    def _handle(self, vid: int) -> "VertexHandle | None":
        txv = self._tx._cached(vid)
        if txv is None or txv.deleted:
            return None
        return VertexHandle(self._tx, txv)

    def take(self, positions: np.ndarray) -> "VertexScan":
        """The scan of just these positions (no new reads)."""
        return VertexScan(
            self._tx, [self._vids[i] for i in positions.tolist()]
        )

    # -- columns ---------------------------------------------------------------
    @property
    def vids(self) -> np.ndarray:
        return np.asarray(self._vids, dtype=np.int64)

    def _sources(self, need: int) -> "tuple[list, list]":
        """Where each position's answer comes from: ``(batches, handles)``
        with ``batches`` a list of ``(batch, positions, rows)`` and
        ``handles`` a list of ``(position, handle)``.

        A position is answered from its batch row only if the batch
        fetched the holder parts in ``need``; a handle hydrates what it
        lacks.  Missing vertices appear in neither list.
        """
        if self._layout is None:
            tx = self._tx
            cache, scanned = tx._vertices, tx._scanned
            groups: dict[int, tuple] = {}
            handles = []
            for pos, vid in enumerate(self._vids):
                if vid in scanned:
                    batch, row, parts = scanned[vid]
                    group = groups.get((id(batch), parts))
                    if group is None:
                        group = groups[id(batch), parts] = (batch, [], [], parts)
                    group[1].append(pos)
                    group[2].append(row)
                else:
                    txv = cache.get(vid)
                    if txv is not None and not txv.deleted:
                        handles.append((pos, VertexHandle(tx, txv)))
            self._layout = (
                [
                    (b, np.asarray(p, dtype=np.int64), np.asarray(r, dtype=np.int64), parts)
                    for b, p, r, parts in groups.values()
                ],
                handles,
            )
        batches = []
        handles = list(self._layout[1])
        for batch, pos, rows, parts in self._layout[0]:
            if (parts & need) == need:
                batches.append((batch, pos, rows))
            else:
                handles.extend((p, self[p]) for p in pos.tolist())
        return batches, handles

    def _column(self, dtype, need: int, of_batch, of_handle) -> np.ndarray:
        """One value per position: ``of_batch(batch)[rows]`` where the
        vertex is a batch row, ``of_handle(handle)`` elsewhere, zero
        where it is missing."""
        out = np.zeros(len(self._vids), dtype=dtype)
        batches, handles = self._sources(need)
        for batch, pos, rows in batches:
            out[pos] = of_batch(batch)[rows]
        for pos, handle in handles:
            out[pos] = of_handle(handle)
        return out

    @property
    def present(self) -> np.ndarray:
        """Per position: was the vertex found?"""
        return self._column(
            bool, NEED_IDENT, lambda b: b.present, lambda h: True
        )

    @property
    def app_ids(self) -> np.ndarray:
        """Per position: the application ID (0 where missing)."""
        return self._column(
            np.int64, NEED_IDENT, lambda b: b.app_id, lambda h: h.app_id
        )

    def has_label(self, label: Label) -> np.ndarray:
        """Per position: does the vertex carry ``label``?"""
        return self._column(
            bool,
            NEED_ENTRIES,
            lambda b: b.has_label(label.int_id),
            lambda h: h.has_label(label),
        )

    @property
    def has_heavy_edges(self) -> np.ndarray:
        """Per position: does the vertex hold a heavyweight edge slot
        (whose neighbor and properties sit behind an edge holder)?"""

        def of_batch(batch):
            indptr, slots = batch.slot_columns()
            row = np.repeat(np.arange(len(batch)), np.diff(indptr))
            heavy = row[(slots["flags"] & SLOT_HEAVY) != 0]
            return np.bincount(heavy, minlength=len(batch)) > 0

        return self._column(
            bool,
            NEED_TOPO,
            of_batch,
            lambda h: bool(
                (h._holder(NEED_TOPO).edges_as_arrays()[2] & SLOT_HEAVY).any()
            ),
        )

    def property(self, ptype: PropertyType) -> "tuple[np.ndarray, np.ndarray]":
        """``(values, has)``: per position the (first) ``ptype`` value and
        whether the vertex carries one.  INT64, DOUBLE and BOOL values
        form a typed column (zero where absent), decoded from batch rows
        with one gather; other datatypes an object column (``None``
        where absent)."""
        dtype = _TYPED_COLUMNS.get(ptype.dtype, object)
        values = np.full(len(self._vids), None if dtype is object else 0, dtype=dtype)
        has = np.zeros(len(self._vids), dtype=bool)
        batches, handles = self._sources(NEED_ENTRIES)
        for batch, pos, rows in batches:
            got, offsets, lengths = batch.property_spans(ptype.int_id)
            k = np.full(len(batch), -1, dtype=np.int64)
            k[got] = np.arange(got.size)
            k = k[rows]
            found = k >= 0
            pos, k = pos[found], k[found]
            values[pos] = _decode_column(
                ptype.dtype, batch.span, offsets[k], lengths[k]
            )
            has[pos] = True
        for pos, handle in handles:
            value = handle.property(ptype)
            if value is not None:
                values[pos] = value
                has[pos] = True
        return values, has

    def neighbors(
        self,
        orientation: EdgeOrientation = EdgeOrientation.ANY,
        label: Label | None = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(indptr, vids)``: the neighbor internal IDs of every
        position as CSR — position ``i`` owns
        ``vids[indptr[i]:indptr[i + 1]]``, in slot order, restricted to
        ``orientation`` and (optionally) to edges labelled ``label``.

        The per-position answer is :meth:`VertexHandle.neighbors`; batch
        rows get it from one mask over the concatenated slot array.
        Rows with a heavy slot (whose neighbor sits behind an edge
        holder) take the handle path.
        """
        n = len(self._vids)
        batches, handles = self._sources(NEED_TOPO)
        owners: list[np.ndarray] = []
        found: list[np.ndarray] = []
        for batch, pos, rows in batches:
            indptr, slots = batch.slot_columns()
            # slices and array methods: the np.diff/np.repeat/np.any
            # wrappers cost ~1 us a call, a share of a one-vertex hop
            degree = (indptr[1:] - indptr[:-1])[rows]
            at = ragged_index(indptr[rows], degree)
            owner = pos.repeat(degree)
            flags = slots["flags"][at]
            mask = _orientation_mask(flags, orientation)
            if label is not None:
                mask &= slots["label"][at] == label.int_id
            heavy = (flags & SLOT_HEAVY) != 0
            if heavy.any():
                heavy = np.unique(owner[heavy])
                mask &= ~np.isin(owner, heavy)
                handles.extend((p, self[p]) for p in heavy.tolist())
            owners.append(owner[mask])
            found.append(slots["dptr"][at][mask])
        if handles:
            constraint = (
                Constraint.has_label(label.int_id) if label is not None else None
            )
            handles.sort(key=itemgetter(0))
            lists = [h.neighbors(orientation, constraint) for _, h in handles]
            at = np.fromiter(map(itemgetter(0), handles), np.int64, len(handles))
            owners.append(at.repeat(np.fromiter(map(len, lists), np.int64, len(lists))))
            found.append(np.fromiter(chain.from_iterable(lists), dtype=np.int64))
        if len(owners) == 1:  # one part is in position order already
            owner, vids = owners[0], found[0]
        else:
            owner = np.concatenate(owners) if owners else np.empty(0, np.int64)
            vids = np.concatenate(found) if found else np.empty(0, np.int64)
            # parts interleave: a stable sort brings the entries into
            # position order and keeps each position's slot order
            vids = vids[np.argsort(owner, kind="stable")]
        return csr_indptr(np.bincount(owner, minlength=n)), vids


#: property datatypes :meth:`VertexScan.property` returns as typed columns
_TYPED_COLUMNS = {Datatype.INT64: np.int64, Datatype.DOUBLE: np.float64, Datatype.BOOL: bool}


def _decode_column(dtype: Datatype, span: np.ndarray, offsets, lengths) -> np.ndarray:
    """:func:`decode_value` of the payloads ``span[offsets:offsets +
    lengths]``, as one column: one gather for the fixed-width types."""
    if dtype is Datatype.BOOL:
        # any payload but a single zero byte is true; a terminator always
        # follows a value, so ``span[offsets]`` is in bounds
        return (lengths != 1) | (span[offsets] != 0)
    if dtype in _TYPED_COLUMNS:
        if (lengths != 8).any():
            raise GdiInvalidArgument(
                f"cannot decode {int(lengths[lengths != 8][0])}-byte payload "
                f"as {dtype.value}"
            )
        words = span[offsets[:, None] + np.arange(8)]
        return words.view("<i8" if dtype is Datatype.INT64 else "<f8")[:, 0]
    out = np.empty(len(offsets), dtype=object)
    for i, (a, n) in enumerate(zip(offsets.tolist(), lengths.tolist())):
        out[i] = decode_value(dtype, span[a : a + n].tobytes())
    return out


def _orientation_matches(direction: int, wanted: EdgeOrientation) -> bool:
    if direction == DIR_OUT:
        return bool(wanted & EdgeOrientation.OUTGOING)
    if direction == DIR_IN:
        return bool(wanted & EdgeOrientation.INCOMING)
    return bool(
        wanted
        & (
            EdgeOrientation.UNDIRECTED
            | EdgeOrientation.OUTGOING
            | EdgeOrientation.INCOMING
        )
    )


@cache
def _matching_directions(wanted: EdgeOrientation) -> tuple[bool, ...]:
    """:func:`_orientation_matches` as a truth table indexed by
    ``flags & DIR_MASK``: fixed per call, so a slot loop tests an int."""
    return tuple(_orientation_matches(d, wanted) for d in range(DIR_MASK + 1))


def _orientation_mask(flags: np.ndarray, wanted: EdgeOrientation) -> np.ndarray:
    """Vectorized :func:`_orientation_matches` over a slot flags array."""
    return np.array(_matching_directions(wanted))[flags & DIR_MASK]


def _constraint_label_id(constraint: Constraint) -> int | None:
    """The label ID of a plain has-label constraint, else ``None``.

    Only the exact shape produced by :meth:`Constraint.has_label` (one
    conjunction, one present-label condition) is vectorizable against the
    slot label column; anything else goes through full DNF evaluation.
    """
    if len(constraint.conjunctions) != 1:
        return None
    conj = constraint.conjunctions[0]
    if len(conj) != 1:
        return None
    cond = conj[0]
    if (
        isinstance(cond, LabelCondition)
        and cond.present
        and cond.label_id > 0
    ):
        return cond.label_id
    return None


class EdgeHandle:
    """Opaque per-process edge access object: a base vertex and one of
    its slots, as a value.

    Valid only within its transaction (edge UIDs are volatile: the slot
    offset may change when the source holder is rewritten, Section 3.4).
    Two handles are equal when they name an equal slot of the same
    vertex: lightweight parallel edges with the same target, label and
    direction are identical on the wire, so they behave as a multiset —
    deleting through either handle removes one of them.
    """

    __slots__ = ("_tx", "_base", "_slot")

    def __init__(self, tx: "Transaction", base: "_TxVertex", slot: EdgeSlot) -> None:
        self._tx = tx
        self._base = base
        self._slot = slot

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EdgeHandle)
            and other._base is self._base
            and other._slot == self._slot
        )

    def __hash__(self) -> int:
        return hash((id(self._base), self._slot))

    @property
    def uid(self) -> bytes:
        """The 12-byte edge UID (Section 5.4.2): the base vertex and the
        offset of the first slot equal to this handle's."""
        try:
            index = self._base.holder.edges.index(self._slot)
        except ValueError:
            raise GdiNotFound(
                "edge slot no longer present on its base vertex"
            ) from None
        return pack_edge_uid(self._base.vid, index)

    @property
    def heavy(self) -> bool:
        return bool(self._slot.flags & SLOT_HEAVY)

    @property
    def directed(self) -> bool:
        if self._slot.heavy:
            return self._tx._load_edge_holder(self._slot.dptr).holder.directed
        return self._slot.direction != DIR_UNDIR

    def endpoints(self) -> tuple[int, int]:
        """``GDI_GetVerticesOfEdge``: (origin vid, target vid)."""
        slot = self._slot
        flags = slot.flags
        if flags & SLOT_HEAVY:
            h = self._tx._load_edge_holder(slot.dptr).holder
            return h.src, h.dst
        if flags & DIR_MASK == DIR_IN:
            return slot.dptr, self._base.vid
        return self._base.vid, slot.dptr

    def other_endpoint(self) -> int:
        return self._tx._slot_other_endpoint(self._base.vid, self._slot)

    # -- labels -----------------------------------------------------------
    def labels(self) -> list[Label]:
        """``GDI_GetAllLabelsOfEdge``."""
        replica = self._tx.db.replica(self._tx.ctx)
        return [replica.label_by_id(i) for i in self._label_ids()]

    def _label_ids(self) -> list[int]:
        if self._slot.heavy:
            return list(self._tx._load_edge_holder(self._slot.dptr).holder.labels)
        return [self._slot.label_id] if self._slot.label_id else []

    def has_label(self, label: Label) -> bool:
        return label.int_id in self._label_ids()

    # -- properties (heavyweight edges only, Section 5.4.2) -----------------
    def properties(self, ptype: PropertyType) -> list[Any]:
        if not self._slot.heavy:
            return []  # lightweight edges carry no properties
        holder = self._tx._load_edge_holder(self._slot.dptr).holder
        return [
            decode_value(ptype.dtype, blob)
            for pid, blob in holder.properties
            if pid == ptype.int_id
        ]

    def property(self, ptype: PropertyType) -> Any | None:
        vals = self.properties(ptype)
        return vals[0] if vals else None

    def set_property(self, ptype: PropertyType, value: Any) -> None:
        """``GDI_UpdatePropertyOfEdge`` (heavyweight edges only)."""
        if not self._slot.heavy:
            raise GdiInvalidArgument(
                "lightweight edges cannot carry properties; recreate the "
                "edge with properties to make it heavyweight"
            )
        self._tx._check_write()
        # guard via the source vertex's lock (one lock per vertex, 5.6)
        self._tx._mutate(self._base)
        blob = encode_property(ptype, value)
        txe = self._tx._load_edge_holder(self._slot.dptr)
        txe.holder.properties = [
            (pid, b) for pid, b in txe.holder.properties if pid != ptype.int_id
        ]
        txe.holder.properties.append((ptype.int_id, blob))
        txe.dirty = True

    def _satisfies(self, constraint: Constraint) -> bool:
        if self._slot.heavy:
            h = self._tx._load_edge_holder(self._slot.dptr).holder
            labels, props = h.labels, h.properties
        else:
            labels, props = self._label_ids(), []
        return constraint.evaluate(
            labels, props, self._tx.db.replica(self._tx.ctx).dtype_of
        )

    def delete(self) -> None:
        self._tx.delete_edge(self)


# -- edge-slot and property helpers of the transaction layer --------------
def remove_reciprocal_slot(
    other: "_TxVertex", base_vid: int, slot: EdgeSlot
) -> None:
    """Remove the slot on ``other`` that is the reciprocal of ``slot``."""
    # both slots of a heavyweight edge point at its holder; a lightweight
    # slot points at the other endpoint
    target = slot.dptr if slot.heavy else base_vid
    flags = _RECIPROCAL[slot.direction] | (slot.flags & SLOT_HEAVY)
    if not other.holder.remove_slot(EdgeSlot(target, slot.label_id, flags)):
        # The reciprocal slot must exist if the graph is consistent.
        raise GdiStateError(
            f"reciprocal edge slot missing on vertex {other.vid:#x}"
        )


_RECIPROCAL = {DIR_OUT: DIR_IN, DIR_IN: DIR_OUT, DIR_UNDIR: DIR_UNDIR}


def encode_property(ptype: PropertyType, value: Any) -> bytes:
    """Encode a property value, enforcing the Section 3.7 size hints."""
    blob = encode_value(ptype.dtype, value)
    n = value_nbytes(ptype.dtype, value)
    if ptype.size_type == SizeType.FIXED and n != ptype.size_limit:
        raise GdiSizeLimit(
            f"{ptype.name}: value size {n} != fixed size {ptype.size_limit}"
        )
    if ptype.size_type == SizeType.MAX and n > ptype.size_limit:
        raise GdiSizeLimit(
            f"{ptype.name}: value size {n} exceeds limit {ptype.size_limit}"
        )
    return blob
