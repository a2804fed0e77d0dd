"""Label/property schema for generated LPG graphs (paper Section 6.3).

The paper's generator extends Kronecker graphs with "a user-specified
selection (counts and sizes) of labels and properties, and how they are
assigned to vertices and edges", defaulting to **20 labels and 13 property
types**.  This module defines that schema and the deterministic assignment
functions: every vertex receives one primary label plus optional secondary
labels and property values derived from a hash of its application ID, so
regeneration is reproducible and no coordination between ranks is needed.

Every rule has a column form over an array of application IDs (or of edge
endpoints) that the bulk loader uses: bit for bit the scalar rule, with
numpy's wrapping ``uint64`` arithmetic standing in for the scalar
``& (2**64 - 1)`` masks.  The scalar rules stay the reference (the
benchmark's oracle recomputes the graph with them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gdi.constants import EntityType, Multiplicity, SizeType
from ..gdi.types import Datatype

__all__ = ["PropertySpec", "LpgSchema", "default_schema"]


def _mix(x: int, salt: int) -> int:
    x = (x + salt * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & ((1 << 64) - 1)
    return x ^ (x >> 31)


def _mix_col(x: np.ndarray, salt: int) -> np.ndarray:
    """:func:`_mix` over a ``uint64`` array (it wraps modulo 2**64)."""
    x = x + np.uint64((salt * 0x9E3779B97F4A7C15) & ((1 << 64) - 1))
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _pair_col(src, dst, k: int) -> np.ndarray:
    """``src * k + dst`` modulo 2**64, which is all :func:`_mix` keeps."""
    src = np.asarray(src, dtype=np.int64).astype(np.uint64)
    return src * np.uint64(k) + np.asarray(dst, dtype=np.int64).astype(np.uint64)


def _fraction_below(h: np.ndarray, scale: int, fraction: float) -> np.ndarray:
    """``(h % scale) / scale < fraction`` per element, as the scalar rules
    compute it (an exact integer turned into one double, divided)."""
    return (h % np.uint64(scale)).astype(np.float64) / float(scale) < fraction


@dataclass(frozen=True)
class PropertySpec:
    """Declaration of one generated property type."""

    name: str
    dtype: Datatype
    entity_type: EntityType = EntityType.VERTEX
    size_type: SizeType = SizeType.UNBOUNDED
    size_limit: int = 0
    #: fraction of elements that carry this property
    density: float = 1.0
    #: for arrays: element count; for strings: character count
    length: int = 8


@dataclass
class LpgSchema:
    """Counts, names, and assignment rules of labels and property types.

    ``n_vertex_labels`` + ``n_edge_labels`` labels total; every vertex
    gets one primary vertex-label (chosen by ID hash) and, with
    probability ``secondary_label_density``, one secondary label;
    lightweight edges carry one edge-label.
    """

    n_vertex_labels: int = 16
    n_edge_labels: int = 4
    properties: list[PropertySpec] = field(default_factory=list)
    secondary_label_density: float = 0.25
    #: fraction of edges that carry properties (heavyweight edges);
    #: requires at least one EDGE-typed PropertySpec
    heavy_edge_fraction: float = 0.0
    seed: int = 7

    # -- names -------------------------------------------------------------
    @property
    def vertex_label_names(self) -> list[str]:
        return [f"VL{i}" for i in range(self.n_vertex_labels)]

    @property
    def edge_label_names(self) -> list[str]:
        return [f"EL{i}" for i in range(self.n_edge_labels)]

    @property
    def n_labels(self) -> int:
        return self.n_vertex_labels + self.n_edge_labels

    def vertex_properties_specs(self) -> list[PropertySpec]:
        return [
            p for p in self.properties if p.entity_type & EntityType.VERTEX
        ]

    def edge_properties_specs(self) -> list[PropertySpec]:
        return [
            p for p in self.properties if p.entity_type & EntityType.EDGE
        ]

    # -- assignment rules -----------------------------------------------------
    def vertex_label_indices(self, app_id: int) -> list[int]:
        """Indices (into vertex_label_names) of this vertex's labels."""
        if self.n_vertex_labels == 0:
            return []
        h = _mix(app_id, self.seed)
        out = [h % self.n_vertex_labels]
        if (
            self.n_vertex_labels > 1
            and (_mix(app_id, self.seed + 1) % 1000) / 1000.0
            < self.secondary_label_density
        ):
            second = _mix(app_id, self.seed + 2) % self.n_vertex_labels
            if second != out[0]:
                out.append(second)
        return out

    def edge_label_index(self, src: int, dst: int) -> int | None:
        """Index (into edge_label_names) of an edge's label, or None."""
        if self.n_edge_labels == 0:
            return None
        return _mix(src * 0x1F123BB5 + dst, self.seed + 3) % self.n_edge_labels

    def edge_is_heavy(self, src: int, dst: int) -> bool:
        """Does this edge carry properties (become a heavyweight edge)?"""
        if self.heavy_edge_fraction <= 0 or not self.edge_properties_specs():
            return False
        h = _mix(src * 0x27D4EB2F + dst, self.seed + 9)
        return (h % 10_000) / 10_000.0 < self.heavy_edge_fraction

    def edge_property_values(self, src: int, dst: int) -> list[tuple[str, object]]:
        """(p-type name, value) pairs for one heavyweight edge."""
        out: list[tuple[str, object]] = []
        for i, spec in enumerate(self.edge_properties_specs()):
            h = _mix(src * 0x9E3779B1 + dst, self.seed + 200 + i)
            if (h % 1000) / 1000.0 >= spec.density:
                continue
            out.append((spec.name, self._value_for(spec, h)))
        return out

    def vertex_property_values(self, app_id: int) -> list[tuple[str, object]]:
        """(p-type name, value) pairs generated for one vertex."""
        out: list[tuple[str, object]] = []
        for i, spec in enumerate(self.vertex_properties_specs()):
            h = _mix(app_id, self.seed + 100 + i)
            if (h % 1000) / 1000.0 >= spec.density:
                continue
            out.append((spec.name, self._value_for(spec, h)))
        return out

    # -- the same rules as columns ------------------------------------------
    def vertex_label_columns(self, app_ids) -> np.ndarray:
        """:meth:`vertex_label_indices` for many vertices: an ``(n, 2)``
        array of label indices, ``-1`` where a vertex has fewer labels."""
        x = np.asarray(app_ids, dtype=np.int64).astype(np.uint64)
        out = np.full((len(x), 2), -1, dtype=np.int64)
        if self.n_vertex_labels == 0:
            return out
        nvl = np.uint64(self.n_vertex_labels)
        out[:, 0] = _mix_col(x, self.seed) % nvl
        if self.n_vertex_labels > 1:
            second = (_mix_col(x, self.seed + 2) % nvl).astype(np.int64)
            keep = _fraction_below(
                _mix_col(x, self.seed + 1), 1000, self.secondary_label_density
            ) & (second != out[:, 0])
            out[keep, 1] = second[keep]
        return out

    def edge_label_column(self, src, dst) -> "np.ndarray | None":
        """:meth:`edge_label_index` for many edges (``None`` without edge
        labels, as the scalar rule)."""
        if self.n_edge_labels == 0:
            return None
        h = _mix_col(_pair_col(src, dst, 0x1F123BB5), self.seed + 3)
        return (h % np.uint64(self.n_edge_labels)).astype(np.int64)

    def edge_heavy_column(self, src, dst) -> np.ndarray:
        """:meth:`edge_is_heavy` for many edges."""
        if self.heavy_edge_fraction <= 0 or not self.edge_properties_specs():
            return np.zeros(len(src), dtype=bool)
        h = _mix_col(_pair_col(src, dst, 0x27D4EB2F), self.seed + 9)
        return _fraction_below(h, 10_000, self.heavy_edge_fraction)

    def vertex_property_columns(
        self, app_ids
    ) -> "list[tuple[PropertySpec, np.ndarray, np.ndarray]]":
        """:meth:`vertex_property_values` for many vertices, per vertex
        p-type: ``(spec, carries, payload)``, where ``carries`` masks the
        vertices that get a value and ``payload`` holds those values'
        wire bytes (:func:`repro.gdi.types.encode_value`), one row each."""
        x = np.asarray(app_ids, dtype=np.int64).astype(np.uint64)
        return [
            self._column(spec, _mix_col(x, self.seed + 100 + i))
            for i, spec in enumerate(self.vertex_properties_specs())
        ]

    def edge_property_columns(
        self, src, dst
    ) -> "list[tuple[PropertySpec, np.ndarray, np.ndarray]]":
        """:meth:`edge_property_values` for many heavyweight edges, in
        the form of :meth:`vertex_property_columns`."""
        x = _pair_col(src, dst, 0x9E3779B1)
        return [
            self._column(spec, _mix_col(x, self.seed + 200 + i))
            for i, spec in enumerate(self.edge_properties_specs())
        ]

    @staticmethod
    def _column(
        spec: PropertySpec, h: np.ndarray
    ) -> "tuple[PropertySpec, np.ndarray, np.ndarray]":
        carries = _fraction_below(h, 1000, spec.density)
        h = h[carries]
        m = len(h)
        if spec.dtype is Datatype.INT64:
            value = (h % np.uint64(100_000)).astype("<i8")[:, None]
        elif spec.dtype is Datatype.DOUBLE:
            value = (h % np.uint64(10_000)).astype("<f8")[:, None] / 100.0
        elif spec.dtype is Datatype.BOOL:
            value = (h & np.uint64(1)).astype(np.uint8)[:, None]
        elif spec.dtype is Datatype.STRING:
            shifts = np.uint64(5) * np.arange(spec.length, dtype=np.uint64)
            # a shift past bit 63 yields 0, as Python's does: letter "a"
            value = ((h[:, None] >> shifts) % np.uint64(26) + np.uint64(97)).astype(
                np.uint8
            )
        elif spec.dtype is Datatype.BYTES:
            value = np.zeros((m, spec.length), dtype=np.uint8)
            k = min(8, spec.length)
            value[:, :k] = h.astype("<u8").view(np.uint8).reshape(m, 8)[:, :k]
        elif spec.dtype in (Datatype.DOUBLE_ARRAY, Datatype.INT64_ARRAY):
            # one seeded generator per value, as the scalar rule draws it
            value = np.array(
                [
                    LpgSchema._value_for(spec, s)
                    for s in (h & np.uint64(0xFFFFFFFF)).tolist()
                ],
                dtype=np.float64 if spec.dtype is Datatype.DOUBLE_ARRAY else np.int64,
            ).reshape(m, spec.length)
        else:
            raise ValueError(f"unsupported dtype {spec.dtype}")
        return spec, carries, np.ascontiguousarray(value).view(np.uint8)

    @staticmethod
    def _value_for(spec: PropertySpec, h: int) -> object:
        if spec.dtype is Datatype.INT64:
            return h % 100_000
        if spec.dtype is Datatype.DOUBLE:
            return (h % 10_000) / 100.0
        if spec.dtype is Datatype.BOOL:
            return bool(h & 1)
        if spec.dtype is Datatype.STRING:
            alphabet = "abcdefghijklmnopqrstuvwxyz"
            return "".join(
                alphabet[(h >> (5 * k)) % 26] for k in range(spec.length)
            )
        if spec.dtype is Datatype.BYTES:
            return (h & ((1 << (8 * spec.length)) - 1)).to_bytes(
                spec.length, "little"
            )
        if spec.dtype is Datatype.DOUBLE_ARRAY:
            rng = np.random.default_rng(h & 0xFFFFFFFF)
            return rng.random(spec.length)
        if spec.dtype is Datatype.INT64_ARRAY:
            rng = np.random.default_rng(h & 0xFFFFFFFF)
            return rng.integers(0, 1000, size=spec.length, dtype=np.int64)
        raise ValueError(f"unsupported dtype {spec.dtype}")


def default_schema(
    n_vertex_labels: int = 16,
    n_edge_labels: int = 4,
    n_properties: int = 13,
    feature_dim: int = 8,
    seed: int = 7,
) -> LpgSchema:
    """The paper's default: 20 labels and 13 property types.

    The property mix covers every GDI datatype: identifiers and counters
    (INT64), scores (DOUBLE), flags (BOOL), names/descriptions (STRING),
    opaque payloads (BYTES), and a GNN feature vector (DOUBLE_ARRAY) as
    used by the OLAP GNN workload of Listing 2.
    """
    catalog = [
        PropertySpec("p_id", Datatype.INT64),
        PropertySpec("p_score", Datatype.DOUBLE),
        PropertySpec("p_active", Datatype.BOOL),
        PropertySpec("p_name", Datatype.STRING, length=12),
        PropertySpec("p_blob", Datatype.BYTES, length=16, density=0.5),
        PropertySpec(
            "p_feature",
            Datatype.DOUBLE_ARRAY,
            size_type=SizeType.FIXED,
            size_limit=8 * feature_dim,
            length=feature_dim,
        ),
        PropertySpec("p_age", Datatype.INT64, density=0.9),
        PropertySpec("p_rank", Datatype.DOUBLE, density=0.8),
        PropertySpec("p_city", Datatype.STRING, length=8, density=0.7),
        PropertySpec("p_flags", Datatype.INT64, density=0.6),
        PropertySpec("p_note", Datatype.STRING, length=20, density=0.3),
        PropertySpec("p_ts", Datatype.INT64, density=0.95),
        PropertySpec("p_ratio", Datatype.DOUBLE, density=0.4),
    ]
    return LpgSchema(
        n_vertex_labels=n_vertex_labels,
        n_edge_labels=n_edge_labels,
        properties=catalog[: max(0, n_properties)],
        seed=seed,
    )
