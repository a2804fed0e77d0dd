"""Distributed in-memory LPG graph materialization (paper Section 6.3).

Builds a labeled property graph inside a GDA database, fully in memory,
using the bulk data-loading collectives of Section 4 (BULK):

1. every rank derives the labels and properties of the vertices it owns
   (round-robin by application ID) from the schema's column rules;
2. every rank generates its Kronecker edge shard and routes *half-edges*
   with a single ``alltoallv`` so that each rank appends only to vertices
   it owns (heavyweight edges go to their source's owner);
3. :func:`repro.gda.bulk.load` writes each rank's holders in one batch
   and allgathers the application-ID → internal-ID map as arrays.

The result is deterministic in ``(params, schema, nranks)``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..gda import bulk
from ..gda.database_impl import GdaDatabase, _route_half_edges
from ..gda.entries import ENTRY_LABEL
from ..gda.holder import DIR_OUT, DIR_UNDIR
from ..gda.metadata import Label, PropertyType
from ..rma.runtime import RankContext
from .kronecker import KroneckerParams, generate_edges
from .schema import LpgSchema, default_schema

__all__ = ["GeneratedGraph", "build_lpg", "create_schema_metadata"]


@dataclass
class GeneratedGraph:
    """Handle to a generated graph living inside a database."""

    db: GdaDatabase
    params: KroneckerParams
    schema: LpgSchema
    labels: dict[str, Label]
    ptypes: dict[str, PropertyType]
    vid_map: Mapping[int, int]  # application ID -> internal ID (replicated)
    directed: bool
    n_vertices: int
    n_edges_requested: int
    n_edges_loaded: int

    def vertex_label(self, idx: int) -> Label:
        return self.labels[self.schema.vertex_label_names[idx]]

    def edge_label(self, idx: int) -> Label:
        return self.labels[self.schema.edge_label_names[idx]]

    def ptype(self, name: str) -> PropertyType:
        return self.ptypes[name]


def create_schema_metadata(
    ctx: RankContext, db: GdaDatabase, schema: LpgSchema
) -> tuple[dict[str, Label], dict[str, PropertyType]]:
    """Collectively register the schema's labels and property types."""
    if ctx.rank == 0:
        for name in schema.vertex_label_names + schema.edge_label_names:
            db.create_label(ctx, name)
        for spec in schema.properties:
            db.create_property_type(
                ctx,
                spec.name,
                entity_type=spec.entity_type,
                dtype=spec.dtype,
                size_type=spec.size_type,
                size_limit=spec.size_limit,
            )
    ctx.barrier()
    db.replica(ctx).sync()
    labels = {
        name: db.label(ctx, name)
        for name in schema.vertex_label_names + schema.edge_label_names
    }
    ptypes = {spec.name: db.property_type(ctx, spec.name) for spec in schema.properties}
    return labels, ptypes


def build_lpg(
    ctx: RankContext,
    db: GdaDatabase,
    params: KroneckerParams,
    schema: LpgSchema | None = None,
    *,
    directed: bool = True,
    dedup: bool = True,
    drop_self_loops: bool = False,
) -> GeneratedGraph:
    """Collectively generate and load one LPG Kronecker graph."""
    edges = generate_edges(params, ctx.rank, ctx.nranks)
    g = build_lpg_from_edges(
        ctx,
        db,
        n_vertices=params.n_vertices,
        edges_local=edges,
        schema=schema,
        directed=directed,
        dedup=dedup,
        drop_self_loops=drop_self_loops,
    )
    g.params = params
    g.n_edges_requested = params.n_edges
    return g


def build_lpg_from_edges(
    ctx: RankContext,
    db: GdaDatabase,
    *,
    n_vertices: int,
    edges_local: "np.ndarray | list",
    schema: LpgSchema | None = None,
    directed: bool = True,
    dedup: bool = True,
    drop_self_loops: bool = False,
) -> GeneratedGraph:
    """Bulk-load an arbitrary edge list (e.g. a real-world graph).

    ``edges_local`` is this rank's shard of (src, dst) pairs in
    application-ID space ``[0, n_vertices)``; labels and properties are
    assigned by the schema's deterministic rules, exactly as for
    generated graphs (Section 6.7 loads real-world graphs this way).
    """
    schema = schema if schema is not None else default_schema()
    labels, ptypes = create_schema_metadata(ctx, db, schema)
    n = n_vertices
    apps = np.arange(ctx.rank, n, ctx.nranks, dtype=np.int64)
    # label integer IDs by schema index; index -1 (no label) stays -1
    vlabel_ids = np.array(
        [labels[name].int_id for name in schema.vertex_label_names] + [-1]
    )
    elabel_ids = np.array(
        [labels[name].int_id for name in schema.edge_label_names], dtype=np.int64
    )

    edges = np.asarray(edges_local, dtype=np.int64).reshape(-1, 2)
    if drop_self_loops:
        edges = edges[edges[:, 0] != edges[:, 1]]
    # heavyweight edges are created at the source owner, which routes
    # their holder pointers to the destination owner
    heavy = schema.edge_heavy_column(edges[:, 0], edges[:, 1])
    src, dst = edges[~heavy].T
    label = schema.edge_label_column(src, dst)
    label = np.zeros(len(src), dtype=np.int64) if label is None else elabel_ids[label]
    half_edges = np.stack(_route_half_edges(ctx, db, src, dst, directed, label), 1)
    if dedup:  # rows sort lexicographically, as tuples do
        half_edges = np.unique(half_edges, axis=0)
    heavy_edges, n_heavy = None, 0
    if schema.heavy_edge_fraction > 0 and schema.edge_properties_specs():
        src, dst = edges[heavy].T
        hs, hd = ctx.alltoallv(db.home_rank(src), src, dst)
        if dedup:
            hs, hd = np.unique(np.stack([hs, hd], 1), axis=0).reshape(-1, 2).T
        label = schema.edge_label_column(hs, hd)
        heavy_edges = (
            hs,
            hd,
            _entries(
                len(hs),
                None if label is None else elabel_ids[label][:, None],
                schema.edge_property_columns(hs, hd),
                ptypes,
            ),
        )
        n_heavy = len(hs)
    # Count each logical edge exactly once across all ranks.
    a, b, direction = half_edges[:, :3].T
    once = (direction == DIR_OUT) | ((direction == DIR_UNDIR) & (a <= b))
    n_loaded_local = int(np.count_nonzero(once)) + n_heavy
    vid_map = bulk.load(
        ctx,
        db,
        apps,
        _entries(
            len(apps),
            vlabel_ids[schema.vertex_label_columns(apps)],
            schema.vertex_property_columns(apps),
            ptypes,
        ),
        half_edges,
        heavy_edges,
        directed=directed,
        round_robin=True,
    )
    n_loaded = ctx.allreduce(n_loaded_local)
    if ctx.rank == 0:
        # The load is two commits per rank, far below the per-commit GC
        # trigger, yet it installed an "absent" image per vertex and edge
        # holder.  Every rank is past its load here (the allreduce
        # synchronized them), so whatever no open snapshot pins goes now
        # instead of shadowing every later snapshot read.
        db.mvcc.collect(ctx)

    n_edges_local = len(edges_local)
    return GeneratedGraph(
        db=db,
        params=KroneckerParams(scale=max(1, (n - 1).bit_length())),
        schema=schema,
        labels=labels,
        ptypes=ptypes,
        vid_map=vid_map,
        directed=directed,
        n_vertices=n,
        n_edges_requested=ctx.allreduce(n_edges_local),
        n_edges_loaded=n_loaded,
    )


def _entries(n: int, label_ids, prop_columns, ptypes) -> bulk.Entries:
    """The schema's columns for ``n`` holders as entries: the label
    columns (``-1``: none), then each p-type in schema order — the order
    the scalar rules list a holder's labels and properties in."""
    parts = [
        bulk.Entries.of_column(np.flatnonzero(col >= 0), ENTRY_LABEL, col[col >= 0])
        for col in (() if label_ids is None else label_ids.T)
    ]
    for spec, carries, payload in prop_columns:
        rows = np.flatnonzero(carries)
        parts.append(
            bulk.Entries.of_column(rows, ptypes[spec.name].int_id, payload=payload)
        )
    return bulk.Entries.merge(parts)
