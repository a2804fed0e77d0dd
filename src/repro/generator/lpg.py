"""Distributed in-memory LPG graph materialization (paper Section 6.3).

Builds a labeled property graph inside a GDA database, fully in memory,
using the bulk data-loading collectives of Section 4 (BULK):

1. every rank creates the vertices it owns (round-robin by application
   ID, so creation is purely local) inside one collective write
   transaction, attaching schema-derived labels and properties;
2. the application-ID → internal-ID map is allgathered (the bulk loader's
   one-shot replacement for per-edge DHT lookups);
3. every rank generates its Kronecker edge shard and routes *half-edges*
   with a single ``alltoallv`` so that each rank appends only to vertices
   it owns — making the lock-free collective write transaction safe.

The result is deterministic in ``(params, schema, nranks)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gda.database_impl import GdaDatabase, _route_half_edges
from ..gda.holder import DIR_IN, DIR_OUT, DIR_UNDIR
from ..gda.metadata import Label, PropertyType
from ..gdi.constants import EntityType
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
    vid_map: dict[int, int]  # application ID -> internal ID (replicated)
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

    # -- phase 1: vertices (local creation, collective write txn) ----------
    tx = db.start_collective_transaction(ctx, write=True)
    local_map: dict[int, int] = {}
    vlabel_names = schema.vertex_label_names
    for app_id in range(ctx.rank, n, ctx.nranks):
        vlabels = [
            labels[vlabel_names[i]] for i in schema.vertex_label_indices(app_id)
        ]
        vprops = [
            (ptypes[name], value)
            for name, value in schema.vertex_property_values(app_id)
        ]
        handle = tx.create_vertex(app_id, labels=vlabels, properties=vprops)
        local_map[app_id] = handle.vid
    tx.commit()

    # -- phase 2: replicate the application-ID map --------------------------
    vid_map: dict[int, int] = {}
    for part in ctx.allgather(local_map):
        vid_map.update(part)

    # -- phase 3: edges (half-edge exchange, collective write txn) -----------
    elabel_names = schema.edge_label_names
    edges = np.asarray(edges_local, dtype=np.int64).reshape(-1, 2)
    if drop_self_loops:
        edges = edges[edges[:, 0] != edges[:, 1]]
    # heavyweight edges are created at the source owner and their holder
    # pointers shipped to the destination owner afterwards
    heavy = np.array(
        [schema.edge_is_heavy(s, d) for s, d in edges.tolist()], dtype=bool
    )
    light = edges[~heavy]
    label = np.zeros(len(light), dtype=np.int64)
    if elabel_names:
        label_ids = np.array([labels[name].int_id for name in elabel_names])
        label = label_ids[[schema.edge_label_index(s, d) for s, d in light.tolist()]]
    half_edges = np.stack(
        _route_half_edges(ctx, db, light[:, 0], light[:, 1], directed, label), 1
    )
    src, dst = edges[heavy].T
    heavy_received = np.stack(ctx.alltoallv(db.home_rank(src), src, dst), 1)
    if dedup:  # rows sort lexicographically, as tuples do
        half_edges = np.unique(half_edges, axis=0)
        heavy_received = np.unique(heavy_received, axis=0)
    # Count each logical edge exactly once across all ranks.
    a, b, direction = half_edges[:, :3].T
    once = (direction == DIR_OUT) | ((direction == DIR_UNDIR) & (a <= b))
    n_loaded_local = int(np.count_nonzero(once)) + len(heavy_received)
    tx = db.start_collective_transaction(ctx, write=True)
    for a, b, direction, label_id in half_edges.tolist():
        base, other = (b, a) if direction == DIR_IN else (a, b)
        tx.bulk_append_half_edge(
            vid_map[base], vid_map[other], direction, label_id, other_app_id=other
        )
    # heavyweight edges, round 1: create holders + source-side slots
    reverse = []
    for src, dst in heavy_received.tolist():
        li = schema.edge_label_index(src, dst)
        elabels = [labels[elabel_names[li]]] if li is not None else []
        props = [
            (ptypes[name], value)
            for name, value in schema.edge_property_values(src, dst)
        ]
        eptr = tx.bulk_create_edge_holder(
            vid_map[src],
            vid_map[dst],
            directed=directed,
            labels=elabels,
            properties=props,
            src_app_id=src,
            dst_app_id=dst,
        )
        fwd = DIR_OUT if directed else DIR_UNDIR
        tx.bulk_append_half_edge(vid_map[src], vid_map[dst], fwd, 0, eptr)
        if src != dst:
            reverse.append((dst, src, eptr))
        elif directed:
            tx.bulk_append_half_edge(vid_map[src], vid_map[dst], DIR_IN, 0, eptr)
    # heavyweight edges, round 2: destination-side slots
    rev = DIR_IN if directed else DIR_UNDIR
    base, other, eptr = np.array(reverse, dtype=np.int64).reshape(-1, 3).T
    received = ctx.alltoallv(db.home_rank(base), base, other, eptr)
    for base, other, eptr in np.stack(received, 1).tolist():
        tx.bulk_append_half_edge(vid_map[base], vid_map[other], rev, 0, eptr)
    tx.commit()
    n_loaded = ctx.allreduce(n_loaded_local)
    if db.mvcc is not None and ctx.rank == 0:
        # The load is a handful of collective commits, far below the
        # per-commit GC trigger, yet each left a pre-image per vertex it
        # touched.  Every rank is past its commit here (the allreduce
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
