"""Distributed in-memory LPG graph materialization (paper Section 6.3).

Builds a labeled property graph inside a GDA database, fully in memory,
using the bulk data-loading collectives of Section 4 (BULK):

1. every rank creates the vertices it owns (round-robin by application
   ID, so creation is purely local) inside one collective write
   transaction, attaching schema-derived labels and properties;
2. the application-ID → internal-ID map is allgathered (the bulk loader's
   one-shot replacement for per-edge DHT lookups);
3. every rank generates its Kronecker edge shard and routes *half-edges*
   with a single alltoall so that each rank appends only to vertices it
   owns — making the lock-free collective write transaction safe.

The result is deterministic in ``(params, schema, nranks)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gda.database_impl import GdaDatabase
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
        edges_local=edges.tolist(),
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
    edges_local: list,
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
    outboxes: list[list[tuple[int, int, int, int]]] = [
        [] for _ in range(ctx.nranks)
    ]
    heavy_out: list[list[tuple[int, int]]] = [[] for _ in range(ctx.nranks)]
    for src, dst in edges_local:
        if drop_self_loops and src == dst:
            continue
        if schema.edge_is_heavy(src, dst):
            # heavyweight edges are created at the source owner and their
            # holder pointers shipped to the destination owner afterwards
            heavy_out[db.home_rank(src)].append((src, dst))
            continue
        li = schema.edge_label_index(src, dst)
        label_id = labels[elabel_names[li]].int_id if li is not None else 0
        if directed:
            outboxes[db.home_rank(src)].append((src, dst, DIR_OUT, label_id))
            outboxes[db.home_rank(dst)].append((src, dst, DIR_IN, label_id))
        else:
            outboxes[db.home_rank(src)].append((src, dst, DIR_UNDIR, label_id))
            if src != dst:
                outboxes[db.home_rank(dst)].append(
                    (dst, src, DIR_UNDIR, label_id)
                )
    received = ctx.alltoall(outboxes)
    half_edges = [he for box in received for he in box]
    if dedup:
        half_edges = sorted(set(half_edges))
    heavy_received = [e for box in ctx.alltoall(heavy_out) for e in box]
    if dedup:
        heavy_received = sorted(set(heavy_received))
    n_loaded_local = 0
    tx = db.start_collective_transaction(ctx, write=True)
    for a, b, direction, label_id in half_edges:
        if direction == DIR_OUT or direction == DIR_UNDIR:
            base, other = a, b
        else:  # DIR_IN half lives on the destination vertex
            base, other = b, a
        tx.bulk_append_half_edge(
            vid_map[base], vid_map[other], direction, label_id,
            other_app_id=other,
        )
        # Count each logical edge exactly once across all ranks.
        if direction == DIR_OUT or (direction == DIR_UNDIR and a <= b):
            n_loaded_local += 1
    # heavyweight edges, round 1: create holders + source-side slots
    reverse_out: list[list[tuple[int, int, int]]] = [
        [] for _ in range(ctx.nranks)
    ]
    for src, dst in heavy_received:
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
        n_loaded_local += 1
        if src != dst:
            rev = DIR_IN if directed else DIR_UNDIR
            reverse_out[db.home_rank(dst)].append((dst, src, eptr))
        elif directed:
            tx.bulk_append_half_edge(vid_map[src], vid_map[dst], DIR_IN, 0, eptr)
    # heavyweight edges, round 2: destination-side slots
    rev = DIR_IN if directed else DIR_UNDIR
    for box in ctx.alltoall(reverse_out):
        for base, other, eptr in box:
            tx.bulk_append_half_edge(
                vid_map[base], vid_map[other], rev, 0, eptr
            )
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
