"""Database checkpointing: snapshot and restore (the D of ACID).

The paper's system is fully in-memory for performance; durability of
committed data is obtained by checkpointing the distributed state (plus
the in-memory commit log for the tail).  This module implements the
checkpoint side:

* :func:`snapshot` — a collective that walks every rank's local vertices
  through a collective read transaction and assembles a
  machine-independent description of the whole database: metadata by
  *name* (integer IDs are an implementation detail that may differ after
  restore), vertices with labels/properties, and each logical edge
  exactly once (lightweight and heavyweight, with edge properties).
* :func:`restore` — a collective that rebuilds an equivalent database:
  metadata first, then vertices and lightweight edges as one bulk load
  (:func:`repro.gda.bulk.load`: each rank writes the vertices it owns,
  the half-edges routed to them), heavyweight edges via an ordinary
  transaction.

``snapshot(restore(snapshot(db)))`` is asserted equal to
``snapshot(db)`` by the test suite.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..gdi.errors import GdiStateError
from ..rma.runtime import RankContext
from . import bulk
from .bulk import Entries
from .database_impl import GdaDatabase, _route_half_edges
from .entries import ENTRY_LABEL
from .holder import DIR_IN, DIR_UNDIR
from .metadata import PropertyType

__all__ = ["snapshot", "restore"]


def _hosted_vertices(ctx: RankContext, db: GdaDatabase) -> list[int]:
    """Vertices this rank must walk in a collective sweep.

    Normally just the rank's own shard; after a failover the membership
    view's translation table may assign a dead rank's shard to its
    backup, which then walks both (degraded-mode iteration).
    """
    mem = getattr(ctx.rt, "membership", None)
    if mem is None or not mem.degraded():
        return db.directory.local_vertices(ctx)
    vids: list[int] = []
    for shard in mem.shards_of(ctx.rank):
        vids.extend(db.directory.shard_vertices(ctx, shard))
    return vids


def snapshot(ctx: RankContext, db: GdaDatabase) -> dict[str, Any]:
    """Collectively capture the database content; every rank returns the
    same snapshot dictionary."""
    replica = db.replica(ctx)
    replica.sync()
    tx = db.start_collective_transaction(ctx)
    vertices: dict[int, dict] = {}
    light_edges: list[tuple] = []
    heavy_edges: list[tuple] = []
    for vid in _hosted_vertices(ctx, db):
        v = tx.associate_vertex(vid)
        vertices[v.app_id] = {
            "labels": [l.name for l in v.labels()],
            "props": [
                (replica.ptype_by_id(pid).name, bytes(blob))
                for pid, blob in v._txv.holder.properties
            ],
        }
        for handle in v.edges():
            slot = handle._slot
            if slot.heavy:
                if slot.direction == DIR_IN:
                    continue  # directed heavy edges: source side emits
                holder = tx._load_edge_holder(slot.dptr).holder
                if holder.src != vid:
                    continue  # undirected heavy edges: source side emits
                src_app = v.app_id
                dst_app = tx.associate_vertex(holder.dst).app_id
                heavy_edges.append(
                    (
                        src_app,
                        dst_app,
                        holder.directed,
                        [replica.label_by_id(l).name for l in holder.labels],
                        [
                            (replica.ptype_by_id(pid).name, bytes(blob))
                            for pid, blob in holder.properties
                        ],
                    )
                )
            else:
                if slot.direction == DIR_IN:
                    continue  # emitted by the OUT side
                other_app = tx.associate_vertex(slot.dptr).app_id
                if slot.direction == DIR_UNDIR:
                    # each undirected edge exists as one slot per side;
                    # emit from the smaller endpoint (self-loops once)
                    if v.app_id > other_app:
                        continue
                    directed = False
                else:
                    directed = True
                label_name = (
                    replica.label_by_id(slot.label_id).name
                    if slot.label_id
                    else None
                )
                light_edges.append(
                    (v.app_id, other_app, directed, label_name)
                )
    tx.commit()

    ptypes = [
        {
            "name": pt.name,
            "entity_type": pt.entity_type,
            "dtype": pt.dtype,
            "size_type": pt.size_type,
            "size_limit": pt.size_limit,
            "multiplicity": pt.multiplicity,
        }
        for pt in replica.ptypes
    ]
    labels = [l.name for l in replica.labels]

    # a crashed rank contributes None to collectives; its shard's data
    # arrives via the backup that now hosts it (degraded-mode iteration)
    merged_vertices: dict[int, dict] = {}
    for part in ctx.allgather(vertices):
        if part is not None:
            merged_vertices.update(part)
    merged_light: list = []
    merged_heavy: list = []
    for part in ctx.allgather(light_edges):
        if part is not None:
            merged_light.extend(part)
    for part in ctx.allgather(heavy_edges):
        if part is not None:
            merged_heavy.extend(part)
    return {
        "labels": labels,
        "ptypes": ptypes,
        "vertices": merged_vertices,
        "light_edges": sorted(merged_light, key=_edge_key),
        "heavy_edges": sorted(merged_heavy, key=_edge_key),
    }


def _edge_key(edge: tuple) -> tuple:
    return (edge[0], edge[1], str(edge[3]))


def restore(ctx: RankContext, db: GdaDatabase, snap: dict[str, Any]) -> bulk.VidMap:
    """Collectively rebuild the snapshot's content into an empty ``db``.

    Returns the application-ID -> internal-ID map of the restored graph.
    """
    if db.directory.count(ctx) != 0:
        raise GdiStateError("restore target database is not empty")
    # -- metadata (names are authoritative; integer IDs are reassigned) --
    if ctx.rank == 0:
        for name in snap["labels"]:
            db.create_label(ctx, name)
        for spec in snap["ptypes"]:
            db.create_property_type(
                ctx,
                spec["name"],
                entity_type=spec["entity_type"],
                dtype=spec["dtype"],
                size_type=spec["size_type"],
                size_limit=spec["size_limit"],
                multiplicity=spec["multiplicity"],
            )
    ctx.barrier()
    replica = db.replica(ctx)
    replica.sync()
    label_by_name = {l.name: l for l in replica.labels}
    ptype_by_name: dict[str, PropertyType] = {p.name: p for p in replica.ptypes}

    # -- vertices and lightweight edges: one bulk load ------------------------
    apps = np.fromiter(snap["vertices"], dtype=np.int64, count=len(snap["vertices"]))
    apps = np.sort(apps[db.home_rank(apps) == ctx.rank])
    rows, eids, words, blobs = [], [], [], []
    for row, app_id in enumerate(apps.tolist()):
        desc = snap["vertices"][app_id]
        for name in dict.fromkeys(desc["labels"]):  # a label once
            rows.append(row)
            eids.append(ENTRY_LABEL)
            words.append(label_by_name[name].int_id)
        for pt_name, blob in desc["props"]:  # payloads verbatim
            rows.append(row)
            eids.append(ptype_by_name[pt_name].int_id)
            words.append(len(blob))
            blobs.append(blob)
    entries = Entries(
        np.array(rows, dtype=np.int64),
        np.array(eids, dtype=np.int64),
        np.array(words, dtype=np.int64),
        np.frombuffer(b"".join(blobs), dtype=np.uint8),
    )
    mine = snap["light_edges"][ctx.rank :: ctx.nranks]  # shard the replay work
    edges = np.array(
        [
            (src, dst, directed, label_by_name[name].int_id if name else 0)
            for src, dst, directed, name in mine
        ],
        dtype=np.int64,
    ).reshape(-1, 4)
    rows = np.stack(_route_half_edges(ctx, db, *edges.T), 1)
    vid_map = bulk.load(ctx, db, apps, entries, rows)

    # -- heavyweight edges: ordinary transactions on rank 0 -------------------
    if ctx.rank == 0 and snap["heavy_edges"]:
        tx = db.start_transaction(ctx, write=True)
        for src, dst, directed, label_names, props in snap["heavy_edges"]:
            a = tx.associate_vertex(vid_map[src])
            b = tx.associate_vertex(vid_map[dst])
            e = tx.create_edge(
                a,
                b,
                directed=directed,
                labels=[label_by_name[n] for n in label_names],
                properties=[],
                force_heavy=True,
            )
            # splice the stored payloads verbatim (already encoded)
            holder = tx._load_edge_holder(e._slot.dptr).holder
            holder.properties = [
                (ptype_by_name[n].int_id, blob) for n, blob in props
            ]
        tx.commit()
    ctx.barrier()
    return vid_map
