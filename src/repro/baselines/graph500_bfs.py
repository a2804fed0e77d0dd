"""Graph500-class BFS baseline (paper Section 6.5).

The paper compares GDA's transactional BFS against the Graph500 reference
implementation — "a highly tuned BFS code" operating on static simple
graphs with no labels, properties, or transactions.  This module is the
equivalent for our substrate: a level-synchronous distributed BFS over a
raw CSR shard built directly from the Kronecker generator, running on the
*same* simulated network (so the GDA-vs-Graph500 gap isolates exactly what
the paper's comparison isolates: the overhead of the LPG data model and
the transactional storage engine).

The expected shape (paper): GDA is at most 2-4x slower, occasionally
comparable — because both codes have the same communication structure and
GDA adds per-vertex holder fetches and transaction bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gda.holder import csr_indptr, ragged_index
from ..generator.kronecker import KroneckerParams, generate_edges
from ..rma.runtime import RankContext

__all__ = ["CsrShard", "build_csr_shard", "graph500_bfs"]


@dataclass
class CsrShard:
    """This rank's CSR shard: vertices ``app % nranks == rank``, local
    vertex ``u`` at row ``u // nranks`` of ``offsets``."""

    nranks: int
    local_vertices: np.ndarray  # app ids, sorted
    offsets: np.ndarray  # len = n_local + 1
    targets: np.ndarray  # concatenated neighbor app ids

    def neighbors(self, app_id: int) -> np.ndarray:
        row = app_id // self.nranks
        return self.targets[self.offsets[row] : self.offsets[row + 1]]


def build_csr_shard(
    ctx: RankContext,
    params: KroneckerParams,
    undirected: bool = True,
) -> CsrShard:
    """Exchange generated edges and compress this rank's shard to CSR.

    Charges the exchange and the (vectorized) local sort to the simulated
    clock; this mirrors Graph500's timed graph-construction phase, which
    the paper's BFS comparison excludes — benchmarks therefore time
    :func:`graph500_bfs` separately.
    """
    src, dst = generate_edges(params, ctx.rank, ctx.nranks).T
    if undirected:
        # every edge from both ends, the reverse right after the forward
        keep = np.stack([np.ones(len(src), dtype=bool), src != dst], 1).ravel()
        src, dst = np.stack([src, dst], 1).ravel(), np.stack([dst, src], 1).ravel()
        src, dst = src[keep], dst[keep]
    src, dst = ctx.alltoallv(src % ctx.nranks, src, dst)
    local_vertices = np.arange(ctx.rank, params.n_vertices, ctx.nranks)
    rows = src // ctx.nranks
    ctx.compute(len(src) * 2)
    return CsrShard(
        nranks=ctx.nranks,
        local_vertices=local_vertices,
        offsets=csr_indptr(np.bincount(rows, minlength=len(local_vertices))),
        targets=dst[np.argsort(rows, kind="stable")],
    )


def graph500_bfs(
    ctx: RankContext, shard: CsrShard, root: int
) -> dict[int, int]:
    """Level-synchronous BFS on the raw CSR shard; returns local depths.

    One local scalar op per scanned edge (the tuned-kernel cost), one
    exchange per level — the minimal communication structure a
    distributed BFS can have.
    """
    depth = np.full(len(shard.local_vertices), -1, dtype=np.int64)
    # the root's row on the rank that holds it, nothing elsewhere
    frontier = np.flatnonzero(shard.local_vertices == root)
    depth[frontier] = 0
    level = 0
    while ctx.allreduce(len(frontier)):
        starts = shard.offsets[frontier]
        nbrs = shard.targets[ragged_index(starts, shard.offsets[frontier + 1] - starts)]
        ctx.compute(len(nbrs))
        (received,) = ctx.alltoallv(nbrs % shard.nranks, nbrs)
        level += 1
        rows = np.unique(received // shard.nranks)
        frontier = rows[depth[rows] < 0]
        depth[frontier] = level
        ctx.compute(len(received))
    seen = np.flatnonzero(depth >= 0)
    return dict(zip(shard.local_vertices[seen].tolist(), depth[seen].tolist()))
