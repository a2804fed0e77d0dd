"""JanusGraph-class baseline (paper Sections 6.2, 6.4, 6.5).

The paper compares GDA against JanusGraph, "one of the highest-ranking
core graph databases".  We cannot deploy JanusGraph (JVM + Cassandra
cluster) inside this offline reproduction, so this module implements a
baseline of the same *architecture class*, with per-operation costs
calibrated to the paper's own measurements of JanusGraph (Figure 5):

* client-server **RPC** instead of one-sided RDMA: every operation pays a
  request/response round trip through a storage stack (JVM, serialization,
  backend store) — "at least 500 us for all the operations (in most
  cases), with no operation being faster than 200 us";
* **vertex deletions start around 2000 us**;
* **eventual consistency** by default (no distributed locking, hence no
  failed transactions — but also no serializability, as the paper notes
  when comparing fairness);
* coordination overhead that grows with the number of servers, and a
  configuration ceiling (:attr:`JanusGraphSim.MAX_SERVERS`) reflecting the
  configurations JanusGraph could not scale to (the missing bars/points
  in Figures 4 and 6).

The store itself is sharded in-memory state guarded by per-shard locks;
costs are charged to the simulated per-rank clocks of the same RMA
runtime that GDA uses, so throughput and latency numbers are directly
comparable.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

import numpy as np

from ..generator.kronecker import KroneckerParams, generate_edges
from ..generator.schema import LpgSchema
from ..rma.runtime import RankContext
from ..workloads.oltp import (
    MIXES,
    OltpRankResult,
    OpType,
    WorkloadMix,
)

__all__ = ["JanusGraphSim", "JanusScaleError", "run_janus_oltp_rank", "janus_bfs"]


class JanusScaleError(RuntimeError):
    """Raised for configurations the baseline cannot scale to."""


# Cost constants (seconds), calibrated to the paper's Figure 5.
RPC_BASE_READ = 250e-6  # no op faster than ~200 us
RPC_BASE_WRITE = 500e-6  # most ops at least ~500 us
RPC_DELETE = 2000e-6  # vertex deletions start at ~2000 us
PER_EDGE_SCAN = 2e-6  # backend row scan per adjacent edge
PER_SERVER_COORD = 3e-6  # write coordination per extra server
JITTER = 0.35  # multiplicative latency spread


@dataclass
class JanusGraphSim:
    """Sharded eventually-consistent store with RPC-cost accounting."""

    nranks: int
    MAX_SERVERS = 32
    _vertices: list[dict[int, dict]] = field(default_factory=list)
    _adj: list[dict[int, list[int]]] = field(default_factory=list)
    _locks: list[threading.Lock] = field(default_factory=list)

    @classmethod
    def create(cls, ctx: RankContext) -> "JanusGraphSim":
        if ctx.nranks > cls.MAX_SERVERS:
            raise JanusScaleError(
                f"JanusGraph baseline does not scale past "
                f"{cls.MAX_SERVERS} servers (requested {ctx.nranks})"
            )
        sim = None
        if ctx.rank == 0:
            sim = cls(
                nranks=ctx.nranks,
                _vertices=[{} for _ in range(ctx.nranks)],
                _adj=[{} for _ in range(ctx.nranks)],
                _locks=[threading.Lock() for _ in range(ctx.nranks)],
            )
        sim = ctx.bcast(sim, root=0)
        ctx.barrier()
        return sim

    # -- cost model -----------------------------------------------------------
    def _charge(
        self, ctx: RankContext, base: float, edges: int, rng, write: bool
    ) -> None:
        cost = base + edges * PER_EDGE_SCAN
        if write:
            cost += PER_SERVER_COORD * (self.nranks - 1)
        cost *= 1.0 + JITTER * rng.random()
        ctx.charge(cost)

    def home(self, app_id: int) -> int:
        return app_id % self.nranks

    # -- store operations (each is one client RPC) -------------------------------
    def load_graph(
        self, ctx: RankContext, params: KroneckerParams, schema: LpgSchema
    ) -> None:
        """Bulk-load this rank's vertex/edge shard (local fills only)."""
        me = ctx.rank
        for app_id in range(me, params.n_vertices, ctx.nranks):
            props = dict(schema.vertex_property_values(app_id))
            props["labels"] = schema.vertex_label_indices(app_id)
            self._vertices[me][app_id] = props
            self._adj[me][app_id] = []
        ctx.barrier()
        src, dst = generate_edges(params, ctx.rank, ctx.nranks).T
        src, dst = ctx.alltoallv(self.home(src), src, dst)
        for s, d in zip(src.tolist(), dst.tolist()):
            self._adj[me][s].append(d)
        ctx.barrier()

    def get_vertex(self, ctx: RankContext, app_id: int, rng) -> dict | None:
        target = self.home(app_id)
        with self._locks[target]:
            v = self._vertices[target].get(app_id)
        self._charge(ctx, RPC_BASE_READ, 0, rng, write=False)
        return v

    def get_edges(self, ctx: RankContext, app_id: int, rng) -> list[int]:
        target = self.home(app_id)
        with self._locks[target]:
            nbrs = list(self._adj[target].get(app_id, ()))
        self._charge(ctx, RPC_BASE_READ, len(nbrs), rng, write=False)
        return nbrs

    def count_edges(self, ctx: RankContext, app_id: int, rng) -> int:
        target = self.home(app_id)
        with self._locks[target]:
            n = len(self._adj[target].get(app_id, ()))
        self._charge(ctx, RPC_BASE_READ, n, rng, write=False)
        return n

    def add_vertex(self, ctx: RankContext, app_id: int, props: dict, rng) -> None:
        target = self.home(app_id)
        with self._locks[target]:
            self._vertices[target][app_id] = dict(props)
            self._adj[target].setdefault(app_id, [])
        self._charge(ctx, RPC_BASE_WRITE, 0, rng, write=True)

    def update_property(
        self, ctx: RankContext, app_id: int, key: str, value, rng
    ) -> bool:
        target = self.home(app_id)
        with self._locks[target]:
            v = self._vertices[target].get(app_id)
            if v is not None:
                v[key] = value
        self._charge(ctx, RPC_BASE_WRITE, 0, rng, write=True)
        return v is not None

    def add_edge(self, ctx: RankContext, src: int, dst: int, rng) -> None:
        target = self.home(src)
        with self._locks[target]:
            if src in self._adj[target]:
                self._adj[target][src].append(dst)
        self._charge(ctx, RPC_BASE_WRITE, 0, rng, write=True)

    def delete_vertex(self, ctx: RankContext, app_id: int, rng) -> bool:
        target = self.home(app_id)
        with self._locks[target]:
            existed = self._vertices[target].pop(app_id, None) is not None
            nbrs = self._adj[target].pop(app_id, [])
        # eventual consistency: dangling reverse edges are cleaned lazily;
        # the client still pays for the tombstone writes.
        self._charge(ctx, RPC_DELETE, len(nbrs), rng, write=True)
        return existed


def run_janus_oltp_rank(
    ctx: RankContext,
    sim: JanusGraphSim,
    params: KroneckerParams,
    mix: WorkloadMix,
    n_ops: int,
    seed: int = 0,
) -> OltpRankResult:
    """The Table 3 operation mix against the JanusGraph-class baseline.

    Mirrors :func:`repro.workloads.oltp.run_oltp_rank` so Figure 4/5
    compare like for like.
    """
    rng = random.Random(f"janus/{seed}/{ctx.rank}/{mix.name}")
    res = OltpRankResult(rank=ctx.rank)
    n = params.n_vertices
    next_new_id = n + ctx.rank * 10_000_000
    start = ctx.rt.effective_clock(ctx.rank)
    for _ in range(n_ops):
        op = mix.sample(rng)
        t0 = ctx.clock
        app_id = rng.randrange(n)
        if op is OpType.GET_PROPS:
            sim.get_vertex(ctx, app_id, rng)
        elif op is OpType.COUNT_EDGES:
            sim.count_edges(ctx, app_id, rng)
        elif op is OpType.GET_EDGES:
            sim.get_edges(ctx, app_id, rng)
        elif op is OpType.ADD_VERTEX:
            sim.add_vertex(ctx, next_new_id, {"p_ts": 0}, rng)
            next_new_id += 1
        elif op is OpType.DEL_VERTEX:
            sim.delete_vertex(ctx, app_id, rng)
        elif op is OpType.UPD_PROP:
            sim.update_property(ctx, app_id, "p_ts", rng.random(), rng)
        elif op is OpType.ADD_EDGE:
            sim.add_edge(ctx, app_id, rng.randrange(n), rng)
        res.record(op, ctx.clock - t0)
    res.sim_elapsed = ctx.rt.effective_clock(ctx.rank) - start
    return res


def janus_bfs(
    ctx: RankContext, sim: JanusGraphSim, root: int, seed: int = 0
) -> dict[int, int]:
    """BFS through the RPC interface (the Figure 6 OLAP comparison).

    Without collectives or one-sided access, every frontier vertex's
    adjacency is fetched with an individual RPC — which is why the paper
    observes orders-of-magnitude gaps on analytics.
    """
    rng = random.Random(f"janusbfs/{seed}/{ctx.rank}")
    depth: dict[int, int] = {}
    frontier: list[int] = []
    if sim.home(root) == ctx.rank:
        depth[root] = 0
        frontier = [root]
    level = 0
    while ctx.allreduce(len(frontier)):
        # one RPC per frontier vertex
        nbrs = [nbr for u in frontier for nbr in sim.get_edges(ctx, u, rng)]
        nbrs = np.array(nbrs, dtype=np.int64)
        (received,) = ctx.alltoallv(sim.home(nbrs), nbrs)
        level += 1
        # first arrival order: the next level's RPCs draw their jitter in it
        frontier = [v for v in dict.fromkeys(received.tolist()) if v not in depth]
        depth.update(dict.fromkeys(frontier, level))
    return depth
