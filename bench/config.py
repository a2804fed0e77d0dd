"""Frozen configuration of the benchmark.

Everything a comparison between two commits must hold equal lives here:
the machine, the graph, the database tunables, the Table 3 fractions,
the serve traffic and the per-workload run-length rules.  Changing a
value here changes what the numbers mean, so it belongs in a PR of its
own that claims no gain (see README.md).
"""

from __future__ import annotations

#: two simulated ranks: the sandbox has ``nproc = 2`` and with two ranks
#: half of all uniformly drawn keys live on the remote rank
NRANKS = 2

#: Kronecker graph, fixed for every seed (``--seed`` drives the op
#: streams, never the graph, so the fingerprint below can be frozen)
GRAPH = {"scale": 12, "edge_factor": 8, "seed": 67}
WARMUP_GRAPH = {"scale": 6, "edge_factor": 8, "seed": 67}

GDA = {
    "block_size": 512,
    "blocks_per_rank": 1 << 16,
    "dht_buckets_per_rank": 1 << 12,
    "dht_entries_per_rank": 1 << 16,
    "mvcc": True,
}

#: what a correct build of GRAPH must look like (checked on every run):
#: vertex count, loaded-edge count, CRC32 of the degree sequence
FINGERPRINT = {"vertices": 4096, "edges_loaded": 28772, "degree_crc": 322516324}

#: timed builds per run; ``setup_s`` is their median, the last one is used
SETUP_BUILDS = 3

#: paper Table 3, copied in as constants (not imported from the program:
#: the benchmark owns its inputs)
OLTP_OPS = (
    "get_props",
    "count_edges",
    "get_edges",
    "add_vertex",
    "del_vertex",
    "upd_prop",
    "add_edge",
)
TABLE3 = {
    "RM": (0.288, 0.117, 0.593, 0.0, 0.0, 0.0, 0.002),
    "WI": (0.091, 0.0, 0.109, 0.20, 0.067, 0.133, 0.40),
}
#: share of key draws redirected to a vertex this run created (as the
#: paper's driver does, so new vertices are read and linked too)
OLTP_PICK_CREATED = 0.1

#: serve_short: open loop in simulated time.  The rate is ~0.45 of the
#: seed's one-slot capacity and the limit is far above the seed's worst
#: queueing episode, so no request misses it and ``failed`` stays 0; a
#: slower serve path shows in sim_mid_us / sim_tail_us long before that.
SERVE = {
    "rate_per_s": 30_000.0,
    "deadline_s": 20e-3,
    "in_flight": 16,
    "max_degree": 32,
    "queue_capacity": 64,
    "mix": (("point", 0.65), ("onehop", 0.25), ("update", 0.10)),
}
SERVE_TEXT = {
    "point": "MATCH (v {id = $src}) RETURN v.id",
    "onehop": "MATCH (a {id = $src})-[]->(b) RETURN b.id",
    "update": "MATCH (v {id = $src}) SET v.p_ts = $val",
}

#: query_bi: one cycle = 4 FOF + 4 top-k + BI2 + label count + aggregate
QUERY_TEXT = {
    "fof": "MATCH (a {id = $src})-[*1..2]-(b) RETURN count(DISTINCT b)",
    "topk": (
        "MATCH (a {id = $src})-[]->(b) RETURN b.id, b.p_score "
        "ORDER BY b.p_score DESC, b.id LIMIT 5"
    ),
    "bi2": (
        "MATCH (per:VL0)-[:EL0]->(v:VL1) WHERE per.p_score > $minscore "
        "AND v.p_active = true RETURN count(DISTINCT per)"
    ),
    "label_count": "MATCH (v:VL{label}) RETURN count(*)",
    "agg": (
        "MATCH (v:VL{label}) RETURN count(v.p_age), sum(v.p_age), "
        "min(v.p_age), max(v.p_age)"
    ),
}
QUERY_CYCLE = ("fof", "topk") * 4 + ("bi2", "label_count", "agg")

OLAP_KERNELS = ("pagerank", "bfs", "bi2_collective")
OLAP_PAGERANK_ITERATIONS = 5

#: Per-workload run length.  A run is cut into segments of
#: ``segment_ops``; the first ``warmup_ops`` are discarded.  The first
#: ``window_ops`` measured ops are the *simulated-clock window*: every
#: sim_* metric and every traced count is taken over exactly these ops,
#: so they do not depend on how fast the host happened to be.  Wall
#: metrics use every measured op; the run goes on until ``--seconds`` of
#: timed segments have passed (and the window is full).  ``tail`` is the
#: highest percentile of the window with at least ten samples beyond it
#: whose spread across seeds stays inside the bound (``max`` on olap:
#: six cycles support no percentile).
WORKLOADS = {
    "oltp_read": {"segment_ops": 2000, "warmup_ops": 2000, "window_ops": 40000, "tail": 95.0},
    "oltp_write": {"segment_ops": 1000, "warmup_ops": 1000, "window_ops": 12000, "tail": 95.0},
    "serve_short": {"segment_ops": 1000, "warmup_ops": 1000, "window_ops": 12000, "tail": 95.0},
    "query_bi": {"segment_ops": 11, "warmup_ops": 22, "window_ops": 440, "tail": 95.0},
    "olap": {"segment_ops": 1, "warmup_ops": 2, "window_ops": 6, "tail": "max"},
}

#: ``--quick`` divides warm-up and window by this and skips the oracles
QUICK_DIVISOR = 20

#: layers, named after the modules they wrap (bench/probes.py)
LAYERS = (
    "rma",
    "rma.collectives",
    "gda.tx",
    "gda.tx.commit",
    "gda.dht",
    "gda.locks",
    "gda.holder",
    "gda.blocks",
    "mvcc",
    "query.plan",
    "query.exec",
    "serve",
    "workloads",
    "generator",
)

#: per-op-type latencies reported by the traced run
OP_TYPES = (
    OLTP_OPS
    + tuple(kind for kind, _ in SERVE["mix"])
    + ("fof", "topk", "bi2", "label_count", "agg")
    + OLAP_KERNELS
)

#: spans of this many leading ops are written out in full, up to a cap
#: per thread (one olap cycle alone is ~13,000 spans)
TRACE_KEEP_OPS = 200
TRACE_KEEP_SPANS = 20_000
