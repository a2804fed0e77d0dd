"""The OLAP kernels' simulated charges are pinned to recorded constants.

Fig. 6's scaling shapes rest on the LogGP accounting (``ctx.clock`` and
the ``RankCounters``), not on how fast our Python runs.  A wall-clock
optimisation of the bulk-scan path must therefore leave every charge
where it was: this test replays the bulk load, the loaders, the Fig. 6
kernels, both baselines and a checkpoint restore on a fixed scale-8
graph and compares the clock delta, the counter diff and
the per-shard access diff with recorded values (``EXPECTED`` below; run
this file as a script to print a fresh literal).  ``load_local_adjacency``,
``pagerank``, ``bfs`` and ``bi2_style_query`` were recorded before the
columnar read path existed; ``wcc``, ``cdlp``, ``lcc``, ``triangle_count``,
``sssp`` and ``load_local_weighted_adjacency`` while those kernels still
ran per-edge Python loops over a dict adjacency (commit ed6935c);
``build_lpg``, ``khop_count``, both baselines and ``restore`` while each
still routed its rows to their owners through its own outbox lists
(commit f0b0483); the engine queries (``QUERIES``) while the engine
still ran every operator row by row (commit 1deaa63).  The eight
read-only engine queries under MVCC were recorded
again, on purpose, when snapshot reads began to fetch only the holder
parts a query needs (a post-read pass over the version chains took over
tear detection from full-span CRC reads): they now read the ``gets``
and ``bytes_got`` of lock mode, which
``test_snapshot_engine_reads_match_lock_mode`` holds them to (against
their ``<name>_locked`` runs in a locking transaction, measured after
every recorded entry).
``bi2_style_query`` was recorded again, on purpose, when the hand-coded
Listing 3 kernel became an engine text run in a collective transaction
(each rank sweeps its own shard): 151.44 → 47.92 µs in lock mode and
153.07 → 49.55 µs under MVCC, rank 0 reading 1,296 → 341 ``gets`` and
136,807 → 29,894 bytes.  ``restore`` moved with it: the seeded scheduler
picks the next rank by a hash of the seed and a global round counter,
so the ops of the kernels before it decide how its lock and allocator
traffic interleaves.  Its counters stayed; its clock went 1,746.28 →
1,703.56 µs and its shard ops 6,182 / 4,636 → 6,176 / 4,616 (with the
hand-coded kernel, one extra scheduler round before the restore gives
the same clock).  ``build_lpg`` and ``restore`` were recorded again, on
purpose, in both MVCC modes, when both began to write through the bulk
writer (``repro.gda.bulk``), which encodes each holder once and writes
a rank's holders in one batched put instead of a vertex commit, a
read-back and an edge commit: ``build_lpg`` 1,848.26 → 1,677.39 µs,
rank 0 reading 618 → 0 ``gets`` and 38,199 → 0 bytes in 377 → 1
batches, 15 → 6 collectives, shard bytes 212,614 / 154,608 → 137,992 /
89,736 (ops 6,184 / 4,610 → 5,170 / 3,692); ``restore`` 1,703.56 →
1,543.24 µs, the same reads and batches gone, 12 → 5 collectives,
shard bytes 212,550 / 154,656 → 137,992 / 89,736 (ops 6,176 / 4,616 →
5,170 / 3,692).  What is left of both clocks is the DHT inserts and
block acquisitions, one verb per vertex or block.  The ``*_collective``
entries run two ``QUERIES`` texts on both ranks in a collective
transaction.  The build is seeded: the bulk loader's and the restore's
lock and allocator traffic then interleaves the same way on every run,
and the kernels' charges are the ones the threaded build gave.  Every
database runs MVCC, so the charges are those of one configuration: the
lock-only twin of each entry, recorded beside it until the
configuration flag went, is gone with the flag, except for the eight
read-only engine queries.  Their lock-only charges (``LOCKED``) are kept
unedited: the same texts in a locking transaction still give them, to
the byte and the clock.  Every entry that closes a collective
transaction (the kernels from ``load_local_adjacency`` to ``khop_count``
and both ``*_collective`` queries) was recorded again, on purpose, when
deleted DHT entries began to return through the GC floor and a
collective commit stopped quiescing the DHT: one collective fewer per
rank and 1.4 µs (one XC40 barrier) less on each clock, nothing else.
``build_lpg`` moved with it by the floor read its closing GC pass now
pays (one 8-byte read of each rank's announced watermarks, 1.509 µs on
both clocks); its counters and shard ops stayed.
"""

import functools

import pytest

from repro.baselines import JanusGraphSim, build_csr_shard, graph500_bfs, janus_bfs
from repro.gda import GdaConfig, GdaDatabase, restore, snapshot
from repro.gdi import EdgeOrientation
from repro.generator import KroneckerParams, build_lpg, default_schema
from repro.query import QueryEngine
from repro.rma import XC40, run_spmd
from repro.workloads import (
    bfs,
    bi2_style_query,
    cdlp,
    khop_count,
    lcc,
    load_local_adjacency,
    load_local_weighted_adjacency,
    pagerank,
    sssp,
    triangle_count,
    wcc,
)

NRANKS = 2  # one remote peer per rank: every float sum has a fixed order
PARAMS = KroneckerParams(scale=8, edge_factor=16, seed=5)
#: few labels, so BI2's label filters keep a real second hop; 128-byte
#: blocks push the hubs into indirect addressing and past the address hint
SCHEMA = default_schema(n_vertex_labels=4, n_edge_labels=2)
COUNTERS = (
    "gets",
    "bytes_got",
    "batches",
    "batched_ops",
    "msgs_saved",
    "collectives",
    "snapshot_reads",
)
KERNELS = {
    "load_local_adjacency": lambda ctx, g: load_local_adjacency(
        ctx, g, EdgeOrientation.ANY
    ),
    "pagerank": lambda ctx, g: pagerank(ctx, g, iterations=3),
    "bfs": lambda ctx, g: bfs(ctx, g, 1),
    "bi2_style_query": lambda ctx, g: bi2_style_query(ctx, g, min_score=40.0),
    "wcc": wcc,
    "cdlp": lambda ctx, g: cdlp(ctx, g, iterations=5),
    "lcc": lcc,
    "triangle_count": triangle_count,
    "sssp": lambda ctx, g: sssp(ctx, g, 1),
    "load_local_weighted_adjacency": lambda ctx, g: load_local_weighted_adjacency(
        ctx, g, None
    ),
    "khop_count": lambda ctx, g: khop_count(ctx, g, 1, 2),
    "graph500": lambda ctx, g: graph500_bfs(ctx, build_csr_shard(ctx, PARAMS), 1),
    "janus": lambda ctx, g: _janus_bfs(ctx),
}


#: engine queries, run on rank 0 alone (rank 1 records a zero delta) on
#: a warm plan cache: the benchmark's ``query_bi`` texts, its
#: ``serve_short`` texts and one grouped aggregate; the write goes last
#: of them (``COLLECTIVE_QUERIES`` run after it)
QUERIES = {
    "query_fof": (
        "MATCH (a {id = $src})-[*1..2]-(b) RETURN count(DISTINCT b)",
        {"src": 1},
    ),
    "query_topk": (
        "MATCH (a {id = $src})-[]->(b) RETURN b.id, b.p_score "
        "ORDER BY b.p_score DESC, b.id LIMIT 5",
        {"src": 1},
    ),
    "query_bi2": (
        "MATCH (per:VL0)-[:EL0]->(v:VL1) WHERE per.p_score > $minscore "
        "AND v.p_active = true RETURN count(DISTINCT per)",
        {"minscore": 40.0},
    ),
    "query_label_count": ("MATCH (v:VL1) RETURN count(*)", None),
    "query_agg": (
        "MATCH (v:VL1) RETURN count(v.p_age), sum(v.p_age), "
        "min(v.p_age), max(v.p_age)",
        None,
    ),
    "query_group": (
        "MATCH (v:VL2) RETURN v.p_active, count(*), sum(v.p_age), "
        "min(v.p_score)",
        None,
    ),
    "query_point": ("MATCH (v {id = $src}) RETURN v.id", {"src": 4}),
    "query_onehop": ("MATCH (a {id = $src})-[]->(b) RETURN b.id", {"src": 4}),
    "query_update": (
        "MATCH (v {id = $src}) SET v.p_ts = $val",
        {"src": 4, "val": 12345},
    ),
}


#: engine queries run again on both ranks, in a collective transaction
#: (each rank reads its own shard; the engine combines the rows)
COLLECTIVE_QUERIES = ("query_bi2", "query_label_count")

#: the read-only ``QUERIES``, which the engine runs on a snapshot; each
#: runs once more on rank 0 in a locking transaction (``<name>_locked``,
#: measured last so no recorded entry's schedule moves)
READ_QUERIES = [name for name in QUERIES if name != "query_update"]


def _run_collective(ctx, engine, text, params):
    tx = engine.db.start_collective_transaction(ctx, snapshot=True)
    rows = engine.run(ctx, text, params, tx=tx).rows
    tx.commit()
    return rows


def _run_locked(ctx, engine, text, params):
    tx = engine.db.start_transaction(ctx)
    rows = engine.run(ctx, text, params, tx=tx).rows
    tx.commit()
    return rows


def _janus_bfs(ctx):
    sim = JanusGraphSim.create(ctx)
    sim.load_graph(ctx, PARAMS, SCHEMA)
    return janus_bfs(ctx, sim, 1)


@functools.cache
def measure() -> dict:
    """``kernel -> {"clock": [per rank], "counters": [per rank], "shards"}``;
    the first entry, ``build_lpg``, is the load every other one runs on."""

    def prog(ctx):
        trace = ctx.rt.trace
        out = {}

        def measured(name, run):
            ctx.barrier()
            shards0 = trace.shard_snapshot()
            ctx.barrier()
            before = trace.counters[ctx.rank].snapshot()
            t0 = ctx.clock
            result = run()
            clock = ctx.clock - t0
            diff = trace.counters[ctx.rank].diff(before)
            ctx.barrier()
            shards = trace.shard_diff(shards0)
            out[name] = {
                "clock": clock,
                "counters": {k: diff[k] for k in COUNTERS},
                "shards": {k: shards[k] for k in ("ops", "bytes")},
            }
            return result

        db = GdaDatabase.create(
            ctx, GdaConfig(blocks_per_rank=16384, block_size=128)
        )
        g = measured("build_lpg", lambda: build_lpg(ctx, db, PARAMS, SCHEMA))
        for name, kernel in KERNELS.items():
            measured(name, lambda: kernel(ctx, g))
        # the restore alone: creating the target broadcasts its name,
        # which a process-wide counter numbers
        target, snap = GdaDatabase.create(ctx, g.db.config), snapshot(ctx, g.db)
        measured("restore", lambda: restore(ctx, target, snap))
        engine = QueryEngine(g.db)
        if ctx.rank == 0:
            for text, _ in QUERIES.values():
                engine.prepare(ctx, text)
        for name, (text, params) in QUERIES.items():
            measured(
                name,
                lambda: engine.run(ctx, text, params) if ctx.rank == 0 else None,
            )
        for name in COLLECTIVE_QUERIES:
            text, params = QUERIES[name]
            measured(
                f"{name}_collective",
                lambda: _run_collective(ctx, engine, text, params),
            )
        for name in READ_QUERIES:
            text, params = QUERIES[name]
            measured(
                f"{name}_locked",
                lambda: _run_locked(ctx, engine, text, params)
                if ctx.rank == 0
                else None,
            )
        return out

    _, res = run_spmd(NRANKS, prog, profile=XC40, seed=7)
    return {
        name: {
            "clock": [r[name]["clock"] for r in res],
            "counters": [r[name]["counters"] for r in res],
            "shards": res[0][name]["shards"],
        }
        for name in res[0]
    }


# fmt: off
EXPECTED = {'bfs': {'clock': [4.6868999999999513e-05, 4.6868999999999513e-05],
         'counters': [{'batched_ops': 998,
                       'batches': 4,
                       'bytes_got': 105720,
                       'collectives': 14,
                       'gets': 998,
                       'msgs_saved': 994,
                       'snapshot_reads': 128},
                      {'batched_ops': 687,
                       'batches': 4,
                       'bytes_got': 67584,
                       'collectives': 14,
                       'gets': 687,
                       'msgs_saved': 683,
                       'snapshot_reads': 128}],
         'shards': {'bytes': [105720, 67584], 'ops': [998, 687]}},
 'bi2_style_query': {'clock': [4.815050000000001e-05, 4.815050000000001e-05],
                     'counters': [{'batched_ops': 341,
                                   'batches': 11,
                                   'bytes_got': 29894,
                                   'collectives': 7,
                                   'gets': 341,
                                   'msgs_saved': 326,
                                   'snapshot_reads': 66},
                                  {'batched_ops': 317,
                                   'batches': 8,
                                   'bytes_got': 27347,
                                   'collectives': 7,
                                   'gets': 317,
                                   'msgs_saved': 305,
                                   'snapshot_reads': 63}],
                     'shards': {'bytes': [31098, 26143], 'ops': [353, 305]}},
 'build_lpg': {'clock': [0.0016789030399999214, 0.0016789030399999214],
               'counters': [{'batched_ops': 859,
                             'batches': 1,
                             'bytes_got': 0,
                             'collectives': 6,
                             'gets': 0,
                             'msgs_saved': 858,
                             'snapshot_reads': 0},
                            {'batched_ops': 555,
                             'batches': 1,
                             'bytes_got': 0,
                             'collectives': 6,
                             'gets': 0,
                             'msgs_saved': 554,
                             'snapshot_reads': 0}],
               'shards': {'bytes': [137992, 89736], 'ops': [5170, 3692]}},
 'cdlp': {'clock': [0.0007904779000000002, 0.0007075264000000006],
          'counters': [{'batched_ops': 998,
                        'batches': 4,
                        'bytes_got': 105720,
                        'collectives': 10,
                        'gets': 998,
                        'msgs_saved': 994,
                        'snapshot_reads': 128},
                       {'batched_ops': 687,
                        'batches': 4,
                        'bytes_got': 67584,
                        'collectives': 10,
                        'gets': 687,
                        'msgs_saved': 683,
                        'snapshot_reads': 128}],
          'shards': {'bytes': [105720, 67584], 'ops': [998, 687]}},
 'graph500': {'clock': [0.00033554819999999895, 0.00033554819999999895],
              'counters': [{'batched_ops': 0,
                            'batches': 0,
                            'bytes_got': 0,
                            'collectives': 10,
                            'gets': 0,
                            'msgs_saved': 0,
                            'snapshot_reads': 0},
                           {'batched_ops': 0,
                            'batches': 0,
                            'bytes_got': 0,
                            'collectives': 10,
                            'gets': 0,
                            'msgs_saved': 0,
                            'snapshot_reads': 0}],
              'shards': {'bytes': [0, 0], 'ops': [0, 0]}},
 'janus': {'clock': [0.04631533526191374, 0.04631533526191374],
           'counters': [{'batched_ops': 0,
                         'batches': 0,
                         'bytes_got': 0,
                         'collectives': 16,
                         'gets': 0,
                         'msgs_saved': 0,
                         'snapshot_reads': 0},
                        {'batched_ops': 0,
                         'batches': 0,
                         'bytes_got': 0,
                         'collectives': 16,
                         'gets': 0,
                         'msgs_saved': 0,
                         'snapshot_reads': 0}],
           'shards': {'bytes': [0, 0], 'ops': [0, 0]}},
 'khop_count': {'clock': [3.49402000000016e-05, 3.49402000000016e-05],
                'counters': [{'batched_ops': 998,
                              'batches': 4,
                              'bytes_got': 105720,
                              'collectives': 10,
                              'gets': 998,
                              'msgs_saved': 994,
                              'snapshot_reads': 128},
                             {'batched_ops': 687,
                              'batches': 4,
                              'bytes_got': 67584,
                              'collectives': 10,
                              'gets': 687,
                              'msgs_saved': 683,
                              'snapshot_reads': 128}],
                'shards': {'bytes': [105720, 67584], 'ops': [998, 687]}},
 'lcc': {'clock': [0.0034607907999999995, 0.0033984676],
         'counters': [{'batched_ops': 998,
                       'batches': 4,
                       'bytes_got': 105720,
                       'collectives': 7,
                       'gets': 998,
                       'msgs_saved': 994,
                       'snapshot_reads': 128},
                      {'batched_ops': 687,
                       'batches': 4,
                       'bytes_got': 67584,
                       'collectives': 7,
                       'gets': 687,
                       'msgs_saved': 683,
                       'snapshot_reads': 128}],
         'shards': {'bytes': [105720, 67584], 'ops': [998, 687]}},
 'load_local_adjacency': {'clock': [2.447439999999951e-05, 2.447439999999951e-05],
                          'counters': [{'batched_ops': 998,
                                        'batches': 4,
                                        'bytes_got': 105720,
                                        'collectives': 5,
                                        'gets': 998,
                                        'msgs_saved': 994,
                                        'snapshot_reads': 128},
                                       {'batched_ops': 687,
                                        'batches': 4,
                                        'bytes_got': 67584,
                                        'collectives': 5,
                                        'gets': 687,
                                        'msgs_saved': 683,
                                        'snapshot_reads': 128}],
                          'shards': {'bytes': [105720, 67584], 'ops': [998, 687]}},
 'load_local_weighted_adjacency': {'clock': [2.4474400000001895e-05, 2.4474400000001895e-05],
                                   'counters': [{'batched_ops': 998,
                                                 'batches': 4,
                                                 'bytes_got': 105720,
                                                 'collectives': 5,
                                                 'gets': 998,
                                                 'msgs_saved': 994,
                                                 'snapshot_reads': 128},
                                                {'batched_ops': 687,
                                                 'batches': 4,
                                                 'bytes_got': 67584,
                                                 'collectives': 5,
                                                 'gets': 687,
                                                 'msgs_saved': 683,
                                                 'snapshot_reads': 128}],
                                   'shards': {'bytes': [105720, 67584], 'ops': [998, 687]}},
 'pagerank': {'clock': [5.829689999999944e-05, 5.829689999999944e-05],
              'counters': [{'batched_ops': 998,
                            'batches': 4,
                            'bytes_got': 105720,
                            'collectives': 12,
                            'gets': 998,
                            'msgs_saved': 994,
                            'snapshot_reads': 128},
                           {'batched_ops': 687,
                            'batches': 4,
                            'bytes_got': 67584,
                            'collectives': 12,
                            'gets': 687,
                            'msgs_saved': 683,
                            'snapshot_reads': 128}],
              'shards': {'bytes': [105720, 67584], 'ops': [998, 687]}},
 'query_agg': {'clock': [5.5890879999999366e-05, 0.0],
               'counters': [{'batched_ops': 264,
                             'batches': 4,
                             'bytes_got': 23430,
                             'collectives': 0,
                             'gets': 264,
                             'msgs_saved': 258,
                             'snapshot_reads': 66},
                            {'batched_ops': 0,
                             'batches': 0,
                             'bytes_got': 0,
                             'collectives': 0,
                             'gets': 0,
                             'msgs_saved': 0,
                             'snapshot_reads': 0}],
               'shards': {'bytes': [9566, 13864], 'ops': [110, 154]}},
 'query_bi2': {'clock': [9.86866599999997e-05, 0.0],
               'counters': [{'batched_ops': 547,
                             'batches': 11,
                             'bytes_got': 47834,
                             'collectives': 0,
                             'gets': 547,
                             'msgs_saved': 528,
                             'snapshot_reads': 106},
                            {'batched_ops': 0,
                             'batches': 0,
                             'bytes_got': 0,
                             'collectives': 0,
                             'gets': 0,
                             'msgs_saved': 0,
                             'snapshot_reads': 0}],
               'shards': {'bytes': [24655, 23179], 'ops': [277, 270]}},
 'query_bi2_collective': {'clock': [4.504570000000291e-05, 4.504570000000291e-05],
                          'counters': [{'batched_ops': 341,
                                        'batches': 11,
                                        'bytes_got': 29894,
                                        'collectives': 7,
                                        'gets': 341,
                                        'msgs_saved': 326,
                                        'snapshot_reads': 66},
                                       {'batched_ops': 317,
                                        'batches': 8,
                                        'bytes_got': 27347,
                                        'collectives': 7,
                                        'gets': 317,
                                        'msgs_saved': 305,
                                        'snapshot_reads': 63}],
                          'shards': {'bytes': [31098, 26143], 'ops': [353, 305]}},
 'query_fof': {'clock': [4.2795679999999003e-05, 0.0],
               'counters': [{'batched_ops': 300,
                             'batches': 10,
                             'bytes_got': 29440,
                             'collectives': 0,
                             'gets': 300,
                             'msgs_saved': 285,
                             'snapshot_reads': 175},
                            {'batched_ops': 0,
                             'batches': 0,
                             'bytes_got': 0,
                             'collectives': 0,
                             'gets': 0,
                             'msgs_saved': 0,
                             'snapshot_reads': 0}],
               'shards': {'bytes': [21304, 8136], 'ops': [213, 87]}},
 'query_group': {'clock': [5.1978159999993556e-05, 0.0],
                 'counters': [{'batched_ops': 319,
                               'batches': 4,
                               'bytes_got': 27330,
                               'collectives': 0,
                               'gets': 319,
                               'msgs_saved': 312,
                               'snapshot_reads': 78},
                              {'batched_ops': 0,
                               'batches': 0,
                               'bytes_got': 0,
                               'collectives': 0,
                               'gets': 0,
                               'msgs_saved': 0,
                               'snapshot_reads': 0}],
                 'shards': {'bytes': [14942, 12388], 'ops': [174, 145]}},
 'query_label_count': {'clock': [5.5890879999999366e-05, 0.0],
                       'counters': [{'batched_ops': 264,
                                     'batches': 4,
                                     'bytes_got': 23430,
                                     'collectives': 0,
                                     'gets': 264,
                                     'msgs_saved': 258,
                                     'snapshot_reads': 66},
                                    {'batched_ops': 0,
                                     'batches': 0,
                                     'bytes_got': 0,
                                     'collectives': 0,
                                     'gets': 0,
                                     'msgs_saved': 0,
                                     'snapshot_reads': 0}],
                       'shards': {'bytes': [9566, 13864], 'ops': [110, 154]}},
 'query_label_count_collective': {'clock': [1.0955679999993806e-05, 1.0955679999993806e-05],
                                  'counters': [{'batched_ops': 110,
                                                'batches': 4,
                                                'bytes_got': 9566,
                                                'collectives': 7,
                                                'gets': 110,
                                                'msgs_saved': 106,
                                                'snapshot_reads': 26},
                                               {'batched_ops': 154,
                                                'batches': 2,
                                                'bytes_got': 13864,
                                                'collectives': 7,
                                                'gets': 154,
                                                'msgs_saved': 152,
                                                'snapshot_reads': 40}],
                                  'shards': {'bytes': [9566, 13864], 'ops': [110, 154]}},
 'query_onehop': {'clock': [3.760800000002229e-06, 0.0],
                  'counters': [{'batched_ops': 15,
                                'batches': 7,
                                'bytes_got': 1128,
                                'collectives': 0,
                                'gets': 15,
                                'msgs_saved': 7,
                                'snapshot_reads': 6},
                               {'batched_ops': 0,
                                'batches': 0,
                                'bytes_got': 0,
                                'collectives': 0,
                                'gets': 0,
                                'msgs_saved': 0,
                                'snapshot_reads': 0}],
                  'shards': {'bytes': [1000, 128], 'ops': [13, 2]}},
 'query_point': {'clock': [2.42719999994645e-07, 0.0],
                 'counters': [{'batched_ops': 3,
                               'batches': 3,
                               'bytes_got': 136,
                               'collectives': 0,
                               'gets': 3,
                               'msgs_saved': 0,
                               'snapshot_reads': 1},
                              {'batched_ops': 0,
                               'batches': 0,
                               'bytes_got': 0,
                               'collectives': 0,
                               'gets': 0,
                               'msgs_saved': 0,
                               'snapshot_reads': 0}],
                 'shards': {'bytes': [136, 0], 'ops': [3, 0]}},
 'query_topk': {'clock': [1.0932300000002226e-05, 0.0],
                'counters': [{'batched_ops': 25,
                              'batches': 7,
                              'bytes_got': 2024,
                              'collectives': 0,
                              'gets': 25,
                              'msgs_saved': 16,
                              'snapshot_reads': 5},
                             {'batched_ops': 0,
                              'batches': 0,
                              'bytes_got': 0,
                              'collectives': 0,
                              'gets': 0,
                              'msgs_saved': 0,
                              'snapshot_reads': 0}],
                'shards': {'bytes': [1395, 629], 'ops': [16, 9]}},
 'query_update': {'clock': [7.382799999955392e-07, 0.0],
                  'counters': [{'batched_ops': 10,
                                'batches': 5,
                                'bytes_got': 473,
                                'collectives': 0,
                                'gets': 6,
                                'msgs_saved': 5,
                                'snapshot_reads': 0},
                               {'batched_ops': 0,
                                'batches': 0,
                                'bytes_got': 0,
                                'collectives': 0,
                                'gets': 0,
                                'msgs_saved': 0,
                                'snapshot_reads': 0}],
                  'shards': {'bytes': [938, 0], 'ops': [13, 0]}},
 'restore': {'clock': [0.0015432374399970208, 0.0015432374399970208],
             'counters': [{'batched_ops': 859,
                           'batches': 1,
                           'bytes_got': 0,
                           'collectives': 5,
                           'gets': 0,
                           'msgs_saved': 858,
                           'snapshot_reads': 0},
                          {'batched_ops': 555,
                           'batches': 1,
                           'bytes_got': 0,
                           'collectives': 5,
                           'gets': 0,
                           'msgs_saved': 554,
                           'snapshot_reads': 0}],
             'shards': {'bytes': [137992, 89736], 'ops': [5170, 3692]}},
 'sssp': {'clock': [5.4414600000001964e-05, 5.4414600000001964e-05],
          'counters': [{'batched_ops': 998,
                        'batches': 4,
                        'bytes_got': 105720,
                        'collectives': 14,
                        'gets': 998,
                        'msgs_saved': 994,
                        'snapshot_reads': 128},
                       {'batched_ops': 687,
                        'batches': 4,
                        'bytes_got': 67584,
                        'collectives': 14,
                        'gets': 687,
                        'msgs_saved': 683,
                        'snapshot_reads': 128}],
          'shards': {'bytes': [105720, 67584], 'ops': [998, 687]}},
 'triangle_count': {'clock': [0.003283635600000001, 0.003283635600000001],
                    'counters': [{'batched_ops': 998,
                                  'batches': 4,
                                  'bytes_got': 105720,
                                  'collectives': 7,
                                  'gets': 998,
                                  'msgs_saved': 994,
                                  'snapshot_reads': 128},
                                 {'batched_ops': 687,
                                  'batches': 4,
                                  'bytes_got': 67584,
                                  'collectives': 7,
                                  'gets': 687,
                                  'msgs_saved': 683,
                                  'snapshot_reads': 128}],
                    'shards': {'bytes': [105720, 67584], 'ops': [998, 687]}},
 'wcc': {'clock': [0.0004928056000000004, 0.0004928056000000004],
         'counters': [{'batched_ops': 998,
                       'batches': 4,
                       'bytes_got': 105720,
                       'collectives': 11,
                       'gets': 998,
                       'msgs_saved': 994,
                       'snapshot_reads': 128},
                      {'batched_ops': 687,
                       'batches': 4,
                       'bytes_got': 67584,
                       'collectives': 11,
                       'gets': 687,
                       'msgs_saved': 683,
                       'snapshot_reads': 128}],
         'shards': {'bytes': [105720, 67584], 'ops': [998, 687]}}}
#: the read-only ``QUERIES`` in a locking transaction (``<name>_locked``),
#: as the lock-only database recorded them before every database ran
#: MVCC: the version chains leave lock-mode reads where they were
LOCKED = {'query_agg': {'clock': [6.665087999999791e-05, 0.0],
               'counters': [{'batched_ops': 396,
                             'batches': 6,
                             'bytes_got': 23430,
                             'collectives': 0,
                             'gets': 264,
                             'msgs_saved': 386,
                             'snapshot_reads': 0},
                            {'batched_ops': 0,
                             'batches': 0,
                             'bytes_got': 0,
                             'collectives': 0,
                             'gets': 0,
                             'msgs_saved': 0,
                             'snapshot_reads': 0}],
               'shards': {'bytes': [9982, 14504], 'ops': [162, 234]}},
 'query_bi2': {'clock': [0.00011552665999999684, 0.0],
               'counters': [{'batched_ops': 759,
                             'batches': 14,
                             'bytes_got': 47834,
                             'collectives': 0,
                             'gets': 547,
                             'msgs_saved': 734,
                             'snapshot_reads': 0},
                            {'batched_ops': 0,
                             'batches': 0,
                             'bytes_got': 0,
                             'collectives': 0,
                             'gets': 0,
                             'msgs_saved': 0,
                             'snapshot_reads': 0}],
               'shards': {'bytes': [25471, 24059], 'ops': [379, 380]}},
 'query_fof': {'clock': [6.85856800000037e-05, 0.0],
               'counters': [{'batched_ops': 649,
                             'batches': 13,
                             'bytes_got': 29440,
                             'collectives': 0,
                             'gets': 300,
                             'msgs_saved': 628,
                             'snapshot_reads': 0},
                            {'batched_ops': 0,
                             'batches': 0,
                             'bytes_got': 0,
                             'collectives': 0,
                             'gets': 0,
                             'msgs_saved': 0,
                             'snapshot_reads': 0}],
               'shards': {'bytes': [22984, 9256], 'ops': [423, 227]}},
 'query_group': {'clock': [6.393815999999886e-05, 0.0],
                 'counters': [{'batched_ops': 475,
                               'batches': 6,
                               'bytes_got': 27330,
                               'collectives': 0,
                               'gets': 319,
                               'msgs_saved': 464,
                               'snapshot_reads': 0},
                              {'batched_ops': 0,
                               'batches': 0,
                               'bytes_got': 0,
                               'collectives': 0,
                               'gets': 0,
                               'msgs_saved': 0,
                               'snapshot_reads': 0}],
                 'shards': {'bytes': [15614, 12964], 'ops': [258, 217]}},
 'query_label_count': {'clock': [6.665087999999791e-05, 0.0],
                       'counters': [{'batched_ops': 396,
                                     'batches': 6,
                                     'bytes_got': 23430,
                                     'collectives': 0,
                                     'gets': 264,
                                     'msgs_saved': 386,
                                     'snapshot_reads': 0},
                                    {'batched_ops': 0,
                                     'batches': 0,
                                     'bytes_got': 0,
                                     'collectives': 0,
                                     'gets': 0,
                                     'msgs_saved': 0,
                                     'snapshot_reads': 0}],
                       'shards': {'bytes': [9982, 14504], 'ops': [162, 234]}},
 'query_onehop': {'clock': [8.550800000006742e-06, 0.0],
                  'counters': [{'batched_ops': 26,
                                'batches': 9,
                                'bytes_got': 1128,
                                'collectives': 0,
                                'gets': 15,
                                'msgs_saved': 14,
                                'snapshot_reads': 0},
                               {'batched_ops': 0,
                                'batches': 0,
                                'bytes_got': 0,
                                'collectives': 0,
                                'gets': 0,
                                'msgs_saved': 0,
                                'snapshot_reads': 0}],
                  'shards': {'bytes': [1080, 144], 'ops': [23, 4]}},
 'query_point': {'clock': [4.027199999936948e-07, 0.0],
                 'counters': [{'batched_ops': 3,
                               'batches': 3,
                               'bytes_got': 136,
                               'collectives': 0,
                               'gets': 3,
                               'msgs_saved': 0,
                               'snapshot_reads': 0},
                              {'batched_ops': 0,
                               'batches': 0,
                               'bytes_got': 0,
                               'collectives': 0,
                               'gets': 0,
                               'msgs_saved': 0,
                               'snapshot_reads': 0}],
                 'shards': {'bytes': [152, 0], 'ops': [5, 0]}},
 'query_topk': {'clock': [1.7642300000002276e-05, 0.0],
                'counters': [{'batched_ops': 34,
                              'batches': 9,
                              'bytes_got': 2024,
                              'collectives': 0,
                              'gets': 25,
                              'msgs_saved': 21,
                              'snapshot_reads': 0},
                             {'batched_ops': 0,
                              'batches': 0,
                              'bytes_got': 0,
                              'collectives': 0,
                              'gets': 0,
                              'msgs_saved': 0,
                              'snapshot_reads': 0}],
                'shards': {'bytes': [1443, 661], 'ops': [22, 13]}}}
# fmt: on


@pytest.mark.parametrize("snapshot", [False, True])
def test_olap_simulated_charges_match_recorded_constants(snapshot):
    """``snapshot=True``: every recorded entry; ``snapshot=False``: the
    read-only queries' lock-mode twins against ``LOCKED``."""
    got = measure()
    for name, want in (EXPECTED if snapshot else LOCKED).items():
        run = got[name if snapshot else f"{name}_locked"]
        assert run["counters"] == want["counters"], name
        assert run["shards"] == want["shards"], name
        # a delta of absolute clocks: equal to rounding (the older
        # entries were recorded on threaded builds, which left the
        # clocks in slightly different places), far below the smallest
        # single charge (0.08 us against deltas of ~50 us)
        assert run["clock"] == pytest.approx(want["clock"], rel=1e-9), name


@pytest.mark.parametrize("name", READ_QUERIES)
def test_snapshot_engine_reads_match_lock_mode(name):
    """A read-only query under a snapshot fetches the holder parts it
    needs and nothing more: the reads of lock mode.  Lock mode adds its
    lock-word atomics (batches of them, and ops and bytes on the shards
    holding the words) on top, so those may only be smaller here."""
    lock, snap = measure()[f"{name}_locked"], measure()[name]
    for key in ("gets", "bytes_got"):
        assert snap["counters"][0][key] == lock["counters"][0][key], key
    assert snap["counters"][0]["batches"] <= lock["counters"][0]["batches"]
    for key in ("ops", "bytes"):
        assert all(
            s <= l for s, l in zip(snap["shards"][key], lock["shards"][key])
        ), key


if __name__ == "__main__":
    import pprint

    got = measure()
    fresh = {k: v for k, v in got.items() if not k.endswith("_locked")}
    print("EXPECTED = " + pprint.pformat(fresh, width=100))
    locked = {k: got[f"{k}_locked"] for k in READ_QUERIES}
    print("LOCKED = " + pprint.pformat(locked, width=100))
