"""The Fig. 6 kernels on hand-built shards, against sequential oracles.

Every kernel reads one adjacency form (the CSR arrays of
``LocalAdjacency``) and shares one exchange step; these tests drive that
form through the shapes a Kronecker graph rarely produces: self-loops,
parallel edges, isolated vertices, a rank that owns nothing, vertices
spilled off ``app_id % nranks``, application IDs beyond 32 bits.
"""

from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gda import GdaConfig, GdaDatabase
from repro.gdi.errors import GdiStateError
from repro.rma import SpmdError, run_spmd
from repro.workloads import bfs, cdlp, lcc, pagerank, sssp, triangle_count, wcc
from repro.workloads.analytics import LocalAdjacency

CDLP_ITERATIONS = 4


# -- a vertex no rank holds ----------------------------------------------------
@pytest.mark.parametrize(
    "kernel",
    [
        lambda ctx, adj: pagerank(ctx, None, iterations=2, adj=adj),
        lambda ctx, adj: bfs(ctx, None, 0, adj=adj),
        lambda ctx, adj: wcc(ctx, None, adj=adj),
    ],
    ids=["pagerank", "bfs", "wcc"],
)
def test_an_edge_to_a_vertex_nobody_holds_is_an_error(kernel):
    """Vertex 7 is named by an edge but held by no rank: the routed-to-me
    lookup must say so instead of crediting it to some other row."""

    def prog(ctx):
        return kernel(ctx, LocalAdjacency({0: [1, 7], 1: [0]}, nranks=1))

    with pytest.raises(SpmdError) as err:
        run_spmd(1, prog)
    assert isinstance(err.value.original, GdiStateError)
    assert "application ID 7 " in str(err.value.original)


# -- hand-built shards == sequential oracles ------------------------------------
@st.composite
def sharded_graphs(draw):
    nranks = draw(st.integers(1, 3))
    ids = draw(
        st.lists(
            st.one_of(st.integers(0, 15), st.integers(1 << 33, (1 << 33) + 15)),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids))  # loops allowed
    edges = draw(st.lists(st.tuples(pair, st.integers(1, 9)), max_size=30))
    # some vertices spill off their round-robin home, maybe emptying a rank
    spilled = draw(st.dictionaries(st.sampled_from(ids), st.integers(0, nranks - 1)))
    return nranks, ids, edges, spilled, draw(st.sampled_from(ids))


def _shards(nranks, ids, edges, spilled):
    """Per rank ``(LocalAdjacency, weights aligned with its targets)``:
    the symmetric adjacency an ``ANY`` load yields, parallel edges kept."""
    nbrs = {v: [] for v in ids}
    for (a, b), w in edges:
        nbrs[a].append((b, float(w)))
        nbrs[b].append((a, float(w)))
    out = []
    for rank in range(nranks):
        mine = {
            v: lst for v, lst in nbrs.items() if spilled.get(v, v % nranks) == rank
        }
        adj = LocalAdjacency(
            {v: [u for u, _ in lst] for v, lst in mine.items()},
            nranks=nranks,
            owner=spilled,
        )
        weights = np.array([w for lst in mine.values() for _, w in lst], dtype=float)
        out.append((adj, weights))
    return nbrs, out


def _cdlp_reference(nbrs, iterations):
    label = {v: v for v in nbrs}
    for _ in range(iterations):
        votes = {v: Counter() for v in nbrs}
        for u, lst in nbrs.items():
            for v, _ in lst:
                votes[v][label[u]] += 1
        label = {
            v: max(c.items(), key=lambda kv: (kv[1], -kv[0]))[0] if c else label[v]
            for v, c in votes.items()
        }
    return label


@settings(max_examples=60, deadline=None)
@given(sharded_graphs())
# a triangle with rank 1 owning nothing; only loops, on a spilled vertex
@example((2, [0, 2, 4], [((0, 2), 1), ((2, 4), 1), ((4, 0), 1)], {}, 0))
@example((3, [5], [((5, 5), 2), ((5, 5), 3)], {5: 0}, 5))
def test_kernels_on_hand_built_shards_match_sequential_oracles(case):
    nranks, ids, edges, spilled, root = case
    nbrs, shards = _shards(nranks, ids, edges, spilled)

    def prog(ctx):
        adj, weights = shards[ctx.rank]
        return {
            "wcc": wcc(ctx, None, adj=adj),
            "cdlp": cdlp(ctx, None, CDLP_ITERATIONS, adj=adj),
            "lcc": lcc(ctx, None, adj=adj),
            "triangles": triangle_count(ctx, None, adj=adj),
            "sssp": sssp(ctx, None, root, adj=adj, weights=weights),
        }

    _, res = run_spmd(nranks, prog)
    merged = {
        name: {k: v for part in res for k, v in part[name].items()}
        for name in ("wcc", "cdlp", "lcc", "sssp")
    }

    multi = nx.MultiGraph()
    multi.add_nodes_from(ids)
    multi.add_weighted_edges_from((a, b, float(w)) for (a, b), w in edges)
    simple = nx.Graph(multi)
    simple.remove_edges_from(nx.selfloop_edges(simple))
    lightest = nx.Graph()
    lightest.add_nodes_from(ids)
    for a, b, w in multi.edges(data="weight"):
        if not lightest.has_edge(a, b) or w < lightest[a][b]["weight"]:
            lightest.add_edge(a, b, weight=w)

    assert merged["wcc"] == {
        v: min(comp) for comp in nx.connected_components(multi) for v in comp
    }
    assert merged["cdlp"] == _cdlp_reference(nbrs, CDLP_ITERATIONS)
    assert merged["lcc"] == pytest.approx(nx.clustering(simple), abs=1e-12)
    assert {part["triangles"] for part in res} == {
        sum(nx.triangles(simple).values()) // 3
    }
    reached = nx.single_source_dijkstra_path_length(lightest, root)
    assert merged["sssp"] == {v: reached.get(v, float("inf")) for v in ids}


# -- weighted SSSP over heavyweight edges reads what it always read --------------
def test_weighted_sssp_over_heavy_edges_issues_the_recorded_reads():
    """The weighted loader walks handles only for rows with a heavy slot;
    the edge-holder reads behind them are the ones the per-handle loader
    issued (``gets``/``bytes_got``/``collectives`` recorded at ed6935c;
    one more collective since every database runs MVCC: the loader's
    snapshot broadcasts its watermark; one fewer since a collective
    commit closes with one barrier, not the two of a DHT quiesce)."""
    from generator import test_heavy_edges as heavy  # tests/ is on sys.path

    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=16384))
        g = heavy.build_lpg(ctx, db, heavy.PARAMS, heavy.HEAVY_SCHEMA, directed=False)
        ctx.barrier()
        before = ctx.rt.trace.counters[ctx.rank].snapshot()
        dist = sssp(ctx, g, root=0, weight_ptype=g.ptype("e_weight"))
        diff = ctx.rt.trace.counters[ctx.rank].diff(before)
        return dist, (diff["gets"], diff["bytes_got"], diff["collectives"])

    _, res = run_spmd(heavy.NRANKS, prog)
    assert [counts for _, counts in res] == [(46, 10632, 14), (50, 12744, 14)]
    got = {k: v for dist, _ in res for k, v in dist.items() if v != float("inf")}
    ref = nx.Graph()
    for s, d in heavy._unique_edges():
        weight = 1.0
        if heavy.HEAVY_SCHEMA.edge_is_heavy(s, d):
            props = dict(heavy.HEAVY_SCHEMA.edge_property_values(s, d))
            weight = props.get("e_weight", 1.0)
        if not ref.has_edge(s, d) or weight < ref[s][d]["weight"]:
            ref.add_edge(s, d, weight=weight)
    assert got == pytest.approx(nx.single_source_dijkstra_path_length(ref, 0))


def test_has_heavy_edges_column_agrees_with_the_handles():
    """Batch rows (collective read) and cache entries (locking read)
    answer ``VertexScan.has_heavy_edges`` alike: what each handle says."""
    from generator import test_heavy_edges as heavy
    from repro.generator import KroneckerParams

    params = KroneckerParams(scale=8, edge_factor=2, seed=77)  # columnar scans

    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=16384))
        g = heavy.build_lpg(ctx, db, params, heavy.HEAVY_SCHEMA)
        vids = db.directory.local_vertices(ctx)
        columns = []
        for start in (db.start_collective_transaction, db.start_transaction):
            tx = start(ctx)
            scan = tx.associate_vertices(vids)
            columns.append(scan.has_heavy_edges.tolist())
            by_handle = [any(e.heavy for e in v.edges()) for v in scan]
            tx.commit()
            assert columns[-1] == by_handle
        ctx.barrier()
        return columns[0]

    _, res = run_spmd(2, prog)
    assert all(any(col) and not all(col) for col in res)
