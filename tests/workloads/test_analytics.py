"""Analytics kernels validated against networkx ground truth."""

import networkx as nx
import numpy as np
import pytest

from repro.gda import GdaConfig, GdaDatabase
from repro.gdi import EdgeOrientation
from repro.generator import KroneckerParams, build_lpg, default_schema, generate_edges
from repro.rma import run_spmd
from repro.workloads import (
    bfs,
    cdlp,
    khop_count,
    lcc,
    load_local_adjacency,
    pagerank,
    wcc,
)

PARAMS = KroneckerParams(scale=6, edge_factor=4, seed=21)
NRANKS = 3
SCHEMA = default_schema(n_vertex_labels=4, n_edge_labels=2, n_properties=2)


def _run_on_graph(fn, nranks=NRANKS, params=PARAMS, dedup=True):
    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=8192))
        g = build_lpg(ctx, db, params, SCHEMA, dedup=dedup)
        return fn(ctx, g)

    return run_spmd(nranks, prog)


def _reference_edges(params=PARAMS, nranks=NRANKS):
    return np.vstack(
        [generate_edges(params, r, nranks) for r in range(nranks)]
    )


def _reference_digraph():
    g = nx.DiGraph()
    g.add_nodes_from(range(PARAMS.n_vertices))
    g.add_edges_from(map(tuple, _reference_edges()))
    return g


def _reference_graph():
    g = nx.Graph()
    g.add_nodes_from(range(PARAMS.n_vertices))
    g.add_edges_from(map(tuple, _reference_edges()))
    return g


def test_local_adjacency_matches_reference():
    def body(ctx, g):
        adj = load_local_adjacency(ctx, g, EdgeOrientation.OUTGOING, dedup=True)
        return adj.neighbors

    _, res = _run_on_graph(body)
    merged = {}
    for part in res:
        merged.update({u: sorted(v) for u, v in part.items()})
    ref = _reference_digraph()
    assert set(merged) == set(ref.nodes)
    for u in ref.nodes:
        assert merged[u] == sorted(set(ref.successors(u))), u


def test_bfs_depths_match_networkx():
    root = 0

    def body(ctx, g):
        return bfs(ctx, g, root, EdgeOrientation.ANY)

    _, res = _run_on_graph(body)
    got = {}
    for part in res:
        got.update(part)
    expected = nx.single_source_shortest_path_length(_reference_graph(), root)
    assert got == dict(expected)


def test_bfs_directed_out_edges():
    root = 1

    def body(ctx, g):
        return bfs(ctx, g, root, EdgeOrientation.OUTGOING)

    _, res = _run_on_graph(body)
    got = {}
    for part in res:
        got.update(part)
    expected = nx.single_source_shortest_path_length(_reference_digraph(), root)
    assert got == dict(expected)


def test_bfs_unreachable_vertices_absent():
    def body(ctx, g):
        local = bfs(ctx, g, 0, EdgeOrientation.ANY)
        return len(local)

    _, res = _run_on_graph(body)
    reached = sum(res)
    comp = nx.node_connected_component(_reference_graph(), 0)
    assert reached == len(comp) < PARAMS.n_vertices


def test_khop_counts_match_bfs_truncation():
    root, k = 0, 2

    def body(ctx, g):
        return khop_count(ctx, g, root, k, EdgeOrientation.ANY)

    _, res = _run_on_graph(body)
    depths = nx.single_source_shortest_path_length(_reference_graph(), root)
    expected = sum(1 for d in depths.values() if d <= k)
    assert all(r == expected for r in res)


def test_pagerank_matches_networkx():
    def body(ctx, g):
        return pagerank(ctx, g, iterations=50)

    _, res = _run_on_graph(body)
    got = {}
    for part in res:
        got.update(part)
    expected = nx.pagerank(_reference_digraph(), alpha=0.85, max_iter=200, tol=1e-12)
    assert set(got) == set(expected)
    for u in expected:
        assert got[u] == pytest.approx(expected[u], rel=1e-3, abs=1e-6)


def test_pagerank_sums_to_one():
    def body(ctx, g):
        pr = pagerank(ctx, g, iterations=30)
        return sum(pr.values())

    _, res = _run_on_graph(body)
    assert sum(res) == pytest.approx(1.0, abs=1e-6)


def test_wcc_matches_networkx():
    def body(ctx, g):
        return wcc(ctx, g)

    _, res = _run_on_graph(body)
    got = {}
    for part in res:
        got.update(part)
    ref = _reference_graph()
    for component in nx.connected_components(ref):
        ids = {got[u] for u in component}
        assert len(ids) == 1  # same id within a component
        assert ids.pop() == min(component)  # hash-min converges to the min


def test_cdlp_converges_on_disconnected_cliques():
    """On two disjoint cliques CDLP must settle into two communities."""
    params = KroneckerParams(scale=4, edge_factor=1, seed=1)

    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=4096))
        g = build_lpg(ctx, db, params, SCHEMA, dedup=True)
        # overwrite adjacency with two 8-cliques (app-ID space)
        full = {u: [] for u in range(16)}
        for base in (0, 8):
            for i in range(8):
                for j in range(8):
                    if i != j:
                        full[base + i].append(base + j)
        from repro.workloads.analytics import LocalAdjacency

        local = {
            u: nbrs
            for u, nbrs in full.items()
            if u % ctx.nranks == ctx.rank
        }
        adj = LocalAdjacency(
            neighbors=local,
            n_local_edges=sum(len(v) for v in local.values()),
            nranks=ctx.nranks,
        )
        return cdlp(ctx, g, iterations=8, adj=adj)

    _, res = run_spmd(2, prog)
    labels = {}
    for part in res:
        labels.update(part)
    first = {labels[u] for u in range(8)}
    second = {labels[u] for u in range(8, 16)}
    assert len(first) == 1 and len(second) == 1
    assert first != second


def test_lcc_matches_networkx():
    def body(ctx, g):
        return lcc(ctx, g)

    _, res = _run_on_graph(body)
    got = {}
    for part in res:
        got.update(part)
    ref = _reference_graph()
    ref.remove_edges_from(nx.selfloop_edges(ref))
    expected = nx.clustering(ref)
    assert set(got) == set(expected)
    for u in expected:
        assert got[u] == pytest.approx(expected[u], abs=1e-9), u


def test_kernels_charge_simulated_time():
    def body(ctx, g):
        t0 = ctx.clock
        bfs(ctx, g, 0)
        return ctx.clock - t0

    _, res = _run_on_graph(body)
    assert all(dt > 0 for dt in res)


# -- CSR adjacency == handle-loop adjacency -----------------------------------
#
# The loader builds CSR from the scan's columns; the loop below is the
# loader it replaced, one handle per vertex, kept as the reference.  The
# graph is large enough (128 vertices per rank) for a shard's scan to be a
# columnar batch.

CSR_PARAMS = KroneckerParams(scale=8, edge_factor=4, seed=21)
CSR_NRANKS = 2


def _handle_loop_adjacency(ctx, tx, orientation):
    local_vids = tx.visible_vertices(
        tx.db.directory.local_vertices(ctx), ctx.rank
    )
    handles = [
        h for h in tx.associate_vertices(local_vids, missing_ok=True)
        if h is not None
    ]
    app_of, owner = {}, {}
    for rank, part in enumerate(ctx.allgather({h.vid: h.app_id for h in handles})):
        app_of.update(part)
        owner.update(dict.fromkeys(part.values(), rank))
    neighbors = {
        h.app_id: [app_of[n] for n in h.neighbors(orientation) if n in app_of]
        for h in handles
    }
    return neighbors, owner


def _assert_same_adjacency(adj, reference):
    neighbors, owner = reference
    assert adj.neighbors == neighbors
    assert adj.n_local_edges == sum(len(n) for n in neighbors.values())
    assert {app: adj.home(app) for app in owner} == owner
    assert adj.target_owner.tolist() == [
        owner[t] for nbrs in neighbors.values() for t in nbrs
    ]


#: vertices without a heavyweight self-loop under either schema: deleting one
#: that has such a loop trips over its second slot (``delete_vertex`` reloads
#: the edge holder it just marked deleted), which is not what is under test
DELETED = (4, 11)


def _mutate(ctx, g):
    """Rank 0 adds vertices and edges and deletes the ``DELETED`` ones."""
    if ctx.rank == 0:
        tx = g.db.start_transaction(ctx, write=True)
        fresh = [tx.create_vertex(1000 + i) for i in range(3)]
        old = tx.find_vertices([1, 2])
        el = g.edge_label(0)
        tx.create_edge(fresh[0], old[0], label=el)
        tx.create_edge(old[1], fresh[1], label=el)
        tx.create_edge(fresh[1], fresh[2])
        tx.create_edge(old[0], old[1], directed=False)
        tx.commit()
        for app in DELETED:
            tx = g.db.start_transaction(ctx, write=True)
            tx.delete_vertex(tx.find_vertex(app))
            tx.commit()
    ctx.barrier()


def _heavy_schema():
    from repro.gdi import Datatype
    from repro.gdi.constants import EntityType
    from repro.generator import LpgSchema, PropertySpec

    return LpgSchema(
        n_vertex_labels=2,
        n_edge_labels=2,
        properties=[
            PropertySpec("v_x", Datatype.INT64),
            PropertySpec("e_w", Datatype.DOUBLE, entity_type=EntityType.EDGE),
        ],
        heavy_edge_fraction=0.2,
        seed=5,
    )


@pytest.mark.parametrize("snapshot", [False, True])
@pytest.mark.parametrize("schema", [SCHEMA, _heavy_schema()], ids=["light", "heavy"])
def test_csr_adjacency_equals_handle_loop_after_oltp_mutations(snapshot, schema):
    from repro.workloads import analytics

    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=8192))
        g = build_lpg(ctx, db, CSR_PARAMS, schema)
        _mutate(ctx, g)
        for orientation in (EdgeOrientation.OUTGOING, EdgeOrientation.ANY):
            # columns first (rows still live in their batch), then with every
            # row already a cache entry (the scan answers through handles)
            tx = db.start_collective_transaction(ctx, snapshot=snapshot)
            adj = analytics._csr_adjacency(ctx, tx, orientation, dedup=False)
            reference = _handle_loop_adjacency(ctx, tx, orientation)
            again = analytics._csr_adjacency(ctx, tx, orientation, dedup=False)
            tx.commit()
            _assert_same_adjacency(adj, reference)
            _assert_same_adjacency(again, reference)
        apps = set(load_local_adjacency(ctx, g).neighbors)
        return apps

    _, res = run_spmd(CSR_NRANKS, prog)
    apps = set().union(*res)
    assert {1000, 1001, 1002} <= apps and not set(DELETED) & apps


def test_csr_adjacency_under_a_frozen_snapshot_while_deletes_land():
    from repro.workloads import analytics

    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=8192))
        g = build_lpg(ctx, db, CSR_PARAMS, SCHEMA)
        before = load_local_adjacency(ctx, g, EdgeOrientation.ANY)
        tx = db.start_collective_transaction(ctx, snapshot=True)  # frozen here
        _mutate(ctx, g)  # commits land underneath the open snapshot
        adj = analytics._csr_adjacency(ctx, tx, EdgeOrientation.ANY, dedup=False)
        reference = _handle_loop_adjacency(ctx, tx, EdgeOrientation.ANY)
        tx.commit()
        _assert_same_adjacency(adj, reference)
        # the snapshot still shows the graph as it was when it was taken
        assert adj.neighbors == before.neighbors
        after = load_local_adjacency(ctx, g, EdgeOrientation.ANY)
        return set(before.neighbors), set(after.neighbors)

    _, res = run_spmd(CSR_NRANKS, prog)
    before = set().union(*(b for b, _ in res))
    after = set().union(*(a for _, a in res))
    assert set(DELETED) <= before and not set(DELETED) & after
    assert {1000, 1001, 1002} <= after - before
