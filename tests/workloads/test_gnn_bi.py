"""Tests for the GNN (Listing 2) and BI/OLSP (Listing 3) workloads."""

import numpy as np
import pytest

from repro.gda import GdaConfig, GdaDatabase
from repro.gdi import Constraint, EdgeOrientation
from repro.generator import (
    KroneckerParams,
    build_lpg,
    default_schema,
    generate_edges,
)
from repro.rma import run_spmd
from repro.workloads import bi2_style_query, filtered_two_hop_count, gcn_forward, random_gcn_weights, relu

PARAMS = KroneckerParams(scale=5, edge_factor=4, seed=13)
DIM = 4
SCHEMA = default_schema(
    n_vertex_labels=4, n_edge_labels=2, n_properties=13, feature_dim=DIM
)
NRANKS = 2


def _run(fn, nranks=NRANKS):
    def prog(ctx):
        db = GdaDatabase.create(ctx, GdaConfig(blocks_per_rank=8192))
        g = build_lpg(ctx, db, PARAMS, SCHEMA, dedup=True)
        return fn(ctx, g)

    return run_spmd(nranks, prog)


def _reference_gcn(graph_features, adj, weights, normalize=True):
    """Sequential GCN reference in app-ID space."""
    feats = dict(graph_features)
    for W in weights:
        new = {}
        for u, f in feats.items():
            agg = np.array(f, dtype=np.float64)
            nbrs = adj.get(u, [])
            for v in nbrs:
                agg += feats[v]
            if normalize and nbrs:
                agg /= len(nbrs) + 1
            new[u] = relu(W @ agg)
        feats = new
    return feats


class TestGnn:
    def test_gcn_matches_sequential_reference(self):
        weights = random_gcn_weights(2, DIM, seed=3)

        def body(ctx, g):
            feats0 = {}
            tx = g.db.start_collective_transaction(ctx)
            pt = g.ptype("p_feature")
            for vid in g.db.directory.local_vertices(ctx):
                v = tx.associate_vertex(vid)
                feats0[v.app_id] = np.array(v.property(pt))
            tx.commit()
            all_feats = {}
            for part in ctx.allgather(feats0):
                all_feats.update(part)
            out = gcn_forward(ctx, g, weights)
            return all_feats, out

        _, res = _run(body)
        initial = res[0][0]
        got = {}
        for _, out in res:
            got.update(out)
        edges = np.vstack(
            [generate_edges(PARAMS, r, NRANKS) for r in range(NRANKS)]
        )
        adj: dict[int, list[int]] = {u: [] for u in range(PARAMS.n_vertices)}
        for s, d in {(int(a), int(b)) for a, b in edges}:
            adj[s].append(d)
        expected = _reference_gcn(initial, adj, random_gcn_weights(2, DIM, seed=3))
        assert set(got) == set(expected)
        for u in expected:
            np.testing.assert_allclose(got[u], expected[u], rtol=1e-9, atol=1e-12)

    def test_gcn_updates_persist_in_database(self):
        weights = random_gcn_weights(1, DIM, seed=1)

        def body(ctx, g):
            before = {}
            pt = g.ptype("p_feature")
            tx = g.db.start_collective_transaction(ctx)
            for vid in g.db.directory.local_vertices(ctx)[:3]:
                v = tx.associate_vertex(vid)
                before[v.app_id] = np.array(v.property(pt))
            tx.commit()
            gcn_forward(ctx, g, weights)
            tx = g.db.start_collective_transaction(ctx)
            changed = 0
            for app, old in before.items():
                v = tx.associate_vertex(tx.translate_vertex_id(app))
                if not np.allclose(v.property(pt), old):
                    changed += 1
            tx.commit()
            return changed

        _, res = _run(body)
        assert sum(res) > 0

    def test_relu(self):
        np.testing.assert_array_equal(
            relu(np.array([-1.0, 0.0, 2.0])), np.array([0.0, 0.0, 2.0])
        )

    def test_weight_shapes(self):
        ws = random_gcn_weights(3, 5, seed=0)
        assert len(ws) == 3
        assert all(w.shape == (5, 5) for w in ws)


class TestBi:
    def _reference_count(self, min_score):
        """Recompute the BI2 answer from schema rules + raw edges."""
        schema = SCHEMA
        edges = np.vstack(
            [generate_edges(PARAMS, r, NRANKS) for r in range(NRANKS)]
        )
        adj: dict[int, set[int]] = {u: set() for u in range(PARAMS.n_vertices)}
        elabel: dict[tuple[int, int], int] = {}
        for s, d in {(int(a), int(b)) for a, b in edges}:
            adj[s].add(d)
            elabel[(s, d)] = schema.edge_label_index(s, d)
        count = 0
        for u in range(PARAMS.n_vertices):
            if 0 not in schema.vertex_label_indices(u):
                continue
            props = dict(schema.vertex_property_values(u))
            if props.get("p_score") is None or props["p_score"] <= min_score:
                continue
            ok = False
            for v in adj[u]:
                if elabel[(u, v)] != 0:
                    continue
                if 1 not in schema.vertex_label_indices(v):
                    continue
                vprops = dict(schema.vertex_property_values(v))
                if vprops.get("p_active") is True:
                    ok = True
                    break
            if ok:
                count += 1
        return count

    def test_bi2_matches_reference(self):
        def body(ctx, g):
            return bi2_style_query(ctx, g, min_score=20.0)

        _, res = _run(body)
        expected = self._reference_count(20.0)
        assert all(r == expected for r in res)

    def test_bi2_with_explicit_index(self):
        """An index over the source label leaves the count unchanged
        (the planner may route the source scan through it)."""

        def body(ctx, g):
            src_label = g.vertex_label(0)
            g.db.create_index(ctx, "vl0", Constraint.has_label(src_label.int_id))
            return bi2_style_query(ctx, g, min_score=20.0)

        _, res = _run(body)
        expected = self._reference_count(20.0)
        assert all(r == expected for r in res)

    def test_threshold_monotonicity(self):
        def body(ctx, g):
            lo = bi2_style_query(ctx, g, min_score=0.0)
            hi = bi2_style_query(ctx, g, min_score=95.0)
            return lo, hi

        _, res = _run(body)
        lo, hi = res[0]
        assert lo >= hi

    def test_filtered_two_hop_source_only(self):
        """With no destination filters, count = sources matching the
        property filter with at least one constrained out-edge."""

        def body(ctx, g):
            n = filtered_two_hop_count(
                ctx,
                g,
                src_label=g.vertex_label(0),
                edge_label=g.edge_label(0),
            )
            return ctx.bcast(n, root=0)

        _, res = _run(body)
        schema = SCHEMA
        edges = np.vstack(
            [generate_edges(PARAMS, r, NRANKS) for r in range(NRANKS)]
        )
        expected = 0
        adj: dict[int, set[int]] = {u: set() for u in range(PARAMS.n_vertices)}
        for s, d in {(int(a), int(b)) for a, b in edges}:
            adj[s].add(d)
        for u in range(PARAMS.n_vertices):
            if 0 not in schema.vertex_label_indices(u):
                continue
            if any(schema.edge_label_index(u, v) == 0 for v in adj[u]):
                expected += 1
        assert all(r == expected for r in res)
