"""Graph Neural Network workload over GDI (paper Listing 2, Section 6.5).

Implements training-style forward passes of a graph convolution network
(GCN, Kipf & Welling) directly against the database, following the paper's
Listing 2 line by line: per layer, a collective transaction in which every
rank (1) reads each local vertex's feature-vector property, (2) fetches the
feature vectors of its neighbors — *including remote vertices, read with
one-sided accesses through vertex handles* — (3) aggregates by summation,
(4) applies a user-supplied MLP and non-linearity, and (5) writes the
updated feature vector back.

Because neighbor features are read while local features are updated only
at commit (transaction-local visibility), the synchronous-GCN semantics
"aggregate layer-l features, then write layer-l+1" fall out of GDI's
transaction model for free — a nice consequence the paper alludes to.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from ..gdi import EdgeOrientation
from ..generator.lpg import GeneratedGraph
from ..rma.runtime import RankContext

__all__ = ["relu", "gcn_forward", "gcn_train", "random_gcn_weights"]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def random_gcn_weights(
    layers: int, dim: int, seed: int = 0, scale: float = 0.5
) -> list[np.ndarray]:
    """Square per-layer weight matrices (feature dimension is preserved
    because features live in a FIXED-size property, Section 3.7)."""
    rng = np.random.default_rng(seed)
    return [
        scale * rng.standard_normal((dim, dim)) / np.sqrt(dim)
        for _ in range(layers)
    ]


def _aggregate(
    ctx: RankContext, tx, ptype, orientation: EdgeOrientation, normalize: bool
) -> Iterator[tuple[object, np.ndarray]]:
    """Listing 2's read half: ``(handle, own + summed neighbor features)``
    of every local vertex that has the feature, read through ``tx``."""
    handles = tx.associate_vertices(tx.db.directory.local_vertices(ctx))
    work: list[tuple[object, object, list[int]]] = []
    frontier: list[int] = []
    for v in handles:
        feature = v.property(ptype)
        if feature is None:
            continue
        nbr_vids = v.neighbors(orientation)
        work.append((v, feature, nbr_vids))
        frontier.extend(nbr_vids)
    # One batched read pipelines the whole layer's neighborhood —
    # subsequent associate_vertex calls are transaction-cache hits.
    tx.associate_vertices(frontier)
    for v, feature, nbr_vids in work:
        agg = np.array(feature, dtype=np.float64)
        for nvid in nbr_vids:
            nf = tx.associate_vertex(nvid).property(ptype)
            if nf is not None:
                agg += nf
        if normalize and nbr_vids:
            agg /= len(nbr_vids) + 1
        yield v, agg


def gcn_forward(
    ctx: RankContext,
    graph: GeneratedGraph,
    weights: Sequence[np.ndarray],
    *,
    feature_ptype_name: str = "p_feature",
    orientation: EdgeOrientation = EdgeOrientation.OUTGOING,
    sigma: Callable[[np.ndarray], np.ndarray] = relu,
    normalize: bool = True,
) -> dict[int, np.ndarray]:
    """Run ``len(weights)`` GCN layers; returns local final features.

    One collective write transaction per layer (the paper's Listing 2
    structure): reads may touch remote vertices, writes touch only local
    vertices, so the lock-free collective write transaction is safe.
    """
    db = graph.db
    ptype = graph.ptype(feature_ptype_name)
    for W in weights:
        tx = db.start_collective_transaction(ctx, write=True)
        updates: list[tuple[object, np.ndarray]] = []
        for v, agg in _aggregate(ctx, tx, ptype, orientation, normalize):
            new_feature = sigma(W @ agg)
            ctx.compute(W.size + agg.size)
            updates.append((v, new_feature))
        # Apply updates after all reads: layer semantics are synchronous.
        for v, new_feature in updates:
            v.set_property(ptype, new_feature)
        tx.commit()
    # Collect final local features.
    tx = db.start_collective_transaction(ctx)
    out: dict[int, np.ndarray] = {}
    for v in tx.associate_vertices(db.directory.local_vertices(ctx)):
        f = v.property(ptype)
        if f is not None:
            out[v.app_id] = f
    tx.commit()
    return out


def gcn_train(
    ctx: RankContext,
    graph: GeneratedGraph,
    weights: list[np.ndarray],
    targets: dict[int, np.ndarray],
    *,
    epochs: int = 5,
    learning_rate: float = 0.05,
    feature_ptype_name: str = "p_feature",
    orientation: EdgeOrientation = EdgeOrientation.OUTGOING,
) -> list[float]:
    """Distributed GCN *training* (the paper evaluates "training of the
    graph convolution model").

    A two-phase loop per epoch: the forward pass reads features through
    GDI exactly as Listing 2 (collective transaction, remote neighbor
    fetches) while caching the per-layer activations; the backward pass
    computes mean-squared-error gradients against ``targets`` (a map of
    local application IDs to target vectors), aggregates the weight
    gradients with an allreduce (data-parallel training), and applies a
    synchronous SGD step identically on every rank.  Input features in
    the database are left untouched — only the replicated weights learn.

    Returns the per-epoch global losses (must be non-increasing on a
    well-conditioned problem; asserted by the tests).
    """
    db = graph.db
    ptype = graph.ptype(feature_ptype_name)
    losses: list[float] = []
    n_total = max(1, ctx.allreduce(len(targets)))
    for _ in range(epochs):
        # ---- forward (Listing 2 structure, activations cached) --------
        tx = db.start_collective_transaction(ctx)
        agg0 = {
            v.app_id: agg
            for v, agg in _aggregate(ctx, tx, ptype, orientation, True)
        }
        tx.commit()

        # local layer stack (aggregation happens once, at the input —
        # a simplified SGC-style model that keeps gradients exact)
        activations = [agg0]
        for W in weights:
            prev = activations[-1]
            activations.append(
                {u: relu(W @ x) for u, x in prev.items()}
            )
        out = activations[-1]

        # ---- loss + backward ------------------------------------------
        local_loss = 0.0
        grad_out: dict[int, np.ndarray] = {}
        for u, y in targets.items():
            if u not in out:
                continue
            diff = out[u] - y
            local_loss += float(diff @ diff)
            grad_out[u] = 2.0 * diff / n_total
        losses.append(ctx.allreduce(local_loss) / n_total)

        grads = [np.zeros_like(W) for W in weights]
        delta = grad_out
        for li in reversed(range(len(weights))):
            W = weights[li]
            inp = activations[li]
            new_delta: dict[int, np.ndarray] = {}
            for u, d in delta.items():
                pre = W @ inp[u]
                d_pre = d * (pre > 0)  # relu'
                grads[li] += np.outer(d_pre, inp[u])
                new_delta[u] = W.T @ d_pre
            delta = new_delta
        ctx.compute(sum(g.size for g in grads) * max(1, len(grad_out)))

        # ---- synchronous data-parallel step ----------------------------
        for li in range(len(weights)):
            total_grad = ctx.allreduce(grads[li], op=lambda a, b: a + b)
            weights[li] -= learning_rate * total_grad
    return losses
