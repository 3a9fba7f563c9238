"""Weighted k-means over flattened frame features.

State-in/state-out clustering used by the temporal store: a bounded set of
weighted centroids where each weight counts the frames a centroid has
absorbed. Points are plain arrays: vectors (n, dim), weights (n,) and the
newest frame index each point covers (n,). Every cluster set is kept in
canonical order, ascending newest frame index.

The streaming path folds one new frame of weight 1, newer than every cluster,
by merging the cheapest (Ward-cost) pair and refining with weighted Lloyd
iterations. The batch path seeds from the heaviest points and, on small
instances, searches all seed subsets so the result is as good as
exhaustive-seeding Lloyd.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .features import pairwise_sq_dists

MAX_LLOYD_ITERS = 50

# Exhaustive seed search is enabled when C(n, k) is at most this.
EXHAUSTIVE_SEED_LIMIT = 1024


@dataclass(frozen=True)
class ClusterSet:
    """Weighted centroids in canonical order (ascending newest frame index)."""

    vectors: np.ndarray          # (count, dim) float64
    weights: np.ndarray          # (count,) float64
    newest: np.ndarray           # (count,) int64
    converged: bool = True       # outcome of the Lloyd pass that produced this set

    @staticmethod
    def empty() -> "ClusterSet":
        return ClusterSet(
            vectors=np.zeros((0, 0), dtype=np.float64),
            weights=np.zeros(0, dtype=np.float64),
            newest=np.zeros(0, dtype=np.int64),
        )

    @property
    def count(self) -> int:
        return len(self.weights)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


def _canonical_order(weights: np.ndarray, newest: np.ndarray) -> np.ndarray:
    # Primary: newest frame index; secondary: weight. Stable for equal keys.
    return np.lexsort((weights, newest))


def _weighted_mean(vecs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # Anchored at the first member so a cluster of identical vectors stays
    # bitwise identical to them.
    ref = vecs[0]
    delta = (vecs - ref) * weights[:, None]
    return ref + delta.sum(axis=0) / weights.sum()


def _build_result(vecs, weights, newest, assign, centroids, converged) -> ClusterSet:
    labels = np.unique(assign)
    out_v = np.stack([centroids[j] for j in labels])
    out_w = np.array([weights[assign == j].sum() for j in labels])
    out_n = np.array([newest[assign == j].max() for j in labels], dtype=np.int64)
    order = _canonical_order(out_w, out_n)
    return ClusterSet(
        vectors=out_v[order], weights=out_w[order], newest=out_n[order],
        converged=converged,
    )


def wkmeans_update(
    state: ClusterSet, vectors, weights, newest, k: int
) -> ClusterSet:
    """Cluster the union of existing centroids and incoming points into <= k.

    The incoming points are the rows of vectors, with positive weights and
    non-negative newest frame indices. Under capacity the union passes
    through unchanged (no information loss). Over capacity, runs weighted
    Lloyd seeded from the k heaviest points (ties: lowest newest frame
    index); small instances additionally search every k-subset of seeds and
    keep the lowest weighted SSE. Total weight is conserved exactly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    vecs = np.asarray(vectors, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    newest = np.asarray(newest, dtype=np.int64)
    if vecs.ndim != 2 or not weights.shape == newest.shape == (len(vecs),):
        raise ValueError("expected (n, dim) vectors with n weights and n indices")
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")
    if np.any(newest < 0):
        raise ValueError("newest frame indices must be non-negative")
    if state.count:
        if vecs.shape[1] != state.vectors.shape[1]:
            raise ValueError("incoming dimensionality does not match cluster state")
        vecs = np.concatenate([state.vectors, vecs])
        weights = np.concatenate([state.weights, weights])
        newest = np.concatenate([state.newest, newest])
    # Canonical input order makes the result permutation invariant.
    order = _canonical_order(weights, newest)
    vecs, weights, newest = vecs[order], weights[order], newest[order]
    n = len(weights)
    if n <= k:
        return ClusterSet(vectors=vecs, weights=weights, newest=newest)

    def sse(result):
        centroids, assign, _ = result
        r = vecs - centroids[assign]
        return float(np.dot(weights, np.einsum("ij,ij->i", r, r)))

    seed = np.sort(np.lexsort((newest, -weights))[:k])
    best = _lloyd(vecs, weights, vecs[seed])
    best_sse = sse(best)
    if math.comb(n, k) <= EXHAUSTIVE_SEED_LIMIT:
        for combo in itertools.combinations(range(n), k):
            res = _lloyd(vecs, weights, vecs[list(combo)])
            res_sse = sse(res)
            if res_sse < best_sse - 1e-12 * max(1.0, best_sse):
                best, best_sse = res, res_sse
    centroids, assign, converged = best
    return _build_result(vecs, weights, newest, assign, centroids, converged)


def single_step_merge(state: ClusterSet, vector, newest: int, k: int) -> ClusterSet:
    """Fold one new frame of weight 1 into a cluster set of at most k.

    newest must exceed every cluster's newest frame index, so appending the
    frame keeps canonical order. Appends while under capacity. At capacity,
    merges the pair with the lowest Ward cost w1*w2/(w1+w2) * d(v1, v2) into
    its weighted average, then refines with weighted Lloyd to convergence.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if state.count > k:
        raise ValueError("state exceeds capacity")
    vector = np.asarray(vector, dtype=np.float64)
    if newest < 0 or (state.count and newest <= state.newest[-1]):
        raise ValueError(f"frame {newest} is not newer than every cluster")
    if state.count and vector.size != state.vectors.shape[1]:
        raise ValueError("incoming dimensionality does not match cluster state")
    # An empty state's vectors have shape (0, 0).
    vecs = np.concatenate([state.vectors.reshape(-1, vector.size), vector[None]])
    weights = np.append(state.weights, 1.0)
    newest_all = np.append(state.newest, np.int64(newest))
    n = len(weights)
    if n <= k:
        return ClusterSet(vectors=vecs, weights=weights, newest=newest_all)

    d2 = pairwise_sq_dists(vecs, vecs)
    ward = (weights[:, None] * weights[None, :] / (weights[:, None] + weights[None, :])) * d2
    iu = np.triu_indices(n, 1)
    m = int(ward[iu].argmin())  # ties: lowest (i, j) in row-major upper triangle
    i, j = int(iu[0][m]), int(iu[1][m])

    # Exact when vecs[i] == vecs[j] (the difference is exactly zero).
    merged = vecs[i] + (weights[j] / (weights[i] + weights[j])) * (vecs[j] - vecs[i])
    seeds = np.concatenate([[merged], np.delete(vecs, [i, j], axis=0)])
    centroids, assign, converged = _lloyd(vecs, weights, seeds)
    return _build_result(vecs, weights, newest_all, assign, centroids, converged)


def _lloyd(vecs, weights, centroids):
    """Weighted Lloyd from explicit centroid positions.

    Returns (centroids, assign, converged).
    """
    n, k = len(vecs), len(centroids)
    centroids = np.array(centroids, dtype=np.float64)
    prev_assign = None
    for _ in range(MAX_LLOYD_ITERS):
        d2 = pairwise_sq_dists(vecs, centroids)
        assign = d2.argmin(axis=1)
        counts = np.bincount(assign, minlength=k)
        for j in range(k):
            if counts[j] > 0:
                continue
            movable = counts[assign] > 1
            if not movable.any():
                break
            own_d = d2[np.arange(n), assign]
            own_d = np.where(movable, own_d, -np.inf)
            p = int(own_d.argmax())
            counts[assign[p]] -= 1
            assign[p] = j
            counts[j] = 1
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            return centroids, assign, True
        for j in range(k):
            members = assign == j
            if members.any():
                centroids[j] = _weighted_mean(vecs[members], weights[members])
        prev_assign = assign
    return centroids, assign, False
