"""Weighted k-means over flattened frame features.

State-in/state-out clustering used by the temporal store: a bounded set of
weighted centroids where each weight counts the frames a centroid has
absorbed. The streaming path folds one new frame at a time by merging the
cheapest (Ward-cost) pair and refining with weighted Lloyd iterations; the
batch path seeds from the heaviest points and, on small instances, searches
all seed subsets so the result is as good as exhaustive-seeding Lloyd.
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
class WeightedPoint:
    vector: np.ndarray
    weight: float
    newest_frame_index: int

    def __post_init__(self):
        object.__setattr__(self, "vector", np.asarray(self.vector, dtype=np.float64))
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.newest_frame_index < 0:
            raise ValueError("newest_frame_index must be non-negative")


@dataclass(frozen=True)
class ClusterSet:
    """Weighted centroids in canonical order (ascending newest_frame_index)."""

    vectors: np.ndarray          # (count, dim) float64
    weights: np.ndarray          # (count,) float64
    newest: np.ndarray           # (count,) int64
    k: int
    converged: bool = True       # outcome of the Lloyd pass that produced this set

    @staticmethod
    def empty(k: int) -> "ClusterSet":
        return ClusterSet(
            vectors=np.zeros((0, 0), dtype=np.float64),
            weights=np.zeros(0, dtype=np.float64),
            newest=np.zeros(0, dtype=np.int64),
            k=k,
        )

    @property
    def count(self) -> int:
        return len(self.weights)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    @property
    def points(self) -> list[WeightedPoint]:
        return [
            WeightedPoint(self.vectors[i], float(self.weights[i]), int(self.newest[i]))
            for i in range(self.count)
        ]


def _as_arrays(points: list[WeightedPoint]):
    if not points:
        return (np.zeros((0, 0)), np.zeros(0), np.zeros(0, dtype=np.int64))
    dim = points[0].vector.size
    for p in points:
        if p.vector.size != dim:
            raise ValueError("all vectors must share one dimensionality")
    vecs = np.stack([p.vector for p in points])
    weights = np.array([p.weight for p in points], dtype=np.float64)
    newest = np.array([p.newest_frame_index for p in points], dtype=np.int64)
    return vecs, weights, newest


def _canonical_order(weights: np.ndarray, newest: np.ndarray) -> np.ndarray:
    # Primary: newest frame index; secondary: weight. Stable for equal keys.
    return np.lexsort((weights, newest))


def _weighted_mean(vecs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # Anchored at the first member so a cluster of identical vectors stays
    # bitwise identical to them.
    ref = vecs[0]
    delta = (vecs - ref) * weights[:, None]
    return ref + delta.sum(axis=0) / weights.sum()


def _merge_pair(v1, w1, v2, w2) -> np.ndarray:
    # Exact when v1 == v2 (delta is exactly zero).
    return v1 + (w2 / (w1 + w2)) * (v2 - v1)


def _lloyd(vecs, weights, seed_idx):
    """Weighted Lloyd seeded from the given data points."""
    return _lloyd_from_centroids(vecs, weights, vecs[np.asarray(seed_idx)])


def _build_result(vecs, weights, newest, assign, centroids, k, converged) -> ClusterSet:
    labels = np.unique(assign)
    out_v = np.stack([centroids[j] for j in labels])
    out_w = np.array([weights[assign == j].sum() for j in labels])
    out_n = np.array([newest[assign == j].max() for j in labels], dtype=np.int64)
    order = _canonical_order(out_w, out_n)
    return ClusterSet(
        vectors=out_v[order], weights=out_w[order], newest=out_n[order],
        k=k, converged=converged,
    )


def _passthrough(vecs, weights, newest, k, converged=True) -> ClusterSet:
    order = _canonical_order(weights, newest)
    return ClusterSet(
        vectors=vecs[order], weights=weights[order], newest=newest[order],
        k=k, converged=converged,
    )


def _combine(state: ClusterSet, incoming: list[WeightedPoint]):
    in_v, in_w, in_n = _as_arrays(incoming)
    if state.count == 0:
        return in_v, in_w, in_n
    if len(in_v) == 0:
        return state.vectors, state.weights, state.newest
    if in_v.shape[1] != state.vectors.shape[1]:
        raise ValueError("incoming dimensionality does not match cluster state")
    return (
        np.concatenate([state.vectors, in_v]),
        np.concatenate([state.weights, in_w]),
        np.concatenate([state.newest, in_n]),
    )


def wkmeans_update(state: ClusterSet, incoming: list[WeightedPoint], k: int) -> ClusterSet:
    """Cluster the union of existing centroids and incoming points into <= k.

    Under capacity the union passes through unchanged (no information loss).
    Over capacity, runs weighted Lloyd seeded from the k heaviest points
    (ties: lowest newest_frame_index); small instances additionally search
    every k-subset of seeds and keep the lowest weighted SSE. Total weight
    is conserved exactly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    vecs, weights, newest = _combine(state, incoming)
    n = len(weights)
    if n <= k:
        return _passthrough(vecs, weights, newest, k)
    # Canonical input order makes the result permutation invariant.
    order = _canonical_order(weights, newest)
    vecs, weights, newest = vecs[order], weights[order], newest[order]

    seed = np.lexsort((newest, -weights))[:k]
    best = _lloyd(vecs, weights, np.sort(seed))
    if math.comb(n, k) <= EXHAUSTIVE_SEED_LIMIT:
        for combo in itertools.combinations(range(n), k):
            res = _lloyd(vecs, weights, combo)
            if res[2] < best[2] - 1e-12 * max(1.0, best[2]):
                best = res
    centroids, assign, _, converged, _ = best
    return _build_result(vecs, weights, newest, assign, centroids, k, converged)


def single_step_merge(state: ClusterSet, new_point: WeightedPoint, k: int) -> ClusterSet:
    """Fold one new point into a at-capacity cluster set.

    Appends while under capacity. At capacity, merges the pair with the
    lowest Ward cost w1*w2/(w1+w2) * d(v1, v2) into its weighted average,
    then refines with weighted Lloyd to convergence.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if state.count > k:
        raise ValueError("state exceeds capacity")
    vecs, weights, newest = _combine(state, [new_point])
    n = len(weights)
    if n <= k:
        return _passthrough(vecs, weights, newest, k)
    order = _canonical_order(weights, newest)
    vecs, weights, newest = vecs[order], weights[order], newest[order]

    d2 = pairwise_sq_dists(vecs, vecs)
    ward = (weights[:, None] * weights[None, :] / (weights[:, None] + weights[None, :])) * d2
    iu = np.triu_indices(n, 1)
    flat = ward[iu]
    m = int(flat.argmin())  # ties: lowest (i, j) in row-major upper triangle
    i, j = int(iu[0][m]), int(iu[1][m])

    merged = _merge_pair(vecs[i], weights[i], vecs[j], weights[j])
    seeds = np.concatenate([[merged], np.delete(vecs, [i, j], axis=0)])
    centroids, assign, _, converged, _ = _lloyd_from_centroids(vecs, weights, seeds)
    return _build_result(vecs, weights, newest, assign, centroids, k, converged)


def _lloyd_from_centroids(vecs, weights, centroids):
    """Weighted Lloyd starting from explicit centroid positions."""
    n, k = len(vecs), len(centroids)
    centroids = np.array(centroids, dtype=np.float64)
    prev_assign = None
    converged = False
    iters = 0
    assign = None
    for iters in range(1, MAX_LLOYD_ITERS + 1):
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
            converged = True
            break
        for j in range(k):
            members = assign == j
            if members.any():
                centroids[j] = _weighted_mean(vecs[members], weights[members])
        prev_assign = assign
    own = np.einsum("ij,ij->i", vecs - centroids[assign], vecs - centroids[assign])
    sse = float(np.dot(weights, own))
    return centroids, assign, sse, converged, iters

