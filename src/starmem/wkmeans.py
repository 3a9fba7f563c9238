"""Weighted k-means over flattened frame features.

State-in/state-out clustering used by the temporal store: a bounded set of
weighted centroids where each weight counts the frames a centroid has
absorbed. Points are plain arrays: vectors (n, dim), weights (n,) and the
newest frame index each point covers (n,). Every cluster set is kept in
canonical order, ascending newest frame index.

The streaming path folds one new frame of weight 1, newer than every cluster,
by merging the cheapest (Ward-cost) pair and refining with weighted Lloyd
iterations. It takes those decisions from the small Gram matrix of the
clusters and the frame, each only when it wins by more than a rounding bound,
and computes just the clusters that result; otherwise it runs the same
decisions on the vectors. Both ways give the same output bits. The batch
path seeds from the heaviest points and, on small
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

    The Ward pair and every Lloyd assignment are taken from the Gram matrix
    of the k clusters and the frame, and only the resulting clusters are
    computed, each as a weighted mean of its members (see _gram_merge). When
    a decision's margin is within rounding, or a cluster would be empty, the
    merge runs the full Ward+Lloyd path on the vectors instead
    (_ward_lloyd_merge). Either way the output, converged flag included, is
    bitwise what the full path gives.
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
    weights = np.append(state.weights, 1.0)
    newest_all = np.append(state.newest, np.int64(newest))
    if len(weights) > k:
        merged = _gram_merge(state.vectors, vector, weights, newest_all)
        if merged is None:
            vecs = np.concatenate([state.vectors, vector[None]])
            merged = _ward_lloyd_merge(vecs, weights, newest_all)
        return merged
    # An empty state's vectors have shape (0, 0).
    vecs = np.concatenate([state.vectors.reshape(-1, vector.size), vector[None]])
    return ClusterSet(vectors=vecs, weights=weights, newest=newest_all)


def _ward_lloyd_merge(vecs, weights, newest) -> ClusterSet:
    """Merge the cheapest Ward pair of the rows of vecs, then run Lloyd on them."""
    n = len(weights)
    d2 = pairwise_sq_dists(vecs, vecs)
    ward = (weights[:, None] * weights[None, :] / (weights[:, None] + weights[None, :])) * d2
    iu = np.triu_indices(n, 1)
    m = int(ward[iu].argmin())  # ties: lowest (i, j) in row-major upper triangle
    i, j = int(iu[0][m]), int(iu[1][m])

    # Exact when vecs[i] == vecs[j] (the difference is exactly zero).
    merged = vecs[i] + (weights[j] / (weights[i] + weights[j])) * (vecs[j] - vecs[i])
    seeds = np.concatenate([[merged], np.delete(vecs, [i, j], axis=0)])
    centroids, assign, converged = _lloyd(vecs, weights, seeds)
    return _build_result(vecs, weights, newest, assign, centroids, converged)


# Unit roundoff of float64 (round to nearest).
_U = np.finfo(np.float64).eps / 2


def _gamma(m: int) -> float:
    """gamma_m = m*u / (1 - m*u): the relative error bound of m rounded operations.

    A dot product of length m, summed in any order, is within
    gamma_m * |x|.|y| <= gamma_m * ||x|| ||y|| of the exact one (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, section 3.1).
    """
    return m * _U / (1.0 - m * _U)


def _certified_argmin(values: np.ndarray, slack: np.ndarray):
    """Row-wise argmin of values, or None unless every row's minimum is clear.

    Clear means the minimum plus its slack is below every other entry minus
    that entry's slack. Then any values within slack of these, computed in
    any rounding, have the same argmin, and no tie rule is ever consulted.
    """
    rows = np.arange(len(values))
    best = values.argmin(axis=1)
    hi = values[rows, best] + slack[rows, best]
    lo = values - slack
    lo[rows, best] = np.inf
    if not (hi < lo.min(axis=1)).all():   # also False on NaN
        return None
    return best


def _gram_merge(V, v, weights, newest):
    """The merge's decisions from the Gram matrix of X = [V; v], then its output.

    V holds the k clusters and v the new frame; n = k + 1 rows in all. A
    centroid is a coefficient row b over the rows of X, so its squared
    distance to row i is G_ii - 2 (G b)_i + b G b^T with G = X X^T, and each
    decision costs (n, n) arithmetic instead of passes over (n, dim) arrays.
    Returns None when a decision is within rounding or a cluster would be
    empty; _ward_lloyd_merge then decides on the vectors.

    Rounding bound (see _gamma). Every squared distance either path computes,
    here from G or in pairwise_sq_dists from the vectors, is within
    gamma_m * (||x|| + ||c||)^2 of the exact distance between the vectors it
    was given, with m = dim + 2n + 8 covering the length-dim dot products,
    the two length-n coefficient sums and the few operations after. The
    vectors path rounds the centroids it forms (the merged seed, each
    weighted mean), and here the coefficients are rounded; both stay within
    eta = 4 * gamma_{n+6} * max ||x|| of the exact weighted combination,
    which moves a squared distance by at most 2 r eta. With
    r = ||x|| + sum_m |b_m| ||x_m|| + eta, the two paths' values for one
    entry differ by at most 2 r (gamma_m r + eta); for a Ward cost
    f * d(x_i, x_j), by 2 f gamma_m (||x_i|| + ||x_j||)^2, the product's own
    rounding fitting in m's margin. Each decision must win by both entries'
    slack (_certified_argmin).
    """
    k = len(V)
    n = k + 1
    g = np.empty((n, n))
    g[:k, :k] = V @ V.T
    # np.dot, not @: numpy's matmul holds the GIL on a matrix-vector product.
    g[k, :k] = g[:k, k] = np.dot(V, v)
    g[k, k] = np.dot(v, v)
    sq = g.diagonal().copy()
    norm = np.sqrt(np.maximum(sq, 0.0))
    gamma = _gamma(v.size + 2 * n + 8)

    # The Ward pair, over the pairs i < j.
    factor = weights[:, None] * weights[None, :] / (weights[:, None] + weights[None, :])
    ward = factor * np.maximum(sq[:, None] + sq[None, :] - 2.0 * g, 0.0)
    ward[np.tri(n, dtype=bool)] = np.inf
    slack = 2.0 * gamma * factor * (norm[:, None] + norm[None, :]) ** 2
    pick = _certified_argmin(ward.reshape(1, -1), slack.reshape(1, -1))
    if pick is None:
        return None
    i, j = divmod(int(pick[0]), n)

    # Seeds: the merged pair first, then every other row in order.
    a = weights[j] / (weights[i] + weights[j])
    coef = np.zeros((k, n))
    coef[0, i], coef[0, j] = 1.0 - a, a
    rows = np.arange(n)
    coef[np.arange(1, k), rows[(rows != i) & (rows != j)]] = 1.0
    eta = 4.0 * _gamma(n + 6) * norm.max()
    prev, converged = None, False
    for _ in range(MAX_LLOYD_ITERS):
        gb = coef @ g                                # row c holds G b_c
        d2 = sq[:, None] - 2.0 * gb.T + np.einsum("cm,cm->c", gb, coef)[None, :]
        np.maximum(d2, 0.0, out=d2)
        r = norm[:, None] + (coef @ norm)[None, :] + eta
        assign = _certified_argmin(d2, 2.0 * r * (gamma * r + eta))
        if assign is None:
            return None
        counts = np.bincount(assign, minlength=k)
        if not counts.all():
            return None
        if prev is not None and np.array_equal(assign, prev):
            converged = True
            break
        coef = np.zeros((k, n))
        coef[assign, rows] = weights / np.bincount(assign, weights, k)[assign]
        prev = assign

    # Each cluster is a run of `members`, its rows in ascending order, so
    # sums run in _build_result's order. Rows are in canonical order, so a
    # cluster's newest frame is its last row's.
    members = np.argsort(assign, kind="stable")
    ends = np.cumsum(counts)
    starts = ends - counts
    out_w = weights[members[starts]]
    for c in np.flatnonzero(counts > 1):
        out_w[c] = weights[members[starts[c]:ends[c]]].sum()
    out_n = newest[members[ends - 1]]
    order = _canonical_order(out_w, out_n)
    out_v = np.empty((k, v.size))
    for row, c in zip(out_v, order):
        idx = members[starts[c]:ends[c]]
        if len(idx) == 1:
            # What _weighted_mean gives for one member (it turns -0.0 into 0.0).
            np.add(V[idx[0]] if idx[0] < k else v, 0.0, out=row)
        else:
            vecs = V[idx] if idx[-1] < k else np.concatenate([V[idx[:-1]], v[None]])
            row[:] = _weighted_mean(vecs, weights[idx])
    return ClusterSet(vectors=out_v, weights=out_w[order], newest=out_n[order],
                      converged=converged)


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
