"""Frozen, plainly written copies of the temporal merge and of retrieval,
for differential tests.

single_step_merge is the streaming merge as it stood before its decisions
moved to the Gram matrix: concatenate the clusters and the new frame, pick
the Ward pair from the full pairwise distance matrix, then run weighted Lloyd
on full distance matrices. The library must produce the same numbers bit for
bit. retrieve is retrieval as it stood before it carried distance rows: one
product of the selected centroids with every key in the ring, then an argmin
per rank over the columns gathered newest first. Nothing under src/ imports
this module; it depends on numpy, on the ClusterSet type and on the key
ring's layout only, so a change to the library's helpers cannot change it.
"""

import numpy as np

from starmem import ClusterSet

MAX_LLOYD_ITERS = 50


def pairwise_sq_dists(x, y):
    xx = np.einsum("ij,ij->i", x, x)
    yy = np.einsum("ij,ij->i", y, y)
    d2 = xx[:, None] + yy[None, :] - 2.0 * (x @ y.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def weighted_mean(vecs, weights):
    ref = vecs[0]
    delta = (vecs - ref) * weights[:, None]
    return ref + delta.sum(axis=0) / weights.sum()


def lloyd(vecs, weights, centroids):
    """Weighted Lloyd from explicit centroid positions: (centroids, assign, converged)."""
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
                centroids[j] = weighted_mean(vecs[members], weights[members])
        prev_assign = assign
    return centroids, assign, False


def single_step_merge(state, vector, newest, k):
    """Fold one frame of weight 1 into at most k clusters (no input checks)."""
    vector = np.asarray(vector, dtype=np.float64)
    vecs = np.concatenate([state.vectors.reshape(-1, vector.size), vector[None]])
    weights = np.append(state.weights, 1.0)
    newest_all = np.append(state.newest, np.int64(newest))
    n = len(weights)
    if n <= k:
        return ClusterSet(vectors=vecs, weights=weights, newest=newest_all)

    d2 = pairwise_sq_dists(vecs, vecs)
    ward = (weights[:, None] * weights[None, :] / (weights[:, None] + weights[None, :])) * d2
    iu = np.triu_indices(n, 1)
    m = int(ward[iu].argmin())
    i, j = int(iu[0][m]), int(iu[1][m])
    merged = vecs[i] + (weights[j] / (weights[i] + weights[j])) * (vecs[j] - vecs[i])
    seeds = np.concatenate([[merged], np.delete(vecs, [i, j], axis=0)])
    centroids, assign, converged = lloyd(vecs, weights, seeds)

    labels = np.unique(assign)
    out_v = np.stack([centroids[c] for c in labels])
    out_w = np.array([weights[assign == c].sum() for c in labels])
    out_n = np.array([newest_all[assign == c].max() for c in labels], dtype=np.int64)
    order = np.lexsort((out_w, out_n))
    return ClusterSet(
        vectors=out_v[order], weights=out_w[order], newest=out_n[order],
        converged=converged,
    )


def retrieve(buffer, temporal, n_ret):
    """(frame_index, cluster_rank, cluster_index, distance) of each pick.

    buffer is a FeatureBuffer at its ring's tip: entries[i] is keyed by ring
    row (pushes - 1 - i) % capacity.
    """
    if temporal.count == 0:
        return []
    n = len(buffer.entries)
    n_sel = min(n_ret, temporal.count, n)
    rank_order = np.argsort(-temporal.weights, kind="stable")[:n_sel]
    slots = (buffer.pushes - 1 - np.arange(n)) % buffer.capacity
    d2 = pairwise_sq_dists(temporal.vectors[rank_order], buffer.ring.keys[:n])[:, slots]
    out = []
    for rank, cluster_i in enumerate(rank_order):
        pos = int(d2[rank].argmin())
        out.append((buffer.entries[pos].frame_index, rank, int(cluster_i),
                    float(d2[rank, pos])))
        d2[:, pos] = np.inf
    return out
