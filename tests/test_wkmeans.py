import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starmem import ClusterSet, single_step_merge, wkmeans_update

from oracle import best_partition_sse, exhaustive_seeding_best_sse


def random_points(rng, n, dim, max_weight=1):
    """(vectors, weights, newest) for n points with newest = 0..n-1."""
    draws = [
        (rng.normal(size=dim), float(rng.integers(1, max_weight + 1)))
        for _ in range(n)
    ]
    vecs = np.array([v for v, _ in draws]).reshape(n, dim)
    return vecs, np.array([w for _, w in draws]), np.arange(n)


def none_incoming(dim):
    return np.zeros((0, dim)), np.zeros(0), np.zeros(0, dtype=np.int64)


def merge_all(values, k):
    """Fold scalar values in as frames 0, 1, 2, ... through single_step_merge."""
    state = ClusterSet.empty()
    for i, v in enumerate(values):
        state = single_step_merge(state, [v], i, k)
    return state


class TestBatchUpdate:
    def test_under_capacity_passthrough(self, rng):
        vecs, weights, newest = random_points(rng, 5, 3)
        out = wkmeans_update(ClusterSet.empty(), vecs, weights, newest, 25)
        assert out.count == 5
        assert out.total_weight == pytest.approx(5.0)
        # verbatim contents, canonical order
        np.testing.assert_array_equal(out.vectors, vecs)
        np.testing.assert_array_equal(out.newest, newest)

    def test_rejects_nonpositive_weight(self):
        for w in (0.0, -2.0):
            with pytest.raises(ValueError):
                wkmeans_update(ClusterSet.empty(), [[1.0]], [w], [0], 1)

    def test_rejects_negative_newest(self):
        with pytest.raises(ValueError):
            wkmeans_update(ClusterSet.empty(), [[1.0]], [1.0], [-1], 1)

    def test_identical_vectors_merge_weights(self):
        v = np.array([2.0, -1.0, 0.5])
        out = wkmeans_update(ClusterSet.empty(), [v, v], [2.0, 3.0], [0, 1], 1)
        assert out.count == 1
        assert out.weights[0] == pytest.approx(5.0)
        np.testing.assert_array_equal(out.vectors[0], v)

    def test_matches_exhaustive_seeding_oracle(self, rng):
        vecs, weights, newest = random_points(rng, 8, 4)
        out = wkmeans_update(ClusterSet.empty(), vecs, weights, newest, 3)
        d = ((vecs[:, None, :] - out.vectors[None]) ** 2).sum(axis=2)
        ours = float((weights * d.min(axis=1)).sum())
        best = exhaustive_seeding_best_sse(vecs, weights, 3)
        assert ours <= best * (1 + 1e-6)

    def test_weight_conservation(self, rng):
        vecs, weights, newest = random_points(rng, 10, 3, max_weight=7)
        out = wkmeans_update(ClusterSet.empty(), vecs, weights, newest, 4)
        assert out.total_weight == pytest.approx(weights.sum(), abs=0)

    def test_idempotent_with_no_incoming(self, rng):
        state = wkmeans_update(ClusterSet.empty(), *random_points(rng, 3, 2), 3)
        again = wkmeans_update(state, *none_incoming(2), 3)
        np.testing.assert_array_equal(again.vectors, state.vectors)
        np.testing.assert_array_equal(again.weights, state.weights)
        np.testing.assert_array_equal(again.newest, state.newest)

    def test_permutation_invariant(self, rng):
        vecs, weights, newest = random_points(rng, 9, 3)
        a = wkmeans_update(ClusterSet.empty(), vecs, weights, newest, 4)
        perm = rng.permutation(len(vecs))
        b = wkmeans_update(ClusterSet.empty(), vecs[perm], weights[perm], newest[perm], 4)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.newest, b.newest)

    def test_centroids_are_weighted_means(self, rng):
        vecs, weights, newest = random_points(rng, 7, 2, max_weight=3)
        out = wkmeans_update(ClusterSet.empty(), vecs, weights, newest, 3)
        d = ((vecs[:, None, :] - out.vectors[None]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for j in range(out.count):
            m = assign == j
            assert m.any()
            expected = np.average(vecs[m], axis=0, weights=weights[m])
            np.testing.assert_allclose(out.vectors[j], expected, rtol=1e-9, atol=1e-12)

    def test_dim_mismatch_rejected(self, rng):
        state = wkmeans_update(ClusterSet.empty(), *random_points(rng, 2, 3), 4)
        with pytest.raises(ValueError):
            wkmeans_update(state, np.zeros((1, 5)), [1.0], [9], 4)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            wkmeans_update(ClusterSet.empty(), *none_incoming(1), 0)


class TestSingleStepMerge:
    def test_append_under_capacity(self, rng):
        state = merge_all([0.0, 1.0, 2.0], 3)
        assert state.count == 3
        assert state.total_weight == pytest.approx(3.0)

    def test_coincident_pair_merges_first(self):
        out = merge_all([0.0, 5.0, 5.0, 9.0], 3)
        assert out.count == 3
        weights = {float(v[0]): w for v, w in zip(out.vectors, out.weights)}
        assert weights == {0.0: 1.0, 5.0: 2.0, 9.0: 1.0}

    def test_three_point_partition_matches_brute_force(self):
        # Expected from enumerating all 2-partitions of {0, 1, 10}:
        # {0,1} -> 0.5 (weight 2) and {10} (weight 1).
        out = merge_all([0.0, 10.0, 1.0], 2)
        best, _ = best_partition_sse(np.array([[0.0], [10.0], [1.0]]), np.ones(3), 2)
        got = sorted(zip(out.vectors[:, 0], out.weights))
        assert got == [(0.5, 2.0), (10.0, 1.0)]
        d = np.array([[0.0], [10.0], [1.0]])[:, None, :] - out.vectors[None]
        sse = float(((d ** 2).sum(axis=2)).min(axis=1).sum())
        assert sse == pytest.approx(best)

    def test_weight_conservation_over_stream(self, rng):
        state = ClusterSet.empty()
        for i in range(40):
            before = state.total_weight
            state = single_step_merge(state, rng.normal(size=3), i, 4)
            assert state.total_weight == pytest.approx(before + 1.0, abs=1e-9)
        assert state.total_weight == pytest.approx(40.0)
        assert state.count == 4

    def test_capacity_never_exceeded(self, rng):
        state = ClusterSet.empty()
        for i in range(60):
            state = single_step_merge(state, rng.normal(size=2), i, 5)
            assert state.count <= 5

    def test_rejects_overfull_state(self, rng):
        state = wkmeans_update(ClusterSet.empty(), *random_points(rng, 4, 2), 4)
        with pytest.raises(ValueError):
            single_step_merge(state, np.zeros(2), 99, 3)

    def test_rejects_frame_not_newer_than_every_cluster(self):
        state = merge_all([0.0, 5.0, 9.0], 3)
        for newest in (1, 2):
            with pytest.raises(ValueError):
                single_step_merge(state, [3.0], newest, 3)
        assert single_step_merge(state, [3.0], 3, 3).total_weight == 4.0

    def test_streaming_event_recovery(self):
        # Well-separated stationary segments: each segment mean ends up with
        # a centroid nearby whose weight is the segment length.
        rng = np.random.default_rng(7)
        means = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
        lengths = [30, 20, 10]
        std = 0.5
        state = ClusterSet.empty()
        idx = 0
        for mean, length in zip(means, lengths):
            for _ in range(length):
                v = mean + std * rng.standard_normal(2)
                state = single_step_merge(state, v, idx, 3)
                idx += 1
        assert state.count == 3
        for mean, length in zip(means, lengths):
            d = np.sqrt(((state.vectors - mean) ** 2).sum(axis=1))
            nearest = int(d.argmin())
            assert d[nearest] <= 3 * std * np.sqrt(2) / np.sqrt(length)
            assert abs(state.weights[nearest] - length) <= 1


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_oracle_equivalence_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    dim = int(rng.integers(1, 5))
    k = int(rng.integers(1, min(4, n - 1) + 1))
    draws = [(rng.normal(size=dim), float(rng.integers(1, 4))) for _ in range(n)]
    vecs = np.array([v for v, _ in draws])
    weights = np.array([w for _, w in draws])
    out = wkmeans_update(ClusterSet.empty(), vecs, weights, np.arange(n), k)
    d = ((vecs[:, None, :] - out.vectors[None]) ** 2).sum(axis=2)
    ours = float((weights * d.min(axis=1)).sum())
    best = exhaustive_seeding_best_sse(vecs, weights, k)
    assert ours <= best * (1 + 1e-6)
