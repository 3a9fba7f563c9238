"""The streaming merge and retrieval against their frozen references, and the
merge against its own fixed point.

tests/reference.py holds the merge as the full Ward+Lloyd path on vectors.
The library takes the same decisions from a Gram matrix and falls back to
that path when a decision is within rounding, so after every frame its
output must match the reference bit for bit. The fixed-point test checks the
library's output alone: every input sits in its nearest output centroid's
cluster, and every centroid is the weighted mean of its cluster.

tests/reference.py also holds retrieval as one full pass over the key ring.
The library decides on distance rows it carries from write to write and
falls back to that pass when a pick is within rounding, so after every
write_frame its picks must be the reference's, and its distances within the
rounding of the terms that cancel.
"""

import itertools

import numpy as np
import pytest

from starmem import ClusterSet, FeatureMap, MemoryConfig, StarMemory, single_step_merge, write_frame
from starmem import memory, wkmeans

import reference


def continuous(rng, n, dim):
    """Frames of small normal noise around a large common offset.

    Pooled video features look like this: distances are tiny against the
    norms, so the merge's decisions are closest to its rounding bounds.
    """
    return [60.0 + 0.1 * rng.normal(size=dim) for _ in range(n)]


def quantised_with_ties(rng, n, dim):
    """Frames on a {-1, 0, 1} lattice with planted exact ties.

    A third of the frames repeat a recent frame (zero-cost Ward pairs and
    coincident points). Another third change one coordinate of a recent
    frame by one step, so several pairs lie at the same distance. The
    lattice is 60 + 0.1 * q: in exact arithmetic the tied costs are equal,
    but computed two ways they round apart, so only a margin check keeps
    the two ways' tie-breaks the same.
    """
    frames = []
    for _ in range(n):
        u = rng.random()
        if frames and u < 1 / 3:
            frames.append(frames[-int(rng.integers(1, min(len(frames), 6) + 1))].copy())
        elif frames and u < 2 / 3:
            f = frames[-int(rng.integers(1, min(len(frames), 6) + 1))].copy()
            p = int(rng.integers(dim))
            f[p] = f[p] - 1.0 if f[p] > 0 else f[p] + 1.0
            frames.append(f)
        else:
            frames.append(rng.integers(-1, 2, size=dim).astype(np.float64))
    return [60.0 + 0.1 * f for f in frames]


def recurring_events(rng, n, dim):
    """Segments of a few recurring event means (0, 60, -60) with small noise."""
    means = (0.0, 60.0, -60.0)
    frames, e = [], 0
    while len(frames) < n:
        for _ in range(int(rng.integers(3, 15))):
            frames.append(means[e % 3] + 0.5 * rng.normal(size=dim))
        e += int(rng.integers(1, 3))
    return frames[:n]


STREAMS = {"continuous": continuous, "quantised": quantised_with_ties,
           "recurring": recurring_events}


def assert_same(got: ClusterSet, want: ClusterSet):
    for field in ("vectors", "weights", "newest"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field
    assert got.converged == want.converged


def fold_both(frames, k):
    """Fold frames through the library and the reference, comparing after each."""
    ours, ref = ClusterSet.empty(), ClusterSet.empty()
    for t, v in enumerate(frames):
        ours = single_step_merge(ours, v, t, k)
        ref = reference.single_step_merge(ref, v, t, k)
        assert_same(ours, ref)


@pytest.fixture
def count_fallbacks(monkeypatch):
    """Count calls of the full Ward+Lloyd path; returns the live counter."""
    calls = {"n": 0}
    full = wkmeans._ward_lloyd_merge

    def counting(*args):
        calls["n"] += 1
        return full(*args)

    monkeypatch.setattr(wkmeans, "_ward_lloyd_merge", counting)
    return calls


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("k", [1, 2, 3, 25])
@pytest.mark.parametrize("seed", [0, 1])
def test_bitwise_equal_to_reference(stream, k, seed):
    rng = np.random.default_rng([seed, k])
    dim = int(rng.integers(1, 40))
    fold_both(STREAMS[stream](rng, 40 + 3 * k, dim), k)


@pytest.mark.slow
@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_bitwise_equal_to_reference_long_rows(stream):
    # Rows longer than 8192 floats, where numpy's einsum sums a lone row in
    # a different order from the same row inside a matrix.
    rng = np.random.default_rng(5)
    fold_both(STREAMS[stream](rng, 100, 16384 + 3), 25)


def test_continuous_stream_never_falls_back(count_fallbacks):
    rng = np.random.default_rng(11)
    state = ClusterSet.empty()
    for t, v in enumerate(continuous(rng, 225, 256)):
        state = single_step_merge(state, v, t, 25)
    assert count_fallbacks["n"] == 0


def test_planted_ties_fall_back_to_the_same_numbers(count_fallbacks):
    rng = np.random.default_rng(3)
    fold_both(quantised_with_ties(rng, 120, 6), 25)
    assert count_fallbacks["n"] >= 1


def assignments(d, scale):
    """Every assignment of inputs to nearest outputs, ties within rounding included."""
    near = d <= d.min(axis=1, keepdims=True) + 1e-9 * scale
    choices = [np.flatnonzero(row) for row in near]
    if np.prod([len(c) for c in choices]) > 256:
        pytest.fail("too many near-ties to enumerate")
    return (np.array(a) for a in itertools.product(*choices))


# The quantised stream is left out: its exact ties admit too many nearest
# assignments to enumerate; the reference test covers its tie rules.
@pytest.mark.parametrize("stream", ["continuous", "recurring"])
@pytest.mark.parametrize("k", [2, 3, 25])
def test_converged_output_is_a_lloyd_fixed_point(stream, k):
    rng = np.random.default_rng([7, k])
    dim = 12
    state = ClusterSet.empty()
    checked = 0
    for t, v in enumerate(STREAMS[stream](rng, 60 + 2 * k, dim)):
        inputs = np.vstack([state.vectors.reshape(-1, dim), v])
        weights = np.append(state.weights, 1.0)
        newest = np.append(state.newest, t)
        full = state.count == k
        state = single_step_merge(state, v, t, k)
        if not (full and state.converged):
            continue
        checked += 1
        d = ((inputs[:, None, :] - state.vectors[None]) ** 2).sum(axis=2)
        scale = float((inputs ** 2).sum(axis=1).max()) + 1.0
        for assign in assignments(d, scale):
            got_w = np.array([weights[assign == c].sum() for c in range(k)])
            got_n = np.array([newest[assign == c].max(initial=-1) for c in range(k)])
            if np.array_equal(got_w, state.weights) and np.array_equal(got_n, state.newest):
                break
        else:
            pytest.fail(f"frame {t}: no nearest-centroid assignment gives the output clusters")
        for c in range(k):
            members = assign == c
            if members.sum() > 1:
                mean = np.average(inputs[members], axis=0, weights=weights[members])
                np.testing.assert_allclose(state.vectors[c], mean, rtol=1e-12,
                                           atol=1e-12 * np.sqrt(scale))
    assert checked > 20


# -- retrieval ---------------------------------------------------------------

def identical(rng, n, dim):
    """One frame, repeated: every key ties with every other."""
    frame = 60.0 + 0.1 * rng.normal(size=dim)
    return [frame.copy() for _ in range(n)]


WRITE_STREAMS = dict(STREAMS, identical=identical)


def retrieval_config(rng, n_ret, d):
    """Frames of side 2 keyed unpooled (p_tem = 2), so a key is its frame."""
    n_buff = int(rng.choice([5, 6, 7, 9, 10, 11, 13]))  # not multiples of 4
    return MemoryConfig(p_spa=2, p_tem=2, p_abs=1, n_buff=n_buff, n_spa=1,
                        n_tem=int(rng.integers(n_ret, 7)), n_abs=2, n_ret=n_ret, dim=d)


def written(cfg, frames):
    """Write frames through write_frame, checking retrieval against the
    reference after every write; yields each version."""
    mem = StarMemory.new(cfg)
    for t, v in enumerate(frames):
        values = v.reshape(2, 2, cfg.dim).astype(np.float32)
        mem = write_frame(mem, FeatureMap(t, float(t), 2, cfg.dim, values))
        want = reference.retrieve(mem.buffer, mem.temporal, cfg.n_ret)
        got = [(r.frame.frame_index, r.cluster_rank, r.cluster_index) for r in mem.retrieved]
        assert got == [w[:3] for w in want], f"write {t}"
        for r, w in zip(mem.retrieved, want):
            x = mem.temporal.vectors[r.cluster_index]
            k = r.frame.values.reshape(-1).astype(np.float64)
            assert abs(r.distance - w[3]) <= 1e-12 * (np.dot(x, x) + np.dot(k, k)), f"write {t}"
        yield mem


def write_both(cfg, frames):
    for _ in written(cfg, frames):
        pass


@pytest.fixture
def count_full_passes(monkeypatch):
    """Count calls of retrieval's full pass; returns the live counter."""
    calls = {"n": 0}
    full = memory._full_pass_picks

    def counting(*args):
        calls["n"] += 1
        return full(*args)

    monkeypatch.setattr(memory, "_full_pass_picks", counting)
    return calls


@pytest.mark.parametrize("stream", sorted(WRITE_STREAMS))
@pytest.mark.parametrize("n_ret", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_retrieval_equal_to_reference(stream, n_ret, seed):
    rng = np.random.default_rng([seed, n_ret, 17])
    cfg = retrieval_config(rng, n_ret, int(rng.integers(1, 9)))
    frames = WRITE_STREAMS[stream](rng, 4 * cfg.n_buff + 3, 4 * cfg.dim)
    write_both(cfg, frames)


@pytest.mark.slow
@pytest.mark.parametrize("stream", sorted(WRITE_STREAMS))
def test_retrieval_equal_to_reference_long_rows(stream):
    # Keys of 8196 floats: longer than 8192, where numpy's einsum sums a
    # lone row in a different order from the same row inside a matrix.
    rng = np.random.default_rng(9)
    cfg = retrieval_config(rng, 3, 2049)
    write_both(cfg, WRITE_STREAMS[stream](rng, 4 * cfg.n_buff + 3, 4 * cfg.dim))


def test_retrieval_on_a_continuous_stream_never_falls_back(count_full_passes):
    # A centroid of two frames lies at their exact midpoint, so the two tie
    # in exact arithmetic, and deciding between them takes the full pass's
    # rounding. Any other fallback on this stream means the slack is loose.
    checked = 0
    for seed in range(3):
        rng = np.random.default_rng([seed, 23])
        cfg = retrieval_config(rng, 3, 64)
        before = count_full_passes["n"]
        for mem in written(cfg, continuous(rng, 6 * cfg.n_buff, 4 * cfg.dim)):
            fell_back, before = count_full_passes["n"] > before, count_full_passes["n"]
            weights = [mem.temporal.weights[r.cluster_index] for r in mem.retrieved]
            if 2.0 not in weights:
                assert not fell_back, f"write {mem.epoch - 1}"
                checked += 1
    assert checked >= 100


def test_retrieval_ties_fall_back_to_the_same_picks(count_full_passes):
    rng = np.random.default_rng(4)
    cfg = retrieval_config(rng, 3, 2)
    write_both(cfg, quantised_with_ties(rng, 4 * cfg.n_buff + 3, 4 * cfg.dim))
    assert count_full_passes["n"] >= 1
