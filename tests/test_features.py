import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starmem import (ConfigError, FeatureMap, FrameOrderError, MemoryConfig, StarMemory,
                     avg_pool, flatten, unflatten, write_frame)
from starmem.cli import main
from starmem.features import pairwise_sq_dists
from starmem.fileio import write_stream_file
from starmem.runtime import StreamSource

from conftest import make_frame, small_config


class TestFeatureMap:
    def test_shape_validated(self):
        with pytest.raises(ValueError):
            FeatureMap(0, 0.0, 2, 3, np.zeros((2, 2, 2)))

    def test_rejects_nan_and_inf(self):
        bad = np.zeros((2, 2, 1))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            FeatureMap(0, 0.0, 2, 1, bad)
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            FeatureMap(0, 0.0, 2, 1, bad)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            FeatureMap(-1, 0.0, 1, 1, np.zeros((1, 1, 1)))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_timestamp(self, t):
        with pytest.raises(ValueError, match="finite"):
            FeatureMap(0, t, 1, 1, np.zeros((1, 1, 1)))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, bool])
    def test_rejects_non_float_values(self, dtype):
        # avg_pool casts back to the input dtype: [[1], [2]] would pool to 1.
        with pytest.raises(ValueError, match="floating"):
            FeatureMap(0, 0.0, 2, 1, np.array([1, 2, 1, 2]).astype(dtype).reshape(2, 2, 1))

    def test_nan_timestamp_cannot_reverse_time(self):
        mem = write_frame(StarMemory.new(small_config()), make_frame(0, dim=3, timestamp=5.0))
        with pytest.raises(ValueError, match="finite"):
            write_frame(mem, make_frame(1, dim=3, timestamp=math.nan))
        assert mem.epoch == 1 and mem.buffer.ring.tip == 1
        with pytest.raises(FrameOrderError):
            write_frame(mem, make_frame(2, dim=3, timestamp=1.0))

    def test_run_rejects_a_stream_file_with_a_nan_timestamp(self, tmp_path):
        frames = [make_frame(i, side=4, dim=4) for i in range(3)]
        path = tmp_path / "s.fvsf"
        write_stream_file(path, StreamSource(frames=frames, fps=1.0))
        raw = bytearray(path.read_bytes())
        record = 16 + 4 * 4 * 4 * 4
        struct.pack_into("<d", raw, 32 + record + 8, math.nan)  # frame 1's timestamp
        path.write_bytes(raw)
        config = tmp_path / "c.json"
        config.write_text('{"p_spa": 4, "p_tem": 2, "p_abs": 1, "n_buff": 4, "n_spa": 1, '
                          '"n_tem": 2, "n_abs": 2, "n_ret": 1, "dim": 4}')
        assert main(["run", "--config", str(config), "--input", str(path),
                     "--output", str(tmp_path / "out")]) == 2


class TestAvgPool:
    def test_constant_map_stays_constant(self):
        e = make_frame(0, side=8, dim=2, values=np.full((8, 8, 2), 3.5))
        out = avg_pool(e, 4)
        assert out.side == 4 and out.dim == 2
        assert np.allclose(out.values, 3.5)

    def test_2x2_to_single_cell(self):
        e = make_frame(0, side=2, dim=1, values=[1.0, 2.0, 3.0, 4.0])
        out = avg_pool(e, 1)
        assert out.values.reshape(-1)[0] == pytest.approx(2.5)

    def test_composition_matches_direct(self, rng):
        # 24 -> 8 -> 4 equals 24 -> 4: a mean of means over nested bins.
        e = make_frame(0, side=24, dim=3, rng=rng)
        via8 = avg_pool(avg_pool(e, 8), 4)
        direct = avg_pool(e, 4)
        np.testing.assert_allclose(via8.values, direct.values, atol=1e-6)

    def test_identity_at_same_side(self, rng):
        e = make_frame(0, side=4, dim=2, rng=rng)
        assert avg_pool(e, 4) is e

    def test_preserves_metadata(self, rng):
        e = make_frame(7, side=8, dim=1, rng=rng, timestamp=3.25)
        out = avg_pool(e, 2)
        assert out.frame_index == 7 and out.timestamp_s == 3.25

    def test_strict_mode_rejects_non_divisible(self, rng):
        e = make_frame(0, side=6, dim=1, rng=rng)
        with pytest.raises(ConfigError):
            avg_pool(e, 4)

    def test_upsampling_rejected(self, rng):
        e = make_frame(0, side=4, dim=1, rng=rng)
        with pytest.raises(ConfigError):
            avg_pool(e, 8)

    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([(8, 4), (8, 2), (12, 3), (6, 1)]))
    @settings(max_examples=30, deadline=None)
    def test_global_channel_mean_preserved(self, seed, sides):
        side, target = sides
        rng = np.random.default_rng(seed)
        e = make_frame(0, side=side, dim=2, rng=rng)
        out = avg_pool(e, target)
        before = e.values.astype(np.float64).mean(axis=(0, 1))
        after = out.values.astype(np.float64).mean(axis=(0, 1))
        # atol floor: stored cells are float32, and unit-scale data can have
        # channel means arbitrarily close to zero
        scale = np.abs(e.values).max()
        np.testing.assert_allclose(after, before, rtol=1e-6, atol=1e-6 * scale)


class TestFlatten:
    def test_1x1_identity_layout(self):
        e = make_frame(0, side=1, dim=3, values=[1.0, 2.0, 3.0])
        np.testing.assert_array_equal(flatten(e), [1.0, 2.0, 3.0])

    def test_round_trip(self, rng):
        e = make_frame(3, side=4, dim=8, rng=rng, timestamp=1.5)
        back = unflatten(flatten(e), 4, 8, frame_index=3, timestamp_s=1.5)
        np.testing.assert_array_equal(back.values, e.values.astype(np.float64))

    def test_deterministic(self, rng):
        v = rng.normal(size=(4, 4, 2)).astype(np.float32)
        a = make_frame(0, side=4, dim=2, values=v)
        b = make_frame(0, side=4, dim=2, values=v.copy())
        np.testing.assert_array_equal(flatten(a), flatten(b))

    def test_unflatten_length_check(self):
        with pytest.raises(ValueError):
            unflatten(np.zeros(5), 2, 2)


class TestDistance:
    """pairwise_sq_dists, the distance kernel of every store."""

    def test_identity(self):
        x = np.array([[1.0, -2.0, 3.0]])
        assert pairwise_sq_dists(x, x)[0, 0] == 0.0

    def test_3_4_5(self):
        d2 = pairwise_sq_dists([[0.0, 0.0]], [[3.0, 4.0], [0.0, 0.0]])
        np.testing.assert_allclose(d2, [[25.0, 0.0]], rtol=1e-12)

    def test_matches_direct_summation(self, rng):
        a = rng.normal(size=(5, 32))
        b = rng.normal(size=(7, 32))
        expected = [[sum((x - y) ** 2 for x, y in zip(u, v)) for v in b] for u in a]
        np.testing.assert_allclose(pairwise_sq_dists(a, b), expected, rtol=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pairwise_sq_dists([[1.0]], [[1.0, 2.0]])

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=16),
        st.integers(0, 2 ** 31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_nonnegative(self, xs, seed):
        a = np.array(xs)
        rows = np.random.default_rng(seed).uniform(-1e6, 1e6, size=(3, len(xs)))
        x = np.vstack([a, rows])
        d2 = pairwise_sq_dists(x, x)
        assert (d2 >= 0.0).all()
        np.testing.assert_array_equal(d2, d2.T)


class TestMemoryConfig:
    def test_default_budget_is_681(self):
        assert MemoryConfig().max_size == 681

    def test_budget_formula(self):
        cfg = MemoryConfig(p_spa=4, p_tem=2, p_abs=1, n_buff=20,
                           n_spa=2, n_tem=5, n_abs=3, n_ret=2, dim=8)
        assert cfg.max_size == (2 + 2) * 16 + 5 * 4 + 3 * 1

    @pytest.mark.parametrize("kwargs", [
        dict(n_spa=21, n_buff=20),
        dict(n_ret=30, n_buff=20),
        dict(n_ret=10, n_tem=5),
        dict(p_abs=8, p_tem=4),
        dict(p_tem=16, p_spa=8),
        dict(dim=0),
        dict(n_buff=-1),
        pytest.param(dict(dim="abc"), id="dim_str"),
        pytest.param(dict(n_abs=2.0), id="n_abs_float"),
        pytest.param(dict(n_spa=True), id="n_spa_bool"),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            MemoryConfig(**kwargs)
