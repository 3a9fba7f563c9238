import numpy as np
import pytest

from starmem import (
    EmptyMemoryError,
    FrameOrderError,
    MemoryConfig,
    StaleVersionError,
    StarMemory,
    avg_pool,
    flatten,
    retrieve_update,
    snapshot,
    token_count,
    write_frame,
)
from starmem.features import pairwise_sq_dists
from starmem.fileio import write_snapshot

from conftest import make_frame, small_config


def run_stream(config, frames):
    mem = StarMemory.new(config)
    for f in frames:
        mem = write_frame(mem, f)
    return mem


class TestFirstFrame:
    def test_single_element_stores(self, rng):
        cfg = small_config()
        mem = write_frame(StarMemory.new(cfg), make_frame(0, side=8, dim=3, rng=rng))
        assert mem.epoch == 1
        assert len(mem.buffer) == 1
        assert mem.spatial == mem.buffer.entries[:1]
        assert mem.temporal.count == 1
        assert mem.temporal.total_weight == 1.0
        assert mem.abstract is not None
        assert mem.abstract.total_mass == pytest.approx(cfg.n_abs + 1, abs=1e-9)
        assert len(mem.retrieved) == 1
        assert mem.retrieved[0].frame.frame_index == 0

    def test_epoch1_token_count_default_config(self, rng):
        cfg = MemoryConfig(dim=2)
        mem = write_frame(StarMemory.new(cfg), make_frame(0, side=8, dim=2, rng=rng))
        # 1 spatial frame + 1 temporal cluster + seeded abstract + 1 retrieved
        assert token_count(mem) == 64 + 16 + 25 + 64
        assert snapshot(mem).token_count == 169

    def test_empty_memory(self):
        mem = StarMemory.new(small_config())
        assert token_count(mem) == 0
        with pytest.raises(EmptyMemoryError):
            snapshot(mem)


class TestWriteFrame:
    def test_out_of_order_rejected(self, rng):
        mem = run_stream(small_config(), [make_frame(5, dim=3, rng=rng)])
        with pytest.raises(FrameOrderError):
            write_frame(mem, make_frame(5, dim=3, rng=rng))
        with pytest.raises(FrameOrderError):
            write_frame(mem, make_frame(3, dim=3, rng=rng))

    def test_equal_timestamp_rejected(self, rng):
        mem = run_stream(small_config(), [make_frame(5, dim=3, rng=rng)])
        with pytest.raises(FrameOrderError):
            write_frame(mem, make_frame(6, dim=3, rng=rng, timestamp=5.0))

    def test_dim_mismatch_rejected(self, rng):
        mem = StarMemory.new(small_config(dim=3))
        with pytest.raises(ValueError):
            write_frame(mem, make_frame(0, dim=5, rng=rng))

    def test_side_too_small_rejected(self, rng):
        mem = StarMemory.new(small_config(p_spa=8, p_tem=4))
        with pytest.raises(ValueError):
            write_frame(mem, make_frame(0, side=4, dim=3, rng=rng))

    @pytest.mark.parametrize("kwargs, side", [
        (dict(p_spa=8, p_tem=4, p_abs=1), 12),      # the default sides; 8 fails
        (dict(p_spa=4, p_tem=3, p_abs=1), 8),       # only p_tem fails
        (dict(p_spa=3, p_tem=3, p_abs=2), 9),       # only p_abs fails
    ], ids=["p_spa", "p_tem", "p_abs"])
    def test_indivisible_side_rejected(self, rng, kwargs, side):
        mem = StarMemory.new(small_config(**kwargs))
        with pytest.raises(ValueError, match="not a multiple"):
            write_frame(mem, make_frame(0, side=side, dim=3, rng=rng))
        assert mem.epoch == 0 and len(mem.buffer) == 0

    def test_rejected_frames_leave_no_trace(self, rng, tmp_path):
        # The bad frames arrive after the ring has wrapped once; the run
        # wraps the 10-slot ring four times in all.
        cfg = small_config()
        frames = [make_frame(i, dim=3, rng=rng) for i in range(40)]
        bad = [
            make_frame(14, dim=3, rng=rng),          # order: repeats frame 14
            make_frame(15, dim=5, rng=rng),          # dim
            make_frame(15, side=2, dim=3, rng=rng),  # side below p_spa
            make_frame(15, side=6, dim=3, rng=rng),  # side not a multiple of p_spa
        ]
        mem = run_stream(cfg, frames[:15])
        for f in bad:
            with pytest.raises(ValueError):
                write_frame(mem, f)
            assert mem.epoch == 15 and mem.buffer.ring.tip == 15
        for f in frames[15:]:
            mem = write_frame(mem, f)
        write_snapshot(tmp_path / "dirty.bin", snapshot(mem))
        write_snapshot(tmp_path / "clean.bin", snapshot(run_stream(cfg, frames)))
        for suffix in ("", ".json"):
            dirty = (tmp_path / f"dirty.bin{suffix}").read_bytes()
            assert dirty == (tmp_path / f"clean.bin{suffix}").read_bytes()

    def test_superseded_version_rejected(self, rng, tmp_path):
        cfg = small_config()
        frames = [make_frame(i, dim=3, rng=rng) for i in range(25)]
        old = run_stream(cfg, frames[:12])
        tip = write_frame(old, frames[12])
        with pytest.raises(StaleVersionError):
            write_frame(old, make_frame(13, dim=3, rng=rng))
        with pytest.raises(StaleVersionError):
            retrieve_update(old.buffer, old.temporal, cfg.n_ret)
        for f in frames[13:]:
            tip = write_frame(tip, f)
        write_snapshot(tmp_path / "tip.bin", snapshot(tip))
        write_snapshot(tmp_path / "clean.bin", snapshot(run_stream(cfg, frames)))
        for suffix in ("", ".json"):
            got = (tmp_path / f"tip.bin{suffix}").read_bytes()
            assert got == (tmp_path / f"clean.bin{suffix}").read_bytes()

    def test_identical_frames_fill_buffer_and_conserve_weight(self):
        cfg = MemoryConfig(dim=2, n_buff=40)
        vals = np.full((8, 8, 2), 1.5, dtype=np.float32)
        frames = [make_frame(i, side=8, dim=2, values=vals) for i in range(60)]
        mem = run_stream(cfg, frames)
        assert len(mem.buffer) == 40
        assert mem.temporal.total_weight == 60.0
        # all centroids collapse onto the single observed vector
        assert np.all(mem.temporal.vectors == mem.temporal.vectors[0])

    def test_fifo_indices(self, rng):
        cfg = small_config()
        mem = run_stream(cfg, [make_frame(i, dim=3, rng=rng) for i in range(25)])
        got = [f.frame_index for f in mem.buffer.entries]
        assert got == list(range(24, 14, -1))
        assert mem.spatial == mem.buffer.entries[: cfg.n_spa]

    def test_temporal_mass_equals_epoch(self, rng):
        cfg = small_config()
        mem = StarMemory.new(cfg)
        for i in range(50):
            mem = write_frame(mem, make_frame(i, dim=3, rng=rng))
            assert mem.temporal.total_weight == float(mem.epoch)

    def test_budget_bound_and_saturation(self, rng):
        cfg = small_config()
        mem = StarMemory.new(cfg)
        fill = max(cfg.n_spa + cfg.n_ret, cfg.n_tem, cfg.n_abs)
        for i in range(30):
            mem = write_frame(mem, make_frame(i, dim=3, rng=rng))
            assert token_count(mem) <= cfg.max_size
            if mem.epoch >= fill:
                assert token_count(mem) == cfg.max_size


class TestRetrieval:
    def test_singleton_clusters_pull_their_own_frames(self, rng):
        cfg = small_config(n_tem=6, n_ret=2)
        frames = [make_frame(i, dim=3, rng=rng) for i in range(4)]
        mem = run_stream(cfg, frames)
        # under capacity: every cluster is a singleton of one buffer frame
        assert mem.temporal.count == 4
        for r in mem.retrieved:
            assert r.distance == pytest.approx(0.0, abs=1e-9)
            assert int(mem.temporal.newest[r.cluster_index]) == r.frame.frame_index

    def test_equal_weights_tie_breaks_to_lowest_newest(self, rng):
        cfg = small_config(n_tem=6, n_ret=3)
        mem = run_stream(cfg, [make_frame(i, dim=3, rng=rng) for i in range(5)])
        selected = sorted(
            int(mem.temporal.newest[i]) for i in
            set(r.cluster_index for r in mem.retrieved)
        )
        assert selected == [0, 1, 2]

    def test_distance_ties_go_to_newest_frames(self):
        # Identical frames: every key is at distance exactly 0 from every
        # centroid, so each rank takes the newest frame not yet retrieved.
        cfg = small_config(n_tem=4, n_ret=3)
        vals = np.full((8, 8, 3), 1.5, dtype=np.float32)
        mem = run_stream(cfg, [make_frame(i, dim=3, values=vals) for i in range(20)])
        assert [r.frame.frame_index for r in mem.retrieved] == [19, 18, 17]
        assert [r.cluster_rank for r in mem.retrieved] == [0, 1, 2]
        assert all(r.distance == 0.0 for r in mem.retrieved)

    @pytest.mark.parametrize("seed", range(12))
    def test_ring_matches_stacked_reference(self, seed):
        # Reference: the keys stacked newest first, as a list of arrays,
        # through pairwise_sq_dists and the same argmin loop. The ring
        # computes the same formula from cached norms in slot order, so the
        # two need not agree bitwise: OpenBLAS rounds a product differently
        # depending on its column position when the row count is not a
        # multiple of its tile (X @ K.T was invariant under a row
        # permutation at 300 rows but not at 7 or 29). A pick may therefore
        # differ only where the reference's best and runner-up distances lie
        # within 1e-12 * (|x|^2 + |k|^2), the size of the terms that cancel.
        rng = np.random.default_rng(seed)
        n_buff = [7, 29][seed % 2] if seed < 8 else int(rng.integers(2, 40))
        p_spa, p_tem = [(4, 2), (4, 4), (2, 1)][seed % 3]
        n_tem = int(rng.integers(1, 8))
        cfg = MemoryConfig(p_spa=p_spa, p_tem=p_tem, p_abs=1, n_buff=n_buff,
                           n_spa=1, n_tem=n_tem, n_abs=2,
                           n_ret=int(rng.integers(1, min(n_tem, n_buff) + 1)),
                           dim=int(rng.integers(2, 6)))
        # Quantised streams put many keys at exactly equal distances.
        quantised = seed % 4 >= 2
        mem, keys, compared, ties = StarMemory.new(cfg), [], 0, 0
        for i in range(3 * n_buff + 10):
            shape = (p_spa, p_spa, cfg.dim)
            if quantised:
                values = rng.integers(-1, 2, size=shape)
            else:
                values = rng.normal(size=shape) + 3.0 * (i // 15 % 3)
            frame = make_frame(i, side=p_spa, dim=cfg.dim, values=values)
            mem = write_frame(mem, frame)
            keys = [flatten(avg_pool(frame, p_tem))] + keys[: n_buff - 1]

            k = np.stack(keys)
            order = np.argsort(-mem.temporal.weights, kind="stable")
            x = mem.temporal.vectors[order[: len(mem.retrieved)]]
            d2 = pairwise_sq_dists(x, k)
            scale = np.einsum("ij,ij->i", x, x)[:, None] + np.einsum("ij,ij->i", k, k)
            for rank, got in enumerate(mem.retrieved):
                assert (got.cluster_rank, got.cluster_index) == (rank, int(order[rank]))
                row = d2[rank]
                pos = int(row.argmin())
                tol = 1e-12 * scale[rank, pos]
                if got.frame is not mem.buffer.entries[pos]:
                    runner_up = np.partition(row, 1)[1]
                    assert runner_up - row[pos] <= tol
                    break  # later ranks depend on which frame this one took
                assert abs(got.distance - row[pos]) <= tol
                compared += 1
                ties += int(np.sum(row == row[pos]) > 1)
                d2[:, pos] = np.inf
        assert compared >= 3 * n_buff
        if quantised:
            assert ties > 0

    def test_retrieved_frames_exist_in_buffer(self, rng):
        cfg = small_config(n_buff=6)
        mem = StarMemory.new(cfg)
        for i in range(30):
            mem = write_frame(mem, make_frame(i, dim=3, rng=rng))
            live = {f.frame_index for f in mem.buffer.entries}
            for r in mem.retrieved:
                assert r.frame.frame_index in live

    def test_retrieved_frames_distinct(self, rng):
        cfg = small_config()
        mem = run_stream(cfg, [make_frame(i, dim=3, rng=rng) for i in range(20)])
        idx = [r.frame.frame_index for r in mem.retrieved]
        assert len(idx) == len(set(idx)) == cfg.n_ret

    def test_empty_buffer_rejected(self):
        mem = StarMemory.new(small_config())
        with pytest.raises(ValueError):
            retrieve_update(mem.buffer, mem.temporal, 2)


class TestSnapshot:
    def test_deterministic_at_same_epoch(self, rng):
        mem = run_stream(small_config(), [make_frame(i, dim=3, rng=rng) for i in range(12)])
        a, b = snapshot(mem), snapshot(mem)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert a.store_epochs == b.store_epochs == (12, 12, 12, 12)

    def test_token_order_and_counts(self, rng):
        cfg = small_config()
        mem = run_stream(cfg, [make_frame(i, dim=3, rng=rng) for i in range(15)])
        s = snapshot(mem)
        assert len(s.spatial) == cfg.n_spa * cfg.p_spa ** 2
        assert len(s.temporal) == mem.temporal.count * cfg.p_tem ** 2
        assert len(s.abstract) == cfg.n_abs * cfg.p_abs ** 2
        assert len(s.retrieved) == len(mem.retrieved) * cfg.p_spa ** 2
        assert s.matrix.shape == (s.token_count, cfg.dim)
        assert s.token_count == token_count(mem)

    def test_identical_streams_bit_identical(self):
        cfg = small_config()
        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        m1 = run_stream(cfg, [make_frame(i, dim=3, rng=rng1) for i in range(20)])
        m2 = run_stream(cfg, [make_frame(i, dim=3, rng=rng2) for i in range(20)])
        np.testing.assert_array_equal(snapshot(m1).matrix, snapshot(m2).matrix)
