import json
from pathlib import Path

import numpy as np
import pytest

from starmem import MemoryConfig, StarMemory, snapshot, write_frame
from starmem.fileio import (
    FormatError,
    load_event_script,
    load_run_config,
    read_snapshot,
    read_stream_file,
    window_from_run_options,
    write_snapshot,
    write_stream_file,
)
from starmem.runtime import StreamSource
from starmem.synth import WindowSpec, generate_stream

from conftest import make_frame, small_config

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


def make_source(n, side=4, dim=3):
    rng = np.random.default_rng(9)
    frames = [make_frame(i, side=side, dim=dim, rng=rng, timestamp=i / 2.0) for i in range(n)]
    return StreamSource(frames=frames, fps=2.0)


class TestStreamFile:
    def test_round_trip(self, tmp_path):
        src = make_source(12)
        path = tmp_path / "s.fvsf"
        assert write_stream_file(path, src) == 12
        back = read_stream_file(path)
        assert back.fps == 2.0
        for a, b in zip(src, back):
            assert a.frame_index == b.frame_index
            assert a.timestamp_s == b.timestamp_s
            np.testing.assert_array_equal(a.values, b.values)

    def test_write_read_write_byte_identical(self, tmp_path):
        src = make_source(8)
        p1, p2 = tmp_path / "a.fvsf", tmp_path / "b.fvsf"
        write_stream_file(p1, src)
        write_stream_file(p2, read_stream_file(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_body_size_arithmetic(self, tmp_path):
        side, dim, n = 4, 3, 7
        path = tmp_path / "s.fvsf"
        write_stream_file(path, make_source(n, side=side, dim=dim))
        assert path.stat().st_size == 32 + n * (8 + 8 + 4 * side * side * dim)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "s.fvsf"
        write_stream_file(path, make_source(3))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(raw)
        with pytest.raises(FormatError):
            read_stream_file(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "s.fvsf"
        write_stream_file(path, make_source(3))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            read_stream_file(path)

    def test_non_increasing_timestamps(self, tmp_path):
        frames = [make_frame(i, side=4, dim=3, timestamp=t)
                  for i, t in enumerate([0.0, 1.0, 1.0])]
        path = tmp_path / "s.fvsf"
        write_stream_file(path, StreamSource(frames=frames, fps=1.0))
        with pytest.raises(FormatError):
            read_stream_file(path)


class TestSnapshotFile:
    def _snap(self):
        cfg = small_config()
        mem = StarMemory.new(cfg)
        rng = np.random.default_rng(4)
        for i in range(15):
            mem = write_frame(mem, make_frame(i, dim=3, rng=rng))
        return snapshot(mem)

    def test_round_trip(self, tmp_path):
        snap = self._snap()
        path = tmp_path / "snap.bin"
        write_snapshot(path, snap)
        back = read_snapshot(path)
        assert back.epoch == snap.epoch
        assert back.store_epochs == snap.store_epochs
        np.testing.assert_array_equal(back.matrix, snap.matrix.astype(np.float32))
        np.testing.assert_array_equal(back.temporal_weights, snap.temporal_weights)
        assert back.retrieved_frame_indices == snap.retrieved_frame_indices
        assert back.retrieved_cluster_indices == snap.retrieved_cluster_indices

    def test_rewrite_byte_identical(self, tmp_path):
        snap = self._snap()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_snapshot(p1, snap)
        write_snapshot(p2, read_snapshot(p1))
        assert p1.read_bytes() == p2.read_bytes()
        assert Path(str(p1) + ".json").read_bytes() == Path(str(p2) + ".json").read_bytes()

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "snap.bin"
        write_snapshot(path, self._snap())
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(raw)
        with pytest.raises(FormatError):
            read_snapshot(path)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "snap.bin"
        write_snapshot(path, self._snap())
        Path(str(path) + ".json").unlink()
        with pytest.raises(FormatError):
            read_snapshot(path)

    @pytest.mark.parametrize("spoil", [
        # A sidecar written before MemoryConfig lost its distance field.
        lambda meta: meta["config"].update(distance="sqeuclidean"),
        lambda meta: meta.pop("store_counts"),
        # Every store of a snapshot is at the snapshot's epoch.
        lambda meta: meta.update(store_epochs=[meta["epoch"] - 1] + [meta["epoch"]] * 3),
    ], ids=["unknown_config_key", "no_store_counts", "torn_store_epochs"])
    def test_bad_sidecar(self, tmp_path, spoil):
        path = tmp_path / "snap.bin"
        write_snapshot(path, self._snap())
        sidecar = Path(str(path) + ".json")
        meta = json.loads(sidecar.read_text())
        spoil(meta)
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(FormatError):
            read_snapshot(path)


class TestRunConfig:
    def test_load_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dim": 8, "n_tem": 5, "n_abs": 5}))
        cfg, run = load_run_config(path)
        assert cfg.dim == 8 and cfg.n_tem == 5
        assert window_from_run_options(run) == WindowSpec()

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dim": 8, "n_temp": 5}))
        with pytest.raises(FormatError):
            load_run_config(path)

    def test_invalid_values_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n_ret": 50, "n_tem": 3}))
        with pytest.raises(ValueError):
            load_run_config(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(FormatError):
            load_run_config(path)

    def test_repository_example_configs_validate(self):
        for name in ("default.json", "small.json", "breakpoint.json"):
            cfg, run = load_run_config(CONFIGS_DIR / name)
            assert cfg.max_size > 0

    def test_repository_example_script_validates(self):
        script = load_event_script(CONFIGS_DIR / "three_events.json")
        assert len(script.events) == 3
        assert script.frame_counts() == [50, 30, 20]


class TestEventScriptFile:
    def test_scalar_mean_broadcasts(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "fps": 1.0, "side": 2, "dim": 2, "seed": 0,
            "events": [{"start_s": 0, "end_s": 3, "mean": 1.5, "std": 0}],
        }))
        script = load_event_script(path)
        assert np.all(script.events[0].mean == 1.5)
        frames = list(generate_stream(script))
        assert np.all(frames[0].values == 1.5)

    def test_omitted_mean_is_seeded(self, tmp_path):
        body = {
            "fps": 1.0, "side": 2, "dim": 1, "seed": 5,
            "events": [{"start_s": 0, "end_s": 2, "std": 0}],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(body))
        a = load_event_script(path)
        b = load_event_script(path)
        np.testing.assert_array_equal(a.events[0].mean, b.events[0].mean)

    def test_seed_override(self, tmp_path):
        body = {
            "fps": 1.0, "side": 2, "dim": 1, "seed": 5,
            "events": [{"start_s": 0, "end_s": 2, "std": 0}],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(body))
        a = load_event_script(path, seed_override=6)
        assert a.seed == 6

    def test_unknown_event_keys_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "fps": 1.0, "side": 2, "dim": 1,
            "events": [{"start_s": 0, "end_s": 2, "wobble": 1}],
        }))
        with pytest.raises(FormatError):
            load_event_script(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"fps": 1.0, "side": 2, "dim": 1}))
        with pytest.raises(FormatError):
            load_event_script(path)
