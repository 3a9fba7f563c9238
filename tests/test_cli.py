import json
from pathlib import Path

import pytest

from starmem.cli import main

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def script_path(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps({
        "fps": 1.0, "side": 8, "dim": 4, "seed": 3,
        "events": [
            {"start_s": 0, "end_s": 30, "mean": 0.0, "std": 0.5},
            {"start_s": 30, "end_s": 50, "mean": 40.0, "std": 0.5},
        ],
    }))
    return path


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "p_spa": 4, "p_tem": 2, "p_abs": 1, "n_buff": 60,
        "n_spa": 1, "n_tem": 8, "n_abs": 6, "n_ret": 2, "dim": 4,
    }))
    return path


class TestGen:
    def test_gen_then_run_round_trip(self, tmp_path, script_path, config_path, capsys):
        stream = tmp_path / "stream.fvsf"
        assert main(["gen", str(script_path), str(stream)]) == 0
        assert "wrote 50 frames" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path),
                     "--input", str(stream), "--output", str(out)]) == 0
        assert (out / "snapshot.bin").exists()
        assert (out / "snapshot.bin.json").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "tokens_per_epoch.csv").exists()

    def test_gen_bad_script(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["gen", str(bad), str(tmp_path / "o.fvsf")]) == 2

    def test_gen_missing_file(self, tmp_path):
        assert main(["gen", str(tmp_path / "nope.json"), str(tmp_path / "o.fvsf")]) == 2


class TestRun:
    def test_run_from_script_directly(self, tmp_path, script_path, config_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path),
                     "--input", str(script_path), "--output", str(out)]) == 0
        meta = json.loads((out / "snapshot.bin.json").read_text())
        assert meta["epoch"] == 50

    def test_default_config_budget(self, tmp_path):
        script = tmp_path / "s.json"
        script.write_text(json.dumps({
            "fps": 1.0, "side": 8, "dim": 4, "seed": 1,
            "events": [{"start_s": 0, "end_s": 40, "mean": 0.0, "std": 1.0}],
        }))
        out = tmp_path / "out"
        assert main(["run", "--input", str(script), "--output", str(out)]) == 0
        rows = (out / "tokens_per_epoch.csv").read_text().strip().splitlines()
        final_tokens = int(rows[-1].split(",")[1])
        assert final_tokens == 681

    def test_breakpoint_mode_processes_window_only(self, tmp_path, config_path):
        script = tmp_path / "s.json"
        script.write_text(json.dumps({
            "fps": 1.0, "side": 8, "dim": 4, "seed": 1,
            "events": [{"start_s": 0, "end_s": 200, "mean": 0.0, "std": 1.0}],
        }))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path),
                     "--input", str(script), "--output", str(out),
                     "--mode", "breakpoint", "--breakpoint", "100"]) == 0
        meta = json.loads((out / "snapshot.bin.json").read_text())
        assert meta["epoch"] == 31

    def test_same_seed_byte_identical_snapshots(self, tmp_path, script_path, config_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert main(["run", "--config", str(config_path),
                         "--input", str(script_path), "--output", str(out),
                         "--seed", "77"]) == 0
        assert (out1 / "snapshot.bin").read_bytes() == (out2 / "snapshot.bin").read_bytes()
        assert (out1 / "snapshot.bin.json").read_bytes() == (out2 / "snapshot.bin.json").read_bytes()

    def test_metrics_summary_rows_are_labelled(self, tmp_path, script_path, config_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path),
                     "--input", str(script_path), "--output", str(out)]) == 0
        rows = [r.split(",") for r in (out / "metrics.csv").read_text().splitlines()]
        assert rows[-2][0] == "nonconverged_epochs" and int(rows[-2][1]) >= 0
        assert rows[-1][0] == "median_write_latency_s" and len(rows[-1]) == 2

    def test_malformed_config_exit_2(self, tmp_path, script_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 4, "bogus_key": 1}))
        assert main(["run", "--config", str(bad),
                     "--input", str(script_path),
                     "--output", str(tmp_path / "out")]) == 2

    def test_empty_window_exit_2(self, tmp_path, script_path, config_path):
        assert main(["run", "--config", str(config_path),
                     "--input", str(script_path),
                     "--output", str(tmp_path / "out"),
                     "--mode", "breakpoint", "--breakpoint", "9000",
                     "--half-width", "2"]) == 2

    def test_indivisible_frame_side_exit_2(self, tmp_path, script_path, config_path):
        script = json.loads(script_path.read_text())
        script["side"] = 6  # p_spa 4 does not divide it
        script_path.write_text(json.dumps(script))
        assert main(["run", "--config", str(config_path),
                     "--input", str(script_path),
                     "--output", str(tmp_path / "out")]) == 2


class TestEval:
    def test_eval_matches_in_process_result(self, tmp_path, script_path, config_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(config_path),
              "--input", str(script_path), "--output", str(out)])
        capsys.readouterr()
        assert main(["eval", str(out / "snapshot.bin"), str(script_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["event_coverage"] == 1.0
        assert report["retrieval_purity"] == 1.0
        assert report["n_events"] == 2

    def test_eval_corrupted_snapshot_exit_2(self, tmp_path, script_path, config_path):
        out = tmp_path / "out"
        main(["run", "--config", str(config_path),
              "--input", str(script_path), "--output", str(out)])
        path = out / "snapshot.bin"
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(raw)
        assert main(["eval", str(path), str(script_path)]) == 2

    def test_eval_bad_sidecar_exit_2(self, tmp_path, script_path, config_path):
        out = tmp_path / "out"
        main(["run", "--config", str(config_path),
              "--input", str(script_path), "--output", str(out)])
        sidecar = out / "snapshot.bin.json"
        meta = json.loads(sidecar.read_text())
        meta["config"]["bogus_key"] = 1
        sidecar.write_text(json.dumps(meta))
        assert main(["eval", str(out / "snapshot.bin"), str(script_path)]) == 2

    def test_eval_reads_only_the_script(self, tmp_path, script_path, config_path,
                                        monkeypatch):
        out = tmp_path / "out"
        main(["run", "--config", str(config_path),
              "--input", str(script_path), "--output", str(out)])

        def no_frames(script):
            raise AssertionError("eval synthesised the stream")
        monkeypatch.setattr("starmem.cli.generate_stream", no_frames)
        assert main(["eval", str(out / "snapshot.bin"), str(script_path)]) == 0

    def test_eval_snapshot_of_longer_stream_exit_2(self, tmp_path, script_path,
                                                   config_path):
        longer = tmp_path / "longer.json"
        longer.write_text(json.dumps({
            "fps": 1.0, "side": 8, "dim": 4, "seed": 3,
            "events": [{"start_s": 0, "end_s": 160, "mean": 0.0, "std": 0.5}],
        }))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path),
                     "--input", str(longer), "--output", str(out)]) == 0
        assert max(json.loads((out / "snapshot.bin.json").read_text())
                   ["retrieved_frame_indices"]) >= 50
        assert main(["eval", str(out / "snapshot.bin"), str(script_path)]) == 2

    @pytest.mark.parametrize("key", ["retrieved_frame_indices",
                                     "retrieved_cluster_indices"])
    @pytest.mark.parametrize("bad", [-1, 10_000])
    def test_eval_index_out_of_range_exit_2(self, tmp_path, script_path, config_path,
                                            key, bad):
        out = tmp_path / "out"
        main(["run", "--config", str(config_path),
              "--input", str(script_path), "--output", str(out)])
        sidecar = out / "snapshot.bin.json"
        meta = json.loads(sidecar.read_text())
        meta[key][0] = bad
        sidecar.write_text(json.dumps(meta))
        assert main(["eval", str(out / "snapshot.bin"), str(script_path)]) == 2

    def test_eval_missing_snapshot_exit_2(self, tmp_path, script_path):
        assert main(["eval", str(tmp_path / "nope.bin"), str(script_path)]) == 2
