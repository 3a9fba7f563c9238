import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_pairs_reports_a_failed_run(tmp_path):
    tree = tmp_path / "tree"
    (tree / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    (tree / "bench" / "run.py").write_text(
        "import sys\nprint('starting', file=sys.stderr)\n"
        "print('no workload here', file=sys.stderr)\nsys.exit(1)\n"
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--parent", str(tree),
         "--change", str(tree), "--workload", "steady_d1024", "--pairs", "1",
         "--seconds", "0.1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    failed = [line for line in proc.stdout.splitlines() if "FAILED" in line]
    assert len(failed) == 2
    for line in failed:
        assert line.endswith("FAILED: exit code 1: no workload here")


def fake_tree(path, metrics):
    """A tree whose bench/run.py prints one fixed result."""
    (path / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", path)
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {m: {"value": v} for m, v in metrics.items()}}
    (path / "bench" / "run.py").write_text(f"print({json.dumps(json.dumps(result))})\n")
    return path


def bench_pairs(parent, change):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--parent", str(parent),
         "--change", str(change), "--workload", "steady_d1024", "--pairs", "2",
         "--seconds", "0.1"],
        capture_output=True, text=True, timeout=60,
    )


BASE = {"setup_s": 2.0, "write_p50_ms": 10.0, "write_p90_ms": 12.0, "frames_per_s": 90.0,
        "snapshot_p50_ms": 0.1, "snapshot_p90_ms": 0.2, "peak_rss_mb": 200.0}


def test_bench_pairs_rejects_a_metric_worse_than_its_bound(tmp_path):
    parent = fake_tree(tmp_path / "parent", BASE)
    # Beyond the 0.25 bound: p50 up 30%, frames/s down 30%. Within it: p90
    # up 20%, RSS up 10% (bound 0.15). Better: setup.
    change = fake_tree(tmp_path / "change", dict(
        BASE, write_p50_ms=13.0, frames_per_s=63.0, write_p90_ms=14.4,
        peak_rss_mb=220.0, setup_s=1.0))
    proc = bench_pairs(parent, change)
    assert proc.returncode == 1, proc.stdout
    worse = sorted(line.split(":")[0] for line in proc.stdout.splitlines()
                   if line.startswith("WORSE"))
    assert worse == ["WORSE frames_per_s", "WORSE write_p50_ms"]


def test_bench_pairs_passes_a_change_within_its_bounds(tmp_path):
    parent = fake_tree(tmp_path / "parent", BASE)
    change = fake_tree(tmp_path / "change", dict(BASE, write_p50_ms=12.4, peak_rss_mb=229.0))
    proc = bench_pairs(parent, change)
    assert proc.returncode == 0, proc.stdout
    assert "WORSE" not in proc.stdout


def test_reader_waits_smoke():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reader_waits.py"), "--smoke",
         "--seconds", "0.5"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    stages = [line.split()[0] for line in lines[2:]]
    assert "memory.retrieve_update" in stages and "wkmeans.single_step_merge" in stages
    requests = int(lines[0].split(", ")[-1].split()[0])
    assert requests > 0
    assert sum(int(line.split()[-3]) for line in lines[2:]) == requests


def test_fallback_rates_smoke():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fallback_rates.py"), "--smoke", "--writes", "40"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].endswith("24 fill writes, 40 steady writes")
    rows = {line[:36].strip(): [int(c) for c in line[36:].split()] for line in lines[2:]}
    assert list(rows) == ["merges at capacity", "fallbacks to the full merge",
                          "uncertified Ward pick", "uncertified assignment",
                          "retrieval full passes"]
    # The tiny config keeps 6 clusters, so every write after the sixth merges.
    assert rows["merges at capacity"] == [24 - 6, 40]
    full = rows["fallbacks to the full merge"]
    for phase in (0, 1):
        assert (rows["uncertified Ward pick"][phase]
                + rows["uncertified assignment"][phase] <= full[phase])
