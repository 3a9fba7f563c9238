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
