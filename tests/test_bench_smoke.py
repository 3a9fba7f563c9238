"""The benchmark's smoke run, so a library change that breaks a bench patch
point or a bench correctness check fails the test suite."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_bench_report_smoke():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "report.py"), "--smoke", "--seconds", "0.5"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
