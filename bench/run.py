"""Run one starmem benchmark workload and print its result.

    python3 bench/run.py --workload steady_d1024 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` makes a separate traced run and prints the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (sample counts, failures, digests, environment).
``--smoke`` swaps in a tiny config for a fast check of every path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

# BLAS is pinned to one thread before numpy loads, so a run uses at most two
# threads (writer and reader).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("steady_d1024", "readers_d1024", "stream_d64")


def environment() -> dict:
    """Machine and software the numbers were measured on."""
    import platform

    import numpy as np

    def first(path: str, key: str) -> str:
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[-1].strip()
        except OSError:
            pass
        return "unknown"

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "process_threads": first("/proc/self/status", "Threads"),
        "gil_switch_interval_s": sys.getswitchinterval(),
        "thp_enabled": first("/sys/kernel/mm/transparent_hugepage/enabled", ""),
        "numpy_madvise_hugepage_env": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "platform": platform.platform(),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny config, every path")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "starmem" / "__init__.py").is_file():
        print(f"error: no starmem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import starmem
    if Path(starmem.__file__).resolve().parent != ROOT / "src" / "starmem":
        print(f"error: imported starmem from {starmem.__file__}", file=sys.stderr)
        return 2
    import workloads as w

    env = environment()
    wl = w.workloads(ROOT, args.smoke)[args.workload]
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        run, checks, tracer = w.run_workload(wl, args.seed, args.seconds,
                                             bool(args.trace), Path(tmp))
    metrics = w.per_layer(run, tracer) if args.trace else w.end_to_end(run)

    error_rate = checks.failed / max(checks.attempted, 1)
    rows = [*metrics.items(), ("error_rate", (error_rate, "ratio", checks.attempted))]
    for name, (value, unit, n) in rows:
        print(f"{wl.name:14s} {name:38s} {value:14.6g} {unit:6s} n={n}")
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "samples": {name: n for name, (_, _, n) in metrics.items()},
        "error_rate": error_rate,
        "failures": checks.failures,
        "digest": run.steady_digest,
        "setup_digests": sorted(set(run.digests)),
        "setup_runs_s": run.setup_s,
        "event_coverage": run.event_coverage,
        "env": env,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
