"""Run every workload, untraced and traced, and print all metrics.

    python3 bench/report.py --seed 1 --seconds 10
    python3 bench/report.py --smoke --seconds 0.5

Each workload runs in its own process through run.py, first with tracing
off (end-to-end metrics), then traced (per-layer metrics). The final
snapshot digest of the two runs must match, since tracing only wraps calls.
Exits 1 if any run fails, reports an error or disagrees on its digest.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().with_name("run.py")


def run_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    ok = True
    env = None
    print(f"{'workload':14s} {'pass':5s} {'metric':38s} {'value':>14s} {'unit':6s} samples")
    for workload in WORKLOADS:
        digests = []
        for trace in (0, 1):
            got = run_one(workload, args.seed, args.seconds, trace, args.smoke)
            if got is None:
                print(f"{workload:14s} run failed (trace={trace})")
                ok = False
                continue
            detail, result = got
            env = detail["env"]
            digests.append(detail["digest"])
            label = "trace" if trace else "e2e"
            for name, m in result["metrics"].items():
                print(f"{workload:14s} {label:5s} {name:38s} {m['value']:14.6g} "
                      f"{m['unit']:6s} {detail['samples'][name]}")
            print(f"{workload:14s} {label:5s} {'error_rate':38s} {detail['error_rate']:14.6g} "
                  f"{'ratio':6s} {result['attempted']}")
            if not result["correct"]:
                print(f"{workload:14s} {label:5s} failures: {detail['failures']}")
                ok = False
        same = len(digests) == 2 and digests[0] == digests[1]
        print(f"{workload:14s} digest {digests[0] if digests else None} "
              f"{'same in both runs' if same else 'DIFFERS between runs'}")
        ok = ok and same
    print("env " + json.dumps(env, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
