"""Run one benchmark workload on two checkouts in alternating pairs.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload steady_d1024 --pairs 10 --seconds 15 [--seed 1]

Each pair runs ``bench/run.py --trace 0`` once from each tree, from the
root of that tree, one process at a time; the side that runs first
alternates from pair to pair. Prints every run's end-to-end metrics, then
per metric each side's median and quartiles and the number of pairs the
change wins (ties count for neither side), with the direction each metric
is better in taken from the parent's BENCHMARK.json. Then prints a
``WORSE`` line for each metric whose change median is worse than the
parent's by more than the metric's ``bound`` there, a fraction of the
parent's median. Exits 1 if there is such a line, or if any run fails or
reports ``failed > 0``. Reads the trees; writes nothing to them besides
what run.py itself does. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict | None, str]:
    """One untraced run: its result line, or None and why the process failed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        last = (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
        return None, f"exit code {proc.returncode}: {last}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); with one value, all three are that value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    pairs: list[dict[str, dict]] = []   # per pair: side -> metric -> value
    ok = True
    print(f"{'pair':>4s} {'side':6s} " + " ".join(f"{m:>15s}" for m in better))
    for i in range(args.pairs):
        pairs.append({})
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result, error = run_once(trees[side], args.workload, args.seed, args.seconds)
            if result is not None and result["failed"] > 0:
                error = f"{result['failed']} failed checks"
            if error:
                print(f"{i:4d} {side:6s} FAILED: {error}")
                ok = False
                continue
            got = pairs[-1][side] = {m: result["metrics"][m]["value"] for m in better}
            print(f"{i:4d} {side:6s} " + " ".join(f"{got[m]:15.6g}" for m in better),
                  flush=True)

    print(f"\nworkload {args.workload}, seed {args.seed}, {args.seconds:g} s per run")
    print(f"{'metric':16s} {'better':6s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'change wins':>12s}")
    worse = []
    for m, direction in better.items():
        side_values = {s: [p[s][m] for p in pairs if s in p] for s in SIDES}
        if not all(side_values.values()):
            continue
        both = [(p["parent"][m], p["change"][m]) for p in pairs if len(p) == 2]
        wins = sum((c < q) if direction == "lower" else (c > q) for q, c in both)
        spread = ["/".join(f"{v:.4g}" for v in quartiles(side_values[s])) for s in SIDES]
        print(f"{m:16s} {direction:6s} {spread[0]:>30s} {spread[1]:>30s} "
              f"{wins:>5d} of {len(both):<3d}")
        parent, change = (statistics.median(side_values[s]) for s in SIDES)
        loss = (change - parent) if direction == "lower" else (parent - change)
        if loss > bound[m] * abs(parent):
            worse.append(f"WORSE {m}: change median {change:.4g} against parent "
                         f"{parent:.4g}, beyond the bound of {bound[m]:g}")
    print()
    print("\n".join(worse) if worse else "no metric worse than its bound")
    return 0 if ok and not worse else 1


if __name__ == "__main__":
    sys.exit(main())
