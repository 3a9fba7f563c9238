"""How often the temporal merge and retrieval fall back to their full paths.

    python3 tools/fallback_rates.py [--workload steady_d1024] [--seed 1]
                                    [--writes 700] [--smoke]

Writes a workload's own inputs from bench/workloads.py through write_frame:
a buffer fill of n_buff frames, then --writes steady writes. The D=1024
workloads loop over the benchmark's event script (ScriptLoop); stream_d64
plays its seeded stream once, so its steady part ends with the stream. The
merge and retrieval internals are wrapped from this side only, and for the
fill and the steady part it prints:

- merges at capacity (calls of wkmeans._gram_merge);
- fallbacks to the full merge (calls of wkmeans._ward_lloyd_merge), and of
  these, the ones whose Ward pick was not certified (the merge's first
  wkmeans._certified_argmin call returned None) and the ones whose
  assignment was not certified (a later call did);
- retrieval full passes (calls of memory._full_pass_picks).

``--smoke`` uses the benchmark's tiny config for a fast check of every path.
BLAS is pinned to one thread before numpy loads. Writes nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from starmem import StarMemory, memory, synth, wkmeans, write_frame  # noqa: E402

import workloads  # noqa: E402

ROWS = ("merges at capacity", "fallbacks to the full merge", "  uncertified Ward pick",
        "  uncertified assignment", "retrieval full passes")


class Counts:
    """Per-phase counts of the wrapped calls; install() patches the names."""

    def __init__(self):
        self.phase = "fill"
        self.rows = {phase: dict.fromkeys(ROWS, 0) for phase in ("fill", "steady")}
        self.certified: list[bool] = []   # the last merge's certificates, in order

    def add(self, row: str):
        self.rows[self.phase][row] += 1

    def install(self):
        gram, full = wkmeans._gram_merge, wkmeans._ward_lloyd_merge
        certify, full_pass = wkmeans._certified_argmin, memory._full_pass_picks

        def gram_merge(*args):
            self.add(ROWS[0])
            self.certified = []
            return gram(*args)

        def certified_argmin(*args):
            best = certify(*args)
            self.certified.append(best is not None)
            return best

        def ward_lloyd_merge(*args):
            self.add(ROWS[1])
            if not self.certified[0]:
                self.add(ROWS[2])
            elif not all(self.certified):
                self.add(ROWS[3])
            return full(*args)

        def full_pass_picks(*args):
            self.add(ROWS[4])
            return full_pass(*args)

        wkmeans._gram_merge, wkmeans._ward_lloyd_merge = gram_merge, ward_lloyd_merge
        wkmeans._certified_argmin, memory._full_pass_picks = certified_argmin, full_pass_picks


def frames(wl: workloads.Workload, seed: int):
    """The workload's inputs, in the order the benchmark writes them."""
    if wl.stream:
        yield from synth.generate_stream(workloads.stream_script(seed, wl))
    else:
        loop = workloads.ScriptLoop(seed, wl)
        while True:
            yield loop.next()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="steady_d1024",
                   choices=["steady_d1024", "readers_d1024", "stream_d64"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--writes", type=int, default=700, help="steady writes after the fill")
    p.add_argument("--smoke", action="store_true", help="tiny config")
    args = p.parse_args(argv)

    wl = workloads.workloads(ROOT, args.smoke)[args.workload]
    counts = Counts()
    counts.install()
    mem, written = StarMemory.new(wl.config), {"fill": 0, "steady": 0}
    for frame in frames(wl, args.seed):
        if mem.epoch == wl.config.n_buff:
            counts.phase = "steady"
        if written["steady"] == args.writes:
            break
        mem = write_frame(mem, frame)
        written[counts.phase] += 1

    print(f"{wl.name}{' (smoke)' if args.smoke else ''}, seed {args.seed}: "
          f"{written['fill']} fill writes, {written['steady']} steady writes")
    print(f"{'':36s} {'fill':>7s} {'steady':>7s}")
    for row in ROWS:
        print(f"{row:36s} {counts.rows['fill'][row]:7d} {counts.rows['steady'][row]:7d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
