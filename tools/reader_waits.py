"""Which writer stage a snapshot reader waits behind.

    python3 tools/reader_waits.py [--seconds 15] [--seed 1] [--smoke]

Runs the readers_d1024 set-up of bench/workloads.py: one closed-loop writer
on the default config, fed the benchmark's looped event script after a
buffer fill, and one open-loop reader whose requests fall due as a seeded
Poisson process at the benchmark's rate. The writer's layer calls (the
names bench/spans.py patches) are wrapped from this side only and timed on
the writer thread. Each request is then charged to the stage the writer was
in when the request fell due: the innermost layer call, the rest of the
write (runtime.write), or the time between writes. For each stage it prints
the writer's share of time, the requests that fell due there, how many
waited more than 0.3 ms for their snapshot (due time to snapshot in hand,
as the benchmark's snapshot latency counts it) and their p90 wait.
``--smoke`` uses the benchmark's tiny config for a fast check of every path.
BLAS is pinned to one thread before numpy loads. Writes nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from starmem import memory, runtime  # noqa: E402

import workloads  # noqa: E402

WAIT_S = 0.3e-3
BETWEEN = "between writes"
# (owner, attribute, stage name): the writer-side names bench/spans.py patches.
STAGES = (
    (memory, "avg_pool", "features.avg_pool"),
    (memory.FeatureBuffer, "push", "memory.buffer_push"),
    (memory, "single_step_merge", "wkmeans.single_step_merge"),
    (memory, "sa_update", "semantic.sa_update"),
    (memory, "retrieve_update", "memory.retrieve_update"),
    (runtime, "snapshot", "memory.snapshot"),
)
WRITE = (runtime.MemoryHandle, "write", "runtime.write")


class StageClock:
    """Start, end and name of every wrapped call, by nesting depth: the
    write at depth 0, the layer calls inside it at depth 1. Only the writer
    thread calls these names; the reader calls query_snapshot alone."""

    def __init__(self):
        self.calls: dict[int, list[tuple[float, float, str]]] = {0: [], 1: []}

    def wrap(self, fn, name: str, depth: int):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.calls[depth].append((start, time.perf_counter(), name))
        return timed

    def install(self):
        for depth, (owner, attr, name) in [(0, WRITE)] + [(1, s) for s in STAGES]:
            setattr(owner, attr, self.wrap(owner.__dict__[attr], name, depth))

    def stages_at(self, times: np.ndarray) -> list[str]:
        """The innermost wrapped call running at each of times."""
        out = [BETWEEN] * len(times)
        for depth in (0, 1):
            calls = self.calls[depth]
            starts = np.array([c[0] for c in calls])
            ends = np.array([c[1] for c in calls])
            i = np.searchsorted(starts, times, side="right") - 1
            for j in np.flatnonzero((i >= 0) & (ends[np.maximum(i, 0)] > times)):
                out[j] = calls[i[j]][2]
        return out


def read(handle, hz: float, seed: int, stop: threading.Event, out: list):
    """Open-loop reader: (due, done) of every request until stop is set."""
    gaps = np.random.default_rng([seed, 4])
    due = time.perf_counter()
    while not stop.is_set():
        due += gaps.exponential(1.0 / hz)
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        workloads.read_snapshot(handle)
        out.append((due, time.perf_counter()))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--smoke", action="store_true", help="tiny config, short run")
    args = p.parse_args(argv)

    wl = workloads.workloads(ROOT, args.smoke)["readers_d1024"]
    handle, frames = runtime.MemoryHandle(wl.config), workloads.ScriptLoop(args.seed, wl)
    for _ in range(wl.config.n_buff):
        handle.write(frames.next())

    clock = StageClock()
    clock.install()
    requests: list[tuple[float, float]] = []
    stop = threading.Event()
    reader = threading.Thread(target=read, args=(handle, workloads.READER_HZ, args.seed,
                                                 stop, requests))
    begin = time.perf_counter()
    reader.start()
    try:
        while time.perf_counter() - begin < args.seconds:
            handle.write(frames.next())
    finally:
        stop.set()
        reader.join()
    wall = time.perf_counter() - begin

    own = {name: 0.0 for name in [s[2] for s in STAGES] + [WRITE[2], BETWEEN]}
    for start, end, name in clock.calls[1]:
        own[name] += end - start
    writes = sum(end - start for start, end, _ in clock.calls[0])
    own[WRITE[2]] = writes - sum(own[s[2]] for s in STAGES)
    own[BETWEEN] = wall - writes
    waits: dict[str, list[float]] = {name: [] for name in own}
    requests = [(due, done) for due, done in requests if due < begin + wall]
    dues = np.array([due for due, _ in requests])
    for stage, (due, done) in zip(clock.stages_at(dues), requests):
        waits[stage].append(done - due)

    print(f"{wl.name}{' (smoke)' if args.smoke else ''}, seed {args.seed}, {wall:.1f} s, "
          f"{len(clock.calls[0])} writes, {sum(map(len, waits.values()))} requests")
    print(f"{'writer stage':28s} {'time %':>7s} {'requests':>9s} "
          f"{'wait > 0.3 ms':>14s} {'wait p90 ms':>12s}")
    for name, t in own.items():
        w = waits[name]
        p90 = f"{1e3 * np.percentile(w, 90):12.3f}" if w else f"{'-':>12s}"
        print(f"{name:28s} {100 * t / wall:7.1f} {len(w):9d} "
              f"{sum(x > WAIT_S for x in w):14d} {p90}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
