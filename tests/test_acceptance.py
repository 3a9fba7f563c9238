"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import csv
import json
import statistics
import threading
import time

import numpy as np
import pytest

from starmem import (
    ClusterSet,
    Event,
    EventScript,
    MemoryConfig,
    MemoryHandle,
    StarMemory,
    StreamSource,
    WindowSpec,
    apply_window,
    evaluate_compression,
    generate_stream,
    query_snapshot,
    run_frame_handler,
    snapshot,
    token_count,
    wkmeans_update,
    write_frame,
)
from starmem.cli import main
from starmem.runtime import RuntimeMetrics

from conftest import make_frame
from oracle import exhaustive_seeding_best_sse


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def random_config(rng):
    p_spa = int(rng.choice([2, 4, 8]))
    divisors = [d for d in (1, 2, 4, 8) if p_spa % d == 0]
    p_tem = int(rng.choice(divisors))
    p_abs = int(rng.choice([d for d in (1, 2, 4) if p_tem % d == 0]))
    n_buff = int(rng.integers(2, 30))
    n_tem = int(rng.integers(1, 9))
    return MemoryConfig(
        p_spa=p_spa, p_tem=p_tem, p_abs=p_abs,
        n_buff=n_buff,
        n_spa=int(rng.integers(1, n_buff + 1)),
        n_tem=n_tem,
        n_abs=int(rng.integers(1, 7)),
        n_ret=int(rng.integers(1, min(n_tem, n_buff) + 1)),
        dim=int(rng.integers(1, 5)),
    )


def test_budget_exactness_default_config():
    cfg = MemoryConfig(dim=64)
    mem = StarMemory.new(cfg)
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    ok = True
    for i in range(1000):
        mem = write_frame(mem, make_frame(i, side=24, dim=64, rng=rng))
        if mem.epoch >= 300 and token_count(mem) != 681:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    report(
        "budget exactness: 681 tokens at every epoch >= 300",
        ok and elapsed < 60.0,
        f"1000 frames at D=64 in {elapsed:.1f}s",
    )


def test_budget_bound_randomized_configs():
    rng = np.random.default_rng(42)
    violations = 0
    for trial in range(100):
        cfg = random_config(rng)
        side = cfg.p_spa * int(rng.choice([1, 2, 3]))
        mem = StarMemory.new(cfg)
        for i in range(1000):
            vals = rng.normal(size=(side, side, cfg.dim)).astype(np.float32)
            mem = write_frame(mem, make_frame(i, side=side, dim=cfg.dim, values=vals))
            if token_count(mem) > cfg.max_size:
                violations += 1
    report(
        "budget bound: token_count <= max_size on 100 configs x 1000 frames",
        violations == 0,
        f"{violations} violations",
    )


def test_fifo_semantics_fuzzed():
    rng = np.random.default_rng(7)
    ok = True
    for trial in range(50):
        cfg = random_config(rng)
        mem = StarMemory.new(cfg)
        t = cfg.n_buff + int(rng.integers(1, 20))
        for i in range(1, t + 1):
            vals = rng.normal(size=(cfg.p_spa, cfg.p_spa, cfg.dim)).astype(np.float32)
            mem = write_frame(mem, make_frame(i, side=cfg.p_spa, dim=cfg.dim, values=vals))
        got = [f.frame_index for f in mem.buffer.entries]
        expected = list(range(t, t - cfg.n_buff, -1))
        if got != expected or mem.spatial != mem.buffer.entries[: cfg.n_spa]:
            ok = False
            break
    report("FIFO: buffer holds exactly the newest n_buff frames; spatial view aliases", ok)


def test_wkmeans_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    failures = 0
    for trial in range(200):
        n = int(rng.integers(3, 13))
        dim = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(4, n) + 1))
        draws = [(rng.normal(size=dim), float(rng.integers(1, 5))) for _ in range(n)]
        vecs = np.array([v for v, _ in draws])
        weights = np.array([w for _, w in draws])
        out = wkmeans_update(ClusterSet.empty(), vecs, weights, np.arange(n), k)
        if out.count < len(vecs):
            d = ((vecs[:, None, :] - out.vectors[None]) ** 2).sum(axis=2)
            ours = float((weights * d.min(axis=1)).sum())
            best = exhaustive_seeding_best_sse(vecs, weights, k)
            if ours > best * (1 + 1e-6):
                failures += 1
            if best > 0:
                worst = max(worst, ours / best)
    report(
        "weighted k-means: SSE matches exhaustive-seeding Lloyd on 200 instances",
        failures == 0,
        f"worst ratio {worst:.9f}",
    )


def test_mass_conservation_long_stream():
    cfg = MemoryConfig(p_spa=4, p_tem=2, p_abs=1, n_buff=30, n_spa=2,
                       n_tem=6, n_abs=5, n_ret=2, dim=2)
    mem = StarMemory.new(cfg)
    rng = np.random.default_rng(3)
    ok = True
    for i in range(10_000):
        vals = rng.normal(size=(4, 4, 2)).astype(np.float32)
        mem = write_frame(mem, make_frame(i, side=4, dim=2, values=vals))
        if mem.temporal.total_weight != float(mem.epoch):
            ok = False
            break
        if abs(mem.abstract.total_mass - (cfg.n_abs + mem.epoch)) > 1e-9:
            ok = False
            break
    report(
        "mass conservation: temporal weight == epoch exactly, abstract mass within 1e-9",
        ok,
        f"epoch {mem.epoch}",
    )


def _event_script(levels, durations, std, seed, side=8, dim=4):
    n = side * side * dim
    events = []
    t = 0.0
    for level, dur in zip(levels, durations):
        events.append(Event(t, t + dur, np.full(n, level), std))
        t += dur
    return EventScript(events=tuple(events), fps=1.0, side=side, dim=dim, seed=seed)


def test_event_recovery():
    cfg = MemoryConfig(p_spa=4, p_tem=2, p_abs=1, n_buff=300, n_spa=1,
                       n_tem=25, n_abs=25, n_ret=3, dim=4)

    # noiseless: centroids and weights exactly recover the events
    script = _event_script([0.0, 10.0, -5.0], [50, 30, 20], std=0.0, seed=0)
    mem = StarMemory.new(cfg)
    for f in generate_stream(script):
        mem = write_frame(mem, f)
    distinct = np.unique(mem.temporal.vectors, axis=0)
    exact_centroids = len(distinct) == 3 and set(distinct[:, 0]) == {0.0, 10.0, -5.0}
    sums = {}
    for v, w in zip(mem.temporal.vectors, mem.temporal.weights):
        sums[v.tobytes()] = sums.get(v.tobytes(), 0.0) + w
    exact_weights = sorted(sums.values(), reverse=True) == [50.0, 30.0, 20.0]

    # noisy, separation ratio >= 20: full coverage and pure retrieval
    noisy_ok = True
    for seed in range(20):
        script = _event_script([0.0, 100.0, 200.0], [50, 30, 20], std=1.0, seed=seed)
        assert script.separation_ratio >= 20
        src = generate_stream(script)
        mem = StarMemory.new(cfg)
        for f in src:
            mem = write_frame(mem, f)
        rep = evaluate_compression(snapshot(mem), script, src.labels)
        if rep.event_coverage != 1.0 or rep.retrieval_purity != 1.0:
            noisy_ok = False
            break
    report(
        "event recovery: exact on noiseless scripts, coverage/purity 1.0 on 20 noisy trials",
        exact_centroids and exact_weights and noisy_ok,
    )


def test_anytime_consistency_stress():
    cfg = MemoryConfig(p_spa=4, p_tem=2, p_abs=1, n_buff=20, n_spa=1,
                       n_tem=5, n_abs=4, n_ret=2, dim=2)
    handle = MemoryHandle(cfg)
    torn = []
    done = threading.Event()
    per_reader = 25_000

    def reader():
        count = 0
        while count < per_reader:
            mem = handle.latest()
            if mem.epoch == 0:
                continue
            s = snapshot(mem)
            if len(set(s.store_epochs)) != 1:
                torn.append(s.store_epochs)
            # Frame i has frame_index i and weight 1: one version holds
            # exactly epoch frames, the newest epoch - 1.
            if (s.temporal_weights.sum() != s.epoch
                    or s.temporal_newest[-1] != s.epoch - 1):
                torn.append((s.epoch, s.temporal_weights.sum(), s.temporal_newest[-1]))
            count += 1

    def writer():
        rng = np.random.default_rng(0)
        i = 0
        while not done.is_set():
            vals = rng.normal(size=(4, 4, 2)).astype(np.float32)
            handle.write(make_frame(i, side=4, dim=2, values=vals))
            i += 1

    threads = [threading.Thread(target=reader) for _ in range(4)]
    wt = threading.Thread(target=writer)
    wt.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    done.set()
    wt.join()
    report(
        "anytime consistency: zero torn reads over 100k snapshots vs live writer",
        not torn,
        f"writer reached epoch {handle.latest().epoch}",
    )


def test_breakpoint_windowing():
    script = _event_script([0.0], [200], std=0.0, seed=0, side=4, dim=1)
    src = generate_stream(script)
    mid = apply_window(src, WindowSpec(mode="breakpoint", breakpoint_s=100.0))
    lo = apply_window(src, WindowSpec(mode="breakpoint", breakpoint_s=5.0))
    hi = apply_window(src, WindowSpec(mode="breakpoint", breakpoint_s=198.0))
    mid_frames = list(mid)
    ok = (
        len(mid_frames) == 31
        and mid_frames[0].timestamp_s == 85.0
        and mid_frames[-1].timestamp_s == 115.0
        and len(list(lo)) == 21            # clipped to [0, 20]
        and len(list(hi)) == 17            # clipped to [183, 199]
    )
    report("breakpoint windowing: 31 frames at +-15s inclusive; clipping verified", ok)


def test_cli_determinism(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({
        "fps": 1.0, "side": 8, "dim": 4, "seed": 9,
        "events": [
            {"start_s": 0, "end_s": 25, "mean": 0.0, "std": 1.0},
            {"start_s": 25, "end_s": 40, "mean": 30.0, "std": 1.0},
        ],
    }))
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["run", "--input", str(script), "--output", str(out),
                     "--seed", "123"]) == 0
        outs.append(out)
    same_bin = (outs[0] / "snapshot.bin").read_bytes() == (outs[1] / "snapshot.bin").read_bytes()
    same_meta = (
        (outs[0] / "snapshot.bin.json").read_bytes()
        == (outs[1] / "snapshot.bin.json").read_bytes()
    )
    report("determinism: identical CLI runs produce byte-identical snapshots",
           same_bin and same_meta)


@pytest.mark.slow
def test_write_latency_target(tmp_path):
    cfg = MemoryConfig(dim=1024)
    handle = MemoryHandle(cfg)
    rng = np.random.default_rng(0)
    frames = [make_frame(i, side=24, dim=1024, rng=rng, timestamp=float(i))
              for i in range(330)]
    metrics = run_frame_handler(StreamSource(frames=frames, fps=1.0), handle)
    median = metrics.median_write_latency_s()

    from starmem.cli import _write_metrics
    _write_metrics(tmp_path, metrics)
    rows = list(csv.reader((tmp_path / "metrics.csv").open()))
    reported = float(rows[-1][1])
    report(
        "write latency: median < 50 ms at D=1024, input side 24, default capacities",
        median < 0.050 and abs(reported - median) < 1e-6,
        f"median {1e3 * median:.1f} ms (reported in metrics.csv)",
    )
