"""The benchmark's workloads, their seeded inputs and their correctness checks.

Every workload drives starmem through its public API only. Inputs come from
``--seed``; frames are generated outside the timed region. A workload fills
the buffer (set-up) several times from the same seed, then measures the
steady state, where every write runs on a full buffer.
"""

from __future__ import annotations

import hashlib
import json
import resource
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from starmem import FeatureMap, MemoryConfig, fileio, runtime, synth
from starmem.memory import token_count

from spans import Tracer, layer_times

MIN_STEADY_SAMPLES = 110  # so p90 has at least 10 samples beyond it
STREAM_SLICE = 50         # frames per run_frame_handler call in the steady part
# Mean open-loop reader rate on readers_d1024. At 200/s a request is due
# every 5 ms, which is CPython's GIL switch interval: under a D=1024 writer
# the reader then serves about one snapshot per interval, the queue sits at
# the edge of saturation and snapshot p50 ranged 1.4-4.2 ms over three runs.
# 100/s keeps the reader at about half its sustainable rate. Requests arrive
# as a seeded Poisson process: a fixed period beats against the writer's
# own cycle and gave multi-second spells of collisions and of none.
READER_HZ = 100.0
# Every workload plays the shipped event script: its events in their order,
# with their means and noise. The D=1024 workloads loop over it at its own
# fps; stream_d64 plays it once at STREAM_SPEED times its fps.
EVENT_SCRIPT = Path("configs") / "three_events.json"
STREAM_SPEED = 12.0       # 600 + 360 + 240 = 1200 frames


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in README.md and BENCHMARK.json."""

    name: str
    config: MemoryConfig
    side: int
    setups: int           # buffer fills per run; setup_s is their median
    events: tuple         # (frames, mean, std) of each scripted event, in order
    readers: bool = False
    stream: bool = False  # a stream file through run_frame_handler


def scripted_events(root: Path, speed: float = 1.0) -> tuple:
    """The shipped event script as (frames, mean, std) per event, at the
    script's fps times ``speed``; smoke mode shortens the events with it
    so that they fit a tiny buffer."""
    data = json.loads((root / EVENT_SCRIPT).read_text())
    return tuple((round((ev["end_s"] - ev["start_s"]) * data["fps"] * speed),
                  float(ev["mean"]), float(ev["std"])) for ev in data["events"])


def workloads(root: Path, smoke: bool) -> dict[str, Workload]:
    """The three workloads; ``smoke`` swaps in a tiny config for each."""
    if smoke:
        tiny = MemoryConfig(p_spa=4, p_tem=2, p_abs=1, n_buff=24, n_spa=1,
                            n_tem=6, n_abs=5, n_ret=2, dim=8)
        live, live_side, stream, stream_side = tiny, 8, tiny, 8
        live_events = scripted_events(root, speed=0.2)
        stream_events = scripted_events(root, speed=0.6)
    else:
        live, live_side = MemoryConfig(), 24
        stream, _ = fileio.load_run_config(root / "configs" / "default.json")
        stream_side = 8
        live_events = scripted_events(root)
        stream_events = scripted_events(root, speed=STREAM_SPEED)
    return {
        "steady_d1024": Workload("steady_d1024", live, live_side, setups=2,
                                 events=live_events),
        "readers_d1024": Workload("readers_d1024", live, live_side, setups=2,
                                  events=live_events, readers=True),
        "stream_d64": Workload("stream_d64", stream, stream_side, setups=3,
                               events=stream_events, stream=True),
    }


# -- inputs ------------------------------------------------------------------

class ScriptLoop:
    """Frames of the scripted events, played in a loop, with seeded noise."""

    def __init__(self, seed: int, wl: Workload):
        self.side, self.dim = wl.side, wl.config.dim
        self.plan = [(mean, std) for frames, mean, std in wl.events for _ in range(frames)]
        self._noise = np.random.default_rng([seed, 1])
        self.index = 0

    def next(self) -> FeatureMap:
        mean, std = self.plan[self.index % len(self.plan)]
        # Uniform noise with the event's standard deviation: a quarter of the
        # cost of normal draws, which keeps generation out of the run's time.
        noise = self._noise.random((self.side, self.side, self.dim), dtype=np.float32)
        values = (noise - np.float32(0.5)) * np.float32(std * 12 ** 0.5) + np.float32(mean)
        frame = FeatureMap(frame_index=self.index, timestamp_s=float(self.index),
                           side=self.side, dim=self.dim, values=values)
        self.index += 1
        return frame


def stream_script(seed: int, wl: Workload) -> synth.EventScript:
    """The scripted events played once, one second per frame."""
    n = wl.side * wl.side * wl.config.dim
    events, start = [], 0.0
    for frames, mean, std in wl.events:
        events.append(synth.Event(start_s=start, end_s=start + frames,
                                  mean=np.full(n, mean), std=std))
        start += frames
    return synth.EventScript(events=tuple(events), fps=1.0, side=wl.side,
                             dim=wl.config.dim, seed=seed)


# -- correctness -------------------------------------------------------------

class Checks:
    """Counts attempted and failed operations; failures never abort a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self._lock = threading.Lock()

    def count(self, name: str, attempted: int, failed: int):
        with self._lock:
            self.attempted += attempted
            if failed:
                self.failed += failed
                self.failures[name] = self.failures.get(name, 0) + failed

    def record(self, name: str, ok: bool):
        self.count(name, 1, 0 if ok else 1)

    def call(self, name: str, fn, *args):
        """Run one program operation; an exception counts as a failure."""
        try:
            result = fn(*args)
        except Exception as exc:  # a failing operation is data, not a crash
            self.record(f"{name}: {type(exc).__name__}: {exc}", False)
            return None
        self.record(name, True)
        return result

    def state(self, mem, written: int):
        """Invariants of a writer-side version after ``written`` frames."""
        cfg = mem.config
        self.record("store_epochs", mem.store_epochs == (mem.epoch,) * 4)
        self.record("epoch", mem.epoch == written)
        self.record("temporal_weight_sum", mem.temporal.total_weight == written)
        mass = mem.abstract.total_mass
        self.record("abstract_mass",
                    abs(mass - (cfg.n_abs + written)) <= 1e-9 * (cfg.n_abs + written))
        if written >= cfg.n_buff:
            self.record("token_count", token_count(mem) == cfg.max_size)

    def snapshot(self, snap, matrix):
        """Invariants of a reader-side snapshot taken on a full buffer."""
        cfg = snap.config
        self.record("snapshot_token_count", snap.token_count == cfg.max_size)
        self.record("matrix_shape", matrix.shape == (cfg.max_size, cfg.dim))
        self.record("snapshot_store_epochs", snap.store_epochs == (snap.epoch,) * 4)
        self.record("snapshot_weight_sum", float(snap.temporal_weights.sum()) == snap.epoch)


def read_snapshot(handle):
    """The reader's request: a snapshot and its token matrix."""
    snap = runtime.query_snapshot(handle)
    return snap, snap.matrix


def export_digest(snap, path: Path) -> str:
    """Write the snapshot with fileio and hash the binary and its sidecar."""
    fileio.write_snapshot(path, snap)
    h = hashlib.sha256(path.read_bytes())
    h.update(Path(str(path) + ".json").read_bytes())
    return h.hexdigest()[:16]


# -- measurement -------------------------------------------------------------

@dataclass
class Run:
    """Everything one workload run measured."""

    setup_s: list[float] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    traced_write_s: list[float] = field(default_factory=list)
    untraced_write_s: list[float] = field(default_factory=list)
    steady_frames: int = 0      # writes completed in the timed region
    steady_wall_s: float = 0.0  # wall time of the timed region
    snapshot_s: list[float] = field(default_factory=list)
    reader_late_s: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)  # per set-up or episode
    steady_digest: str | None = None
    nonconverged: int = 0
    retrieved_distances: list[float] = field(default_factory=list)
    distinct_tokens: int = 0
    buffer_fill: int = 0
    retrieval_pure_frames: int = 0
    event_coverage: float = 0.0


class Reader(threading.Thread):
    """Open-loop reader: requests fall due as a seeded Poisson process,
    whatever the writer does, and each is timed from its due time."""

    def __init__(self, handle, checks: Checks, hz: float, seed: int):
        super().__init__(name="reader")
        self.handle, self.checks, self.period = handle, checks, 1.0 / hz
        self.gaps = np.random.default_rng([seed, 4])
        self.latency_s: list[float] = []
        self.late_s: list[float] = []
        self.stop = threading.Event()

    def run(self):
        due = time.perf_counter()
        while not self.stop.is_set():
            due += self.gaps.exponential(self.period)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            begin = time.perf_counter()
            got = self.checks.call("snapshot", read_snapshot, self.handle)
            end = time.perf_counter()
            self.late_s.append(begin - due)
            self.latency_s.append(end - due)
            if got is not None:
                self.checks.snapshot(*got)


def fresh_snapshot(handle, checks: Checks, run: Run):
    """Latency of one uncontended snapshot of the version just published."""
    t0 = time.perf_counter()
    got = checks.call("snapshot", read_snapshot, handle)
    run.snapshot_s.append(time.perf_counter() - t0)
    if got is not None:
        checks.snapshot(*got)


def _record_state_counts(mem, run: Run):
    run.distinct_tokens = len(np.unique(mem.abstract.tokens, axis=0))
    run.buffer_fill = len(mem.buffer)


def run_live(wl: Workload, seed: int, seconds: float, tracer: Tracer | None,
             checks: Checks, work: Path) -> Run:
    """steady_d1024 and readers_d1024: a closed-loop writer fed frame by
    frame, optionally with one open-loop reader thread."""
    run = Run()
    cfg = wl.config
    trace = tracer.installed if tracer else nullcontext
    handle = gen = None
    written = 0
    for k in range(wl.setups):
        handle, gen, written = runtime.MemoryHandle(cfg), ScriptLoop(seed, wl), 0
        elapsed = 0.0
        with trace():
            for _ in range(cfg.n_buff):
                frame = gen.next()
                t0 = time.perf_counter()
                mem = checks.call("write", handle.write, frame)
                elapsed += time.perf_counter() - t0
                written += mem is not None
        run.setup_s.append(elapsed)
        mem = handle.latest()
        checks.state(mem, written)
        snap = checks.call("snapshot", runtime.query_snapshot, handle)
        if snap is not None:
            checks.snapshot(snap, snap.matrix)
            run.digests.append(export_digest(snap, work / f"setup{k}.bin"))

    if tracer:
        tracer.phase = "steady"
    # A fixed point in the steady state, so the digest does not depend on
    # how many writes fit in the run.
    digest_at = cfg.n_buff + MIN_STEADY_SAMPLES
    reader = Reader(handle, checks, READER_HZ, seed) if wl.readers else None
    if reader:
        reader.start()
    try:
        while run.steady_wall_s < seconds or len(run.write_s) < MIN_STEADY_SAMPLES:
            frame = gen.next()
            traced = tracer is not None and len(run.write_s) % 2 == 0
            with trace() if traced else nullcontext():
                t0 = time.perf_counter()
                mem = checks.call("write", handle.write, frame)
                lat = time.perf_counter() - t0
                if not reader:
                    fresh_snapshot(handle, checks, run)
            run.write_s.append(lat)
            run.steady_wall_s += lat
            if tracer:
                (run.traced_write_s if traced else run.untraced_write_s).append(lat)
            if mem is None:
                continue
            written += 1
            run.steady_frames += 1
            checks.state(mem, written)
            run.nonconverged += not mem.temporal.converged
            run.retrieved_distances += [r.distance for r in mem.retrieved]
            if written == digest_at:
                with trace():
                    snap = checks.call("snapshot", runtime.query_snapshot, handle)
                    if snap is not None:
                        run.steady_digest = export_digest(snap, work / "steady.bin")
    finally:
        if reader:
            reader.stop.set()
            reader.join(timeout=30.0)
    if reader:
        checks.record("reader_stopped", not reader.is_alive())
        run.snapshot_s, run.reader_late_s = reader.latency_s, reader.late_s
    _record_state_counts(handle.latest(), run)
    return run


def run_stream(wl: Workload, seed: int, seconds: float, tracer: Tracer | None,
               checks: Checks, work: Path) -> Run:
    """stream_d64: the calls ``starmem run`` makes, on a seeded stream file.

    Each episode replays the same file on a fresh handle: read_stream_file
    and the first n_buff frames are set-up, the rest is the steady state.
    """
    run = Run()
    cfg = wl.config
    trace = tracer.installed if tracer else nullcontext
    script = stream_script(seed, wl)
    generated = synth.generate_stream(script)
    path = work / "stream.fvsf"
    fileio.write_stream_file(path, generated)
    total = len(generated.frames)
    del generated.frames[:]   # free the generator's copy; episodes read the file

    episode = slices = 0
    while (episode < wl.setups or run.steady_wall_s < seconds
           or len(run.write_s) < MIN_STEADY_SAMPLES):
        if tracer:
            tracer.phase = "setup"
        handle = runtime.MemoryHandle(cfg)
        with trace():
            t0 = time.perf_counter()
            source = checks.call("read_stream_file", fileio.read_stream_file, path)
            if source is None:
                break
            head = runtime.StreamSource(frames=source.frames[:cfg.n_buff], fps=source.fps)
            metrics = runtime.RuntimeMetrics()
            try:
                runtime.run_frame_handler(head, handle, metrics=metrics)
            except Exception as exc:
                checks.record(f"run_frame_handler: {type(exc).__name__}", False)
            run.setup_s.append(time.perf_counter() - t0)
        done = len(metrics.write_latencies_s)
        checks.count("write", len(head.frames), len(head.frames) - done)

        if tracer:
            tracer.phase = "steady"
        for lo in range(cfg.n_buff, total, STREAM_SLICE):
            part = runtime.StreamSource(frames=source.frames[lo:lo + STREAM_SLICE],
                                        fps=source.fps)
            traced = tracer is not None and slices % 2 == 0
            slices += 1
            metrics = runtime.RuntimeMetrics()
            with trace() if traced else nullcontext():
                t0 = time.perf_counter()
                try:
                    runtime.run_frame_handler(part, handle, metrics=metrics)
                except Exception as exc:
                    checks.record(f"run_frame_handler: {type(exc).__name__}", False)
                run.steady_wall_s += time.perf_counter() - t0
                fresh_snapshot(handle, checks, run)
            done = len(metrics.write_latencies_s)
            checks.count("write", len(part.frames), len(part.frames) - done)
            run.steady_frames += done
            run.write_s += metrics.write_latencies_s
            if tracer:
                (run.traced_write_s if traced else run.untraced_write_s).extend(
                    metrics.write_latencies_s)
            run.nonconverged += metrics.nonconvergence_count
            for tokens in metrics.tokens_per_epoch:
                checks.record("token_count", tokens == cfg.max_size)

        mem = handle.latest()
        checks.state(mem, total)
        run.retrieved_distances += [r.distance for r in mem.retrieved]
        with trace():
            snap = checks.call("snapshot", runtime.query_snapshot, handle)
            if snap is not None:
                run.digests.append(export_digest(snap, work / "snapshot.bin"))
                report = checks.call("evaluate_compression", synth.evaluate_compression,
                                     snap, script, generated.labels)
                if report is not None:
                    checks.record("event_coverage", report.event_coverage == 1.0)
                    run.event_coverage = report.event_coverage
                    run.retrieval_pure_frames = round(
                        report.retrieval_purity * report.n_retrieved)
        _record_state_counts(mem, run)
        episode += 1
    # Every episode ends on the same steady state.
    run.steady_digest = run.digests[0] if run.digests else None
    return run


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 work: Path) -> tuple[Run, Checks, Tracer | None]:
    checks = Checks()
    tracer = Tracer() if trace else None
    runner = run_stream if wl.stream else run_live
    run = runner(wl, seed, seconds, tracer, checks, work)
    checks.record("determinism", len(run.digests) >= 2 and len(set(run.digests)) == 1
                  and run.steady_digest is not None)
    return run, checks, tracer


# -- metrics -----------------------------------------------------------------

def _p(values, q: float, scale: float = 1.0) -> float:
    return scale * float(np.percentile(values, q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count)."""
    n_w, n_s = len(run.write_s), len(run.snapshot_s)
    return {
        "setup_s": (float(np.median(run.setup_s)), "s", len(run.setup_s)),
        "write_p50_ms": (_p(run.write_s, 50, 1e3), "ms", n_w),
        "write_p90_ms": (_p(run.write_s, 90, 1e3), "ms", n_w),
        "frames_per_s": (run.steady_frames / run.steady_wall_s, "1/s", run.steady_frames),
        "snapshot_p50_ms": (_p(run.snapshot_s, 50, 1e3), "ms", n_s),
        "snapshot_p90_ms": (_p(run.snapshot_s, 90, 1e3), "ms", n_s),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }


def per_layer(run: Run, tracer: Tracer) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count); 0 where the layer does not run."""
    t = layer_times(tracer.spans)
    out = {}
    for name, stat in (
        ("memory.retrieve_update", (50, 90)),
        ("wkmeans.single_step_merge", (50, 90)),
        ("features.avg_pool", (50,)),
        ("semantic.sa_update", (50,)),
        ("memory.buffer_push", (50,)),
        ("runtime.write_self", (50,)),
        ("memory.snapshot", (50,)),
        ("memory.matrix", (50,)),
    ):
        for q in stat:
            out[f"{name}_p{q}_ms"] = (_p(t[name], q, 1e3), "ms", len(t[name]))
    for q in (50, 90):
        out[f"runtime.reader_late_p{q}_ms"] = (
            _p(run.reader_late_s, q, 1e3), "ms", len(run.reader_late_s))
    reads, writes = t["fileio.read_stream_file"], t["fileio.write_snapshot"]
    out["fileio.read_stream_file_s"] = (_p(reads, 50), "s", len(reads))
    out["fileio.write_snapshot_ms"] = (_p(writes, 50, 1e3), "ms", len(writes))
    traced, plain = _p(run.traced_write_s, 50), _p(run.untraced_write_s, 50)
    out["trace.overhead_pct"] = (
        100.0 * (traced - plain) / plain if plain else 0.0, "%",
        len(run.traced_write_s) + len(run.untraced_write_s))
    distances = run.retrieved_distances
    out["wkmeans.nonconverged"] = (run.nonconverged, "count", len(run.write_s))
    out["semantic.distinct_tokens"] = (run.distinct_tokens, "count", 1)
    out["memory.retrieved_distance_mean"] = (
        float(np.mean(distances)) if distances else 0.0, "sqdist", len(distances))
    out["memory.buffer_fill"] = (run.buffer_fill, "count", 1)
    out["synth.retrieval_pure_frames"] = (run.retrieval_pure_frames, "count", 1)
    return out
