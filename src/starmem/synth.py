"""Synthetic feature streams with ground-truth event structure, breakpoint
windowing, and compression-fidelity evaluation.

An event script alone fixes every frame's ground-truth label (its event's
frame counts, in order), so scoring a snapshot needs the script and the
snapshot, not the stream's frames."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .features import FeatureMap, avg_pool, flatten, pairwise_sq_dists, unflatten
from .memory import MemorySnapshot
from .runtime import StreamSource


class EmptyWindowError(ValueError):
    """Breakpoint window contains no frames."""


@dataclass(frozen=True)
class Event:
    start_s: float
    end_s: float
    mean: np.ndarray     # length side^2 * dim
    std: float

    def __post_init__(self):
        if self.end_s <= self.start_s:
            raise ValueError("event must have positive duration")
        if self.std < 0:
            raise ValueError("std must be non-negative")
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))


@dataclass(frozen=True)
class EventScript:
    events: tuple[Event, ...]
    fps: float
    side: int
    dim: int
    seed: int

    def __post_init__(self):
        if not self.events:
            raise ValueError("script needs at least one event")
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        n = self.side * self.side * self.dim
        for ev in self.events:
            if ev.mean.size != n:
                raise ValueError(
                    f"event mean length {ev.mean.size} != side^2*dim {n}"
                )
        for a, b in itertools.pairwise(self.events):
            if b.start_s != a.end_s:
                raise ValueError("events must be contiguous and chronological")

    @property
    def duration_s(self) -> float:
        return self.events[-1].end_s - self.events[0].start_s

    @property
    def separation_ratio(self) -> float:
        """Min pairwise event-mean distance over max event std."""
        if len(self.events) < 2:
            return math.inf
        dmin = min(
            math.sqrt(float(np.sum((a.mean - b.mean) ** 2)))
            for a, b in itertools.combinations(self.events, 2)
        )
        smax = max(ev.std for ev in self.events)
        return math.inf if smax == 0 else dmin / smax

    def frame_counts(self) -> list[int]:
        return [int(round((ev.end_s - ev.start_s) * self.fps)) for ev in self.events]

    def labels(self) -> np.ndarray:
        """Ground-truth event id of every scripted frame, by frame_index."""
        return np.repeat(np.arange(len(self.events)), self.frame_counts())


def generate_stream(script: EventScript) -> StreamSource:
    """Sample a seeded stream: frames i.i.d. per event as mean plus Gaussian
    noise, labeled with their ground-truth event id."""
    rng = np.random.default_rng([script.seed, 0])
    frames: list[FeatureMap] = []
    shape = (script.side, script.side, script.dim)
    for ev, count in zip(script.events, script.frame_counts()):
        mean = ev.mean.reshape(shape).astype(np.float32)
        for _ in range(count):
            noise = ev.std * rng.standard_normal(shape) if ev.std > 0 else 0.0
            index = len(frames)
            frames.append(
                FeatureMap(
                    frame_index=index,
                    timestamp_s=script.events[0].start_s + index / script.fps,
                    side=script.side,
                    dim=script.dim,
                    values=(mean + noise).astype(np.float32),
                )
            )
    return StreamSource(frames=frames, fps=script.fps, labels=script.labels())


@dataclass(frozen=True)
class WindowSpec:
    mode: str = "global"             # "global" | "breakpoint"
    breakpoint_s: float | None = None
    half_width_s: float = 15.0

    def __post_init__(self):
        if self.mode not in ("global", "breakpoint"):
            raise ValueError(f"unknown window mode {self.mode!r}")
        if self.mode == "breakpoint":
            if self.breakpoint_s is None or self.breakpoint_s < 0:
                raise ValueError("breakpoint mode requires breakpoint_s >= 0")
        if self.half_width_s <= 0:
            raise ValueError("half_width_s must be positive")


def apply_window(source: StreamSource, w: WindowSpec) -> StreamSource:
    """Restrict a stream to [breakpoint - half_width, breakpoint + half_width]
    (both ends inclusive); global mode is the identity."""
    if w.mode == "global":
        return source
    lo = w.breakpoint_s - w.half_width_s
    hi = w.breakpoint_s + w.half_width_s
    frames = [f for f in source if lo <= f.timestamp_s <= hi]
    if not frames:
        raise EmptyWindowError(
            f"no frames in window [{lo}, {hi}] s"
        )
    # labels stay indexed by frame_index, which windowing preserves
    return StreamSource(frames=frames, fps=source.fps, labels=source.labels)


@dataclass(frozen=True)
class FidelityReport:
    event_coverage: float      # fraction of events with a centroid near their mean
    weight_l1_error: float     # cluster-weight vs event-duration distribution gap
    retrieval_purity: float    # retrieved frames matching their cluster's event
    n_events: int
    n_clusters: int
    n_retrieved: int


def _pooled_event_means(script: EventScript, side: int) -> np.ndarray:
    out = []
    for ev in script.events:
        fm = unflatten(ev.mean, script.side, script.dim)
        out.append(flatten(avg_pool(fm, side)))
    return np.stack(out)


def evaluate_compression(
    snap: MemorySnapshot,
    script: EventScript,
    labels: np.ndarray,
) -> FidelityReport:
    """Score how faithfully the memory condensed the scripted events.

    Each temporal cluster is matched to the event whose pooled mean is
    nearest its centroid. Coverage: an event counts as covered when some
    centroid lies within 3 std/sqrt(n) of its pooled mean (per-channel noise
    scale of a sample mean). Weight fidelity: L1 gap between the per-event
    cluster-weight and event-duration distributions under that match.
    Purity: fraction of retrieved frames whose true event is their selecting
    cluster's matched event. labels maps frame_index to event id
    (script.labels()); a retrieved frame or cluster index out of range
    raises ValueError.
    """
    counts = np.array(script.frame_counts(), dtype=np.float64)
    labels = np.asarray(labels)
    if len(labels) != counts.sum():
        raise ValueError(
            f"label count {len(labels)} != scripted frame count {int(counts.sum())}"
        )
    frames = np.array(snap.retrieved_frame_indices, dtype=np.int64)
    clusters = np.array(snap.retrieved_cluster_indices, dtype=np.int64)
    n_clusters = len(snap.temporal_weights)
    paired = (len(frames) == len(clusters)
              and np.all((frames >= 0) & (frames < len(labels)))
              and np.all((clusters >= 0) & (clusters < n_clusters)))
    if not paired:
        raise ValueError(
            f"retrieved frames {frames.tolist()} / clusters {clusters.tolist()} "
            f"are not pairs in [0, {len(labels)}) x [0, {n_clusters})"
        )

    means = _pooled_event_means(script, snap.config.p_tem)   # (E, p_tem^2 * D)
    cents = snap.temporal.reshape(n_clusters, -1)
    d = np.sqrt(pairwise_sq_dists(means, cents))               # (E, clusters)
    stds = np.array([ev.std for ev in script.events])
    tol = 3.0 * stds * np.sqrt(means.shape[1] / np.maximum(counts, 1))
    tol += 1e-9 * (1.0 + np.linalg.norm(means, axis=1))
    coverage = float(np.mean(d.min(axis=1) <= tol))

    nearest_event = d.argmin(axis=0)
    mass = np.bincount(nearest_event, snap.temporal_weights, minlength=len(counts))
    weight_l1 = float(np.abs(mass / mass.sum() - counts / counts.sum()).sum())
    hits = labels[frames] == nearest_event[clusters]
    purity = float(hits.mean()) if len(hits) else 0.0

    return FidelityReport(
        event_coverage=coverage,
        weight_l1_error=weight_l1,
        retrieval_purity=purity,
        n_events=len(counts),
        n_clusters=n_clusters,
        n_retrieved=len(frames),
    )
