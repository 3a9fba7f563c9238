"""Synthetic feature streams with ground-truth event structure, breakpoint
windowing, and compression-fidelity evaluation."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .features import FeatureMap, avg_pool, flatten, unflatten
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


def generate_stream(script: EventScript) -> StreamSource:
    """Sample a seeded stream: frames i.i.d. per event as mean plus Gaussian
    noise, labeled with their ground-truth event id."""
    rng = np.random.default_rng([script.seed, 0])
    frames: list[FeatureMap] = []
    labels: list[int] = []
    shape = (script.side, script.side, script.dim)
    index = 0
    for ev_id, ev in enumerate(script.events):
        mean = ev.mean.reshape(shape).astype(np.float32)
        for _ in range(script.frame_counts()[ev_id]):
            noise = (
                ev.std * rng.standard_normal(shape) if ev.std > 0
                else 0.0
            )
            frames.append(
                FeatureMap(
                    frame_index=index,
                    timestamp_s=script.events[0].start_s + index / script.fps,
                    side=script.side,
                    dim=script.dim,
                    values=(mean + noise).astype(np.float32),
                )
            )
            labels.append(ev_id)
            index += 1
    return StreamSource(
        frames=frames, fps=script.fps, labels=np.array(labels, dtype=np.int64)
    )


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

    Coverage: an event counts as covered when some temporal centroid lies
    within 3 std/sqrt(n) of its pooled mean (per-channel noise scale of a
    sample mean). Weight fidelity: L1 gap between the cluster-weight and
    event-duration distributions under the best event matching (exhaustive
    for up to 8 events, greedy beyond). Purity: fraction of retrieved frames
    whose true event matches their selecting cluster's nearest event.
    """
    counts = script.frame_counts()
    if len(labels) != sum(counts):
        raise ValueError(
            f"label count {len(labels)} != scripted frame count {sum(counts)}"
        )
    cfg = snap.config
    means = _pooled_event_means(script, cfg.p_tem)        # (E, p_tem^2 * D)
    cents = snap.temporal.astype(np.float64).reshape(len(snap.temporal_weights), -1)
    d = np.sqrt(
        np.maximum(
            0.0,
            (means ** 2).sum(1)[:, None] + (cents ** 2).sum(1)[None, :]
            - 2 * means @ cents.T,
        )
    )
    dim = means.shape[1]
    covered = 0
    for e, ev in enumerate(script.events):
        tol = 3.0 * ev.std * math.sqrt(dim / max(counts[e], 1))
        tol += 1e-9 * (1.0 + float(np.linalg.norm(means[e])))
        if d[e].min() <= tol:
            covered += 1
    coverage = covered / len(script.events)

    # Per-event cluster weight mass, grouping clusters by nearest event mean.
    nearest_event = d.argmin(axis=0)
    mass = np.zeros(len(script.events))
    for c, e in enumerate(nearest_event):
        mass[e] += snap.temporal_weights[c]
    mass_n = mass / mass.sum()
    dur = np.array(counts, dtype=np.float64)
    dur_n = dur / dur.sum()
    n_ev = len(script.events)
    if n_ev <= 8:
        weight_l1 = min(
            float(np.abs(mass_n[list(perm)] - dur_n).sum())
            for perm in itertools.permutations(range(n_ev))
        )
    else:
        weight_l1 = float(
            np.abs(np.sort(mass_n)[::-1] - np.sort(dur_n)[::-1]).sum()
        )

    if snap.retrieved_frame_indices:
        hits = 0
        for fi, ci in zip(snap.retrieved_frame_indices, snap.retrieved_cluster_indices):
            cluster_event = int(nearest_event[ci])
            if int(labels[fi]) == cluster_event:
                hits += 1
        purity = hits / len(snap.retrieved_frame_indices)
    else:
        purity = 0.0

    return FidelityReport(
        event_coverage=coverage,
        weight_l1_error=weight_l1,
        retrieval_purity=purity,
        n_events=n_ev,
        n_clusters=len(snap.temporal_weights),
        n_retrieved=len(snap.retrieved_frame_indices),
    )
