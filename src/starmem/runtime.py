"""Two-role runtime: one frame-handler writer, any number of anytime readers.

The writer builds a complete new memory version per frame, builds its
snapshot, and publishes the two together by swapping a single reference
(read-copy-update); readers return the snapshot currently published, so they
do no numpy work and never block the writer. Published versions and
snapshots are never mutated, so a snapshot is always internally consistent.
Concurrent writes are serialised, so each builds on the version the previous
one published.
"""

from __future__ import annotations

import logging
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .features import FeatureMap, MemoryConfig
from .memory import (
    EmptyMemoryError,
    MemorySnapshot,
    StarMemory,
    snapshot,
    token_count,
    write_frame,
)

log = logging.getLogger("starmem")


@dataclass
class StreamSource:
    """A finite or unbounded timed sequence of feature maps.

    labels is an optional evaluation-only side channel mapping frame_index to
    a ground-truth event id.
    """

    frames: Iterable[FeatureMap]
    fps: float
    labels: np.ndarray | None = None

    def __iter__(self) -> Iterator[FeatureMap]:
        return iter(self.frames)


@dataclass
class RuntimeMetrics:
    write_latencies_s: list[float] = field(default_factory=list)
    tokens_per_epoch: list[int] = field(default_factory=list)
    epochs_completed: int = 0
    nonconvergence_count: int = 0

    def median_write_latency_s(self) -> float:
        if not self.write_latencies_s:
            return 0.0
        return statistics.median(self.write_latencies_s)


class MemoryHandle:
    """Shared handle around the single published memory version.

    write() holds a lock from reading the current version to publishing the
    next with its snapshot, so writes from several threads are applied one
    at a time; latest() and query_snapshot() take no lock and never block
    the writer.
    """

    def __init__(self, config: MemoryConfig):
        self._lock = threading.Lock()
        # (version, its snapshot), swapped as one reference; None before the
        # first write.
        self._published: tuple[StarMemory, MemorySnapshot | None] = (
            StarMemory.new(config), None
        )

    def latest(self) -> StarMemory:
        return self._published[0]

    def write(self, e: FeatureMap) -> StarMemory:
        with self._lock:
            new = write_frame(self._published[0], e)
            self._published = (new, snapshot(new))
        return new


def query_snapshot(handle: MemoryHandle) -> MemorySnapshot:
    """The read-only snapshot published with the latest epoch; every call
    between two writes returns the same object."""
    snap = handle._published[1]
    if snap is None:
        raise EmptyMemoryError("no frames written yet")
    return snap


def run_frame_handler(
    source: StreamSource,
    handle: MemoryHandle,
    realtime: bool = False,
    metrics: RuntimeMetrics | None = None,
) -> RuntimeMetrics:
    """Write every source frame in order, optionally pacing by timestamps.

    Real-time mode sleeps so each frame lands no earlier than its timestamp
    offset from the first frame; fast mode ignores pacing entirely. A frame
    out of order stops the run with write_frame's FrameOrderError.
    """
    m = metrics if metrics is not None else RuntimeMetrics()
    start = time.perf_counter()
    first_ts = None
    for frame in source:
        if realtime:
            if first_ts is None:
                first_ts = frame.timestamp_s
            due = start + (frame.timestamp_s - first_ts)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        t0 = time.perf_counter()
        mem = handle.write(frame)
        m.write_latencies_s.append(time.perf_counter() - t0)
        m.tokens_per_epoch.append(token_count(mem))
        m.epochs_completed = mem.epoch
        if not mem.temporal.converged:
            m.nonconvergence_count += 1
    log.debug(
        "frame handler done: %d epochs, median write %.3f ms",
        m.epochs_completed, 1e3 * m.median_write_latency_s(),
    )
    return m
