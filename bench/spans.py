"""In-memory span recorder that wraps starmem's layer entry points.

Spans are recorded from the benchmark's side only: while a ``Tracer`` is
installed, the module attributes that ``starmem.memory`` and
``starmem.runtime`` call through (``avg_pool``, ``FeatureBuffer.push``,
``single_step_merge``, ``sa_init``, ``sa_update``, ``retrieve_update``,
``snapshot``) and the public calls the benchmark makes (``MemoryHandle.write``,
``query_snapshot``, ``MemorySnapshot.matrix``, the ``fileio`` calls) are
replaced by timing wrappers. Nothing under ``src/`` changes. Spans stay in a
list until the run ends.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from starmem import fileio, memory, runtime


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int          # 0 for a root span
    trace_id: int           # span_id of the root span of the same request
    name: str
    phase: str              # "setup" or "steady", set by the workload
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


# (owner, attribute, span name). Order does not matter; each is patched once.
_FUNCTIONS = (
    (memory, "avg_pool", "features.avg_pool"),
    (memory.FeatureBuffer, "push", "memory.buffer_push"),
    (memory, "single_step_merge", "wkmeans.single_step_merge"),
    (memory, "sa_init", "semantic.sa_init"),
    (memory, "sa_update", "semantic.sa_update"),
    (memory, "retrieve_update", "memory.retrieve_update"),
    (runtime.MemoryHandle, "write", "runtime.write"),
    (runtime, "snapshot", "memory.snapshot"),
    (runtime, "query_snapshot", "runtime.query_snapshot"),
    (fileio, "read_stream_file", "fileio.read_stream_file"),
    (fileio, "write_snapshot", "fileio.write_snapshot"),
)


class Tracer:
    """Records nested spans per thread; installed() patches the layer calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent_id, trace_id = stack[-1] if stack else (0, span_id)
            stack.append((span_id, trace_id))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(span_id, parent_id, trace_id, name, self.phase, start, end)
                )
        return traced

    @contextmanager
    def installed(self):
        """Patch every traced entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in _FUNCTIONS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            prop = memory.MemorySnapshot.__dict__["matrix"]
            saved.append((memory.MemorySnapshot, "matrix", prop))
            memory.MemorySnapshot.matrix = property(self.wrap("memory.matrix", prop.fget))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# Children of the write span whose per-write time is reported.
WRITE_LAYERS = (
    "features.avg_pool",
    "memory.buffer_push",
    "wkmeans.single_step_merge",
    "semantic.sa_update",
    "memory.retrieve_update",
)


def layer_times(spans: list[Span]) -> dict:
    """Per-layer durations (seconds) from the steady-phase spans.

    Write-path layers are summed per write (avg_pool runs three times per
    write). ``runtime.write_self`` is each write span minus its direct
    children. Other layers are listed per call.
    """
    steady = [s for s in spans if s.phase == "steady"]
    writes = {s.span_id: s for s in steady if s.name == "runtime.write"}
    per_write = {name: {w: 0.0 for w in writes} for name in WRITE_LAYERS}
    child_time = {w: 0.0 for w in writes}
    per_call: dict[str, list[float]] = {}
    for s in steady:
        if s.trace_id in writes and s.name in per_write:
            per_write[s.name][s.trace_id] += s.duration
        if s.parent_id in writes:
            child_time[s.parent_id] += s.duration
        per_call.setdefault(s.name, []).append(s.duration)
    out = {name: list(v.values()) for name, v in per_write.items()}
    out["runtime.write_self"] = [w.duration - child_time[i] for i, w in writes.items()]
    for name in ("memory.snapshot", "memory.matrix"):
        out[name] = per_call.get(name, [])
    # fileio runs in set-up and between timed writes; every call counts.
    for name in ("fileio.read_stream_file", "fileio.write_snapshot"):
        out[name] = [s.duration for s in spans if s.name == name]
    return out
