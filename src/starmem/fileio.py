"""On-disk formats: binary feature streams, snapshot exports, run configs,
and event-script files.

Feature stream file (little endian throughout):
  header (32 bytes): magic "FVSF", version u16, dim u32, side u32, fps f32,
                     frame_count u64, flags u32, 2 pad bytes
  body: frame_count records of {frame_index u64, timestamp_s f64,
        side*side*dim float32 values}

Snapshot export is a binary token matrix plus a JSON sidecar (same path with
".json" appended) carrying counts, epochs, cluster weights, and retrieval
provenance.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .features import FeatureMap, MemoryConfig
from .memory import STORES, MemorySnapshot
from .runtime import StreamSource
from .synth import Event, EventScript, WindowSpec

STREAM_MAGIC = b"FVSF"
STREAM_VERSION = 1
_STREAM_HEADER = struct.Struct("<4sHIIfQI2x")

SNAPSHOT_MAGIC = b"STSN"
SNAPSHOT_VERSION = 1
_SNAP_HEADER = struct.Struct("<4sHxxQIQ")


class FormatError(ValueError):
    """Malformed or mismatched on-disk data."""


# -- feature stream files ----------------------------------------------------

def write_stream_file(path, source: StreamSource) -> int:
    """Write a finite stream; returns the number of frames written."""
    frames = list(source)
    path = Path(path)
    with open(path, "wb") as fh:
        if frames:
            side, dim = frames[0].side, frames[0].dim
        else:
            side = dim = 1
        fh.write(_STREAM_HEADER.pack(
            STREAM_MAGIC, STREAM_VERSION, dim, side,
            float(source.fps), len(frames), 0,
        ))
        for f in frames:
            if f.side != side or f.dim != dim:
                raise FormatError("all frames in a stream file must share one shape")
            fh.write(struct.pack("<Qd", f.frame_index, f.timestamp_s))
            fh.write(np.ascontiguousarray(f.values, dtype="<f4").tobytes())
    return len(frames)


def read_stream_file(path) -> StreamSource:
    """Read and validate a feature stream file into memory."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _STREAM_HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, dim, side, fps, frame_count, _flags = _STREAM_HEADER.unpack_from(raw)
    if magic != STREAM_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != STREAM_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    rec_size = 16 + 4 * side * side * dim
    expected = _STREAM_HEADER.size + frame_count * rec_size
    if len(raw) != expected:
        raise FormatError(
            f"{path}: size {len(raw)} != declared {expected} "
            f"({frame_count} frames)"
        )
    frames = []
    off = _STREAM_HEADER.size
    last_ts = None
    for _ in range(frame_count):
        idx, ts = struct.unpack_from("<Qd", raw, off)
        if last_ts is not None and ts <= last_ts:
            raise FormatError(f"{path}: timestamps not strictly increasing")
        last_ts = ts
        vals = np.frombuffer(
            raw, dtype="<f4", count=side * side * dim, offset=off + 16
        ).reshape(side, side, dim)
        frames.append(FeatureMap(
            frame_index=idx, timestamp_s=ts, side=side, dim=dim, values=vals,
        ))
        off += rec_size
    return StreamSource(frames=frames, fps=fps)


# -- snapshot files ----------------------------------------------------------

def write_snapshot(path, snap: MemorySnapshot) -> None:
    """Write the token matrix (binary) and a JSON sidecar next to it."""
    path = Path(path)
    matrix = np.ascontiguousarray(snap.matrix, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(_SNAP_HEADER.pack(
            SNAPSHOT_MAGIC, SNAPSHOT_VERSION, snap.epoch,
            snap.config.dim, matrix.shape[0],
        ))
        fh.write(matrix.tobytes())
    sidecar = {
        "epoch": snap.epoch,
        "store_epochs": list(snap.store_epochs),
        "token_count": snap.token_count,
        "dim": snap.config.dim,
        "config": asdict(snap.config),
        "store_counts": dict(zip(STORES, snap.store_counts)),
        "temporal_weights": snap.temporal_weights.tolist(),
        "temporal_newest": snap.temporal_newest.tolist(),
        "retrieved_frame_indices": list(snap.retrieved_frame_indices),
        "retrieved_cluster_indices": list(snap.retrieved_cluster_indices),
        "retrieved_cluster_ranks": list(snap.retrieved_cluster_ranks),
    }
    sidecar_path = Path(str(path) + ".json")
    sidecar_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def read_snapshot(path) -> MemorySnapshot:
    """Load a snapshot binary and its sidecar back into a MemorySnapshot."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _SNAP_HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, epoch, dim, rows = _SNAP_HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if len(raw) != _SNAP_HEADER.size + 4 * rows * dim:
        raise FormatError(f"{path}: body size mismatch")
    matrix = np.frombuffer(raw, dtype="<f4", offset=_SNAP_HEADER.size).reshape(rows, dim)
    sidecar_path = Path(str(path) + ".json")
    if not sidecar_path.exists():
        raise FormatError(f"{sidecar_path}: missing snapshot sidecar")
    try:
        meta = json.loads(sidecar_path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{sidecar_path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise FormatError(f"{sidecar_path}: sidecar must be a JSON object")
    if meta.get("epoch") != epoch or meta.get("token_count") != rows:
        raise FormatError(f"{path}: sidecar does not match binary header")
    if meta.get("store_epochs") != [epoch] * 4:
        raise FormatError(f"{sidecar_path}: store_epochs must be [{epoch}] * 4")
    try:
        cfg = MemoryConfig(**meta["config"])
        counts = tuple(meta["store_counts"][name] for name in STORES)
        snap = MemorySnapshot(
            epoch=epoch,
            config=cfg,
            tokens=matrix,
            store_counts=counts,
            temporal_weights=np.array(meta["temporal_weights"], dtype=np.float64),
            temporal_newest=np.array(meta["temporal_newest"], dtype=np.int64),
            retrieved_frame_indices=tuple(meta["retrieved_frame_indices"]),
            retrieved_cluster_indices=tuple(meta["retrieved_cluster_indices"]),
            retrieved_cluster_ranks=tuple(meta["retrieved_cluster_ranks"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{sidecar_path}: bad sidecar: {exc!r}") from exc
    if not all(isinstance(n, int) and n >= 0 for n in counts) or sum(counts) != rows:
        raise FormatError(f"{path}: store counts {counts} do not split {rows} tokens")
    return snap


# -- run configs -------------------------------------------------------------

_CONFIG_KEYS = {f.name for f in fields(MemoryConfig)}
_WINDOW_KEYS = [f.name for f in fields(WindowSpec)]
_RUN_KEYS = {*_WINDOW_KEYS, "realtime", "seed"}


def load_run_config(path) -> tuple[MemoryConfig, dict]:
    """Parse a JSON run config; unknown keys are rejected.

    Returns the memory config and a dict of the runtime options the file
    sets (mode, breakpoint_s, half_width_s, realtime, seed).
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS - _RUN_KEYS
    if unknown:
        raise FormatError(f"{path}: unknown config keys {sorted(unknown)}")
    for key, kind in (("seed", int), ("realtime", bool), ("mode", str)):
        if key in data and not _is(data[key], kind):
            raise FormatError(f"{path}: {key} must be {kind.__name__}, got {data[key]!r}")
    cfg_kwargs = {k: v for k, v in data.items() if k in _CONFIG_KEYS}
    run = {k: v for k, v in data.items() if k in _RUN_KEYS}
    return MemoryConfig(**cfg_kwargs), run


def _is(value, kind) -> bool:
    """isinstance, except that a bool is not an int."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def window_from_run_options(run: dict) -> WindowSpec:
    """The window the run options set; WindowSpec's defaults fill the rest."""
    return WindowSpec(**{k: run[k] for k in _WINDOW_KEYS if k in run})


# -- event script files ------------------------------------------------------

_SCRIPT_KEYS = {"fps", "side", "dim", "seed", "events", "mean_scale"}
_EVENT_KEYS = {"start_s", "end_s", "std", "mean"}


def load_event_script(path, seed_override: int | None = None) -> EventScript:
    """Parse a JSON event script.

    Each event's "mean" may be a full vector, a scalar (broadcast across the
    grid), or omitted, in which case it is drawn from the script seed at
    scale "mean_scale" (default 10).
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: script must be a JSON object")
    unknown = set(data) - _SCRIPT_KEYS
    if unknown:
        raise FormatError(f"{path}: unknown script keys {sorted(unknown)}")
    for req in ("fps", "side", "dim", "events"):
        if req not in data:
            raise FormatError(f"{path}: missing required key {req!r}")
    seed = data.get("seed", 0)
    if not _is(seed, int):
        raise FormatError(f"{path}: seed must be int, got {seed!r}")
    if seed_override is not None:
        seed = seed_override
    side, dim = int(data["side"]), int(data["dim"])
    n = side * side * dim
    scale = float(data.get("mean_scale", 10.0))
    mean_rng = np.random.default_rng([seed, 1])
    events = []
    for i, ev in enumerate(data["events"]):
        if not isinstance(ev, dict):
            raise FormatError(f"{path}: event {i} must be an object")
        unknown = set(ev) - _EVENT_KEYS
        if unknown:
            raise FormatError(f"{path}: event {i} unknown keys {sorted(unknown)}")
        mean = ev.get("mean")
        if mean is None:
            mean = scale * mean_rng.standard_normal(n)
        elif isinstance(mean, (int, float)):
            mean = np.full(n, float(mean))
        else:
            mean = np.asarray(mean, dtype=np.float64)
        try:
            events.append(Event(
                start_s=float(ev["start_s"]), end_s=float(ev["end_s"]),
                mean=mean, std=float(ev.get("std", 0.0)),
            ))
        except (KeyError, ValueError) as exc:
            raise FormatError(f"{path}: event {i}: {exc}") from exc
    try:
        return EventScript(
            events=tuple(events), fps=float(data["fps"]),
            side=side, dim=dim, seed=seed,
        )
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
