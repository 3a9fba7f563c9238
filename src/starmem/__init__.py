"""starmem: a streaming hierarchical token-memory engine.

Compresses an unbounded stream of per-frame feature maps into a fixed token
budget across four stores (spatial FIFO, weighted temporal clusters, an
attention-maintained abstract synopsis, and centroid-nearest retrieved
frames), with consistent anytime snapshots for a downstream consumer.
"""

from .features import ConfigError, FeatureMap, MemoryConfig, avg_pool, flatten, unflatten
from .memory import (
    EmptyMemoryError,
    FeatureBuffer,
    FrameOrderError,
    InvariantError,
    MemorySnapshot,
    RetrievedFrame,
    StaleVersionError,
    StarMemory,
    retrieve_update,
    snapshot,
    token_count,
    write_frame,
)
from .runtime import MemoryHandle, RuntimeMetrics, StreamSource, query_snapshot, run_frame_handler
from .semantic import AbstractMemory, sa_init, sa_update
from .synth import (
    EmptyWindowError,
    Event,
    EventScript,
    FidelityReport,
    WindowSpec,
    apply_window,
    evaluate_compression,
    generate_stream,
)
from .wkmeans import ClusterSet, single_step_merge, wkmeans_update

__version__ = "0.1.0"

__all__ = [
    "AbstractMemory", "ClusterSet", "ConfigError", "EmptyMemoryError",
    "EmptyWindowError", "Event", "EventScript", "FeatureBuffer", "FeatureMap",
    "FidelityReport", "FrameOrderError", "InvariantError", "MemoryConfig",
    "MemoryHandle", "MemorySnapshot", "RetrievedFrame", "RuntimeMetrics",
    "StaleVersionError", "StarMemory", "StreamSource", "WindowSpec",
    "apply_window", "avg_pool",
    "evaluate_compression", "flatten", "generate_stream", "query_snapshot",
    "retrieve_update", "run_frame_handler", "sa_init", "sa_update",
    "single_step_merge", "snapshot", "token_count", "unflatten",
    "wkmeans_update", "write_frame",
]
