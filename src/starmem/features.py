"""Core numeric types: per-frame feature maps, pooling, distances, configuration."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration or incompatible grid sizes."""


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """One frame's square feature grid with provenance.

    values has shape (side, side, dim), row-major (row, col, channel).
    """

    frame_index: int
    timestamp_s: float
    side: int
    dim: int
    values: np.ndarray

    def __post_init__(self):
        if self.frame_index < 0:
            raise ValueError("frame_index must be non-negative")
        if self.timestamp_s < 0:
            raise ValueError("timestamp_s must be non-negative")
        if self.side <= 0 or self.dim <= 0:
            raise ValueError("side and dim must be positive")
        v = np.asarray(self.values)
        if v.shape != (self.side, self.side, self.dim):
            raise ValueError(
                f"values shape {v.shape} != ({self.side}, {self.side}, {self.dim})"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("feature values must be finite")
        object.__setattr__(self, "values", v)


def avg_pool(e: FeatureMap, target_side: int) -> FeatureMap:
    """Average-pool a feature map down to target_side x target_side.

    target_side must divide e.side. Accumulation is double precision
    regardless of input dtype. Channels are untouched.
    """
    if target_side <= 0:
        raise ConfigError("target_side must be positive")
    if target_side > e.side:
        raise ConfigError(f"cannot pool {e.side} up to {target_side}")
    if target_side == e.side:
        return e
    if e.side % target_side:
        raise ConfigError(f"target_side {target_side} does not divide side {e.side}")
    v = e.values.astype(np.float64, copy=False)
    b = e.side // target_side
    pooled = v.reshape(target_side, b, target_side, b, e.dim).mean(axis=(1, 3))
    return replace(
        e,
        side=target_side,
        values=pooled.astype(e.values.dtype, copy=False),
    )


def flatten(e: FeatureMap) -> np.ndarray:
    """Row-major (row, col, channel) flattening to a length side^2 * dim vector."""
    return e.values.reshape(-1).astype(np.float64)


def unflatten(
    vec: np.ndarray,
    side: int,
    dim: int,
    frame_index: int = 0,
    timestamp_s: float = 0.0,
) -> FeatureMap:
    """Inverse of flatten for a known grid geometry."""
    v = np.asarray(vec)
    if v.size != side * side * dim:
        raise ValueError(f"vector length {v.size} != {side}^2 * {dim}")
    return FeatureMap(
        frame_index=frame_index,
        timestamp_s=timestamp_s,
        side=side,
        dim=dim,
        values=v.reshape(side, side, dim),
    )


def pairwise_sq_dists(
    x: np.ndarray, y: np.ndarray, yy: np.ndarray | None = None
) -> np.ndarray:
    """All-pairs squared Euclidean distances, shape (len(x), len(y)).

    yy, if given, holds the squared norms of y's rows, computed as here.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"dim mismatch: {x.shape[1]} vs {y.shape[1]}")
    xx = np.einsum("ij,ij->i", x, x)
    if yy is None:
        yy = np.einsum("ij,ij->i", y, y)
    d2 = xx[:, None] + yy[None, :] - 2.0 * (x @ y.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


@dataclass(frozen=True)
class MemoryConfig:
    """All pooled sizes and store capacities, plus the derived token budget.

    Defaults follow the reference configuration: 8/4/1 pooled sides,
    buffer 300, stores 1/25/25/3, which yields a 681-token budget.
    """

    p_spa: int = 8
    p_tem: int = 4
    p_abs: int = 1
    n_buff: int = 300
    n_spa: int = 1
    n_tem: int = 25
    n_abs: int = 25
    n_ret: int = 3
    dim: int = 1024

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise ConfigError(f"{f.name} must be an integer, got {v!r}")
            if v <= 0:
                raise ConfigError(f"{f.name} must be positive")
        if self.n_spa > self.n_buff:
            raise ConfigError("n_spa must not exceed n_buff")
        if self.n_ret > self.n_buff:
            raise ConfigError("n_ret must not exceed n_buff")
        if self.n_ret > self.n_tem:
            raise ConfigError("n_ret must not exceed n_tem")
        if not (self.p_abs <= self.p_tem <= self.p_spa):
            raise ConfigError("pooled sides must satisfy p_abs <= p_tem <= p_spa")

    @property
    def max_size(self) -> int:
        """Hard token budget across all four stores."""
        return (
            (self.n_spa + self.n_ret) * self.p_spa ** 2
            + self.n_tem * self.p_tem ** 2
            + self.n_abs * self.p_abs ** 2
        )
