"""Product Gaussian kernel with a diagonal bandwidth matrix.

The smoothing weight between a query point ``t`` and an observation
``t_i`` is ``prod_d phi((t_d - t_id) / h_d) / h_d`` where ``phi`` is the
standard normal density.  Bandwidths are derived from covariate scale:
``h_d = scale * sd(column d)`` with the n-1 denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DegenerateCovariateError, ShapeError

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class KernelConfig:
    """Per-dimension bandwidths (diagonal H) of the Gaussian product kernel."""

    bandwidths: np.ndarray
    scale: float | None = None  # recorded when built from covariate sd

    def __post_init__(self):
        h = np.atleast_1d(np.asarray(self.bandwidths, dtype=np.float64))
        object.__setattr__(self, "bandwidths", h)
        if h.ndim != 1 or h.size == 0:
            raise ConfigError("bandwidths must be a non-empty vector")
        if not np.all(np.isfinite(h)) or np.any(h <= 0):
            raise ConfigError("bandwidths must be strictly positive and finite")

    @property
    def q(self) -> int:
        return self.bandwidths.shape[0]


def kernel_weight(config: KernelConfig, t, ti) -> float:
    """Kernel weight between two points in R^q; strictly positive."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    ti = np.atleast_1d(np.asarray(ti, dtype=np.float64))
    if t.shape != (config.q,) or ti.shape != (config.q,):
        raise ShapeError(f"points must have dimension {config.q}")
    z = (t - ti) / config.bandwidths
    dens = _INV_SQRT_2PI * np.exp(-0.5 * z * z) / config.bandwidths
    return float(np.prod(dens))


def kernel_weights(config: KernelConfig, t, T) -> np.ndarray:
    """Weights between one query point and every row of T, shape (n,)."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    T = np.asarray(T, dtype=np.float64)
    if T.ndim != 2 or T.shape[1] != config.q or t.shape != (config.q,):
        raise ShapeError(f"expected query (q,) and matrix (n, q) with q={config.q}")
    z = (t[None, :] - T) / config.bandwidths
    logw = -0.5 * np.sum(z * z, axis=1)
    norm = np.prod(_INV_SQRT_2PI / config.bandwidths)
    return norm * np.exp(logw)


def column_sds(T) -> np.ndarray:
    """Sample standard deviation (ddof=1) per column."""
    T = np.asarray(T, dtype=np.float64)
    if T.ndim != 2:
        raise ShapeError("expected an (n, q) matrix")
    if T.shape[0] < 2:
        raise ConfigError("need at least 2 rows to estimate a scale")
    return T.std(axis=0, ddof=1)


def bandwidth_from_scale(T, scale: float) -> KernelConfig:
    """Bandwidths ``scale * sd(column d)`` for every smooth covariate."""
    if not np.isfinite(scale) or scale <= 0:
        raise ConfigError(f"scale must be positive, got {scale}")
    sds = column_sds(T)
    dead = np.flatnonzero(sds <= 0)
    if dead.size:
        raise DegenerateCovariateError(
            f"smooth covariate column(s) {dead.tolist()} are constant"
        )
    return KernelConfig(bandwidths=scale * sds, scale=float(scale))


def bandwidth_grid(T, lo: float, hi: float, steps: int) -> list:
    """Kernel configs with scales evenly spaced on [lo, hi] inclusive."""
    if not (0 < lo <= hi) or not np.isfinite(lo) or not np.isfinite(hi):
        raise ConfigError(f"need 0 < lo <= hi, got lo={lo}, hi={hi}")
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    scales = [lo] if steps == 1 else np.linspace(lo, hi, steps).tolist()
    return [bandwidth_from_scale(T, s) for s in scales]
