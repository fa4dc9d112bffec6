"""Empirical CDFs and simulation-vs-theory comparison metrics.

A curve holds read-only float arrays. KS compares two curves point by point,
so both must be evaluated on one shared grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CdfCurve", "ecdf", "ks_distance", "dkw_band"]


@dataclass(frozen=True, eq=False)
class CdfCurve:
    """A CDF evaluated on an ordered time grid.

    grid and values are read-only float arrays copied from the input.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.array(self.grid, dtype=float)
        v = np.array(self.values, dtype=float)
        if g.shape != v.shape:
            raise ValueError("grid and values must have equal length")
        if not np.all(np.isfinite(g)) or np.any(np.diff(g) <= 0):
            raise ValueError("grid must be finite and strictly increasing")
        if not np.all(np.isfinite(v)) or np.any(v < 0) or np.any(v > 1) or np.any(np.diff(v) < -1e-12):
            raise ValueError("values must be a CDF: finite, in [0,1] and non-decreasing")
        for name, arr in (("grid", g), ("values", v)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def ecdf(samples, grid) -> CdfCurve:
    """Empirical CDF of the samples on the given grid: P_hat(t) = #{x <= t} / n."""
    samples = np.sort(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise ValueError("need at least one sample")
    counts = np.searchsorted(samples, np.asarray(grid, dtype=float), side="right")
    return CdfCurve(grid, counts / samples.size)


def ks_distance(a: CdfCurve, b: CdfCurve) -> float:
    """Max over the shared grid of |a - b|; curves on different grids raise ValueError."""
    if not np.array_equal(a.grid, b.grid):
        raise ValueError("curves must share one grid")
    return float(np.max(np.abs(a.values - b.values)))


def dkw_band(n: int, alpha: float) -> float:
    """Half-width of the DKW uniform confidence band: sqrt(ln(2/alpha) / (2n))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return float(min(np.sqrt(np.log(2.0 / alpha) / (2.0 * n)), 1.0))
