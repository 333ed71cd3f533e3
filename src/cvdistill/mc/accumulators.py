"""Streaming one-pass moment accumulation with associative merging.

Holds (count, mean, M2) in the Welford/Chan parametrization so that
per-chunk or per-worker partial results can be merged in any grouping
without a second pass over the data.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CovarianceAccumulator"]


class CovarianceAccumulator:
    """Single-pass mean and covariance of d-dimensional samples."""

    def __init__(self, dim: int):
        self.dim = dim
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros((dim, dim))

    def merge_moments(self, count: int, mean: np.ndarray, m2: np.ndarray) -> None:
        """Merge a (count, mean, M2) triple from another pass (Chan's update)."""
        if count == 0:
            return
        if self.count == 0:
            self.count = int(count)
            self.mean = np.array(mean, dtype=float)
            self.m2 = np.array(m2, dtype=float)
            return
        total = self.count + count
        delta = mean - self.mean
        self.mean = self.mean + delta * (count / total)
        self.m2 = self.m2 + m2 + np.outer(delta, delta) * (self.count * count / total)
        self.count = total

    def covariance(self, ddof: int = 1) -> np.ndarray:
        """Central covariance estimate; requires count > ddof."""
        if self.count <= ddof:
            raise ValueError(f"need more than {ddof} samples, have {self.count}")
        cov = self.m2 / (self.count - ddof)
        return 0.5 * (cov + cov.T)
