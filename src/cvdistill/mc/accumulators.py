"""Streaming one-pass moment accumulation with associative merging.

Holds (count, mean, M2) in the Welford/Chan parametrization so that
per-chunk or per-worker partial results can be merged in any grouping
without a second pass over the data.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CovarianceAccumulator"]


class CovarianceAccumulator:
    """Single-pass mean and covariance of d-dimensional samples.

    With a ``shape``, it is an array of that shape of independent
    accumulators, merged elementwise.
    """

    def __init__(self, dim: int, shape: tuple = ()):
        self.count = np.zeros(shape, dtype=np.int64)
        self.mean = np.zeros(shape + (dim,))
        self.m2 = np.zeros(shape + (dim, dim))

    def merge_moments(self, count, mean: np.ndarray, m2: np.ndarray) -> None:
        """Merge a (count, mean, M2) triple from another pass (Chan's update).

        An empty side leaves the other side's moments unchanged, bit for bit.
        """
        total = self.count + count
        frac = count / np.maximum(total, 1)
        delta = mean - self.mean
        self.mean = self.mean + delta * np.expand_dims(frac, -1)
        self.m2 = self.m2 + m2 + (
            delta[..., :, None] * delta[..., None, :] * np.expand_dims(self.count * frac, (-2, -1))
        )
        self.count = total

    def covariance(self) -> np.ndarray:
        """Unbiased central covariance estimate (m2 / (count - 1)); requires count > 1."""
        if self.count <= 1:
            raise ValueError(f"need more than 1 samples, have {self.count}")
        cov = self.m2 / (self.count - 1)
        return 0.5 * (cov + cov.T)
