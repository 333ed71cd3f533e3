"""Shot kernel: binning, selection and kept-shot moments of one chunk.

Histogram bins truncate (value + range) * bins / (2 * range) toward zero
and clamp into the end bins, so a non-finite value lands in an end bin.

Kept-shot moments are accumulated over the 14 features
(x0..x3, x_j * x_k for j <= k): the leading 4x4 block of the resulting
M2 matrix is the central covariance of the quadratures, and the full
14-dim covariance provides a distribution-free sampling covariance for
the covariance-entry estimates.
"""

from __future__ import annotations

import numpy as np

# vech ordering of the quadratic features, shared with the engine's
# standard-error propagation.
PAIRS = [(j, k) for j in range(4) for k in range(j, 4)]
N_FEATURES = 4 + len(PAIRS)
# Offset of each histogrammed series in one flat bincount.
_SERIES_OFFSET = np.arange(5)[:, None]


def accumulate_chunk(x, level_ends, thresholds, hist_range, n_bins, hist_pre, hist_post, per_level_kept):
    """Bin every shot of a chunk and accumulate its kept shots by stratum.

    x : (5, m) float64, rows (X_A, P_A, X_B, P_B, X_Tap); shots
        level_ends[i - 1]:level_ends[i] belong to channel level i
    thresholds : (S,) sorted, distinct; a shot with X_Tap >= thresholds[0]
        is kept in stratum j, thresholds[j] <= X_Tap < thresholds[j + 1]
        (the top stratum has no upper edge)
    hist_pre : (5, n_bins) int64; hist_post : (S, 5, n_bins) int64;
    per_level_kept : (S, n_levels) int64; all incremented in place

    Returns (count (S,), mean (S, 14), m2 (S, 14, 14)) over each
    stratum's kept-shot feature vectors; an empty stratum has zeros.
    """
    m = x.shape[1]
    n_strata, n_levels = hist_post.shape[0], per_level_kept.shape[1]
    series = np.empty((5, m))  # X_tap, X_B, P_B, X_A+X_B, P_A-P_B
    series[0] = x[4]
    series[1:3] = x[2:4]
    np.add(x[0], x[2], out=series[3])
    np.subtract(x[1], x[3], out=series[4])
    series += hist_range
    series *= n_bins / (2.0 * hist_range)
    idx = series.astype(np.int64)
    np.clip(idx, 0, n_bins - 1, out=idx)
    idx += _SERIES_OFFSET * n_bins
    hist_pre += np.bincount(idx.ravel(), minlength=5 * n_bins).reshape(5, n_bins)

    rows = np.flatnonzero(x[4] >= thresholds[0])
    strata = np.searchsorted(thresholds, x[4, rows], side="right") - 1
    # A stable sort on the smallest integer type that holds the stratum
    # index (a radix sort up to 16 bits) groups the kept shots by stratum.
    order = np.argsort(strata.astype(np.min_scalar_type(n_strata)), kind="stable")
    rows, strata = rows[order], strata[order]
    hist_post += np.bincount(
        (np.take(idx, rows, axis=1) + strata * (5 * n_bins)).ravel(),
        minlength=n_strata * 5 * n_bins,
    ).reshape(n_strata, 5, n_bins)
    levels = np.searchsorted(level_ends, rows, side="right")
    per_level_kept += np.bincount(
        strata * n_levels + levels, minlength=n_strata * n_levels
    ).reshape(n_strata, n_levels)

    count = np.bincount(strata, minlength=n_strata)
    mean = np.zeros((n_strata, N_FEATURES))
    m2 = np.zeros((n_strata, N_FEATURES, N_FEATURES))
    feats = np.empty((N_FEATURES, rows.size))
    np.take(x[:4], rows, axis=1, out=feats[:4])
    start = 4
    for j in range(4):  # x_j * x_k for k >= j, in PAIRS order
        np.multiply(feats[j], feats[j:4], out=feats[start : start + 4 - j])
        start += 4 - j
    ends = np.cumsum(count)
    for j in np.flatnonzero(count):
        f = feats[:, ends[j] - count[j] : ends[j]]
        mean[j] = f.mean(axis=1)
        d = f - mean[j][:, None]
        m2[j] = np.einsum("in,jn->ij", d, d)
    return count, mean, m2
