"""Shot kernel: binning, selection and kept-shot moments of one chunk.

Histogram bins clamp (value + range) * bins / (2 * range) into [0, bins - 1]
and truncate it toward zero: a value past either end of the range, infinite
or not, counts in the end bin on its side, and NaN in the bottom bin.

Kept-shot moments are accumulated over the 14 features
(x0..x3, x_j * x_k for j <= k): the leading 4x4 block of the resulting
M2 matrix is the central covariance of the quadratures, and the full
14-dim covariance provides a distribution-free sampling covariance for
the covariance-entry estimates.

Each stratum's M2 is one BLAS product of its centred features with their
transpose, f @ f.T; the moments only feed Chan's merge, so any exact
centred M2 serves. OpenBLAS 0.3.31 runs that (14, n) product on one
thread at every size a chunk can give it (n <= 65,536), and gives the same
bits at 1, 2 and 4 threads.
"""

from __future__ import annotations

import numpy as np

# vech ordering of the quadratic features, shared with the engine's
# standard-error propagation.
PAIRS = [(j, k) for j in range(4) for k in range(j, 4)]
N_FEATURES = 4 + len(PAIRS)
# Offset of each histogrammed series in one flat bincount.
_SERIES_OFFSET = np.arange(5)[:, None]


def bin_index(values, hist_range, n_bins, out):
    """Write the histogram bin of each entry of float ``values`` to int64 ``out``.

    ``values`` is overwritten. The bins clamp as the module docstring says.
    """
    values += hist_range
    values *= n_bins / (2.0 * hist_range)
    np.fmax(values, 0, out=values)  # NaN to 0
    np.fmin(values, n_bins - 1, out=values)
    np.copyto(out, values, casting="unsafe")


def accumulate_chunk(x, level_ends, thresholds, hist_range, n_bins, hist_post, per_level_kept,
                     series, idx):
    """Bin the kept shots of a chunk and accumulate them by stratum.

    x : (5, m) float64, rows (X_A, P_A, X_B, P_B, X_Tap), every shot with
        X_Tap >= thresholds[0]; shots level_ends[i - 1]:level_ends[i]
        belong to channel level i
    thresholds : (S,) sorted, distinct; a shot is kept in stratum j,
        thresholds[j] <= X_Tap < thresholds[j + 1] (the top stratum has no
        upper edge)
    hist_post : (S, 5, n_bins) int64, the histograms of the series X_tap,
        X_B, P_B, X_A+X_B and P_A-P_B; per_level_kept : (S, n_levels) int64;
        both incremented in place
    series, idx : flat float64 and int64 scratch buffers of at least 5 m
        entries, overwritten, so one pair serves every chunk in turn

    Returns (count (S,), mean (S, 14), m2 (S, 14, 14)) over each
    stratum's kept-shot feature vectors, m2 by one BLAS product per
    non-empty stratum; an empty stratum has zeros.
    """
    m = x.shape[1]
    n_strata, n_levels = hist_post.shape[0], per_level_kept.shape[1]
    series = series[: 5 * m].reshape(5, m)
    idx = idx[: 5 * m].reshape(5, m)
    np.copyto(series[0], x[4])
    np.copyto(series[1:3], x[2:4])
    np.add(x[0], x[2], out=series[3])
    np.subtract(x[1], x[3], out=series[4])
    bin_index(series, hist_range, n_bins, idx)
    idx += _SERIES_OFFSET * n_bins

    strata = np.searchsorted(thresholds[1:], x[4], side="right")  # every shot is >= thresholds[0]
    # bincount needs no order: the histograms and level counts take the
    # candidates as they arrive, level by level.
    idx += strata * (5 * n_bins)
    hist_post += np.bincount(idx.ravel(), minlength=n_strata * 5 * n_bins).reshape(
        n_strata, 5, n_bins)
    levels = np.repeat(np.arange(n_levels), np.diff(level_ends, prepend=0))
    kept = np.bincount(strata * n_levels + levels, minlength=n_strata * n_levels).reshape(
        n_strata, n_levels)
    per_level_kept += kept

    # A stable sort on the smallest integer type that holds the stratum
    # index (a radix sort up to 16 bits) groups the shots by stratum for
    # the moments.
    rows = np.argsort(strata.astype(np.min_scalar_type(n_strata)), kind="stable")
    count = kept.sum(axis=1)
    mean = np.zeros((n_strata, N_FEATURES))
    m2 = np.zeros((n_strata, N_FEATURES, N_FEATURES))
    feats = np.empty((N_FEATURES, m))
    for k in range(4):  # rows is a permutation: "clip" never clips, it skips the bounds check
        np.take(x[k], rows, out=feats[k], mode="clip")
    start = 4
    for j in range(4):  # x_j * x_k for k >= j, in PAIRS order
        np.multiply(feats[j], feats[j:4], out=feats[start : start + 4 - j])
        start += 4 - j
    ends = np.cumsum(count)
    for j in np.flatnonzero(count):
        f = feats[:, ends[j] - count[j] : ends[j]]
        mean[j] = f.mean(axis=1)
        f -= mean[j][:, None]
        m2[j] = f @ f.T
    return count, mean, m2
