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

Strata from the tap bin. A candidate's stratum, the number of thresholds
t_1 < ... < t_top at or below its X_tap, is read off its X_tap histogram
bin, which the engine has already computed, with no binary search.
``bin_index`` is monotone non-decreasing in the value: it adds, multiplies
by a positive scale, clamps and truncates, each step monotone in floating
point. So a threshold binned below a candidate's bin b lies below the
candidate, and a threshold binned above b lies above it (else the
candidate's bin would be at least, or at most, the threshold's). Only the
thresholds that fall in bin b itself need a comparison. ``stratum_lookup``
bins the thresholds once with the same arithmetic and returns ``base``,
where base[b] counts the thresholds binned below b, and ``table`` (k,
bins), whose column b holds the thresholds binned into b, padded with NaN,
k being the most thresholds that share a bin. The stratum is then
base[b] + sum_i (X_tap >= table[i, b]), exactly searchsorted's answer at
any grid, in k + 1 gathers per candidate. No X_tap reaches the NaN
padding; +inf padding would count an X_tap of +inf once too often. A bin
that holds more than ``MAX_PER_BIN`` thresholds, as the end bins do when
the grid runs past the histogram range, is left out of the table, and its
candidates are binary-searched, which bounds k.
"""

from __future__ import annotations

import numpy as np

# vech ordering of the quadratic features, shared with the engine's
# standard-error propagation.
PAIRS = [(j, k) for j in range(4) for k in range(j, 4)]
N_FEATURES = 4 + len(PAIRS)
# Offset of each histogrammed series in one flat bincount.
_SERIES_OFFSET = np.arange(5)[:, None]
# Most thresholds a histogram bin may hold in the stratum lookup's table.
# Each table row costs a candidate a gather, a comparison and an add, about
# a fifteenth of a binary search over 18 thresholds, so the candidates of
# a bin holding more are binary-searched instead.
MAX_PER_BIN = 8


def bin_index(values, hist_range, n_bins, out):
    """Write the histogram bin of each entry of float ``values`` to int64 ``out``.

    ``values`` is overwritten. The bins clamp as the module docstring says.
    """
    values += hist_range
    values *= n_bins / (2.0 * hist_range)
    np.fmax(values, 0, out=values)  # NaN to 0
    np.fmin(values, n_bins - 1, out=values)
    np.copyto(out, values, casting="unsafe")


def stratum_lookup(thresholds, hist_range, n_bins):
    """(base, table, crowded, edges) of the stratum lookup of sorted, distinct ``thresholds``.

    ``edges`` is thresholds[1:]; base (n_bins,) counts the edges binned
    below each bin; column b of table (k, n_bins) holds, in order and padded
    with NaN, the edges binned into b, unless b holds more than
    ``MAX_PER_BIN`` of them. ``crowded`` (n_bins,) bool marks such bins, or
    is None if there are none. See the module docstring.
    """
    edges = np.asarray(thresholds[1:], dtype=float)
    edge_bin = np.empty(edges.size, dtype=np.int64)
    bin_index(edges.copy(), hist_range, n_bins, edge_bin)
    per_bin = np.bincount(edge_bin, minlength=n_bins)
    base = np.cumsum(per_bin) - per_bin
    crowded = per_bin > MAX_PER_BIN
    listed = ~crowded[edge_bin]
    table = np.full((per_bin[~crowded].max(initial=0), n_bins), np.nan)
    table[(np.arange(edges.size) - base[edge_bin])[listed], edge_bin[listed]] = edges[listed]
    return base, table, crowded if crowded.any() else None, edges


def accumulate_chunk(x, tap_bin, level_ends, lookup, hist_range, n_bins, hist_post,
                     per_level_kept, series, idx):
    """Bin the kept shots of a chunk and accumulate them by stratum.

    x : (5, m) float64, rows (X_A, P_A, X_B, P_B, X_Tap), every shot with
        X_Tap >= thresholds[0]; shots level_ends[i - 1]:level_ends[i]
        belong to channel level i
    tap_bin : (m,) int64, ``bin_index`` of x[4], which the kernel does not
        bin again
    lookup : ``stratum_lookup(thresholds, hist_range, n_bins)`` of the
        sorted, distinct thresholds; a shot is kept in stratum j,
        thresholds[j] <= X_Tap < thresholds[j + 1] (the top stratum has no
        upper edge). ``bin_index`` is monotone, so the thresholds binned
        below a shot's tap bin lie below its X_Tap and those binned above
        lie above it: j is base[tap_bin] plus the thresholds of its own
        bin that X_Tap reaches, searchsorted's answer with no search except
        in a crowded bin (see the module docstring)
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
    np.copyto(series[1:3], x[2:4])
    np.add(x[0], x[2], out=series[3])
    np.subtract(x[1], x[3], out=series[4])
    bin_index(series[1:], hist_range, n_bins, idx[1:])
    np.copyto(idx[0], tap_bin)
    idx += _SERIES_OFFSET * n_bins

    # Every bin is in range, so "clip" never clips: it skips the bounds check.
    base, table, crowded, edges = lookup
    strata = np.take(base, tap_bin, mode="clip")
    for row in table:
        strata += x[4] >= np.take(row, tap_bin, out=series[0], mode="clip")
    if crowded is not None:
        searched = np.flatnonzero(np.take(crowded, tap_bin, mode="clip"))
        strata[searched] = np.searchsorted(edges, x[4, searched], side="right")
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
