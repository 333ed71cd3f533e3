"""Shot-by-shot Monte Carlo of the tap-and-threshold distillation pipeline.

Each shot samples a channel level, draws its tap X quadrature, applies the
heralding test to it and, when it can pass, draws its other quadratures
given the tap X; the kept shots feed streaming statistics and histograms.
Sampling the joint Gaussian is exact for every statistic reported here
because each measured set involves at most one quadrature per mode.

One pass over the shots serves a whole threshold sweep. The sorted
thresholds t_0 < ... < t_top cut the tap X axis into strata
[t_j, t_{j+1}) and [t_top, inf); each shot at or above t_0 updates the
moments, post-selection histograms and per-level counts of its own stratum
only. The statistics kept at threshold t_j are then the merge of strata
j..top (Chan's update for the moments, sums for the counts), so a sweep
costs one threshold's sampling however many thresholds it has. The result
is one ``McSweep``, stacked per threshold like ``herald``'s grid ensemble,
with the pre-selection histograms held once and ``errors`` naming the
thresholds without a moment row; ``ln_with_se`` is stacked the same way.

Tap-first sampling. Shots are sampled in fixed-size blocks, block b from
its own stream ``SeedSequence(seed, spawn_key=(b,))`` (counter-keyed
streams in the sense of Salmon et al. 2011, "Parallel random numbers: as
easy as 1, 2, 3"). A block draws its level counts (one multinomial draw),
then one normal per shot, scaled to the shot's tap X. Only the candidates,
the shots with X_tap >= t_0, draw four more normals, mapped to (X_A, P_A,
X_B, P_B) by their level's regression on the tap normal and the Cholesky
factor of the conditional covariance (the Schur complement of the tap
variance). The candidates go to one kernel call, which keeps every one of
them, bins all five series and reads each candidate's stratum off its
X_tap bin (``_kernel_py.stratum_lookup``); no other shot is binned. The
kernel's one BLAS call is a (14, n) product per stratum for the moments'
M2, which OpenBLAS runs on one thread with bits that do not depend on the
thread count (see ``_kernel_py``); the rest of the block is plain numpy.

What is shot-exact and what is not. Every shot's tap X, and so every kept
count, per-level count, post-selection histogram and moment, is sampled
shot by shot from the exact joint law. The other shots are never binned
and their off-tap quadratures never drawn: every pre-selection histogram
is the lowest threshold's post-selection one plus their histogram,
composed in the parent. The other shots of level i are i.i.d. from that
level's law given X_tap < t_0, so the histogram of each series over them,
X_tap included, is exactly Multinomial(count, conditional bin
probabilities), drawn from the stream ``SeedSequence(seed)`` itself, whose
key no block uses (every block key has one entry). Each pre-selection
histogram therefore has its shot-by-shot law, sums to ``n_shots`` and
bounds every post-selection histogram bin by bin; the joint law of the
other shots' histograms across series is not reproduced. A sweep whose t_0
keeps every shot draws no composition. Which shots are candidates depends
on t_0, so a grid row equals the same row of any sweep of the same lowest
threshold, and the one-threshold sweep there in its counts and post-selection
X_tap histogram.

Each worker allocates its normals and the kernel's scratch buffers once and
reuses them for every block; inside the block loop, only the candidates'
arrays and a one-byte-per-shot mask scale with the block. Each worker
samples a contiguous range of blocks; the integer counts are summed, and
the blocks' moments are merged pairwise along one fixed binary tree over
the block indices, the workers merging the subtrees that lie inside their
range and the parent the rest. Output therefore depends on (mixture,
n_shots, seed, thresholds) only, not on the worker count, and is
bit-identical on every run. The pool starts at most one process per usable
CPU, whatever ``n_workers`` asks for; the extra ranges queue.

The run settings are ``cvdistill.config.McConfig``, which is also the
``mc`` section of an experiment config and validates itself when built.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..channel import MixtureState
from ..config import McConfig
from ..distill import (DegenerateSelectionError, check_grid, distilled_gln,
                       series_bin_probabilities)
from ..gaussian import GaussianState, InvalidCovarianceError, log_negativity_gradient
from .accumulators import CovarianceAccumulator
from . import _kernel_py
from ._kernel_py import N_FEATURES, PAIRS

__all__ = [
    "SERIES",
    "PAIRS",
    "McSweep",
    "run_mc_sweep",
    "ln_with_se",
]

# Histogrammed series: tap X, transmitted-beam quadratures, joint quadratures,
# each a row of coefficients over (X_A, P_A, X_B, P_B, X_Tap), as the kernel forms them.
SERIES = ("X_tap", "X_B", "P_B", "X_A+X_B", "P_A-P_B")
SERIES_COEFFICIENTS = np.array([
    [0, 0, 0, 0, 1],
    [0, 0, 1, 0, 0],
    [0, 0, 0, 1, 0],
    [1, 0, 1, 0, 0],
    [0, 1, 0, -1, 0],
], dtype=float)

# Shots per block, each block with its own stream and one kernel call.
# Fixed (not configurable): changing it would change the sampled shots.
CHUNK_SHOTS = 1 << 16

# Fewest kept shots that give a moment-stack row: the 4x4 sample covariance
# of n shots has rank at most n - 1, so below 5 it cannot be positive definite.
MIN_KEPT = 5


@dataclass(eq=False)
class McSweep:
    """Counts, histograms and moments of one Monte Carlo pass over a threshold grid.

    Shaped like ``herald``'s grid ensemble. Held once: the bin ``edges``
    and the pre-selection histograms ``hist_pre`` (5, bins), each series
    summing to ``total_count``, whose counts of the shots below the lowest
    threshold are drawn from their exact conditional law (see the module
    docstring). Per grid threshold, in input order with duplicates:
    ``thresholds``, ``kept_count`` (T,), ``per_level_kept`` (T, L) and the
    post-selection histograms ``hist_post`` (T, 5, bins). Histogram series
    k is ``SERIES[k]``.

    The moment stacks ``pooled_mean`` (K, 4), ``pooled_cov`` (K, 4, 4) and
    ``cov_sampling`` (K, 10, 10), the empirical (distribution-free) sampling
    covariance of the ten covariance-entry estimates in ``PAIRS`` order,
    have one row per threshold that kept at least ``MIN_KEPT`` shots, in
    grid order. ``errors`` has one entry per grid threshold: None where the
    stacks have a row for it, else a :class:`DegenerateSelectionError`
    (fewer than two shots kept) or an :class:`InvalidCovarianceError` (two
    to four kept, too few for a positive-definite covariance). Nothing
    depends on the worker count.
    """

    thresholds: np.ndarray
    total_count: int
    kept_count: np.ndarray
    per_level_kept: np.ndarray
    edges: np.ndarray
    hist_pre: np.ndarray
    hist_post: np.ndarray
    pooled_mean: np.ndarray
    pooled_cov: np.ndarray
    cov_sampling: np.ndarray
    errors: tuple

    @property
    def success_probability(self) -> np.ndarray:
        """Kept fraction of the shots per grid threshold, (T,)."""
        return self.kept_count / self.total_count

    @property
    def success_se(self) -> np.ndarray:
        """Binomial standard error of ``success_probability``, (T,)."""
        p = self.success_probability
        return np.sqrt(p * (1.0 - p) / self.total_count)


def _prepare_components(mixture3: MixtureState):
    """Level weights, tap X scales and means, and per level the map of five normals to a point.

    Reordered tap first, (X_Tap, X_A, P_A, X_B, P_B, P_Tap), each level's
    covariance has a lower-triangular factor whose first column holds the
    tap's standard deviation and the regression of the others on the tap
    normal, and whose lower block factors their conditional covariance (the
    Schur complement of the tap variance). P_Tap, which no statistic reads,
    is never drawn. A point (X_A, P_A, X_B, P_B, X_Tap) takes X_Tap from
    normal z_4 alone and row r from z_4 and z_0..z_r. Per level, each row r
    becomes (r, factor diagonal, [(c, factor entry) for the nonzero c
    before it], mean[r]), the X_Tap row last.
    """
    order = [4, 0, 1, 2, 3, 5]  # tap-first position -> quadrature
    states = mixture3.states
    tap_first = GaussianState(states.mean[:, order], states.cov[:, order][:, :, order])
    factor, mean = tap_first.cholesky_factor(), tap_first.mean
    components = [
        [(order[p], chol[p, p], [(order[c], chol[p, c]) for c in range(p) if chol[p, c] != 0.0], mu[p])
         for p in reversed(range(5))]
        for chol, mu in zip(factor, mean)
    ]
    return mixture3.weights, factor[:, 0, 0], mean[:, 0], components


def _transform(z, level_counts, components, tmp):
    """Turn normals z (5, m), grouped by level in order, into phase-space points in place.

    Every row reads z_4 and lower rows only, and the rows are filled P_B
    first and X_Tap last, so no normal is overwritten before the last row
    that needs it. ``tmp`` is a float64 buffer of at least m entries,
    overwritten.
    """
    start = 0
    for count, rows in zip(level_counts, components):
        if count == 0:
            continue
        seg = z[:, start : start + count]
        term = tmp[:count]
        for r, diag, lower, mean in rows:
            row = seg[r]
            row *= diag
            for c, coef in lower:
                row += np.multiply(coef, seg[c], out=term)
            if mean != 0.0:
                row += mean
        start += count


def _run_blocks(weights, tap_sigma, tap_mean, components, thresholds, n_bins, hist_range, seed,
                n_shots, blocks):
    """Sample the shots of ``blocks`` (a range of block indices) and accumulate them by stratum.

    Block b holds shots b * CHUNK_SHOTS onward, at most CHUNK_SHOTS of them,
    drawn from its own stream ``SeedSequence(seed, spawn_key=(b,))``: one
    multinomial draw of the level counts, one normal per shot for its tap
    X, and four more normals per candidate, a shot with X_tap >=
    thresholds[0], for its other quadratures. Stratum j holds the
    candidates with thresholds[j] <= X_tap < thresholds[j + 1]; the top
    stratum has no upper edge.

    Returns the per-stratum post-selection histograms (n_strata, 5,
    n_bins), per-level kept counts (n_strata, n_levels) and per-level
    counts of the other shots (n_levels,), summed over the blocks, and the
    blocks' per-stratum moments as the nodes of :func:`_push_block_node`'s
    stack.
    """
    n_strata, n_levels = thresholds.shape[0], weights.shape[0]
    hist_post = np.zeros((n_strata, 5, n_bins), dtype=np.int64)
    per_level_kept = np.zeros((n_strata, n_levels), dtype=np.int64)
    below = np.zeros(n_levels, dtype=np.int64)
    nodes = []
    lookup = _kernel_py.stratum_lookup(thresholds, hist_range, n_bins)
    tap_normals = np.empty(CHUNK_SHOTS)
    normals, series = np.empty(5 * CHUNK_SHOTS), np.empty(5 * CHUNK_SHOTS)
    idx = np.empty(5 * CHUNK_SHOTS, dtype=np.int64)
    for b in blocks:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        m = min(CHUNK_SHOTS, n_shots - b * CHUNK_SHOTS)
        level_counts = rng.multinomial(m, weights)
        level_ends = np.cumsum(level_counts)
        z = rng.standard_normal(out=tap_normals[:m])
        x_tap = series[:m]
        for lo, hi, sigma, mean in zip(level_ends - level_counts, level_ends, tap_sigma, tap_mean):
            np.multiply(z[lo:hi], sigma, out=x_tap[lo:hi])
            if mean != 0.0:
                x_tap[lo:hi] += mean
        cand = np.flatnonzero(x_tap >= thresholds[0])
        cand_ends = np.searchsorted(cand, level_ends)
        cand_counts = np.diff(cand_ends, prepend=0)
        below += level_counts - cand_counts

        x = normals[: 5 * cand.size].reshape(5, cand.size)
        rng.standard_normal(out=x[:4])
        np.take(z, cand, out=x[4])
        _transform(x, cand_counts, components, series)
        acc = CovarianceAccumulator(N_FEATURES, thresholds.shape)
        acc.count, acc.mean, acc.m2 = _kernel_py.accumulate_chunk(
            x, cand_ends, lookup, hist_range, n_bins, hist_post, per_level_kept, series, idx)
        _push_block_node(nodes, 0, b, acc)
    return hist_post, per_level_kept, below, nodes


def _push_block_node(stack, level, index, acc):
    """Push the moments ``acc`` of blocks [index * 2**level, (index + 1) * 2**level).

    Nodes must arrive in block order. A right child merges into its left
    sibling when that is on top of the stack, and so on up, so every node
    is the merge of its two halves in one fixed binary tree over the block
    indices: which process pushed which part does not change the result.
    """
    while index % 2 and stack and stack[-1][:2] == (level, index - 1):
        left = stack.pop()[2]
        left.merge_moments(acc.count, acc.mean, acc.m2)
        level, index, acc = level + 1, index // 2, left
    stack.append((level, index, acc))


def run_mc_sweep(mixture3: MixtureState, config: McConfig, thresholds) -> McSweep:
    """Run the Monte Carlo pipeline once for every threshold in ``thresholds``.

    Post-selects on the tap X quadrature of a three-mode (A, B, Tap)
    mixture exceeding each threshold. All thresholds share one pass over
    the ``config.n_shots`` shots (see the module docstring): a grid row has
    the kept count, per-level counts and X_tap post-selection histogram of
    the one-threshold sweep at that threshold with the same config. Its
    other histograms and the sweep's ``hist_pre`` equal those of any sweep
    with the same lowest threshold, and its moments differ from theirs only
    by float reassociation.

    Returns one :class:`McSweep`. A threshold that fewer than ``MIN_KEPT``
    shots pass has its error in ``errors`` and no row in the moment stacks.

    Raises ``ValueError`` as :func:`cvdistill.distill.check_grid` does.
    """
    thresholds = check_grid(mixture3, thresholds)
    grid, grid_index = np.unique(thresholds, return_inverse=True)
    components = _prepare_components(mixture3)
    n_blocks = -(-config.n_shots // CHUNK_SHOTS)
    bounds = [n_blocks * w // config.n_workers for w in range(config.n_workers + 1)]
    jobs = [
        (*components, grid, config.histogram_bins, config.histogram_range,
         config.seed, config.n_shots, range(lo, hi))
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]
    if len(jobs) == 1:
        outs = [_run_blocks(*jobs[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor

        # No more processes than usable CPUs; the jobs stay as split, so
        # the output cannot change.
        try:
            n_cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # no sched_getaffinity on this platform
            n_cpus = os.cpu_count() or 1
        with ProcessPoolExecutor(max_workers=min(len(jobs), n_cpus)) as pool:
            outs = list(pool.map(_run_blocks, *zip(*jobs)))

    # Integer counts sum exactly, and the moments merge along the fixed tree
    # of _push_block_node, so the result does not depend on the workers.
    hist_post, per_level_kept, below = (sum(out[k] for out in outs) for k in range(3))
    nodes = []
    for out in outs:
        for node in out[3]:
            _push_block_node(nodes, *node)
    strata = nodes[0][2]
    for _, _, acc in nodes[1:]:
        strata.merge_moments(acc.count, acc.mean, acc.m2)

    # Threshold j keeps strata j..top: suffix sums of the counts and a
    # suffix merge of the moments, from the top threshold down.
    hist_post = np.cumsum(hist_post[::-1], axis=0)[::-1]
    edges = np.linspace(-config.histogram_range, config.histogram_range, config.histogram_bins + 1)
    # Every candidate is kept at the lowest threshold: its pre-selection
    # counts are that threshold's post-selection counts.
    hist_pre = hist_post[0] + _off_tap_below(mixture3, below, grid[0], edges, config.seed)
    per_level_kept = np.cumsum(per_level_kept[::-1], axis=0)[::-1]
    kept_count = np.cumsum(strata.count[::-1])[::-1]
    mean, cov, cov_sampling = (np.zeros((grid.size,) + shape)
                               for shape in ((4,), (4, 4), (len(PAIRS),) * 2))
    kept_acc = CovarianceAccumulator(N_FEATURES)
    for j in reversed(range(grid.size)):
        kept_acc.merge_moments(strata.count[j], strata.mean[j], strata.m2[j])
        if kept_count[j] >= MIN_KEPT:
            feat_cov = kept_acc.covariance()
            mean[j], cov[j] = kept_acc.mean[:4], feat_cov[:4, :4]
            cov_sampling[j] = _cov_entry_sampling(kept_acc.mean, feat_cov, int(kept_acc.count))

    total = config.n_shots
    errors = tuple(
        None if kept_count[j] >= MIN_KEPT
        else InvalidCovarianceError("covariance matrix is not positive definite")
        if kept_count[j] >= 2
        else DegenerateSelectionError(
            f"only {kept_count[j]} of {total} shots passed threshold {float(grid[j])}")
        for j in grid_index
    )
    rows = grid_index[kept_count[grid_index] >= MIN_KEPT]
    return McSweep(
        thresholds, total, kept_count[grid_index], per_level_kept[grid_index], edges, hist_pre,
        hist_post[grid_index], mean[rows], cov[rows], cov_sampling[rows], errors,
    )


def _off_tap_below(mixture3, below, t0, edges, seed):
    """Pre-selection counts (5, bins) of the shots with X_tap < t0, every series.

    ``below`` (L,) counts those shots per level. They are i.i.d. from their
    level's law given X_tap < t0, so each series' histogram over them, X_tap
    included, is exactly Multinomial(below[i], its conditional bin
    probabilities), drawn from the stream ``SeedSequence(seed)``, whose key
    no block uses.
    """
    levels = np.flatnonzero(below)
    if levels.size == 0:
        return 0
    states = mixture3.states
    probs = series_bin_probabilities(
        GaussianState(states.mean[levels], states.cov[levels]), SERIES_COEFFICIENTS, edges, t0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.multinomial(below[levels, None], probs).sum(axis=0)


def _cov_entry_sampling(feat_mean: np.ndarray, feat_cov: np.ndarray, n: int) -> np.ndarray:
    """Sampling covariance of the ten covariance-entry estimates.

    The kernel accumulates the quadratures and their pairwise products as
    one feature vector, so the CLT covariance of the feature means is
    feat_cov/n; each covariance entry c_jk = mean(x_j x_k) - mean_j mean_k
    is a smooth function of those means, and the delta-method Jacobian
    below maps one onto the other with no distributional assumption.
    """
    jac = np.zeros((len(PAIRS), N_FEATURES))
    for p, (j, k) in enumerate(PAIRS):
        jac[p, 4 + p] = 1.0
        jac[p, j] -= feat_mean[k]
        jac[p, k] -= feat_mean[j]
    return jac @ (feat_cov / n) @ jac.T


def ln_with_se(sweep: McSweep):
    """Log-negativity of each moment-stack row of ``sweep`` and its standard error.

    Returns (ln, se), one entry per stack row: ``distilled_gln``, as for
    ``herald``, and the empirical covariance-entry sampling covariance
    propagated through the analytic gradient of the log-negativity. ``se``
    is an object array, None where the threshold kept at most
    ``N_FEATURES`` shots: the features' sample covariance then has rank
    below ``N_FEATURES`` and the delta method has nothing to stand on.
    """
    rows, cols = np.array(PAIRS).T
    grad = np.where(rows == cols, 1.0, 2.0) * log_negativity_gradient(sweep.pooled_cov)[:, rows, cols]
    var = (grad[:, None] @ sweep.cov_sampling @ grad[:, :, None])[:, 0, 0]
    kept = sweep.kept_count[[exc is None for exc in sweep.errors]]
    return distilled_gln(sweep), np.where(kept > N_FEATURES, np.sqrt(np.maximum(var, 0.0)), None)
