"""Shot-by-shot Monte Carlo of the tap-and-threshold distillation pipeline.

Each shot samples a channel level, draws a phase-space point from that
component's Gaussian distribution, applies the heralding test to the tap X
quadrature, and accumulates streaming statistics and histograms. Sampling
the joint Gaussian is exact for every statistic reported here because each
measured set involves at most one quadrature per mode.

One pass over the shots serves a whole threshold sweep. The sorted
thresholds t_0 < ... < t_top cut the tap X axis into strata
[t_j, t_{j+1}) and [t_top, inf); each shot at or above t_0 updates the
moments, post-selection histograms and per-level counts of its own stratum
only. The statistics kept at threshold t_j are then the merge of strata
j..top (Chan's update for the moments, sums for the counts), so a sweep
costs one threshold's sampling however many thresholds it has, and its
counts and histograms equal those of a one-threshold sweep at each
threshold. The result is one ``McSweep``, stacked per threshold like
``herald``'s grid ensemble, with the pre-selection histograms held once.

Shots are sampled in fixed-size blocks. Block b draws its level counts
(one multinomial draw) and five normals per shot from its own stream,
``SeedSequence(seed, spawn_key=(b,))`` (counter-keyed streams in the
sense of Salmon et al. 2011, "Parallel random numbers: as easy as 1, 2,
3"), turns them into phase-space points with a per-level lower-triangular
transform, and makes one kernel call. Each worker allocates its normals and
the kernel's scratch buffers once and reuses them for every block; inside
the block loop, only the kept shots' arrays and a one-byte-per-shot mask
scale with the block. Each worker samples a contiguous
range of blocks; the integer counts are summed, and the blocks' moments
are merged pairwise along one fixed binary tree over the block indices,
the workers merging the subtrees that lie inside their range and the
parent the rest. Output therefore depends on (mixture, n_shots, seed)
only, not on the worker count, and is bit-identical on every run.

The run settings are ``cvdistill.config.McConfig``, which is also the
``mc`` section of an experiment config and validates itself when built.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..channel import MixtureState
from ..config import McConfig
from ..distill import DegenerateSelectionError
from ..gaussian import InvalidCovarianceError, gaussian_log_negativity, log_negativity_gradient
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

# Histogrammed series: tap X, transmitted-beam quadratures, joint quadratures.
SERIES = ("X_tap", "X_B", "P_B", "X_A+X_B", "P_A-P_B")

# Shots per block, each block with its own stream and one kernel call.
# Fixed (not configurable): changing it would change the sampled shots.
CHUNK_SHOTS = 1 << 16


@dataclass(eq=False)
class McSweep:
    """Counts, histograms and moments of one Monte Carlo pass over a threshold grid.

    Shaped like ``herald``'s grid ensemble. Held once: the bin ``edges``
    and the pre-selection histograms ``hist_pre`` (5, bins), each series
    summing to ``total_count``. Per grid threshold, in input order with
    duplicates: ``thresholds``, ``kept_count`` (T,), ``per_level_kept``
    (T, L) and the post-selection histograms ``hist_post`` (T, 5, bins).
    Histogram series k is ``SERIES[k]``.

    The moment stacks ``pooled_mean`` (K, 4), ``pooled_cov`` and its
    entrywise standard errors ``pooled_cov_se`` (K, 4, 4), and
    ``cov_sampling`` (K, 10, 10), the empirical (distribution-free) sampling
    covariance of the ten covariance-entry estimates in ``PAIRS`` order,
    have one row per threshold that kept at least two shots, in grid order.
    ``errors`` has one entry per grid threshold: None where the stacks have
    a row for it, else its :class:`DegenerateSelectionError`. Nothing
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
    pooled_cov_se: np.ndarray
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
    """Level weights and, per level, the map of five normals to (X_A, P_A, X_B, P_B, X_Tap).

    Each level's covariance factor is lower triangular in the order
    (X_A, P_A, X_B, P_B, X_Tap, P_Tap), so its rows 0-4 read normals
    z_0..z_4 only and P_Tap, which no statistic reads, is never drawn.
    Per level, each row r becomes (r, factor[r, r], [(c, factor[r, c])
    for the nonzero c < r], mean[r]), last row first.
    """
    components = []
    for state in mixture3.states:
        chol = state.cholesky_factor()
        components.append([
            (r, chol[r, r], [(c, chol[r, c]) for c in range(r) if chol[r, c] != 0.0], state.mean[r])
            for r in reversed(range(5))
        ])
    return np.asarray(mixture3.weights, dtype=float), components


def _transform(z, level_counts, components, tmp):
    """Turn normals z (5, m), grouped by level in order, into phase-space points in place.

    Row r of a point reads z_0..z_r only, so filling the rows from the last
    one down overwrites no normal that a later row still needs. ``tmp`` is
    a float64 buffer of at least m entries, overwritten.
    """
    start = 0
    for count, rows in zip(level_counts, components):
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


def _run_blocks(weights, components, thresholds, n_bins, hist_range, seed, n_shots, blocks):
    """Sample the shots of ``blocks`` (a range of block indices) and accumulate them by stratum.

    Block b holds shots b * CHUNK_SHOTS onward, at most CHUNK_SHOTS of them,
    drawn from its own stream ``SeedSequence(seed, spawn_key=(b,))``: one
    multinomial draw of the level counts, then five normals per shot.
    Stratum j holds the shots with thresholds[j] <= X_tap < thresholds[j + 1];
    the top stratum has no upper edge.

    Returns the pre-selection histograms (5, n_bins), the per-stratum
    post-selection histograms (n_strata, 5, n_bins) and per-level kept
    counts (n_strata, n_levels), summed over the blocks, and the blocks'
    per-stratum moments as the nodes of :func:`_push_block_node`'s stack.
    """
    n_strata = thresholds.shape[0]
    hist_pre = np.zeros((5, n_bins), dtype=np.int64)
    hist_post = np.zeros((n_strata, 5, n_bins), dtype=np.int64)
    per_level_kept = np.zeros((n_strata, weights.shape[0]), dtype=np.int64)
    nodes = []
    normals, series = np.empty(5 * CHUNK_SHOTS), np.empty(5 * CHUNK_SHOTS)
    idx = np.empty(5 * CHUNK_SHOTS, dtype=np.int64)
    for b in blocks:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        m = min(CHUNK_SHOTS, n_shots - b * CHUNK_SHOTS)
        level_counts = rng.multinomial(m, weights)
        x = rng.standard_normal(out=normals[: 5 * m].reshape(5, m))
        _transform(x, level_counts, components, series)
        acc = CovarianceAccumulator(N_FEATURES, thresholds.shape)
        acc.count, acc.mean, acc.m2 = _kernel_py.accumulate_chunk(
            x, np.cumsum(level_counts), thresholds, hist_range, n_bins,
            hist_pre, hist_post, per_level_kept, series, idx,
        )
        _push_block_node(nodes, 0, b, acc)
    return hist_pre, hist_post, per_level_kept, nodes


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
    the counts and histograms of the one-threshold sweep at that threshold
    with the same config, and its moments differ from that sweep's only by
    float reassociation.

    Returns one :class:`McSweep`. A threshold that fewer than two shots
    pass has a :class:`DegenerateSelectionError` in ``errors`` and no row
    in the moment stacks.

    Raises
    ------
    ValueError
        If the mixture is not three-mode, or ``thresholds`` is empty or
        holds a non-finite value.
    """
    if mixture3.n_modes != 3:
        raise ValueError(f"expected a three-mode (A, B, Tap) mixture, got {mixture3.n_modes}")
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.ndim != 1 or thresholds.size == 0:
        raise ValueError("thresholds must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(thresholds)):
        raise ValueError(f"thresholds must be finite, got {thresholds.tolist()}")
    grid, grid_index = np.unique(thresholds, return_inverse=True)
    weights, components = _prepare_components(mixture3)
    n_blocks = -(-config.n_shots // CHUNK_SHOTS)
    bounds = [n_blocks * w // config.n_workers for w in range(config.n_workers + 1)]
    jobs = [
        (weights, components, grid, config.histogram_bins, config.histogram_range,
         config.seed, config.n_shots, range(lo, hi))
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]
    if len(jobs) == 1:
        outs = [_run_blocks(*jobs[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            outs = list(pool.map(_run_blocks, *zip(*jobs)))

    # Integer counts sum exactly, and the moments merge along the fixed tree
    # of _push_block_node, so the result does not depend on the workers.
    hist_pre, hist_post, per_level_kept = (sum(out[k] for out in outs) for k in range(3))
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
    per_level_kept = np.cumsum(per_level_kept[::-1], axis=0)[::-1]
    kept_count = np.cumsum(strata.count[::-1])[::-1]
    moments = [np.zeros((grid.size,) + shape) for shape in ((4,), (4, 4), (4, 4), (len(PAIRS),) * 2)]
    kept_acc = CovarianceAccumulator(N_FEATURES)
    for j in reversed(range(grid.size)):
        kept_acc.merge_moments(strata.count[j], strata.mean[j], strata.m2[j])
        if kept_count[j] >= 2:
            for stack, value in zip(moments, _moments(kept_acc)):
                stack[j] = value

    total = config.n_shots
    errors = tuple(
        None if kept_count[j] >= 2 else DegenerateSelectionError(
            f"only {kept_count[j]} of {total} shots passed threshold {float(grid[j])}")
        for j in grid_index
    )
    rows = grid_index[kept_count[grid_index] >= 2]
    return McSweep(
        grid[grid_index], total, kept_count[grid_index], per_level_kept[grid_index],
        np.linspace(-config.histogram_range, config.histogram_range, config.histogram_bins + 1),
        hist_pre, hist_post[grid_index], *(stack[rows] for stack in moments), errors,
    )


def _moments(acc):
    """(mean, covariance, its standard errors, cov_sampling) of the kept shots ``acc``."""
    feat_cov = acc.covariance(ddof=1)
    cov_sampling = _cov_entry_sampling(acc.mean, feat_cov, int(acc.count))
    cov_se = np.zeros((4, 4))
    for p, (j, k) in enumerate(PAIRS):
        cov_se[j, k] = cov_se[k, j] = np.sqrt(max(cov_sampling[p, p], 0.0))
    return acc.mean[:4], feat_cov[:4, :4], cov_se, cov_sampling


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


def ln_with_se(sweep: McSweep, j: int):
    """Log-negativity of the Monte Carlo covariance at grid threshold j and its standard error.

    The error propagates the empirical covariance-entry sampling
    covariance through the analytic gradient of the log-negativity. It is
    None when the threshold kept at most ``N_FEATURES`` shots: the sample
    covariance of the features then has rank below ``N_FEATURES`` and the
    delta method has nothing to stand on.

    Raises ``InvalidCovarianceError`` when the threshold kept at most 4
    shots: the 4x4 sample covariance of n shots has rank at most n - 1 < 4,
    however its rounded eigenvalues come out.
    """
    kept = int(sweep.kept_count[j])
    if kept <= 4:
        raise InvalidCovarianceError("covariance matrix is not positive definite")
    row = sum(exc is None for exc in sweep.errors[:j])
    cov = sweep.pooled_cov[row]
    ln = gaussian_log_negativity(cov)
    if kept <= N_FEATURES:
        return ln, None
    g = log_negativity_gradient(cov)
    grad = np.array([g[a, b] if a == b else 2.0 * g[a, b] for a, b in PAIRS])
    var = float(grad @ sweep.cov_sampling[row] @ grad)
    return ln, float(np.sqrt(max(var, 0.0)))
