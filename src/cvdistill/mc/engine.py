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
counts and histograms equal those of separate runs at each threshold.

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
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..channel import MixtureState
from ..distill import DegenerateSelectionError
from ..gaussian import InvalidCovarianceError, gaussian_log_negativity, log_negativity_gradient
from .accumulators import CovarianceAccumulator
from . import _kernel_py
from ._kernel_py import N_FEATURES, PAIRS

__all__ = [
    "SERIES",
    "PAIRS",
    "McConfig",
    "McResult",
    "run_mc",
    "run_mc_sweep",
    "ln_with_se",
]

# Histogrammed series: tap X, transmitted-beam quadratures, joint quadratures.
SERIES = ("X_tap", "X_B", "P_B", "X_A+X_B", "P_A-P_B")

# Shots per block, each block with its own stream and one kernel call.
# Fixed (not configurable): changing it would change the sampled shots.
CHUNK_SHOTS = 1 << 16


@dataclass
class McConfig:
    """Monte Carlo run settings; the default shot count is desk scale."""

    n_shots: int = 10_000_000
    seed: int = 12345
    histogram_bins: int = 201
    histogram_range: float = 25.0
    n_workers: int = 1

    def __post_init__(self) -> None:
        if self.n_shots < 1:
            raise ValueError("n_shots must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.histogram_bins < 2:
            raise ValueError("histogram_bins must be >= 2")
        if self.histogram_range <= 0:
            raise ValueError("histogram_range must be positive")
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")


@dataclass(eq=False)
class McResult:
    """Post-selected statistics of one Monte Carlo run.

    ``histograms`` maps each series name to {"pre": (edges, counts),
    "post": (edges, counts)}; pre-selection counts sum to ``total_count``,
    post-selection counts to ``kept_count``. ``cov_sampling`` is the
    empirical (distribution-free) sampling covariance of the ten
    independent covariance-entry estimates, in the ordering of ``PAIRS``.
    The statistics depend on (mixture, n_shots, seed) only; the worker
    count is recorded as a setting and does not change them.
    """

    kept_count: int
    total_count: int
    success_probability_hat: float
    success_probability_se: float
    pooled_mean_hat: np.ndarray
    pooled_cov_hat: np.ndarray
    pooled_cov_se: np.ndarray
    cov_sampling: np.ndarray
    histograms: dict
    per_level_kept: np.ndarray
    seed: int
    n_workers: int


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


def run_mc(mixture3: MixtureState, config: McConfig, threshold_x: float) -> McResult:
    """Run the Monte Carlo pipeline on a three-mode (A, B, Tap) mixture.

    Post-selects on the tap X quadrature exceeding ``threshold_x``: the
    one-threshold case of :func:`run_mc_sweep`.

    Raises
    ------
    DegenerateSelectionError
        If fewer than two shots pass the threshold; the exception carries
        the pre-selection statistics in its ``pre_stats`` attribute.
    """
    (result,) = run_mc_sweep(mixture3, config, [threshold_x])
    if isinstance(result, DegenerateSelectionError):
        raise result
    return result


def run_mc_sweep(mixture3: MixtureState, config: McConfig, thresholds) -> list:
    """Run the Monte Carlo pipeline once for every threshold in ``thresholds``.

    All thresholds share one pass over the ``config.n_shots`` shots (see
    the module docstring). The result at each threshold has the counts and
    histograms of a separate :func:`run_mc` at that threshold with the same
    config, and its moments differ from that run's only by float
    reassociation.

    Returns one entry per input threshold, in input order (duplicates
    included): an :class:`McResult`, or, where fewer than two shots pass,
    the :class:`DegenerateSelectionError` that :func:`run_mc` would raise,
    with its ``pre_stats``.

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
    edges = np.linspace(-config.histogram_range, config.histogram_range, config.histogram_bins + 1)
    kept_acc = CovarianceAccumulator(N_FEATURES)
    results = [None] * grid.size
    for j in reversed(range(grid.size)):
        kept_acc.merge_moments(strata.count[j], strata.mean[j], strata.m2[j])
        results[j] = _result(
            kept_acc, float(grid[j]), edges, hist_pre, hist_post[j], per_level_kept[j].copy(),
            config,
        )
    return [results[j] for j in grid_index]


def _result(acc, threshold, edges, hist_pre, hist_post, per_level_kept, config):
    """McResult of the shots ``acc`` kept at ``threshold``, or its DegenerateSelectionError."""
    histograms = {
        name: {"pre": (edges, hist_pre[k].copy()), "post": (edges, hist_post[k].copy())}
        for k, name in enumerate(SERIES)
    }
    kept = int(acc.count)
    total = config.n_shots
    if kept < 2:
        exc = DegenerateSelectionError(
            f"only {kept} of {total} shots passed threshold {threshold}"
        )
        exc.pre_stats = {
            "kept_count": kept,
            "total_count": total,
            "histograms": {name: histograms[name]["pre"] for name in SERIES},
            "per_level_kept": per_level_kept,
        }
        return exc

    p_hat = kept / total
    p_se = float(np.sqrt(p_hat * (1.0 - p_hat) / total))
    feat_cov = acc.covariance(ddof=1)
    cov = feat_cov[:4, :4].copy()
    cov_sampling = _cov_entry_sampling(acc.mean, feat_cov, kept)
    cov_se = np.zeros((4, 4))
    for p, (j, k) in enumerate(PAIRS):
        se = np.sqrt(max(cov_sampling[p, p], 0.0))
        cov_se[j, k] = cov_se[k, j] = se
    return McResult(
        kept_count=kept,
        total_count=total,
        success_probability_hat=p_hat,
        success_probability_se=p_se,
        pooled_mean_hat=acc.mean[:4].copy(),
        pooled_cov_hat=cov,
        pooled_cov_se=cov_se,
        cov_sampling=cov_sampling,
        histograms=histograms,
        per_level_kept=per_level_kept,
        seed=config.seed,
        n_workers=config.n_workers,
    )


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


def ln_with_se(result: McResult):
    """Log-negativity of the Monte Carlo covariance and its standard error.

    The error propagates the run's empirical covariance-entry sampling
    covariance through the analytic gradient of the log-negativity. It is
    None when the run kept at most ``N_FEATURES`` shots: the sample
    covariance of the features then has rank below ``N_FEATURES`` and the
    delta method has nothing to stand on.

    Raises ``InvalidCovarianceError`` when the run kept at most 4 shots:
    the 4x4 sample covariance of n shots has rank at most n - 1 < 4,
    however its rounded eigenvalues come out.
    """
    if result.kept_count <= result.pooled_cov_hat.shape[0]:
        raise InvalidCovarianceError("covariance matrix is not positive definite")
    ln = gaussian_log_negativity(result.pooled_cov_hat)
    if result.kept_count <= N_FEATURES:
        return ln, None
    g = log_negativity_gradient(result.pooled_cov_hat)
    grad = np.array([g[j, k] if j == k else 2.0 * g[j, k] for j, k in PAIRS])
    var = float(grad @ result.cov_sampling @ grad)
    return ln, float(np.sqrt(max(var, 0.0)))
