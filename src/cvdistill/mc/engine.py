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

Shots are processed in fixed-size chunks; the chunk loop delegates to a
compiled kernel when available and to a numpy fallback otherwise. Results
are reproducible: a given (mixture, config) pair yields identical output
on every run, and the shot space is partitioned deterministically across
workers so a fixed (seed, n_workers) pair is reproducible as well.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..channel import MixtureState
from ..distill import DegenerateSelectionError
from ..gaussian import gaussian_log_negativity
from .accumulators import CovarianceAccumulator
from ._kernel_py import N_FEATURES, PAIRS

# Chosen once, at import, by whether the compiled extension was built.
# ``_run_shard`` reads ``_kernel.accumulate_chunk`` at each call, so a
# wrapper set on that module attribute sees every in-process call.
try:  # pragma: no cover - exercised implicitly via kernel_backend()
    from . import _shotkernel as _kernel
except ImportError:  # pragma: no cover
    from . import _kernel_py as _kernel

__all__ = [
    "SERIES",
    "PAIRS",
    "McConfig",
    "McResult",
    "kernel_backend",
    "run_mc",
    "run_mc_sweep",
    "ln_with_se",
]

# Histogrammed series: tap X, transmitted-beam quadratures, joint quadratures.
SERIES = ("X_tap", "X_B", "P_B", "X_A+X_B", "P_A-P_B")

# Shots per kernel call. Fixed (not configurable): changing it would change
# the order random numbers are consumed in and therefore the sampled shots.
CHUNK_SHOTS = 1 << 16


def kernel_backend() -> str:
    """Name of the kernel selected at import: 'compiled' or 'python'."""
    return _kernel.BACKEND


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
    The seed and worker count are recorded because worker count affects
    the random stream layout.
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
    cum = np.cumsum(mixture3.weights)
    cum[-1] = 1.0
    means = np.array([s.mean for s in mixture3.states])
    chols = np.array([s.cholesky_factor() for s in mixture3.states])
    return cum, means, chols


def _run_shard(cum, means, chols, n_shots, thresholds, n_bins, hist_range, seed_seq):
    """Sample one shard and accumulate its shots by tap-X stratum.

    ``thresholds`` is sorted and free of duplicates. Stratum j holds the
    shots with thresholds[j] <= X_tap < thresholds[j + 1]; the top stratum
    has no upper edge. Each chunk makes one kernel call at the top threshold,
    which also fills the pre-selection histograms for every shot; the shots
    of the lower strata are then gathered, grouped by stratum, and each
    group goes through the same kernel at its own threshold, where every
    shot passes. With one threshold no shot is gathered.

    Returns the per-stratum moments as a list of (count, mean, M2), the
    pre-selection histograms (5, n_bins), and the per-stratum
    post-selection histograms (n_strata, 5, n_bins) and per-level kept
    counts (n_strata, n_levels).
    """
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    n_levels = cum.shape[0]
    level_ids = np.arange(n_levels)
    top = thresholds.shape[0] - 1
    hist_pre = np.zeros((5, n_bins), dtype=np.int64)
    # Pre-selection counts of the second kernel pass over gathered shots;
    # hist_pre already holds them, so these are thrown away.
    hist_pre_gathered = np.zeros((5, n_bins), dtype=np.int64)
    hist_post = np.zeros((top + 1, 5, n_bins), dtype=np.int64)
    per_level_kept = np.zeros((top + 1, n_levels), dtype=np.int64)
    accs = [CovarianceAccumulator(N_FEATURES) for _ in range(top + 1)]
    done = 0
    while done < n_shots:
        m = int(min(CHUNK_SHOTS, n_shots - done))
        draws = rng.random(m)
        counts = np.bincount(
            np.searchsorted(cum, draws, side="right"), minlength=n_levels
        )
        z = rng.standard_normal((m, 6))
        x = np.empty((m, 6))
        pos = 0
        for i in range(n_levels):
            c = int(counts[i])
            if c:
                np.matmul(z[pos : pos + c], chols[i].T, out=x[pos : pos + c])
                x[pos : pos + c] += means[i]
                pos += c
        levels = np.repeat(level_ids, counts)
        accs[top].merge_moments(*_kernel.accumulate_chunk(
            x, levels, thresholds[top], hist_range, n_bins,
            hist_pre, hist_post[top], per_level_kept[top],
        ))
        if top:
            tap = x[:, 4]
            rows = np.flatnonzero((tap >= thresholds[0]) & (tap < thresholds[top]))
            strata = np.searchsorted(thresholds, tap[rows], side="right") - 1
            order = np.argsort(strata, kind="stable")
            rows = rows[order]
            starts = np.searchsorted(strata[order], np.arange(top + 1))
            x_lower, levels_lower = x[rows], levels[rows]
            for j in range(top):
                a, b = starts[j], starts[j + 1]
                if b > a:
                    accs[j].merge_moments(*_kernel.accumulate_chunk(
                        x_lower[a:b], levels_lower[a:b], thresholds[j], hist_range, n_bins,
                        hist_pre_gathered, hist_post[j], per_level_kept[j],
                    ))
        done += m
    moments = [(acc.count, acc.mean, acc.m2) for acc in accs]
    return moments, hist_pre, hist_post, per_level_kept


def _shard_worker(args):
    return _run_shard(*args)


def run_mc(mixture3: MixtureState, config: McConfig, threshold_x: float) -> McResult:
    """Run the Monte Carlo pipeline on a three-mode (A, B, Tap) mixture.

    Post-selects on the tap X quadrature exceeding ``threshold_x``: the
    one-threshold case of :func:`run_mc_sweep`. The shot kernel is the one
    :func:`kernel_backend` names.

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
    cum, means, chols = _prepare_components(mixture3)
    n_workers = config.n_workers
    children = np.random.SeedSequence(config.seed).spawn(n_workers)
    base, rem = divmod(config.n_shots, n_workers)
    shard_sizes = [base + (1 if w < rem else 0) for w in range(n_workers)]
    jobs = [
        (cum, means, chols, shard_sizes[w], grid,
         config.histogram_bins, config.histogram_range, children[w])
        for w in range(n_workers)
        if shard_sizes[w] > 0
    ]
    if n_workers == 1:
        outs = [_shard_worker(jobs[0])]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            outs = list(pool.map(_shard_worker, jobs))

    strata = [CovarianceAccumulator(N_FEATURES) for _ in grid]
    hist_pre = np.zeros((5, config.histogram_bins), dtype=np.int64)
    hist_post = np.zeros((grid.size, 5, config.histogram_bins), dtype=np.int64)
    per_level_kept = np.zeros((grid.size, len(mixture3)), dtype=np.int64)
    for moments, pre, post, per_level in outs:
        for acc, (count, mean, m2) in zip(strata, moments):
            acc.merge_moments(count, mean, m2)
        hist_pre += pre
        hist_post += post
        per_level_kept += per_level

    # Threshold j keeps strata j..top: suffix sums of the counts and a
    # suffix merge of the moments, from the top threshold down.
    hist_post = np.cumsum(hist_post[::-1], axis=0)[::-1]
    per_level_kept = np.cumsum(per_level_kept[::-1], axis=0)[::-1]
    edges = np.linspace(-config.histogram_range, config.histogram_range, config.histogram_bins + 1)
    kept_acc = CovarianceAccumulator(N_FEATURES)
    results = [None] * grid.size
    for j in reversed(range(grid.size)):
        kept_acc.merge_moments(strata[j].count, strata[j].mean, strata[j].m2)
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
    kept = acc.count
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

    The kernels accumulate the quadratures and their pairwise products as
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


def _ln_gradient(cov: np.ndarray) -> np.ndarray:
    """Numerical gradient of the log-negativity over the ten independent entries."""
    grad = np.zeros(len(PAIRS))
    for p, (j, k) in enumerate(PAIRS):
        h = 1e-6 * max(1.0, abs(cov[j, k]))
        basis = np.zeros((4, 4))
        basis[j, k] = basis[k, j] = 1.0
        grad[p] = (
            gaussian_log_negativity(cov + h * basis) - gaussian_log_negativity(cov - h * basis)
        ) / (2.0 * h)
    return grad


def ln_with_se(result: McResult):
    """Log-negativity of the Monte Carlo covariance and its standard error.

    The error propagates the run's empirical covariance-entry sampling
    covariance through a numerical gradient of the log-negativity.
    """
    ln = gaussian_log_negativity(result.pooled_cov_hat)
    grad = _ln_gradient(result.pooled_cov_hat)
    var = float(grad @ result.cov_sampling @ grad)
    return ln, float(np.sqrt(max(var, 0.0)))
