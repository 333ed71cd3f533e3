"""Shot-by-shot Monte Carlo of the tap-and-threshold distillation pipeline.

Each shot samples a channel level and is a candidate when its tap X
quadrature reaches the lowest threshold; a candidate draws its tap X and
then its other quadratures given the tap X, and the kept shots feed
streaming statistics and histograms. Sampling the joint Gaussian is exact
for every statistic reported here because each measured set involves at
most one quadrature per mode.

One pass over the shots serves a whole threshold sweep. The sorted
thresholds t_0 < ... < t_top cut the tap X axis into strata
[t_j, t_{j+1}) and [t_top, inf); each shot at or above t_0 updates the
moments, post-selection histograms and per-level counts of its own stratum
only. The statistics kept at threshold t_j are then the merge of strata
j..top (Chan's update for the moments, sums for the counts), so a sweep
costs one threshold's sampling however many thresholds it has. The result
is one ``McSweep``, stacked per threshold like ``herald``'s grid ensemble,
with the pre-selection histograms held once and ``errors`` naming the
thresholds whose moment rows are NaN; ``ln_with_se`` is stacked the same way.

Sampling by level. Shots are sampled in blocks, block b from its own
stream ``SeedSequence(seed, spawn_key=(b,))`` (counter-keyed streams in
the sense of Salmon et al. 2011, "Parallel random numbers: as easy as 1,
2, 3"). A block draws its level counts (one multinomial draw). Level i's
shots are candidates when their standard tap normal z reaches alpha_i =
t_0 / tap SD_i, which happens with probability Q(alpha_i),
``gaussian_tail`` computed once per sweep. A common level,
alpha_i < ``RARE_ALPHA``, draws one standard normal per shot, all common
levels in one call in level order, and its candidates are the normals at
or above alpha_i. A rare level draws its candidate count, Binomial(n_i,
Q(alpha_i)), and then that many normals from the tail above alpha_i by
Robert's exponential rejection (``_tail_normals``), so its cost scales
with its candidates, not its shots; every rare level's count comes from
one binomial call. Both rules test the standard normal against alpha_i,
so rounding in alpha_i and in the map back to X_tap can put a candidate's
X_tap an ulp below t_0, or leave out a shot an ulp above it; the kernel
keeps such a candidate in the lowest stratum. The candidates, in level order, then draw four more
normals each, mapped to (X_A, P_A, X_B, P_B) by their level's ``beta`` and
``factor`` in the ``TapModel`` that ``herald`` reads too: the regression on
the tap normal and the Cholesky factor of the rest. They go to one kernel call,
which keeps every one of them, bins all five series and reads each
candidate's stratum off its X_tap bin (``_kernel_py.stratum_lookup``); no
other shot is binned. The kernel's one BLAS call is a (14, n) product per
stratum for the moments' M2, which OpenBLAS runs on one thread with bits
that do not depend on the thread count (see ``_kernel_py``); the rest of
the block is plain numpy.

Blocks. A block holds CHUNK_SHOTS * 2**k shots, k the least k >= 0 at
which it expects CHUNK_SHOTS / 4 candidates or holds every shot
(``_block_shots``), so that its fixed cost is spread over enough
candidates while it never expects more of them than CHUNK_SHOTS. The
size is a function of (model, t_0, n_shots), the same for every worker.
A sweep with no rare level has k = 0, since at alpha < 0.5 a third or
more of the shots are candidates, and draws a tap normal for every shot.

What is shot-exact and what is not. Every candidate, and so every kept
shot, post-selection histogram and moment, is sampled shot by shot from
the exact joint law. The kept and per-level counts have their exact law
too, but a rare level's count is drawn as one binomial at
``gaussian_tail``'s Q(alpha_i), the value ``herald`` uses, not counted
from sampled tap normals. The other shots are never binned
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
keeps every shot draws no composition. The candidates, the block size and
which levels are rare depend on t_0, so a grid row equals the same row of
any sweep with the same lowest threshold, not the one-threshold sweep at
its own threshold.

Each block is drawn, then consumed. The draw step fills one buffer set
(``_DrawBuffers``): the level multinomial, the common levels' tap normals
and their mask, the rare counts and tail normals, and the candidates' four
other normals beside their X_tap row. The consume step transforms those
normals and runs the kernel on them into the sums and the moment tree.
Buffer sets and kernel scratch are allocated once per worker, sized from
the block plan (eight binomial SDs above the expected counts, at most a
block), and reused for every block; a block that needs more gets larger
buffers, which only a count eight SDs above its mean can ask for. When
``run_mc_sweep`` runs its one job in its own process, the job has two or
more blocks and two or more CPUs are usable, one helper thread draws
block k + 1 into a second buffer set while the calling thread consumes
block k: numpy's generator fills release the GIL, so the draws run on the
otherwise idle CPU. Every block still draws from its own stream and the
blocks are consumed in block order, so the output is bit-identical to the
inline loop, which runs otherwise (one block, one usable CPU, or jobs in
the process pool, whose processes hold the CPUs already). The helper is
joined before ``run_mc_sweep`` returns or raises: no thread outlives the
call, and none exists when the process pool starts.

Each worker samples a contiguous range of blocks; the integer counts are
summed. A block's moments are the kernel's (count, mean, M2) triple per
stratum, and every merge of two triples is one call of ``_merge``, Chan's
pairwise update (Chan, Golub and LeVeque 1979): the blocks' triples merge
along one fixed binary tree over the block indices, the workers merging
the subtrees that lie inside their range and the parent the rest, and the
threshold suffix merges the strata from the top down. Output therefore
depends on (model, n_shots, seed, thresholds) only, not on the worker
count, and is bit-identical on every run. The blocks are split into
min(n_workers, blocks, usable CPUs) ranges, one per process, whatever
``n_workers`` asks for.

The run settings are ``cvdistill.config.McConfig``, which is also the
``mc`` section of an experiment config and validates itself when built.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ..config import McConfig
from ..distill import (DegenerateSelectionError, TapModel, check_grid, distilled_gln,
                       gaussian_tail, row_mask, series_bin_probabilities)
from ..gaussian import log_negativity_gradient
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

# Shots per block, each block with its own stream and one kernel call, when
# the candidates are common; a sweep whose candidates are rarer takes blocks
# of CHUNK_SHOTS * 2**k shots (see _block_shots). Fixed (not configurable):
# changing it would change the sampled shots.
CHUNK_SHOTS = 1 << 16
# A level whose standardised lowest threshold alpha is at least this draws its
# candidate count and their tap normals from the tail; a level below it draws
# one tap normal per shot. At alpha = 0.5 a third of the shots are candidates,
# and Robert's rejection accepts ~0.83 of its proposals.
RARE_ALPHA = 0.5

# Fewest kept shots that give moments: the 4x4 sample covariance
# of n shots has rank at most n - 1, so below 5 it cannot be positive definite.
MIN_KEPT = 5


@dataclass(eq=False)
class McSweep:
    """Counts, histograms and moments of one Monte Carlo pass over a threshold grid.

    Shaped like ``herald``'s grid ensemble. Held once: the bin ``edges``
    and the pre-selection histograms ``hist_pre`` (5, bins), each series
    summing to ``total_count``, whose counts of the shots below the lowest
    threshold are drawn from their exact conditional law (see the module
    docstring). Every other field has one row per grid threshold, in the
    caller's grid order with duplicates: ``kept_count`` (T,),
    ``per_level_kept`` (T, L), the post-selection histograms ``hist_post``
    (T, 5, bins), the moments ``pooled_mean`` (T, 4), ``pooled_cov``
    (T, 4, 4) and ``cov_sampling`` (T, 10, 10), the empirical
    (distribution-free) sampling covariance of the ten covariance-entry
    estimates in ``PAIRS`` order, and ``errors``. Histogram series k is
    ``SERIES[k]``. Every field depends on the grid through its lowest
    threshold and its own threshold only: a row equals the same row of any
    sweep with the same lowest threshold.

    ``errors`` holds None, or a :class:`DegenerateSelectionError` naming
    the kept count of a threshold that kept fewer than ``MIN_KEPT`` shots;
    the moments of such a row are NaN, its counts and histograms are not.
    Nothing depends on the worker count.
    """

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


def _components(model: TapModel):
    """Per level of ``model``, the rows mapping five normals to (X_A, P_A, X_B, P_B, X_Tap).

    Row r < 4 is (r, factor[r, r], [(c, coef) for the nonzero beta[r] of z_4 and
    factor[r, c] of z_c, c < r]), P_B first; X_Tap, last, is tap SD * z_4.
    """
    return [[(r, f[r, r], [(c, x) for c, x in [(4, b[r]), *enumerate(f[r, :r])] if x != 0.0])
             for r in (3, 2, 1, 0)] + [(4, sd, [])]
            for f, b, sd in zip(model.factor, model.beta, model.tap_sd)]


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
        for r, diag, lower in rows:
            row = seg[r]
            row *= diag
            for c, coef in lower:
                row += np.multiply(coef, seg[c], out=term)
        start += count


def _block_shots(p, n_shots):
    """Shots per block at candidate probability ``p``: CHUNK_SHOTS * 2**k.

    k is the least k >= 0 at which a block expects CHUNK_SHOTS / 4
    candidates or holds all ``n_shots``.
    """
    block = CHUNK_SHOTS
    while block * p < CHUNK_SHOTS / 4 and block < n_shots:
        block *= 2
    return block


def _capacity(mean, block):
    """Buffer entries for a per-block count of this mean: eight SDs above it, at most ``block``."""
    return int(min(block, math.ceil(mean + 8.0 * math.sqrt(mean) + 16.0)))


def _tail_normals(rng, alpha):
    """Standard normals conditioned on z >= alpha, one per entry of the array ``alpha``.

    Robert's exponential rejection (Stat. Comput. 5:121, 1995): propose
    z = alpha + E / lam with E ~ Exp(1) and lam = (alpha + sqrt(alpha^2 + 4)) / 2,
    and accept when (z - lam)^2 <= 2 E' for a second E' ~ Exp(1), that is with
    probability exp(-(z - lam)^2 / 2). Exact, with an acceptance that rises
    from ~0.83 at alpha = 0.5 towards 1. Each round draws (2, pending)
    exponentials, so the stream used depends on ``alpha`` and ``rng`` alone.
    """
    lam = (alpha + np.sqrt(alpha * alpha + 4.0)) / 2.0
    out = np.empty(alpha.size)
    todo = np.arange(alpha.size)
    while todo.size:
        e = rng.standard_exponential((2, todo.size))
        z = alpha[todo] + e[0] / lam[todo]
        ok = np.square(z - lam[todo]) <= 2.0 * e[1]
        out[todo[ok]] = z[ok]
        todo = todo[~ok]
    return out


class _DrawBuffers:
    """A block's draw buffers: common-level tap normals and their mask, candidates' normals.

    Sized for ``n_common`` common shots and ``n_cand`` candidates; a block
    that outgrows a buffer replaces it.
    """

    def __init__(self, n_common, n_cand):
        self.tap_normals, self.mask = np.empty(n_common), np.empty(n_common, dtype=bool)
        self.normals = np.empty(5 * n_cand)


def _run_blocks(weights, alpha, tail_q, components, thresholds, n_bins, hist_range, seed,
                n_shots, block, blocks, prefetch=False):
    """Sample the shots of ``blocks`` (a range of block indices) and accumulate them by stratum.

    Block b holds shots b * block onward, at most ``block`` of them, drawn
    from its own stream ``SeedSequence(seed, spawn_key=(b,))``: one
    multinomial draw of the level counts; one standard normal per shot of
    the common levels (alpha < ``RARE_ALPHA``), in level order, whose
    candidates are the normals at or above their level's alpha; the rare
    levels' candidate counts, Binomial(n_i, tail_q[i]) in one call, and
    their tap normals by :func:`_tail_normals`; then four more normals per
    candidate for its other quadratures. alpha[i] is thresholds[0] / tap SD
    of level i, and tail_q[i] its ``gaussian_tail``. Stratum j holds the
    candidates with thresholds[j] <= X_tap < thresholds[j + 1]; the top
    stratum has no upper edge. With ``prefetch`` and at least two
    blocks, one helper thread draws block k + 1 while this thread consumes
    block k (see the module docstring); the output is the same bits.

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
    rare = alpha >= RARE_ALPHA
    common = [(i, a) for i, a in enumerate(alpha.tolist()) if not rare[i]]

    def draw(b, bufs):
        """Draw block b into ``bufs``: level counts, candidate counts and ends, normals (5, n)."""
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        level_counts = rng.multinomial(min(block, n_shots - b * block), weights)
        common_counts = np.where(rare, 0, level_counts)
        common_ends = np.cumsum(common_counts)
        n_common = int(common_ends[-1])
        if n_common > bufs.tap_normals.size:
            bufs.tap_normals, bufs.mask = np.empty(n_common), np.empty(n_common, dtype=bool)
        z, mask = bufs.tap_normals[:n_common], bufs.mask[:n_common]
        rng.standard_normal(out=z)
        starts, stops = (common_ends - common_counts).tolist(), common_ends.tolist()
        for i, a in common:
            np.greater_equal(z[starts[i] : stops[i]], a, out=mask[starts[i] : stops[i]])
        cand = np.flatnonzero(mask)
        cand_counts = np.diff(np.searchsorted(cand, common_ends), prepend=0)
        cand_counts[rare] = rng.binomial(level_counts[rare], tail_q[rare])
        tail = _tail_normals(rng, np.repeat(alpha[rare], cand_counts[rare]))
        cand_ends = np.cumsum(cand_counts)
        n = int(cand_ends[-1])
        if 5 * n > bufs.normals.size:
            bufs.normals = np.empty(5 * n)
        x = bufs.normals[: 5 * n].reshape(5, n)
        rng.standard_normal(out=x[:4])
        # Both sources are in level order, as the candidates are.
        from_tail = np.repeat(rare, cand_counts)
        x[4, from_tail] = tail
        x[4, ~from_tail] = z[cand]
        return level_counts, cand_counts, cand_ends, x

    # Sized from the block plan: a block's common shots and candidates
    # practically never exceed these, and one that does gets larger buffers.
    n_common = _capacity(block * weights[~rare].sum(), block)
    size = _capacity(block * (weights @ tail_q), block)
    series, idx = np.empty(5 * size), np.empty(5 * size, dtype=np.int64)

    def consume(b, level_counts, cand_counts, cand_ends, x):
        """Transform and accumulate block b's draws into the sums and the node stack."""
        nonlocal below, series, idx
        below += level_counts - cand_counts
        if x.size > series.size:
            series, idx = np.empty(x.size), np.empty(x.size, dtype=np.int64)
        _transform(x, cand_counts, components, series)
        _push_block_node(nodes, 0, b, _kernel_py.accumulate_chunk(
            x, cand_ends, lookup, hist_range, n_bins, hist_post, per_level_kept, series, idx))

    if not prefetch or len(blocks) < 2:
        bufs = _DrawBuffers(n_common, size)
        for b in blocks:
            consume(b, *draw(b, bufs))
        return hist_post, per_level_kept, below, nodes
    # Two buffer sets in turn: block k + 1 is drawn into one while block k,
    # in the other, is consumed. Leaving the with block joins the helper.
    from concurrent.futures import ThreadPoolExecutor

    sets = [_DrawBuffers(n_common, size) for _ in range(2)]
    with ThreadPoolExecutor(1) as helper:
        pending = helper.submit(draw, blocks[0], sets[0])
        for k, b in enumerate(blocks):
            drawn = pending.result()
            if k + 1 < len(blocks):
                pending = helper.submit(draw, blocks[k + 1], sets[(k + 1) % 2])
            consume(b, *drawn)
    return hist_post, per_level_kept, below, nodes


def _merge(left, right):
    """Chan's pairwise update: the (count, mean, m2) triple of two samples together.

    Each side is a (count, mean, m2) triple of shapes (...), (..., d) and
    (..., d, d), such as one row per stratum; rows merge independently. An
    empty side (count 0) gives back the other side's mean and m2 bit for bit.
    """
    count, mean, m2 = left
    right_count, right_mean, right_m2 = right
    total = count + right_count
    frac = right_count / np.maximum(total, 1)
    delta = right_mean - mean
    return (total, mean + delta * np.expand_dims(frac, -1),
            m2 + right_m2 + (delta[..., :, None] * delta[..., None, :]
                             * np.expand_dims(count * frac, (-2, -1))))


def _push_block_node(stack, level, index, moments):
    """Push the (count, mean, m2) ``moments`` of blocks [index * 2**level, (index + 1) * 2**level).

    Nodes must arrive in block order. A right child merges into its left
    sibling when that is on top of the stack, and so on up, so every node
    is the merge of its two halves in one fixed binary tree over the block
    indices: which process pushed which part does not change the result.
    """
    while index % 2 and stack and stack[-1][:2] == (level, index - 1):
        moments = _merge(stack.pop()[2], moments)
        level, index = level + 1, index // 2
    stack.append((level, index, moments))


def run_mc_sweep(model: TapModel, config: McConfig, thresholds) -> McSweep:
    """Run the Monte Carlo pipeline once for every threshold in ``thresholds``.

    Post-selects on the tap X quadrature of :func:`~cvdistill.distill.attach_tap`'s
    ``model`` exceeding each threshold. All thresholds share one pass over
    the ``config.n_shots`` shots (see the module docstring), whose sampling
    the lowest threshold t_0 sets: a grid row's counts and histograms, and
    the sweep's ``hist_pre``, equal those of any sweep with the same config
    and the same lowest threshold, and its moments differ from theirs only
    by float reassociation. A row need not equal the one-threshold sweep at
    its own threshold, which samples from another t_0: only the row at t_0
    does.

    Returns one :class:`McSweep`. A threshold that fewer than ``MIN_KEPT``
    shots pass has its error in ``errors`` and NaN moments.

    Raises ``ValueError`` as :func:`cvdistill.distill.check_grid` does.
    """
    thresholds = check_grid(thresholds)
    grid, grid_index = np.unique(thresholds, return_inverse=True)
    weights, components = model.weights, _components(model)
    alpha = grid[0] / model.tap_sd
    tail_q = gaussian_tail(alpha)
    block = _block_shots(weights @ tail_q, config.n_shots)
    n_blocks = -(-config.n_shots // block)
    try:
        n_cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        n_cpus = os.cpu_count() or 1
    # One job per process, none empty; the output does not depend on the split.
    n_jobs = min(config.n_workers, n_blocks, n_cpus)
    bounds = [n_blocks * w // n_jobs for w in range(n_jobs + 1)]
    jobs = [
        (weights, alpha, tail_q, components, grid, config.histogram_bins,
         config.histogram_range, config.seed, config.n_shots, block, range(lo, hi))
        for lo, hi in zip(bounds, bounds[1:])
    ]
    if len(jobs) == 1:
        # One job in this process: a second usable CPU draws ahead of it.
        outs = [_run_blocks(*jobs[0], prefetch=n_cpus >= 2)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            outs = list(pool.map(_run_blocks, *zip(*jobs)))

    # Integer counts sum exactly, and the moments merge along the fixed tree
    # of _push_block_node, so the result does not depend on the workers.
    hist_post, per_level_kept, below = (sum(out[k] for out in outs) for k in range(3))
    nodes = []
    for out in outs:
        for node in out[3]:
            _push_block_node(nodes, *node)
    strata = nodes[0][2]
    for _, _, moments in nodes[1:]:
        strata = _merge(strata, moments)

    # Threshold j keeps strata j..top: suffix sums of the counts and a
    # suffix merge of the moments, from the top threshold down.
    hist_post = np.cumsum(hist_post[::-1], axis=0)[::-1]
    edges = np.linspace(-config.histogram_range, config.histogram_range, config.histogram_bins + 1)
    # Every candidate is kept at the lowest threshold: its pre-selection
    # counts are that threshold's post-selection counts.
    hist_pre = hist_post[0] + _off_tap_below(model, below, grid[0], edges, config.seed)
    per_level_kept = np.cumsum(per_level_kept[::-1], axis=0)[::-1]
    kept_count = np.cumsum(strata[0][::-1])[::-1]
    mean, cov, cov_sampling = (np.full((grid.size,) + shape, np.nan)
                               for shape in ((4,), (4, 4), (len(PAIRS),) * 2))
    kept = (0, np.zeros(N_FEATURES), np.zeros((N_FEATURES, N_FEATURES)))
    for j in reversed(range(grid.size)):
        kept = _merge(kept, tuple(part[j] for part in strata))
        if kept_count[j] >= MIN_KEPT:
            count, feat_mean, m2 = kept
            feat_cov = m2 / (count - 1)
            feat_cov = 0.5 * (feat_cov + feat_cov.T)
            mean[j], cov[j] = feat_mean[:4], feat_cov[:4, :4]
            cov_sampling[j] = _cov_entry_sampling(feat_mean, feat_cov, int(count))

    total = config.n_shots
    errors = tuple(
        None if kept_count[j] >= MIN_KEPT else DegenerateSelectionError(
            f"only {kept_count[j]} of {total} shots passed threshold {float(grid[j])}, "
            f"fewer than MIN_KEPT = {MIN_KEPT}")
        for j in grid_index
    )
    return McSweep(
        total, kept_count[grid_index], per_level_kept[grid_index], edges, hist_pre,
        hist_post[grid_index], mean[grid_index], cov[grid_index], cov_sampling[grid_index], errors,
    )


def _off_tap_below(model, below, t0, edges, seed):
    """Pre-selection counts (5, bins) of the shots with X_tap < t0, every series.

    ``below`` (L,) counts those shots per level. They are i.i.d. from their
    level's law given X_tap < t0, so each series' histogram over them, X_tap
    included, is exactly Multinomial(below[i], its conditional bin
    probabilities), drawn from the stream ``SeedSequence(seed)``, whose key
    no block uses. Only the levels with such shots are composed.
    """
    levels = np.flatnonzero(below)
    if levels.size == 0:
        return 0
    w, cov = model.weights[levels], model.cov[levels]
    probs = series_bin_probabilities(TapModel(w / w.sum(), cov), SERIES_COEFFICIENTS, edges, t0)
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
    """Log-negativity of each grid threshold of ``sweep`` and its standard error.

    Returns (ln, se), two (T,) float arrays: ``distilled_gln``, as for
    ``herald``, and the empirical covariance-entry sampling covariance
    propagated through the analytic gradient of the log-negativity, taken
    on the rows that ``row_mask`` passes. Both are NaN on a row with an
    ``errors`` entry. ``se`` is NaN too where the threshold kept at most
    ``N_FEATURES`` shots: the features' sample covariance then has rank
    below ``N_FEATURES`` and the delta method has nothing to stand on.
    """
    real = row_mask(sweep.errors)
    rows, cols = np.array(PAIRS).T
    grad = (np.where(rows == cols, 1.0, 2.0)
            * log_negativity_gradient(sweep.pooled_cov[real])[:, rows, cols])
    var = (grad[:, None] @ sweep.cov_sampling[real] @ grad[:, :, None])[:, 0, 0]
    se = np.full(real.shape, np.nan)
    se[real] = np.sqrt(np.maximum(var, 0.0))
    return distilled_gln(sweep), np.where(sweep.kept_count > N_FEATURES, se, np.nan)
