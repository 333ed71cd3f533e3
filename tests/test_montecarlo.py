import concurrent.futures
import dataclasses
import os
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from cvdistill import (
    DegenerateSelectionError,
    FluctuatingChannel,
    InvalidCovarianceError,
    McConfig,
    TapConfig,
    TapModel,
    attach_tap,
    discrete_channel,
    distilled_gln,
    envelope_fading,
    herald,
    joint_quadrature_variances,
    preset_config,
    run_mc_sweep,
    run_scenario,
)
from cvdistill.mc import SERIES, ln_with_se
from cvdistill.distill import gaussian_tail, series_bin_probabilities
from cvdistill.mc import _kernel_py, engine
from conftest import (batch_moments, binomial_two_sided_p, empty_moments, kerr_source, loss,
                      model_pooled, pooled_cov_se, reference_tap, rotation, uncorrelated_tap,
                      vacuum)

# A threshold below every shot: a sweep then keeps all of them, so its kept
# statistics are those of the sampled levels and phase-space points.
NO_SELECTION = -1e9


def sweep_at(model, config, threshold):
    """The one-threshold sweep at ``threshold``."""
    return run_mc_sweep(model, config, [threshold])


class TestSampleLevel:
    def test_single_level_always_zero(self):
        chan = FluctuatingChannel([1.0], [1.0])
        tapped = attach_tap(0.6, 10.0, chan, TapConfig())
        res = sweep_at(tapped, McConfig(n_shots=1000, seed=0), NO_SELECTION)
        assert np.array_equal(res.per_level_kept[0], [1000])

    def test_discrete_frequencies(self, tapped_discrete):
        n = 1_000_000
        res = sweep_at(tapped_discrete, McConfig(n_shots=n, seed=41), NO_SELECTION)
        # 0.002 is four binomial standard errors of a weight of 0.5 at 1e6 shots.
        assert_allclose(res.per_level_kept[0] / n, tapped_discrete.weights, atol=0.002)

    def test_deterministic_under_fixed_seed(self, tapped_discrete):
        conf = McConfig(n_shots=1000, seed=7)
        a = sweep_at(tapped_discrete, conf, NO_SELECTION)
        b = sweep_at(tapped_discrete, conf, NO_SELECTION)
        assert np.array_equal(a.per_level_kept[0], b.per_level_kept[0])


class TestSamplePhasePoint:
    def test_vacuum_variances(self):
        res = sweep_at(uncorrelated_tap(vacuum(2)), McConfig(n_shots=1_000_000, seed=42),
                       NO_SELECTION)
        assert_allclose(np.diag(res.pooled_cov[0]), np.ones(4), atol=0.005)

    def test_deterministic_under_fixed_seed(self):
        mix = uncorrelated_tap(kerr_source(0.6, 10.0))
        conf = McConfig(n_shots=16, seed=3)
        a = sweep_at(mix, conf, NO_SELECTION)
        b = sweep_at(mix, conf, NO_SELECTION)
        assert np.array_equal(a.pooled_mean[0], b.pooled_mean[0])
        assert np.array_equal(a.pooled_cov[0], b.pooled_cov[0])

    def test_joint_quadrature_variance(self):
        vs = 0.61
        n = 1_000_000
        mix = uncorrelated_tap(kerr_source(vs, 40.0))
        res = sweep_at(mix, McConfig(n_shots=n, seed=43), NO_SELECTION)
        var_sum, _ = joint_quadrature_variances(res.pooled_cov[0])
        se = 2 * vs * np.sqrt(2.0 / n)
        assert abs(var_sum - 2 * vs) < 3 * se

    def test_covariance_reproduced(self):
        tapped = attach_tap(0.7, 5.0, discrete_channel(), TapConfig())
        res = sweep_at(tapped, McConfig(n_shots=200_000, seed=44), NO_SELECTION)
        cov = model_pooled(tapped)
        assert_allclose(res.pooled_cov[0], cov[:4, :4], atol=0.05)

    def test_cross_quadrature_covariance_reproduced(self):
        # Rotating beam B correlates X and P quadratures, so the per-level
        # transform must apply its X-P coefficients as well.
        chan = discrete_channel()
        rotated = rotation(loss(kerr_source(0.7, 5.0), 1, chan.transmittances), 1, 0.6)
        tapped = reference_tap(chan.probabilities, rotated, TapConfig().reflectivity)
        cov = model_pooled(tapped)
        assert np.abs(cov[0:4:2, 1:4:2]).max() > 0.5
        res = sweep_at(tapped, McConfig(n_shots=200_000, seed=49), NO_SELECTION)
        assert np.all(np.abs(res.pooled_cov[0] - cov[:4, :4]) < 4 * pooled_cov_se(res)[0])

    def test_transform_matches_factor_product(self):
        # Phase-rotated fading mixture: X-P terms.
        chan = envelope_fading(0.2)
        rotated = rotation(loss(kerr_source(0.7, 5.0), 1, chan.transmittances), 1, 0.6)
        tapped = reference_tap(chan.probabilities, rotated, TapConfig().reflectivity)
        rng = np.random.default_rng(50)
        counts = rng.multinomial(5000, tapped.weights)
        z = rng.standard_normal((5, 5000))
        x = z.copy()
        engine._transform(x, counts, engine._components(tapped), np.empty(5000))
        # The tap-first factor of (X_Tap, X_A, P_A, X_B, P_B), its rows and
        # columns put back in (X_A, P_A, X_B, P_B, X_Tap) order.
        order = [4, 0, 1, 2, 3]
        back = np.argsort(order)
        start = 0
        for i, count in enumerate(counts):
            cov = tapped.cov[i]
            seg = slice(start, start + count)
            factor = np.linalg.cholesky(cov[order][:, order])[back][:, back]
            assert_allclose(factor @ factor.T, cov, rtol=1e-12, atol=1e-12)
            assert_allclose(x[:, seg], factor @ z[:, seg], rtol=1e-12, atol=1e-12)
            # X_Tap is the tap normal scaled to the level, bit for bit.
            assert np.array_equal(x[4, seg], z[4, seg] * tapped.tap_sd[i])
            start += count


def bin_tap_values(values, bins, hist_range):
    """X_tap counts of ``values``, binned as the kernel bins every series."""
    values = np.array(values, dtype=float)
    idx = np.empty(values.size, dtype=np.int64)
    _kernel_py.bin_index(values, hist_range, bins, idx)
    return np.bincount(idx, minlength=bins)


def run_kernel(x, level_ends, thresholds, hist_range, bins, *out_and_scratch):
    """``accumulate_chunk`` at ``thresholds``, given the lookup the engine passes."""
    lookup = _kernel_py.stratum_lookup(thresholds, hist_range, bins)
    return _kernel_py.accumulate_chunk(x, level_ends, lookup, hist_range, bins, *out_and_scratch)


def test_kernel_routes_kept_shots_by_stratum_and_level():
    rng = np.random.default_rng(51)
    x = rng.standard_normal((5, 3000)) * 2.0
    x[4, [0, 999, 1000, 2999]] = [0.0, 1.0, 2.5, -0.2]  # kept shots at the level edges
    level = np.repeat([0, 1, 2], [1000, 0, 2000])  # level 1 draws no shot
    thresholds = np.array([-0.5, 0.7, 1.9])
    # The engine passes the candidates only: the shots at or above the lowest threshold.
    cand = x[4] >= thresholds[0]
    x, level = np.ascontiguousarray(x[:, cand]), level[cand]
    m = x.shape[1]
    bins, hist_range = 41, 10.0
    post = np.zeros((3, 5, bins), dtype=np.int64)
    per_level = np.zeros((3, 3), dtype=np.int64)
    count, mean, m2 = run_kernel(
        x, np.cumsum(np.bincount(level, minlength=3)), thresholds, hist_range, bins, post,
        per_level, np.empty(5 * m), np.empty(5 * m, dtype=np.int64),
    )
    series = engine.SERIES_COEFFICIENTS @ x
    assert np.array_equal(series, [x[4], x[2], x[3], x[0] + x[2], x[1] - x[3]])
    idx = np.clip(((series + hist_range) * bins / (2 * hist_range)).astype(int), 0, bins - 1)
    stratum = np.searchsorted(thresholds, x[4], side="right") - 1
    # Over all strata, every series of every candidate: the candidates' pre-selection counts.
    assert np.array_equal(post.sum(axis=0), [np.bincount(row, minlength=bins) for row in idx])
    for j in range(3):
        sel = stratum == j
        xs = x[:4, sel].T
        feats = np.hstack([xs, [[v[a] * v[b] for a, b in _kernel_py.PAIRS] for v in xs]])
        n, ref_mean, ref_m2 = batch_moments(feats)
        assert count[j] == n
        assert_allclose(mean[j], ref_mean, rtol=1e-12, atol=1e-12)
        assert_allclose(m2[j], ref_m2, rtol=1e-10, atol=1e-9)
        assert np.array_equal(per_level[j], np.bincount(level[sel], minlength=3))
        assert np.array_equal(post[j], [np.bincount(row[sel], minlength=bins) for row in idx])


def test_kernel_reused_scratch_leaks_nothing():
    # A shorter chunk after a longer one in the same buffers, against fresh
    # buffers full of NaN and -1, so that any entry the kernel reads unwritten shows.
    rng = np.random.default_rng(52)
    first, second = rng.standard_normal((5, 3000)) * 2.0, rng.standard_normal((5, 1700)) * 2.0
    thresholds, bins, hist_range = np.array([-0.5, 0.7, 1.9]), 41, 10.0
    for x in (first, second):  # candidates only, as the engine passes them
        x[4] = np.abs(x[4]) + thresholds[0]

    def run(x, series, idx):
        out = [np.zeros((3, 5, bins), np.int64), np.zeros((3, 2), np.int64)]
        moments = run_kernel(
            x, np.array([700, x.shape[1]]), thresholds, hist_range, bins, *out, series, idx
        )
        return out + list(moments)

    scratch = np.empty(5 * 3000), np.empty(5 * 3000, dtype=np.int64)
    run(first, *scratch)
    reused = run(second, *scratch)
    fresh = run(second, np.full(5 * 1700, np.nan), np.full(5 * 1700, -1, dtype=np.int64))
    assert all(np.array_equal(a, b) for a, b in zip(reused, fresh))


def kernel_edge_case(name):
    """(candidates x (5, m), level counts, thresholds) of one kernel edge case."""
    rng = np.random.default_rng(53)
    thresholds = np.array([-0.5, 0.7, 1.9])
    if name == "no candidates":  # most blocks of a high-threshold sweep
        return np.empty((5, 0)), [0, 0, 0], thresholds
    if name == "one candidate":
        x = rng.standard_normal((5, 1))
        x[4] = 1.0
        return x, [0, 1, 0], thresholds
    # Strata 0 and 2 hold many shots and stratum 1 exactly one; levels 1 and
    # 3 draw no shot, between levels that do.
    x = rng.standard_normal((5, 400))
    x[4] = rng.choice([-0.5, 2.5], size=400) + rng.uniform(0.0, 0.5, size=400)
    x[4, 137] = 1.0
    return x, [150, 0, 200, 0, 50], thresholds


@pytest.mark.parametrize(
    "case", ["no candidates", "one candidate", "one-shot stratum, empty levels"])
def test_kernel_edge_cases(case):
    x, level_counts, thresholds = kernel_edge_case(case)
    m, n_levels, n_strata = x.shape[1], len(level_counts), thresholds.size
    bins, hist_range = 41, 10.0
    post = np.zeros((n_strata, 5, bins), dtype=np.int64)
    per_level = np.zeros((n_strata, n_levels), dtype=np.int64)
    count, mean, m2 = run_kernel(
        x, np.cumsum(level_counts), thresholds, hist_range, bins, post, per_level,
        np.empty(5 * m), np.empty(5 * m, dtype=np.int64),
    )
    series = engine.SERIES_COEFFICIENTS @ x
    idx = np.clip(((series + hist_range) * bins / (2 * hist_range)).astype(int), 0, bins - 1)
    stratum = np.searchsorted(thresholds, x[4], side="right") - 1
    level = np.repeat(np.arange(n_levels), level_counts)
    for j in range(n_strata):
        sel = stratum == j
        assert count[j] == sel.sum()
        assert np.array_equal(per_level[j], np.bincount(level[sel], minlength=n_levels))
        assert np.array_equal(post[j], [np.bincount(row[sel], minlength=bins) for row in idx])
        if not sel.any():
            assert not mean[j].any() and not m2[j].any()
            continue
        xs = x[:4, sel].T
        feats = np.hstack([xs, [[v[a] * v[b] for a, b in _kernel_py.PAIRS] for v in xs]])
        _, ref_mean, ref_m2 = batch_moments(feats)
        assert_allclose(mean[j], ref_mean, rtol=1e-12, atol=1e-12)
        assert_allclose(m2[j], ref_m2, rtol=1e-10, atol=1e-9)
        if sel.sum() == 1:
            assert np.array_equal(mean[j], feats[0]) and not m2[j].any()


def ulp_neighbours(values):
    """Each of ``values`` with the floats one ulp below and above it."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


# (thresholds, histogram bins, histogram range, whether a bin is crowded)
# of the stratum lookup cases. Edges of 41 bins over [-10, 10] fall at
# -10 + 20 k / 41; bin 20 holds [-0.24, 0.24). A bin holding more than
# MAX_PER_BIN thresholds is crowded: its candidates are binary-searched.
LOOKUP_EDGES = np.linspace(-10.0, 10.0, 42)
FULL_BIN = (0.03 * np.arange(_kernel_py.MAX_PER_BIN)).tolist()
LOOKUP_GRIDS = {
    "bin edges and their ulps": (ulp_neighbours(LOOKUP_EDGES[18:26]), 41, 10.0, False),
    "several in one bin": ([0.0, 0.1, 0.2, 0.21, 0.3, 0.4, 0.45, 1.0], 41, 10.0, False),
    "a full bin": ([-1.0] + FULL_BIN + [1.0], 41, 10.0, False),
    "a crowded bin": ([-1.0] + FULL_BIN + [0.235, 1.0, 1.1], 41, 10.0, True),
    "every threshold in one of two bins": (np.linspace(0.0, 9.99, 15), 2, 10.0, True),
    "a grid past the range": (np.arange(0.0, 13.25, 0.25), 41, 10.0, True),
    "every threshold past the range": ([11.0, 12.0, 15.0, 1e300], 41, 10.0, False),
    "negative and signed zero": ([-12.0, -7.3, -2.5, -1.0, -0.0, 1.5], 41, 10.0, False),
    "one threshold": ([0.3], 41, 10.0, False),
}


@pytest.mark.parametrize("case", list(LOOKUP_GRIDS))
def test_kernel_strata_equal_a_binary_search(case):
    # Candidates on every threshold and bin edge, one ulp to either side,
    # at +inf and spread over the grid; the strata must be searchsorted's.
    thresholds, bins, hist_range, crowded = LOOKUP_GRIDS[case]
    thresholds = np.unique(np.asarray(thresholds, dtype=float))
    assert (_kernel_py.stratum_lookup(thresholds, hist_range, bins)[2] is not None) == crowded
    edges = np.linspace(-hist_range, hist_range, bins + 1)
    rng = np.random.default_rng(54)
    tap = np.concatenate([
        ulp_neighbours(thresholds), ulp_neighbours(edges), [0.0, -0.0, np.inf, 1e300],
        rng.uniform(thresholds[0], thresholds[-1] + 1.0, 300),
    ])
    tap = tap[tap >= thresholds[0]]  # the engine passes candidates only
    m = tap.size
    x = np.vstack([rng.standard_normal((4, m)), tap])
    level_counts = [m // 3, m - m // 3]
    n_strata = thresholds.size
    post = np.zeros((n_strata, 5, bins), dtype=np.int64)
    per_level = np.zeros((n_strata, 2), dtype=np.int64)
    count, _, _ = run_kernel(x, np.cumsum(level_counts), thresholds, hist_range, bins, post,
                             per_level, np.empty(5 * m), np.empty(5 * m, dtype=np.int64))

    stratum = np.searchsorted(thresholds[1:], tap, side="right")
    series = engine.SERIES_COEFFICIENTS[1:, :4] @ x[:4]  # tap X may be inf
    idx = np.empty((5, m), dtype=np.int64)
    _kernel_py.bin_index(np.vstack([tap, series]), hist_range, bins, idx)
    level = np.repeat([0, 1], level_counts)
    assert np.array_equal(count, np.bincount(stratum, minlength=n_strata))
    for j in range(n_strata):
        sel = stratum == j
        assert np.array_equal(per_level[j], np.bincount(level[sel], minlength=2))
        assert np.array_equal(post[j], [np.bincount(row[sel], minlength=bins) for row in idx])


class TestHistogram:
    def test_empty_stream(self):
        counts = bin_tap_values([], bins=11, hist_range=5.0)
        assert counts.sum() == 0
        assert len(counts) == 11

    def test_single_central_value(self):
        counts = bin_tap_values([0.0], bins=201, hist_range=25.0)
        assert counts.sum() == 1
        assert counts[100] == 1  # middle bin of 201

    def test_out_of_range_clamped(self):
        counts = bin_tap_values([-100.0, 100.0, 0.1], bins=11, hist_range=5.0)
        assert counts[0] == 1 and counts[-1] == 1
        assert counts.sum() == 3

    def test_huge_and_infinite_values_in_their_own_end_bin(self):
        counts = bin_tap_values([1e300, np.inf, 30.0, -1e300, -np.inf, np.nan], bins=11,
                                hist_range=5.0)
        assert counts[-1] == 3 and counts[0] == 3
        assert counts.sum() == 6

    def test_variance_reconstruction_from_fine_bins(self):
        rng = np.random.default_rng(45)
        vals = rng.standard_normal(1_000_000)
        counts = bin_tap_values(vals, bins=201, hist_range=25.0)
        edges = np.linspace(-25.0, 25.0, 202)
        centers = 0.5 * (edges[:-1] + edges[1:])
        mean = (centers * counts).sum() / counts.sum()
        var = ((centers - mean) ** 2 * counts).sum() / counts.sum()
        assert abs(var - 1.0) < 0.01


class TestMerge:
    """``engine._merge``, Chan's update of (count, mean, M2) triples."""

    def test_matches_numpy(self):
        rng = np.random.default_rng(46)
        x = rng.standard_normal((5000, 4)) * [1.0, 2.0, 0.5, 3.0]
        count, mean, m2 = engine._merge(empty_moments(4), batch_moments(x))
        assert_allclose(mean, x.mean(axis=0), atol=1e-12)
        assert_allclose(m2 / (count - 1), np.cov(x.T, ddof=1), rtol=1e-10)

    def test_merge_associativity(self):
        rng = np.random.default_rng(47)
        x = rng.standard_normal((10_001, 3)) + 5.0
        full = engine._merge(empty_moments(3), batch_moments(x))
        split = engine._merge(empty_moments(3), batch_moments(x[:4000]))
        split = engine._merge(split, batch_moments(x[4000:]))
        assert split[0] == full[0]
        assert_allclose(split[1], full[1], rtol=1e-12)
        assert_allclose(split[2], full[2], rtol=1e-10)

    def test_many_chunk_merge(self):
        rng = np.random.default_rng(48)
        x = rng.standard_normal((9000, 2))
        acc = empty_moments(2)
        for chunk in np.array_split(x, 13):
            acc = engine._merge(acc, batch_moments(chunk))
        count, _, m2 = acc
        assert_allclose(m2 / (count - 1), np.cov(x.T, ddof=1), rtol=1e-10)

    def test_stacked_merge_is_row_by_row(self):
        # The engine merges (S, d) stacks, one row per stratum; a stratum
        # that kept no shot is an empty row, on either side of a merge.
        rng = np.random.default_rng(49)
        left_counts, right_counts = [0, 7, 300, 0, 2], [5, 0, 41, 0, 1000]

        def stack(counts):
            rows = [batch_moments(rng.standard_normal((n, 6)) * 3.0 + 1.5) if n
                    else empty_moments(6) for n in counts]
            return tuple(np.array([row[k] for row in rows]) for k in range(3))

        left, right = stack(left_counts), stack(right_counts)
        merged = engine._merge(left, right)
        for s in range(len(left_counts)):
            row = engine._merge(tuple(part[s] for part in left), tuple(part[s] for part in right))
            for k in range(3):
                assert np.array_equal(merged[k][s], row[k])
            for empty, other in ((left, right), (right, left)):
                if empty[0][s] == 0:
                    assert merged[0][s] == other[0][s]
                    assert np.array_equal(merged[1][s], other[1][s])
                    assert np.array_equal(merged[2][s], other[2][s])


@pytest.fixture(scope="module")
def tapped_discrete():
    from cvdistill import calibrate

    cal = calibrate()
    return attach_tap(cal.v_squeezed, cal.v_antisqueezed, discrete_channel(), TapConfig())


@pytest.fixture(scope="module")
def tapped_fading():
    from cvdistill import calibrate

    cal = calibrate()
    return attach_tap(cal.v_squeezed, cal.v_antisqueezed, envelope_fading(0.2), TapConfig())


class TestRunMc:
    def test_no_threshold_keeps_everything(self, tapped_discrete):
        res = sweep_at(tapped_discrete, McConfig(n_shots=10_000, seed=1), -1e9)
        assert res.success_probability[0] == 1.0
        assert res.kept_count[0] == res.total_count == 10_000

    def test_histogram_count_invariants(self, tapped_discrete):
        conf = McConfig(n_shots=50_000, seed=2)
        res = sweep_at(tapped_discrete, conf, 2.0)
        assert len(res.edges) == conf.histogram_bins + 1
        assert res.hist_pre.shape == res.hist_post.shape[1:] == (len(SERIES), conf.histogram_bins)
        for pre, post in zip(res.hist_pre, res.hist_post[0]):
            assert pre.sum() == res.total_count
            assert post.sum() == res.kept_count[0]
        assert res.per_level_kept[0].sum() == res.kept_count[0]

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            McConfig(n_shots=10, seed=-1)

    def test_bit_identical_reruns(self, tapped_discrete):
        conf = McConfig(n_shots=200_000, seed=99)
        a = sweep_at(tapped_discrete, conf, 4.0)
        b = sweep_at(tapped_discrete, conf, 4.0)
        assert a.kept_count[0] == b.kept_count[0]
        assert np.array_equal(a.pooled_mean[0], b.pooled_mean[0])
        assert np.array_equal(a.pooled_cov[0], b.pooled_cov[0])
        assert np.array_equal(a.hist_pre, b.hist_pre)
        assert np.array_equal(a.hist_post, b.hist_post)

    def test_workers_reproducible_and_recorded(self, tapped_discrete):
        conf = McConfig(n_shots=100_000, seed=5, n_workers=2)
        a = sweep_at(tapped_discrete, conf, 2.0)
        b = sweep_at(tapped_discrete, conf, 2.0)
        assert a.kept_count[0] == b.kept_count[0]
        assert np.array_equal(a.pooled_cov[0], b.pooled_cov[0])
        # The worker count is a setting, recorded in the run report.
        cfg = preset_config("discrete")
        cfg.engine, cfg.mc, cfg.tap.thresholds = "mc", conf, [2.0]
        assert run_scenario(cfg).provenance["n_workers"] == 2

    def test_degenerate_selection_error_and_counts(self, tapped_discrete):
        res = sweep_at(tapped_discrete, McConfig(n_shots=5_000, seed=3), 1e4)
        (error,) = res.errors
        assert isinstance(error, DegenerateSelectionError)
        assert str(error) == "only 0 of 5000 shots passed threshold 10000.0, fewer than MIN_KEPT = 5"
        assert res.total_count == 5_000
        assert res.kept_count[0] == 0
        assert res.hist_pre[SERIES.index("X_tap")].sum() == 5_000
        assert res.pooled_cov.shape == (1, 4, 4) and np.isnan(res.pooled_cov).all()

    def test_agreement_with_analytic_discrete(self, tapped_discrete):
        ens = herald(tapped_discrete, [4.0])
        res = sweep_at(tapped_discrete, McConfig(n_shots=1_000_000, seed=2026), 4.0)
        z_succ = abs(res.success_probability[0] - ens.success_probability[0]) / res.success_se[0]
        assert z_succ < 4.0
        dev = np.abs(res.pooled_cov[0] - ens.pooled_cov[0]) / pooled_cov_se(res)[0]
        assert dev.max() < 4.0
        ln_mc, ln_se = (column[0] for column in ln_with_se(res))
        assert abs(ln_mc - distilled_gln(ens)[0]) < 4.0 * ln_se

    def test_agreement_with_analytic_fading(self, tapped_fading):
        ens = herald(tapped_fading, [2.0])
        res = sweep_at(tapped_fading, McConfig(n_shots=1_000_000, seed=2027), 2.0)
        z_succ = abs(res.success_probability[0] - ens.success_probability[0]) / res.success_se[0]
        assert z_succ < 4.0
        dev = np.abs(res.pooled_cov[0] - ens.pooled_cov[0]) / pooled_cov_se(res)[0]
        assert dev.max() < 4.0

    def test_posterior_weights_match_analytic(self, tapped_discrete):
        post = herald(tapped_discrete, [4.0]).posterior_weights[0]
        res = sweep_at(tapped_discrete, McConfig(n_shots=1_000_000, seed=11), 4.0)
        mc_post = res.per_level_kept[0] / res.kept_count[0]
        se = np.sqrt(post * (1 - post) / res.kept_count[0])
        assert np.all(np.abs(mc_post - post) < 4 * se + 1e-12)

    def test_ln_converges_with_shots(self, tapped_discrete):
        (target,) = distilled_gln(herald(tapped_discrete, [4.0]))
        errs, ses = [], []
        for n in (100_000, 1_000_000, 10_000_000):
            res = sweep_at(tapped_discrete, McConfig(n_shots=n, seed=314), 4.0)
            ln, se = (column[0] for column in ln_with_se(res))
            errs.append(abs(ln - target))
            ses.append(se)
        # The standard error falls as 1/sqrt(n), about 3.2x per 10x shots,
        # and at 1e7 shots the error is within 4 of it.
        assert ses[1] < ses[0] / 2.5 and ses[2] < ses[1] / 2.5
        assert errs[2] < 4 * ses[2]
        assert errs[2] < 0.02

    def test_rejects_wrong_mode_count(self, tapped_discrete):
        # A model of the three modes (A, B, Tap), P_Tap included, is rejected
        # when built: the engines read five quadratures.
        cov = np.stack([np.eye(6)] * 2)
        cov[:, :5, :5] = tapped_discrete.cov
        with pytest.raises(ValueError, match="cov \\(L, 5, 5\\)"):
            sweep_at(TapModel(tapped_discrete.weights, cov), McConfig(n_shots=10, seed=1), 0.0)

    @pytest.mark.parametrize("threshold", [2.0, 4.0])
    def test_agreement_with_analytic_displaced_tap(self, three_level_tapped, threshold):
        # Three tap SDs and a level whose tap is uncorrelated: both engines
        # standardise the threshold by each level's SD.
        ens = herald(three_level_tapped, [threshold])
        n = 1_000_000
        res = sweep_at(three_level_tapped, McConfig(n_shots=n, seed=2028), threshold)
        assert binomial_two_sided_p(int(res.kept_count[0]), n, ens.success_probability[0]) >= 1e-6
        ln_mc, ln_se = (column[0] for column in ln_with_se(res))
        assert abs(ln_mc - distilled_gln(ens)[0]) < 4.0 * ln_se
        dev = np.abs(res.pooled_mean[0] - ens.pooled_mean[0])
        assert np.all(dev < 4.0 * np.sqrt(np.diag(res.pooled_cov[0]) / res.kept_count[0]))


def chi_square_p(counts, probs):
    """Pearson chi-square tail of ``counts`` against ``probs``, bins pooled to expected counts >= 5."""
    expected = probs * counts.sum()
    pooled_obs, pooled_exp, obs, exp = [], [], 0, 0.0
    for o, e in zip(counts, expected):
        obs, exp = obs + o, exp + e
        if exp >= 5.0:
            pooled_obs.append(obs)
            pooled_exp.append(exp)
            obs, exp = 0, 0.0
    pooled_obs[-1] += obs
    pooled_exp[-1] += exp
    o, e = np.array(pooled_obs), np.array(pooled_exp)
    stat = float(((o - e) ** 2 / e).sum())
    return float(mpmath.gammainc((len(o) - 1) / 2.0, stat / 2.0, regularized=True))


class TestPreSelectionHistograms:
    @pytest.mark.parametrize("grid", [[9.0], [0.5, 3.0, 6.0, 9.0]])
    def test_every_series_sums_to_the_shots_and_bounds_post(self, tapped_fading, grid):
        sweep = run_mc_sweep(tapped_fading, McConfig(n_shots=200_000, seed=61), grid)
        assert np.array_equal(sweep.hist_pre.sum(axis=1), [200_000] * len(SERIES))
        assert np.all(sweep.hist_post <= sweep.hist_pre[None])

    def test_no_composition_when_every_shot_is_a_candidate(self, tapped_discrete, monkeypatch):
        monkeypatch.setattr(engine, "series_bin_probabilities", pytest.fail)
        sweep = sweep_at(tapped_discrete, McConfig(n_shots=100_000, seed=62), NO_SELECTION)
        assert np.array_equal(sweep.hist_pre, sweep.hist_post[0])

    @pytest.mark.parametrize("grid", [[9.0], [0.0, 4.0]])
    def test_match_the_closed_form(self, tapped_fading, grid):
        # Each row is the candidates' sampled bins plus the composition of
        # the other shots.
        sweep = run_mc_sweep(tapped_fading, McConfig(n_shots=1_000_000, seed=63), grid)
        probs = tapped_fading.weights @ series_bin_probabilities(
            tapped_fading, engine.SERIES_COEFFICIENTS, sweep.edges).swapaxes(0, 1)
        for counts, p in zip(sweep.hist_pre, probs):
            assert chi_square_p(counts, p) >= 1e-6


def truncated_normal_moments(alpha):
    """Mean, variance and fourth central moment of N(0, 1) given z >= alpha, by mpmath quadrature.

    Integrates over u = z - alpha against phi(alpha + u) / phi(alpha), whose
    scale 1 / (alpha + 1) the breakpoints follow, so a deep tail is resolved.
    """
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        points = [0, 1 / (a + 1), 10 / (a + 1), mpmath.inf]

        def weight(u):
            return mpmath.exp(-a * u - u * u / 2)

        norm = mpmath.quad(weight, points)

        def moment(f):
            return mpmath.quad(lambda u: f(a + u) * weight(u), points) / norm

        mean = moment(lambda t: t)
        return tuple(float(v) for v in (mean, moment(lambda t: (t - mean) ** 2),
                                        moment(lambda t: (t - mean) ** 4)))


def preset_tap_model(name):
    """The tap model of a preset, built as ``run_scenario`` builds it."""
    cfg = preset_config(name)
    variances = cfg.source.variances()
    channel, _ = cfg.channel.build(*variances)
    return attach_tap(*variances, channel, cfg.tap)


@pytest.fixture(scope="module", params=["discrete", "semicontinuous"])
def tapped_preset(request):
    return preset_tap_model(request.param)


class TestCountFirst:
    @pytest.mark.parametrize("alpha", [0.5, 0.6, 2.0, 5.0, 8.0, 30.0])
    def test_tail_normals_follow_the_truncated_normal(self, alpha):
        n = 200_000
        z = engine._tail_normals(np.random.default_rng(71), np.full(n, alpha))
        assert z.min() >= alpha
        mean, var, mu4 = truncated_normal_moments(alpha)
        assert abs(z.mean() - mean) < 4.0 * np.sqrt(var / n)
        assert abs(z.var() - var) < 4.0 * np.sqrt((mu4 - var * var) / n)
        # Bins a quarter SD wide from alpha, the last one open, against
        # differences of gaussian_tail.
        edges = alpha + np.sqrt(var) * np.arange(25) / 4.0
        probs = -np.diff(gaussian_tail(np.append(edges, np.inf))) / gaussian_tail(alpha)
        counts = np.bincount(np.searchsorted(edges, z, side="right") - 1, minlength=edges.size)
        assert chi_square_p(counts, probs) >= 1e-6

    def test_one_threshold_splits_the_levels_by_alpha(self, tapped_preset):
        # At 1 SNU alpha spans 0.44-0.84: both sampling rules are exercised.
        alpha = 1.0 / tapped_preset.tap_sd
        assert np.any(alpha < engine.RARE_ALPHA) and np.any(alpha >= engine.RARE_ALPHA)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_per_level_kept_counts_and_tap_histogram(self, tapped_preset, reverse):
        # The presets list their rare levels first at 1 SNU; reversed, the
        # common ones come first, and both orders place each candidate's
        # tap normal in its own level.
        mixture = tapped_preset
        if reverse:
            mixture = TapModel(mixture.weights[::-1].copy(), mixture.cov[::-1].copy())
        n = 1_000_000
        sweep = run_mc_sweep(mixture, McConfig(n_shots=n, seed=72), [1.0, 2.0])
        ens = herald(mixture, [1.0, 2.0])
        # Each level's kept count is Binomial(n, w_i q_i): the level counts
        # are multinomial and each shot passes on its own.
        for kept, q in zip(sweep.per_level_kept, ens.per_component_pass):
            for k, p in zip(kept, mixture.weights * q):
                assert binomial_two_sided_p(int(k), n, p) >= 1e-6
        # The kept X_tap histogram: per level, P(bin and X_tap >= 1) is the
        # unconditional bin probability less that given X_tap < 1 times 1 - q_i.
        coefficients = engine.SERIES_COEFFICIENTS[:1]
        above = (series_bin_probabilities(mixture, coefficients, sweep.edges)[:, 0]
                 - series_bin_probabilities(mixture, coefficients, sweep.edges, 1.0)[:, 0]
                 * (1.0 - ens.per_component_pass[0])[:, None])
        probs = np.clip(mixture.weights @ above, 0.0, None) / ens.success_probability[0]
        assert chi_square_p(sweep.hist_post[0, 0], probs) >= 1e-6


def sweep_moments(sweep):
    """The moment stacks of one run_mc_sweep, with the standard errors of its covariances."""
    return [sweep.pooled_mean, sweep.pooled_cov, pooled_cov_se(sweep), sweep.cov_sampling]


def sweep_outputs(sweep):
    """Every count, histogram, moment and error message of one run_mc_sweep."""
    arrays = [sweep.kept_count, sweep.per_level_kept, sweep.edges,
              sweep.hist_pre, sweep.hist_post, *sweep_moments(sweep)]
    return arrays + [[sweep.total_count], [str(exc) for exc in sweep.errors]]


def same_outputs(out, ref):
    """Whether two ``sweep_outputs`` are equal bit for bit, NaN moments of degenerate rows included."""
    *arrays, messages = out
    *ref_arrays, ref_messages = ref
    return len(out) == len(ref) and messages == ref_messages and all(
        np.array_equal(u, v, equal_nan=True) for u, v in zip(arrays, ref_arrays))


@st.composite
def random_grids(draw):
    """Unsorted threshold grids with duplicates, some on histogram bin edges or an ulp off."""
    edges = np.linspace(-25.0, 25.0, 202)[96:114]  # the default bins' edges from -1.2 to 3.3
    value = st.floats(-1.5, 6.0) | st.sampled_from(ulp_neighbours(edges).tolist())
    distinct = draw(st.lists(value, min_size=1, max_size=5))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=3))
    return draw(st.permutations(distinct + repeats))


class TestRunMcSweep:
    @pytest.mark.parametrize("n_workers, grid", [
        pytest.param(1, [4.0, 0.0, 2.0, 2.0, 1e4], id="1"),
        pytest.param(2, [4.0, 0.0, 2.0, 2.0, 1e4], id="2"),
        pytest.param(1, [0.0, -0.0, 2.0], id="signed-zeros"),
    ])
    def test_equals_per_threshold_runs(self, tapped_discrete, n_workers, grid):
        conf = McConfig(n_shots=150_000, seed=21, n_workers=n_workers)
        sweep = run_mc_sweep(tapped_discrete, conf, grid)
        assert len(sweep.errors) == len(sweep.kept_count) == len(sweep.pooled_cov) == len(grid)
        for j, th in enumerate(grid):
            # The lowest threshold decides which shots draw their off-tap
            # quadratures, so the reference sweep shares it: its row 1 is th.
            ref = run_mc_sweep(tapped_discrete, conf, [min(grid), th])
            assert sweep.total_count == ref.total_count == 150_000
            assert sweep.kept_count[j] == ref.kept_count[1]
            assert np.array_equal(sweep.per_level_kept[j], ref.per_level_kept[1])
            assert np.array_equal(sweep.edges, ref.edges)
            assert np.array_equal(sweep.hist_pre, ref.hist_pre)
            assert np.array_equal(sweep.hist_post[j], ref.hist_post[1])
            assert sweep.success_probability[j] == ref.success_probability[1]
            if th == 1e4:
                assert isinstance(sweep.errors[j], DegenerateSelectionError)
                assert str(sweep.errors[j]) == str(ref.errors[1])
                assert ref.pooled_cov.shape == (2, 4, 4)
                for a, b in zip(sweep_moments(sweep), sweep_moments(ref)):
                    assert np.array_equal(a[j], b[1], equal_nan=True) and np.isnan(b[1]).all()
                continue
            assert sweep.errors[j] is None and ref.errors[1] is None
            # Moments differ only by merge order: relative to each array's largest entry.
            for a, b in zip(sweep_moments(sweep), sweep_moments(ref)):
                a, b = a[j], b[1]
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
            assert ([column[j] for column in ln_with_se(sweep)]
                    == pytest.approx([column[1] for column in ln_with_se(ref)], rel=1e-9))

    @pytest.mark.parametrize("n_shots, grid", [
        pytest.param(n, [4.0, 0.0, 2.0, 2.0, 1e4], id=str(n))
        for n in (400_000, 2 * 65_536, 65_536 + 1_000, 2)
    ] + [
        # Lowest threshold 6 SNU: both levels are rare, and the blocks hold
        # 2**23 shots each, nine of them.
        pytest.param(8 * 2**23 + 1_000, [7.0, 6.0, 9.0, 7.0, 1e4], id="rare-t6"),
    ])
    def test_independent_of_worker_count(self, tapped_discrete, n_shots, grid):
        if min(grid) == 6.0:
            p = herald(tapped_discrete, [6.0]).success_probability[0]
            assert engine._block_shots(p, n_shots) == 2**23
        ref, *others = [
            sweep_outputs(run_mc_sweep(
                tapped_discrete, McConfig(n_shots=n_shots, seed=23, n_workers=w), grid))
            for w in (1, 2, 3)
        ]
        for out in others:
            assert same_outputs(out, ref)

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(grid=random_grids())
    def test_random_grids_match_one_threshold_sweeps(self, tapped_discrete, grid):
        # Two blocks where the lowest threshold is common, so that two workers split them.
        conf = McConfig(n_shots=65_536 + 4_000, seed=27)
        sweep = run_mc_sweep(tapped_discrete, conf, grid)
        two = run_mc_sweep(tapped_discrete, dataclasses.replace(conf, n_workers=2), grid)
        assert same_outputs(sweep_outputs(sweep), sweep_outputs(two))
        # A row's counts equal those of any sweep with the same lowest
        # threshold, and the lowest threshold's row those of its own sweep.
        alone = sweep_at(tapped_discrete, conf, min(grid))
        for j, th in enumerate(grid):
            ref = run_mc_sweep(tapped_discrete, conf, [min(grid), th])
            assert sweep.kept_count[j] == ref.kept_count[1]
            assert np.array_equal(sweep.per_level_kept[j], ref.per_level_kept[1])
            assert np.array_equal(sweep.hist_post[j], ref.hist_post[1])
            if th == min(grid):
                assert sweep.kept_count[j] == alone.kept_count[0]
                assert np.array_equal(sweep.hist_post[j], alone.hist_post[0])
        # Every pre-selection histogram depends on the lowest threshold alone.
        assert np.array_equal(sweep.hist_pre, alone.hist_pre)

    def test_pool_has_at_most_one_process_per_usable_cpu(self, tapped_discrete, monkeypatch):
        # A stand-in pool records its size and runs the jobs in this process.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        grid, conf = [3.0, 0.5, 6.0], McConfig(n_shots=5 * 65_536 - 7, seed=28)  # five blocks

        def outputs(n_workers):
            return sweep_outputs(run_mc_sweep(
                tapped_discrete, dataclasses.replace(conf, n_workers=n_workers), grid))

        ref = outputs(1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        runs = [outputs(5000)]  # two jobs, two processes
        # Without sched_getaffinity the pool falls back to the CPU count.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        runs += [outputs(4), outputs(2)]
        assert sizes == [2, 3, 2]
        for out in runs:
            assert same_outputs(out, ref)

    def test_worker_count_costs_no_memory_beyond_the_jobs(self, tapped_discrete):
        # One block, so no pool starts: a million workers split it no finer than one.
        conf = McConfig(n_shots=1_000, seed=28)
        assert sampling_plan(tapped_discrete, conf.n_shots, 3.0)[1] == 1

        def peak(n_workers):
            tracemalloc.start()
            try:
                out = sweep_outputs(run_mc_sweep(
                    tapped_discrete, dataclasses.replace(conf, n_workers=n_workers), [3.0]))
                return out, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (ref, one), (out, million) = peak(1), peak(10**6)
        assert million - one <= 2**20
        assert same_outputs(out, ref)

    def test_counts_sum_to_their_totals(self, tapped_discrete):
        # Thresholds 9 and 1e4 keep fewer than five of 20,000 shots: counted, NaN moments.
        grid = [3.0, 1e4, 0.0, 9.0, 3.0]
        sweep = run_mc_sweep(tapped_discrete, McConfig(n_shots=20_000, seed=24), grid)
        degenerate = [exc is not None for exc in sweep.errors]
        assert degenerate == [False, True, False, True, False]
        assert np.array_equal(sweep.hist_pre.sum(axis=1), [20_000] * len(SERIES))
        assert np.array_equal(sweep.hist_post.sum(axis=2),
                              np.repeat(sweep.kept_count[:, None], len(SERIES), axis=1))
        assert np.array_equal(sweep.per_level_kept.sum(axis=1), sweep.kept_count)
        assert np.all((sweep.kept_count < 5) == degenerate)
        assert len(sweep.pooled_mean) == len(sweep.pooled_cov) == len(grid)
        # ln_with_se has one entry per grid threshold, NaN at 9 and 1e4.
        ln, se = ln_with_se(sweep)
        assert len(ln) == len(se) == len(grid)
        assert np.array_equal(np.isnan(ln), degenerate) and np.array_equal(np.isnan(se), degenerate)
        assert ln[4] == ln[0] != ln[2] and se[4] == se[0] != se[2]

    def test_rows_and_errors_follow_the_kept_count(self, tapped_discrete):
        # Kept 16, 7, 4, 3, 1 and 0 of 20,000 shots: a row with an LN error,
        # a row without one, and four below MIN_KEPT, too few for a
        # positive-definite covariance, with one error for all four.
        grid = [6.5, 7.0, 7.75, 8.25, 8.5, 9.0]
        sweep = run_mc_sweep(tapped_discrete, McConfig(n_shots=20_000, seed=13), grid)
        assert sweep.kept_count.tolist() == [16, 7, 4, 3, 1, 0]
        assert sweep.errors[:2] == (None, None)
        for exc, kept, th in zip(sweep.errors[2:], (4, 3, 1, 0), grid[2:]):
            assert type(exc) is DegenerateSelectionError
            assert str(exc) == (f"only {kept} of 20000 shots passed threshold {th}, "
                                "fewer than MIN_KEPT = 5")
        assert len(sweep.pooled_mean) == len(sweep.pooled_cov) == len(sweep.cov_sampling) == 6
        for moments in (sweep.pooled_mean, sweep.pooled_cov, sweep.cov_sampling):
            assert np.isfinite(moments[:2]).all() and np.isnan(moments[2:]).all()
        ln, se = ln_with_se(sweep)
        assert np.all(np.isfinite(ln[:2])) and se[0] > 0 and np.all(np.isnan(se[1:]))
        assert np.all(np.isnan(ln[2:]))

    def test_a_nan_in_a_row_without_an_error_is_rejected(self, tapped_discrete):
        # Only the errors entries mark a missing row: a NaN in a row that has
        # none reaches the covariance check, on both engines' stacks.
        grid = [2.0, 1e4, 4.0]
        ens = herald(tapped_discrete, grid)
        sweep = run_mc_sweep(tapped_discrete, McConfig(n_shots=20_000, seed=24), grid)
        for stack in (ens, sweep):
            assert [exc is None for exc in stack.errors] == [True, False, True]
            stack.pooled_cov[2, 0, 0] = np.nan
        for call in (lambda: distilled_gln(ens), lambda: distilled_gln(sweep),
                     lambda: ln_with_se(sweep)):
            with pytest.raises(InvalidCovarianceError, match="NaN"):
                call()

    @pytest.mark.parametrize("grid", [[], [1.0, np.nan], [-np.inf, 2.0], [[1.0, 2.0]]])
    def test_rejects_bad_grids(self, tapped_discrete, grid):
        with pytest.raises(ValueError):
            run_mc_sweep(tapped_discrete, McConfig(n_shots=10, seed=1), grid)


@pytest.fixture(scope="module")
def tapped_semicontinuous():
    return preset_tap_model("semicontinuous")


def usable_cpus(monkeypatch, n):
    """Make run_mc_sweep see ``n`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture
def helpers(monkeypatch):
    """The sizes of the ThreadPoolExecutors started, each a real pool with its helper thread."""
    sizes = []

    class RecordedThreads(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordedThreads)
    return sizes


@pytest.fixture
def fast_switching():
    """A thread switch every microsecond, so that a helper and its caller interleave finely."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def sampling_plan(model, n_shots, t0):
    """(levels rare at t0, blocks) of a sweep of ``n_shots`` whose lowest threshold is t0."""
    alpha = t0 / model.tap_sd
    block = engine._block_shots(model.weights @ gaussian_tail(alpha), n_shots)
    return alpha >= engine.RARE_ALPHA, -(-n_shots // block)


class TestBlockPrefetch:
    """A one-worker sweep draws block k + 1 on a helper thread while it consumes block k."""

    @pytest.mark.parametrize("preset, n_shots, grid, rare_levels", [
        pytest.param("semicontinuous", 3 * 65_536 + 500, [0.0, 2.0, 4.0], "none", id="common-only"),
        pytest.param("discrete", 10**10, [10.0, 9.0, 12.0], "all", id="rare-only"),
        pytest.param("semicontinuous", 3 * 65_536 + 500, [3.0, 1.0], "some", id="mixed"),
    ])
    def test_helper_and_inline_give_the_same_bits(self, tapped_discrete, tapped_semicontinuous,
                                                  helpers, fast_switching, monkeypatch, preset,
                                                  n_shots, grid, rare_levels):
        model = tapped_discrete if preset == "discrete" else tapped_semicontinuous
        rare, n_blocks = sampling_plan(model, n_shots, min(grid))
        assert {"none": not rare.any(), "all": rare.all(),
                "some": rare.any() and not rare.all()}[rare_levels]
        assert n_blocks >= 3
        conf = McConfig(n_shots=n_shots, seed=29)
        outs = []
        for n_cpus in (1, 2):
            usable_cpus(monkeypatch, n_cpus)
            outs.append(sweep_outputs(run_mc_sweep(model, conf, grid)))
        assert helpers == [1]  # at two CPUs only
        assert same_outputs(*outs)

    def test_both_buffer_sets_grow(self, tapped_semicontinuous, helpers, fast_switching,
                                   monkeypatch):
        model, grid = tapped_semicontinuous, [3.0, 1.0]
        conf = McConfig(n_shots=3 * 65_536 + 500, seed=30)
        usable_cpus(monkeypatch, 1)
        ref = sweep_outputs(run_mc_sweep(model, conf, grid))
        # Buffers of one entry: each set outgrows them on its first block.
        sets = []

        class RecordedBuffers(engine._DrawBuffers):
            def __init__(self, n_common, n_cand):
                assert n_common == n_cand == 1
                sets.append(self)
                super().__init__(n_common, n_cand)

        monkeypatch.setattr(engine, "_capacity", lambda mean, block: 1)
        monkeypatch.setattr(engine, "_DrawBuffers", RecordedBuffers)
        for n_cpus in (2, 1):
            usable_cpus(monkeypatch, n_cpus)
            out = sweep_outputs(run_mc_sweep(model, conf, grid))
            assert same_outputs(out, ref)
        assert helpers == [1] and len(sets) == 3
        for bufs in sets:
            assert bufs.tap_normals.size > 1 and bufs.mask.size > 1 and bufs.normals.size > 5

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_a_failed_draw_propagates_and_leaves_no_thread(self, tapped_semicontinuous, helpers,
                                                          monkeypatch, n_cpus):
        # _tail_normals runs once per block, in block order: its third call draws block 2.
        calls = []
        tail_normals = engine._tail_normals

        def failing(rng, alpha):
            calls.append(alpha.size)
            if len(calls) == 3:
                raise RuntimeError("draw of block 2 failed")
            return tail_normals(rng, alpha)

        monkeypatch.setattr(engine, "_tail_normals", failing)
        usable_cpus(monkeypatch, n_cpus)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="block 2"):
            run_mc_sweep(tapped_semicontinuous, McConfig(n_shots=5 * 65_536, seed=31), [1.0])
        assert threading.active_count() == threads
        assert len(calls) == 3 and helpers == [1] * (n_cpus - 1)

    def test_no_helper_with_one_cpu_one_block_or_the_process_pool(self, tapped_discrete,
                                                                  monkeypatch):
        # Stand-ins record each helper and pool; the helper runs each draw at
        # once, and the pool runs the jobs in this process after checking
        # that no other thread is alive.
        helpers, pools, threads = [], [], threading.active_count()

        class SerialThreads:
            def __init__(self, max_workers):
                helpers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        class SerialPool(SerialThreads):
            def __init__(self, max_workers):
                assert threading.active_count() == threads
                pools.append(max_workers)

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialThreads)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        grid, conf = [3.0, 0.5, 6.0], McConfig(n_shots=5 * 65_536 - 7, seed=28)  # five blocks

        def outputs(n_cpus, **changes):
            usable_cpus(monkeypatch, n_cpus)
            return sweep_outputs(run_mc_sweep(tapped_discrete, dataclasses.replace(conf, **changes),
                                              grid))

        ref = outputs(2)
        assert helpers == [1] and pools == []
        runs = [outputs(1), outputs(2, n_workers=2), outputs(2, n_workers=5)]
        assert sampling_plan(tapped_discrete, 65_536, min(grid))[1] == 1
        outputs(2, n_shots=65_536)  # one block
        assert helpers == [1] and pools == [2, 2]
        for out in runs:
            assert same_outputs(out, ref)
