import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvdistill import (
    ChannelLevel,
    DegenerateSelectionError,
    FluctuatingChannel,
    GaussianState,
    InvalidCovarianceError,
    McConfig,
    MixtureState,
    TapConfig,
    attach_tap,
    discrete_channel,
    distilled_gln,
    envelope_fading,
    herald,
    joint_quadrature_variances,
    make_kerr_entangled,
    pooled_cm,
    preset_config,
    propagate,
    run_mc_sweep,
    run_scenario,
    tensor,
    vacuum_state,
)
from cvdistill.mc import SERIES, CovarianceAccumulator, ln_with_se
from cvdistill.mc import _kernel_py, engine
from conftest import apply_phase_rotation, batch_moments

# A threshold below every shot: a sweep then keeps all of them, so its kept
# statistics are those of the sampled levels and phase-space points.
NO_SELECTION = -1e9


def sweep_at(mixture3, config, threshold):
    """The one-threshold sweep at ``threshold``."""
    return run_mc_sweep(mixture3, config, [threshold])


def uncorrelated_tap(state):
    """Single-component (A, B, Tap) mixture whose tap is a vacuum mode."""
    return MixtureState([(1.0, tensor(state, vacuum_state(1)))])


class TestSampleLevel:
    def test_single_level_always_zero(self):
        chan = FluctuatingChannel([ChannelLevel(1.0, 1.0)])
        tapped = attach_tap(propagate(make_kerr_entangled(0.6, 10.0), chan), TapConfig())
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
        vacuum = MixtureState([(1.0, vacuum_state(3))])
        res = sweep_at(vacuum, McConfig(n_shots=1_000_000, seed=42), NO_SELECTION)
        assert_allclose(np.diag(res.pooled_cov[0]), np.ones(4), atol=0.005)

    def test_deterministic_under_fixed_seed(self):
        mix = uncorrelated_tap(make_kerr_entangled(0.6, 10.0))
        conf = McConfig(n_shots=16, seed=3)
        a = sweep_at(mix, conf, NO_SELECTION)
        b = sweep_at(mix, conf, NO_SELECTION)
        assert np.array_equal(a.pooled_mean[0], b.pooled_mean[0])
        assert np.array_equal(a.pooled_cov[0], b.pooled_cov[0])

    def test_joint_quadrature_variance(self):
        vs = 0.61
        n = 1_000_000
        mix = uncorrelated_tap(make_kerr_entangled(vs, 40.0))
        res = sweep_at(mix, McConfig(n_shots=n, seed=43), NO_SELECTION)
        var_sum, _ = joint_quadrature_variances(res.pooled_cov[0])
        se = 2 * vs * np.sqrt(2.0 / n)
        assert abs(var_sum - 2 * vs) < 3 * se

    def test_covariance_reproduced(self):
        mix = propagate(make_kerr_entangled(0.7, 5.0), discrete_channel())
        tapped = attach_tap(mix, TapConfig())
        res = sweep_at(tapped, McConfig(n_shots=200_000, seed=44), NO_SELECTION)
        _, cov = pooled_cm(tapped)
        assert_allclose(res.pooled_cov[0], cov[:4, :4], atol=0.05)

    def test_cross_quadrature_covariance_reproduced(self):
        # Rotating beam B correlates X and P quadratures, so the per-level
        # transform must apply its X-P coefficients as well.
        mix = propagate(make_kerr_entangled(0.7, 5.0), discrete_channel())
        rotated = MixtureState([(w, apply_phase_rotation(s, 1, 0.6)) for w, s in mix.components])
        tapped = attach_tap(rotated, TapConfig())
        _, cov = pooled_cm(tapped)
        assert np.abs(cov[0:4:2, 1:4:2]).max() > 0.5
        res = sweep_at(tapped, McConfig(n_shots=200_000, seed=49), NO_SELECTION)
        assert np.all(np.abs(res.pooled_cov[0] - cov[:4, :4]) < 4 * res.pooled_cov_se[0])

    def test_transform_matches_factor_product(self):
        # Displaced, phase-rotated fading mixture: nonzero means and X-P terms.
        mix = propagate(make_kerr_entangled(0.7, 5.0), envelope_fading(0.2))
        shifted = MixtureState([
            (w, GaussianState(np.array([0.3, -0.2, 0.5, 0.1]), apply_phase_rotation(s, 1, 0.6).cov))
            for w, s in mix.components
        ])
        tapped = attach_tap(shifted, TapConfig())
        weights, components = engine._prepare_components(tapped)
        rng = np.random.default_rng(50)
        counts = rng.multinomial(5000, weights)
        z = rng.standard_normal((5, 5000))
        x = z.copy()
        engine._transform(x, counts, components, np.empty(5000))
        start = 0
        for count, state in zip(counts, tapped.states):
            seg = slice(start, start + count)
            ref = state.cholesky_factor()[:5, :5] @ z[:, seg] + state.mean[:5, None]
            assert_allclose(x[:, seg], ref, rtol=1e-12, atol=1e-12)
            start += count


def bin_tap_values(values, bins, hist_range):
    """Pre-selection X_tap counts of ``values`` from the shot kernel."""
    values = np.asarray(values, dtype=float)
    x = np.zeros((5, values.size))
    x[4] = values
    pre = np.zeros((5, bins), dtype=np.int64)
    post = np.zeros((1, 5, bins), dtype=np.int64)
    per_level = np.zeros((1, 1), dtype=np.int64)
    _kernel_py.accumulate_chunk(
        x, np.array([values.size]), np.array([np.inf]), hist_range, bins, pre, post, per_level,
        np.empty(5 * values.size), np.empty(5 * values.size, dtype=np.int64),
    )
    return pre[0]


def test_kernel_routes_kept_shots_by_stratum_and_level():
    rng = np.random.default_rng(51)
    x = rng.standard_normal((5, 3000)) * 2.0
    x[4, [0, 999, 1000, 2999]] = [0.0, 1.0, 2.5, -0.2]  # kept shots at the level edges
    level = np.repeat([0, 1, 2], [1000, 0, 2000])  # level 1 draws no shot
    thresholds = np.array([-0.5, 0.7, 1.9])
    bins, hist_range = 41, 10.0
    pre = np.zeros((5, bins), dtype=np.int64)
    post = np.zeros((3, 5, bins), dtype=np.int64)
    per_level = np.zeros((3, 3), dtype=np.int64)
    count, mean, m2 = _kernel_py.accumulate_chunk(
        x, np.array([1000, 1000, 3000]), thresholds, hist_range, bins, pre, post, per_level,
        np.empty(5 * 3000), np.empty(5 * 3000, dtype=np.int64),
    )
    series = np.array([x[4], x[2], x[3], x[0] + x[2], x[1] - x[3]])
    idx = np.clip(((series + hist_range) * bins / (2 * hist_range)).astype(int), 0, bins - 1)
    stratum = np.searchsorted(thresholds, x[4], side="right") - 1
    assert np.array_equal(pre, [np.bincount(row, minlength=bins) for row in idx])
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

    def run(x, series, idx):
        out = [np.zeros((5, bins), np.int64), np.zeros((3, 5, bins), np.int64),
               np.zeros((3, 2), np.int64)]
        moments = _kernel_py.accumulate_chunk(
            x, np.array([700, x.shape[1]]), thresholds, hist_range, bins, *out, series, idx
        )
        return out + list(moments)

    scratch = np.empty(5 * 3000), np.empty(5 * 3000, dtype=np.int64)
    run(first, *scratch)
    reused = run(second, *scratch)
    fresh = run(second, np.full(5 * 1700, np.nan), np.full(5 * 1700, -1, dtype=np.int64))
    assert all(np.array_equal(a, b) for a, b in zip(reused, fresh))


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


class TestCovarianceAccumulator:
    def test_matches_numpy(self):
        rng = np.random.default_rng(46)
        x = rng.standard_normal((5000, 4)) * [1.0, 2.0, 0.5, 3.0]
        acc = CovarianceAccumulator(4)
        acc.merge_moments(*batch_moments(x))
        assert_allclose(acc.mean, x.mean(axis=0), atol=1e-12)
        assert_allclose(acc.covariance(ddof=1), np.cov(x.T, ddof=1), rtol=1e-10)

    def test_merge_associativity(self):
        rng = np.random.default_rng(47)
        x = rng.standard_normal((10_001, 3)) + 5.0
        full = CovarianceAccumulator(3)
        full.merge_moments(*batch_moments(x))
        split = CovarianceAccumulator(3)
        split.merge_moments(*batch_moments(x[:4000]))
        split.merge_moments(*batch_moments(x[4000:]))
        assert split.count == full.count
        assert_allclose(split.mean, full.mean, rtol=1e-12)
        assert_allclose(split.m2, full.m2, rtol=1e-10)

    def test_many_chunk_merge(self):
        rng = np.random.default_rng(48)
        x = rng.standard_normal((9000, 2))
        acc = CovarianceAccumulator(2)
        for chunk in np.array_split(x, 13):
            acc.merge_moments(*batch_moments(chunk))
        assert_allclose(acc.covariance(ddof=1), np.cov(x.T, ddof=1), rtol=1e-10)


@pytest.fixture(scope="module")
def tapped_discrete():
    from cvdistill import calibrate

    cal = calibrate()
    src = make_kerr_entangled(cal.v_squeezed, cal.v_antisqueezed)
    return attach_tap(propagate(src, discrete_channel()), TapConfig())


@pytest.fixture(scope="module")
def tapped_fading():
    from cvdistill import calibrate

    cal = calibrate()
    src = make_kerr_entangled(cal.v_squeezed, cal.v_antisqueezed)
    return attach_tap(propagate(src, envelope_fading(0.2)), TapConfig())


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
        assert str(error) == "only 0 of 5000 shots passed threshold 10000.0"
        assert res.total_count == 5_000
        assert res.kept_count[0] == 0
        assert res.hist_pre[SERIES.index("X_tap")].sum() == 5_000
        assert res.pooled_cov.shape == (0, 4, 4)

    def test_agreement_with_analytic_discrete(self, tapped_discrete):
        ens = herald(tapped_discrete, 4.0)
        res = sweep_at(tapped_discrete, McConfig(n_shots=1_000_000, seed=2026), 4.0)
        z_succ = abs(res.success_probability[0] - ens.success_probability) / res.success_se[0]
        assert z_succ < 4.0
        dev = np.abs(res.pooled_cov[0] - ens.pooled_cov) / res.pooled_cov_se[0]
        assert dev.max() < 4.0
        ln_mc, ln_se = ln_with_se(res, 0)
        assert abs(ln_mc - distilled_gln(ens)) < 4.0 * ln_se

    def test_agreement_with_analytic_fading(self, tapped_fading):
        ens = herald(tapped_fading, 2.0)
        res = sweep_at(tapped_fading, McConfig(n_shots=1_000_000, seed=2027), 2.0)
        z_succ = abs(res.success_probability[0] - ens.success_probability) / res.success_se[0]
        assert z_succ < 4.0
        dev = np.abs(res.pooled_cov[0] - ens.pooled_cov) / res.pooled_cov_se[0]
        assert dev.max() < 4.0

    def test_posterior_weights_match_analytic(self, tapped_discrete):
        ens = herald(tapped_discrete, 4.0)
        res = sweep_at(tapped_discrete, McConfig(n_shots=1_000_000, seed=11), 4.0)
        mc_post = res.per_level_kept[0] / res.kept_count[0]
        se = np.sqrt(ens.posterior_weights * (1 - ens.posterior_weights) / res.kept_count[0])
        assert np.all(np.abs(mc_post - ens.posterior_weights) < 4 * se + 1e-12)

    def test_ln_converges_with_shots(self, tapped_discrete):
        ens = herald(tapped_discrete, 4.0)
        target = distilled_gln(ens)
        errs, ses = [], []
        for n in (100_000, 1_000_000, 10_000_000):
            res = sweep_at(tapped_discrete, McConfig(n_shots=n, seed=314), 4.0)
            ln, se = ln_with_se(res, 0)
            errs.append(abs(ln - target))
            ses.append(se)
        # The standard error falls as 1/sqrt(n), about 3.2x per 10x shots,
        # and at 1e7 shots the error is within 4 of it.
        assert ses[1] < ses[0] / 2.5 and ses[2] < ses[1] / 2.5
        assert errs[2] < 4 * ses[2]
        assert errs[2] < 0.02

    def test_rejects_wrong_mode_count(self, tapped_discrete):
        two_mode = MixtureState(
            [(w, GaussianState(s.mean[:4], s.cov[:4, :4])) for w, s in tapped_discrete.components]
        )
        with pytest.raises(ValueError):
            sweep_at(two_mode, McConfig(n_shots=10, seed=1), 0.0)


def sweep_outputs(sweep):
    """Every count, histogram, moment and error message of one run_mc_sweep."""
    arrays = [sweep.thresholds, sweep.kept_count, sweep.per_level_kept, sweep.edges,
              sweep.hist_pre, sweep.hist_post, sweep.pooled_mean, sweep.pooled_cov,
              sweep.pooled_cov_se, sweep.cov_sampling]
    return arrays + [[sweep.total_count], [str(exc) for exc in sweep.errors]]


class TestRunMcSweep:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_equals_per_threshold_runs(self, tapped_discrete, n_workers):
        grid = [4.0, 0.0, 2.0, 2.0, 1e4]
        conf = McConfig(n_shots=150_000, seed=21, n_workers=n_workers)
        sweep = run_mc_sweep(tapped_discrete, conf, grid)
        assert np.array_equal(sweep.thresholds, grid)
        assert len(sweep.errors) == len(sweep.kept_count) == len(grid)
        row = 0
        for j, th in enumerate(grid):
            ref = sweep_at(tapped_discrete, conf, th)
            assert sweep.total_count == ref.total_count == 150_000
            assert sweep.kept_count[j] == ref.kept_count[0]
            assert np.array_equal(sweep.per_level_kept[j], ref.per_level_kept[0])
            assert np.array_equal(sweep.edges, ref.edges)
            assert np.array_equal(sweep.hist_pre, ref.hist_pre)
            assert np.array_equal(sweep.hist_post[j], ref.hist_post[0])
            assert sweep.success_probability[j] == ref.success_probability[0]
            if th == 1e4:
                assert isinstance(sweep.errors[j], DegenerateSelectionError)
                assert str(sweep.errors[j]) == str(ref.errors[0])
                assert ref.pooled_cov.shape == (0, 4, 4)
                continue
            assert sweep.errors[j] is None and ref.errors == (None,)
            # Moments differ only by merge order: relative to each array's largest entry.
            for field in ("pooled_mean", "pooled_cov", "pooled_cov_se", "cov_sampling"):
                a, b = getattr(sweep, field)[row], getattr(ref, field)[0]
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
            assert ln_with_se(sweep, j) == pytest.approx(ln_with_se(ref, 0), rel=1e-9)
            row += 1
        assert row == len(sweep.pooled_cov)

    @pytest.mark.parametrize("n_shots", [400_000, 2 * 65_536, 65_536 + 1_000, 2])
    def test_independent_of_worker_count(self, tapped_discrete, n_shots):
        grid = [4.0, 0.0, 2.0, 2.0, 1e4]
        ref, *others = [
            sweep_outputs(run_mc_sweep(
                tapped_discrete, McConfig(n_shots=n_shots, seed=23, n_workers=w), grid))
            for w in (1, 2, 3)
        ]
        for out in others:
            assert len(out) == len(ref)
            assert all(np.array_equal(u, v) for u, v in zip(out, ref))

    def test_counts_sum_to_their_totals(self, tapped_discrete):
        # Thresholds 9 and 1e4 keep fewer than two of 20,000 shots: counted, not stacked.
        grid = [3.0, 1e4, 0.0, 9.0, 3.0]
        sweep = run_mc_sweep(tapped_discrete, McConfig(n_shots=20_000, seed=24), grid)
        degenerate = [exc is not None for exc in sweep.errors]
        assert degenerate == [False, True, False, True, False]
        assert np.array_equal(sweep.hist_pre.sum(axis=1), [20_000] * len(SERIES))
        assert np.array_equal(sweep.hist_post.sum(axis=2),
                              np.repeat(sweep.kept_count[:, None], len(SERIES), axis=1))
        assert np.array_equal(sweep.per_level_kept.sum(axis=1), sweep.kept_count)
        assert np.all((sweep.kept_count < 2) == degenerate)
        assert len(sweep.pooled_mean) == len(sweep.pooled_cov) == degenerate.count(False)
        # ln_with_se reads grid threshold j's stack row: rows 0 and 2 of the stacks.
        assert ln_with_se(sweep, 4) == ln_with_se(sweep, 0) != ln_with_se(sweep, 2)
        with pytest.raises(InvalidCovarianceError):
            ln_with_se(sweep, 3)

    @pytest.mark.parametrize("grid", [[], [1.0, np.nan], [-np.inf, 2.0], [[1.0, 2.0]]])
    def test_rejects_bad_grids(self, tapped_discrete, grid):
        with pytest.raises(ValueError):
            run_mc_sweep(tapped_discrete, McConfig(n_shots=10, seed=1), grid)
