import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvdistill import (
    ChannelLevel,
    DegenerateSelectionError,
    FluctuatingChannel,
    McConfig,
    MixtureState,
    TapConfig,
    attach_tap,
    discrete_channel,
    distilled_gln,
    envelope_fading,
    gaussian_log_negativity,
    herald,
    joint_quadrature_variances,
    kernel_backend,
    make_kerr_entangled,
    pooled_cm,
    propagate,
    run_mc,
    run_mc_sweep,
    tensor,
    vacuum_state,
)
from cvdistill.mc import SERIES, CovarianceAccumulator, ln_with_se
from cvdistill.mc import _kernel_py, engine
from conftest import batch_moments

try:
    from cvdistill.mc import _shotkernel
    HAVE_COMPILED = True
except ImportError:
    HAVE_COMPILED = False

# A threshold below every shot: run_mc then keeps all of them, so its kept
# statistics are those of the sampled levels and phase-space points.
NO_SELECTION = -1e9


def uncorrelated_tap(state):
    """Single-component (A, B, Tap) mixture whose tap is a vacuum mode."""
    return MixtureState([(1.0, tensor(state, vacuum_state(1)))])


class TestSampleLevel:
    def test_single_level_always_zero(self):
        chan = FluctuatingChannel([ChannelLevel(1.0, 1.0)])
        tapped = attach_tap(propagate(make_kerr_entangled(0.6, 10.0), chan), TapConfig())
        res = run_mc(tapped, McConfig(n_shots=1000, seed=0), NO_SELECTION)
        assert np.array_equal(res.per_level_kept, [1000])

    def test_discrete_frequencies(self, tapped_discrete):
        n = 1_000_000
        res = run_mc(tapped_discrete, McConfig(n_shots=n, seed=41), NO_SELECTION)
        # 0.002 is four binomial standard errors of a weight of 0.5 at 1e6 shots.
        assert_allclose(res.per_level_kept / n, tapped_discrete.weights, atol=0.002)

    def test_deterministic_under_fixed_seed(self, tapped_discrete):
        conf = McConfig(n_shots=1000, seed=7)
        a = run_mc(tapped_discrete, conf, NO_SELECTION)
        b = run_mc(tapped_discrete, conf, NO_SELECTION)
        assert np.array_equal(a.per_level_kept, b.per_level_kept)


class TestSamplePhasePoint:
    def test_vacuum_variances(self):
        vacuum = MixtureState([(1.0, vacuum_state(3))])
        res = run_mc(vacuum, McConfig(n_shots=1_000_000, seed=42), NO_SELECTION)
        assert_allclose(np.diag(res.pooled_cov_hat), np.ones(4), atol=0.005)

    def test_deterministic_under_fixed_seed(self):
        mix = uncorrelated_tap(make_kerr_entangled(0.6, 10.0))
        conf = McConfig(n_shots=16, seed=3)
        a = run_mc(mix, conf, NO_SELECTION)
        b = run_mc(mix, conf, NO_SELECTION)
        assert np.array_equal(a.pooled_mean_hat, b.pooled_mean_hat)
        assert np.array_equal(a.pooled_cov_hat, b.pooled_cov_hat)

    def test_joint_quadrature_variance(self):
        vs = 0.61
        n = 1_000_000
        mix = uncorrelated_tap(make_kerr_entangled(vs, 40.0))
        res = run_mc(mix, McConfig(n_shots=n, seed=43), NO_SELECTION)
        var_sum, _ = joint_quadrature_variances(res.pooled_cov_hat)
        se = 2 * vs * np.sqrt(2.0 / n)
        assert abs(var_sum - 2 * vs) < 3 * se

    def test_covariance_reproduced(self):
        mix = propagate(make_kerr_entangled(0.7, 5.0), discrete_channel())
        tapped = attach_tap(mix, TapConfig())
        res = run_mc(tapped, McConfig(n_shots=200_000, seed=44), NO_SELECTION)
        _, cov = pooled_cm(tapped)
        assert_allclose(res.pooled_cov_hat, cov[:4, :4], atol=0.05)


def bin_tap_values(values, bins, hist_range):
    """Pre-selection X_tap counts of ``values`` from the numpy shot kernel."""
    values = np.asarray(values, dtype=float)
    x = np.zeros((values.size, 6))
    x[:, 4] = values
    pre = np.zeros((5, bins), dtype=np.int64)
    post = np.zeros((5, bins), dtype=np.int64)
    per_level = np.zeros(1, dtype=np.int64)
    levels = np.zeros(values.size, dtype=np.int64)
    _kernel_py.accumulate_chunk(x, levels, np.inf, hist_range, bins, pre, post, per_level)
    return pre[0]


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
        res = run_mc(tapped_discrete, McConfig(n_shots=10_000, seed=1), -1e9)
        assert res.success_probability_hat == 1.0
        assert res.kept_count == res.total_count == 10_000

    def test_histogram_count_invariants(self, tapped_discrete):
        conf = McConfig(n_shots=50_000, seed=2)
        res = run_mc(tapped_discrete, conf, 2.0)
        for name in SERIES:
            edges, pre = res.histograms[name]["pre"]
            _, post = res.histograms[name]["post"]
            assert len(edges) == conf.histogram_bins + 1
            assert pre.sum() == res.total_count
            assert post.sum() == res.kept_count
        assert res.per_level_kept.sum() == res.kept_count

    def test_bit_identical_reruns(self, tapped_discrete):
        conf = McConfig(n_shots=200_000, seed=99)
        a = run_mc(tapped_discrete, conf, 4.0)
        b = run_mc(tapped_discrete, conf, 4.0)
        assert a.kept_count == b.kept_count
        assert np.array_equal(a.pooled_mean_hat, b.pooled_mean_hat)
        assert np.array_equal(a.pooled_cov_hat, b.pooled_cov_hat)
        for name in SERIES:
            for sel in ("pre", "post"):
                assert np.array_equal(a.histograms[name][sel][1], b.histograms[name][sel][1])

    def test_workers_reproducible_and_recorded(self, tapped_discrete):
        conf = McConfig(n_shots=100_000, seed=5, n_workers=2)
        a = run_mc(tapped_discrete, conf, 2.0)
        b = run_mc(tapped_discrete, conf, 2.0)
        assert a.n_workers == 2
        assert a.kept_count == b.kept_count
        assert np.array_equal(a.pooled_cov_hat, b.pooled_cov_hat)

    def test_degenerate_selection_carries_pre_stats(self, tapped_discrete):
        with pytest.raises(DegenerateSelectionError) as info:
            run_mc(tapped_discrete, McConfig(n_shots=5_000, seed=3), 1e4)
        pre = info.value.pre_stats
        assert pre["total_count"] == 5_000
        assert pre["kept_count"] == 0
        _, counts = pre["histograms"]["X_tap"]
        assert counts.sum() == 5_000

    def test_agreement_with_analytic_discrete(self, tapped_discrete):
        ens = herald(tapped_discrete, 4.0)
        res = run_mc(tapped_discrete, McConfig(n_shots=1_000_000, seed=2026), 4.0)
        z_succ = abs(res.success_probability_hat - ens.success_probability) / res.success_probability_se
        assert z_succ < 4.0
        dev = np.abs(res.pooled_cov_hat - ens.pooled_cov) / res.pooled_cov_se
        assert dev.max() < 4.0
        ln_mc, ln_se = ln_with_se(res)
        assert abs(ln_mc - distilled_gln(ens)) < 4.0 * ln_se

    def test_agreement_with_analytic_fading(self, tapped_fading):
        ens = herald(tapped_fading, 2.0)
        res = run_mc(tapped_fading, McConfig(n_shots=1_000_000, seed=2027), 2.0)
        z_succ = abs(res.success_probability_hat - ens.success_probability) / res.success_probability_se
        assert z_succ < 4.0
        dev = np.abs(res.pooled_cov_hat - ens.pooled_cov) / res.pooled_cov_se
        assert dev.max() < 4.0

    def test_posterior_weights_match_analytic(self, tapped_discrete):
        ens = herald(tapped_discrete, 4.0)
        res = run_mc(tapped_discrete, McConfig(n_shots=1_000_000, seed=11), 4.0)
        mc_post = res.per_level_kept / res.kept_count
        se = np.sqrt(ens.posterior_weights * (1 - ens.posterior_weights) / res.kept_count)
        assert np.all(np.abs(mc_post - ens.posterior_weights) < 4 * se + 1e-12)

    def test_ln_converges_with_shots(self, tapped_discrete):
        ens = herald(tapped_discrete, 4.0)
        target = distilled_gln(ens)
        errs = []
        for n in (100_000, 1_000_000, 10_000_000):
            res = run_mc(tapped_discrete, McConfig(n_shots=n, seed=314), 4.0)
            errs.append(abs(gaussian_log_negativity(res.pooled_cov_hat) - target))
        assert errs[2] < errs[0]
        assert errs[2] < 0.02

    def test_rejects_wrong_mode_count(self, tapped_discrete):
        from cvdistill import partial_trace

        two_mode = MixtureState(
            [(w, partial_trace(s, [0, 1])) for w, s in tapped_discrete.components]
        )
        with pytest.raises(ValueError):
            run_mc(two_mode, McConfig(n_shots=10, seed=1), 0.0)


class TestRunMcSweep:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_equals_per_threshold_runs(self, tapped_discrete, n_workers):
        grid = [4.0, 0.0, 2.0, 2.0, 1e4]
        conf = McConfig(n_shots=150_000, seed=21, n_workers=n_workers)
        sweep = run_mc_sweep(tapped_discrete, conf, grid)
        assert len(sweep) == len(grid)
        for th, res in zip(grid, sweep):
            if th == 1e4:
                assert isinstance(res, DegenerateSelectionError)
                with pytest.raises(DegenerateSelectionError) as info:
                    run_mc(tapped_discrete, conf, th)
                ref = info.value.pre_stats
                assert res.pre_stats["kept_count"] == ref["kept_count"]
                assert res.pre_stats["total_count"] == ref["total_count"] == 150_000
                assert np.array_equal(res.pre_stats["per_level_kept"], ref["per_level_kept"])
                for name in SERIES:
                    assert np.array_equal(res.pre_stats["histograms"][name][1],
                                          ref["histograms"][name][1])
                continue
            ref = run_mc(tapped_discrete, conf, th)
            assert res.kept_count == ref.kept_count
            assert res.total_count == ref.total_count
            assert res.n_workers == ref.n_workers == n_workers
            assert np.array_equal(res.per_level_kept, ref.per_level_kept)
            for name in SERIES:
                for sel in ("pre", "post"):
                    assert np.array_equal(res.histograms[name][sel][0], ref.histograms[name][sel][0])
                    assert np.array_equal(res.histograms[name][sel][1], ref.histograms[name][sel][1])
            # Moments differ only by merge order: relative to each array's largest entry.
            for field in ("pooled_mean_hat", "pooled_cov_hat", "pooled_cov_se", "cov_sampling"):
                a, b = getattr(res, field), getattr(ref, field)
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
            assert res.success_probability_hat == ref.success_probability_hat

    @pytest.mark.parametrize("grid", [[], [1.0, np.nan], [-np.inf, 2.0], [[1.0, 2.0]]])
    def test_rejects_bad_grids(self, tapped_discrete, grid):
        with pytest.raises(ValueError):
            run_mc_sweep(tapped_discrete, McConfig(n_shots=10, seed=1), grid)


class TestKernelParity:
    @pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
    def test_backends_agree(self, tapped_discrete, monkeypatch):
        # One worker: the shard runs in this process, where the patch holds.
        conf = McConfig(n_shots=300_000, seed=77, n_workers=1)
        results = []
        for mod in (_shotkernel, _kernel_py):
            monkeypatch.setattr(engine, "_kernel", mod)
            assert kernel_backend() == mod.BACKEND
            results.append(run_mc(tapped_discrete, conf, 3.0))
        a, b = results
        assert a.kept_count == b.kept_count
        assert np.array_equal(a.per_level_kept, b.per_level_kept)
        for name in SERIES:
            for sel in ("pre", "post"):
                assert np.array_equal(a.histograms[name][sel][1], b.histograms[name][sel][1])
        assert_allclose(a.pooled_mean_hat, b.pooled_mean_hat, rtol=1e-10, atol=1e-12)
        assert_allclose(a.pooled_cov_hat, b.pooled_cov_hat, rtol=1e-9, atol=1e-11)

    @pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
    def test_chunk_level_parity(self):
        rng = np.random.default_rng(55)
        m = 4096
        x = np.ascontiguousarray(rng.standard_normal((m, 6)) * 3.0)
        levels = np.sort(rng.integers(0, 3, size=m)).astype(np.int64)
        args = (x, levels, 0.5, 10.0, 41)
        out = []
        for mod in (_shotkernel, _kernel_py):
            pre = np.zeros((5, 41), dtype=np.int64)
            post = np.zeros((5, 41), dtype=np.int64)
            per_level = np.zeros(3, dtype=np.int64)
            n, mean, m2 = mod.accumulate_chunk(*args, pre, post, per_level)
            out.append((n, mean, m2, pre, post, per_level))
        (n1, mean1, m21, pre1, post1, lvl1), (n2, mean2, m22, pre2, post2, lvl2) = out
        assert n1 == n2
        assert np.array_equal(pre1, pre2)
        assert np.array_equal(post1, post2)
        assert np.array_equal(lvl1, lvl2)
        assert_allclose(mean1, mean2, rtol=1e-12, atol=1e-14)
        assert_allclose(m21, m22, rtol=1e-9, atol=1e-9)

    def test_backend_reported(self):
        assert kernel_backend() in ("compiled", "python")
