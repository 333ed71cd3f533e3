import math
import warnings
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvdistill import (
    DegenerateSelectionError,
    DistilledEnsemble,
    GaussianState,
    TapConfig,
    attach_tap,
    calibrate_envelope,
    distilled_gln,
    envelope_fading,
    gaussian_log_negativity,
    gaussian_tail,
    gaussification_metrics,
    herald,
    joint_quadrature_variances,
    make_kerr_entangled,
    pooled_cm,
    propagate,
    tail_hazard,
    tensor,
    vacuum_state,
)
from cvdistill.config import DEFAULT_THRESHOLDS
from cvdistill.distill import (_CF_CUT, HERALD_BLOCK, SUCCESS_FLOOR, bivariate_normal_cdf,
                               series_bin_probabilities)
from conftest import mixture, random_physical_state


def mp_tail(alpha, dps=50):
    """High-precision upper-tail probability Q(alpha)."""
    with mpmath.workdps(dps):
        return float(mpmath.erfc(alpha / mpmath.sqrt(2)) / 2)


def mp_hazard(alpha):
    """High-precision phi(alpha)/Q(alpha).

    The working precision grows with log10|alpha|: phi and Q are each
    exp(-alpha^2/2) times a slowly varying factor, and the ratio keeps only
    the digits that outlast alpha^2.
    """
    with mpmath.workdps(40 + 2 * int(math.log10(abs(alpha) + 1.0))):
        a = mpmath.mpf(float(alpha))
        phi = mpmath.exp(-a * a / 2) / mpmath.sqrt(2 * mpmath.pi)
        return float(phi / (mpmath.erfc(a / mpmath.sqrt(2)) / 2))


def _assert_rel(values, reference, rel, what):
    """Relative error at most ``rel`` wherever ``reference`` is a normal float."""
    values, reference = np.asarray(values), np.asarray(reference)
    normal = np.abs(reference) >= np.finfo(float).tiny
    err = np.abs(values[normal] - reference[normal]) / np.abs(reference[normal])
    assert err.max() <= rel, f"{what}: {err.max():.3g} at {np.flatnonzero(normal)[err.argmax()]}"


class TestTapConfig:
    def test_default_reflectivity(self):
        assert TapConfig().reflectivity == 0.07

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TapConfig(reflectivity=0.0)
        with pytest.raises(ValueError):
            TapConfig(reflectivity=1.0)


class TestAttachTap:
    def test_vanishing_reflectivity_limit(self, discrete_mixture):
        tapped = attach_tap(discrete_mixture, TapConfig(reflectivity=1e-12))
        for before, after in zip(discrete_mixture.states.cov, tapped.states.cov):
            assert_allclose(after[:4, :4], before, atol=1e-10)
            assert_allclose(after[4:, 4:], np.eye(2), atol=1e-10)

    def test_tap_variance_closed_form(self, discrete_tapped, discrete_mixture):
        for tapped, plain in zip(discrete_tapped.states.cov, discrete_mixture.states.cov):
            v = plain[2, 2]
            assert tapped[4, 4] == pytest.approx(0.93 + 0.07 * v, rel=1e-12)

    def test_matches_explicit_symplectic(self):
        rng = np.random.default_rng(31)
        state = random_physical_state(rng, 2)
        tapped = attach_tap(mixture([(1.0, state)]), TapConfig(reflectivity=0.07))
        ext = np.eye(6)
        ext[:4, :4] = state.cov
        s = np.eye(6)
        st, sr = np.sqrt(0.93), np.sqrt(0.07)
        for off in (0, 1):
            s[2 + off, 2 + off] = st
            s[2 + off, 4 + off] = -sr
            s[4 + off, 4 + off] = st
            s[4 + off, 2 + off] = sr
        assert_allclose(tapped.states.cov[0], s @ ext @ s.T, atol=1e-12)

    def test_rejects_wrong_mode_count(self, discrete_tapped):
        with pytest.raises(ValueError):
            attach_tap(discrete_tapped, TapConfig())


class TestGaussianTail:
    def test_at_zero(self):
        assert gaussian_tail(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_far_tail_no_nan(self):
        q = gaussian_tail(40.0)
        assert q < 1e-300
        assert not np.isnan(q)

    def test_spec_point(self):
        assert gaussian_tail(3.90) == pytest.approx(4.81e-5, rel=2e-3)
        assert gaussian_tail(3.90) == pytest.approx(mp_tail(3.90), rel=1e-14)

    def test_accuracy_against_mpmath(self):
        for alpha in np.linspace(-8.0, 8.0, 33):
            assert gaussian_tail(alpha) == pytest.approx(mp_tail(alpha), rel=1e-14)
        for alpha in (9.0, 10.5, 12.0):
            assert gaussian_tail(alpha) == pytest.approx(mp_tail(alpha), rel=1e-13)

    def test_symmetry(self):
        for alpha in np.linspace(-8.0, 8.0, 65):
            assert gaussian_tail(alpha) + gaussian_tail(-alpha) == pytest.approx(1.0, abs=1e-13)

    def test_hazard_matches_phi_over_q(self):
        for alpha in np.linspace(-6.0, 6.0, 25):
            phi = np.exp(-0.5 * alpha**2) / np.sqrt(2 * np.pi)
            assert tail_hazard(alpha) == pytest.approx(phi / mp_tail(alpha), rel=1e-12)

    def test_hazard_far_tail_finite(self):
        lam = tail_hazard(300.0)
        assert np.isfinite(lam)
        assert lam == pytest.approx(300.0, rel=0.01)  # asymptotically alpha + 1/alpha


class TestTailAccuracy:
    """Q and the hazard against mpmath: relative error <= 1e-13 wherever the value is a normal float."""

    GRID = np.concatenate([
        np.linspace(-40.0, 40.0, 1601),
        np.random.default_rng(11).uniform(-40.0, 40.0, 400),
        # Both sides of the continued-fraction cut, down to one ulp.
        [np.nextafter(_CF_CUT, -np.inf), _CF_CUT, np.nextafter(_CF_CUT, np.inf)],
        _CF_CUT + np.array([-1e-9, -1e-3, 1e-3, 1e-9]),
    ])
    FAR = np.geomspace(40.0, 1e150, 150)

    def test_tail_against_mpmath(self):
        _assert_rel(gaussian_tail(self.GRID), [mp_tail(a) for a in self.GRID], 1e-13, "Q")

    def test_hazard_against_mpmath(self):
        _assert_rel(tail_hazard(self.GRID), [mp_hazard(a) for a in self.GRID], 1e-13, "hazard")

    def test_hazard_far_upper_tail(self):
        _assert_rel(tail_hazard(self.FAR), [mp_hazard(a) for a in self.FAR], 1e-13, "hazard")
        assert np.all(gaussian_tail(self.FAR) == 0.0)  # Q underflows; never NaN

    def test_cut_is_continuous(self):
        below, at = np.nextafter(_CF_CUT, -np.inf), _CF_CUT
        assert tail_hazard(below) == pytest.approx(tail_hazard(at), rel=1e-14)
        assert gaussian_tail(below) == pytest.approx(gaussian_tail(at), rel=1e-14)

    def test_below_the_cut_is_math_erfc_entry_by_entry(self):
        below, above = np.nextafter(_CF_CUT, -np.inf), np.nextafter(_CF_CUT, np.inf)
        alpha = np.concatenate([[-np.inf], np.linspace(-8.0, 4.95, 260), [below, above, np.inf]])
        q = gaussian_tail(alpha)
        erfc = np.array([0.5 * math.erfc(a / math.sqrt(2.0)) for a in alpha.tolist()])
        low = alpha < _CF_CUT
        assert low.tolist() == [True] * 262 + [False] * 2
        assert q[low].tolist() == erfc[low].tolist()  # bit for bit
        assert q[-2] == pytest.approx(erfc[-2], rel=1e-14)  # the continued fraction
        assert q[-1] == erfc[-1] == 0.0
        empty = gaussian_tail(np.array([]))
        assert empty.shape == (0,) and empty.dtype == float

    @pytest.mark.parametrize("alpha", [40.0, -40.0, 1e5, -1e5, 1e300])
    def test_extremes_warn_nothing_and_keep_shape(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (gaussian_tail, tail_hazard):
                scalar = f(alpha)
                assert type(scalar) is float and not math.isnan(scalar)
                assert type(f(np.float64(alpha))) is float
                assert type(f(np.array(alpha))) is float
                arr = f(np.full((2, 3), alpha))
                assert arr.shape == (2, 3) and arr.dtype == float
                assert np.all(arr == scalar)

    def test_extreme_values(self):
        assert gaussian_tail(-1e5) == 1.0 and gaussian_tail(1e300) == 0.0
        assert tail_hazard(-1e5) == 0.0 and tail_hazard(1e300) == 1e300
        assert tail_hazard(1e5) == pytest.approx(1e5 + 1e-5, rel=1e-15)


def mp_bivariate_cdf(h, k, rho):
    """P(X < h, Y < k) by Sheppard's formula, Phi(h) Phi(k) plus an mpmath quadrature over rho."""
    if -math.inf in (h, k):
        return 0.0
    if math.inf in (h, k):
        return float(mpmath.ncdf(min(h, k)))
    with mpmath.workdps(20):
        h, k = mpmath.mpf(h), mpmath.mpf(k)
        density = lambda r: (mpmath.exp(-(h * h - 2 * r * h * k + k * k) / (2 * (1 - r * r)))
                             / mpmath.sqrt(1 - r * r))
        return float(mpmath.ncdf(h) * mpmath.ncdf(k) + mpmath.quad(density, [0, rho]) / (2 * mpmath.pi))


class TestBivariateNormalCdf:
    # Genz's second branch (|rho| >= 0.925) at both signs, and every band of his first.
    RHOS = [-0.999, -0.95, -0.9, -0.5, 0.0, 0.2, 0.5, 0.8, 0.93, 0.999]
    POINTS = [-math.inf, -40.0, -6.0, -1.3, 0.0, 0.8, 2.5, 40.0, math.inf]

    @pytest.mark.parametrize("rho", RHOS)
    def test_against_mpmath(self, rho):
        h, k = np.meshgrid(self.POINTS, self.POINTS, indexing="ij")
        got = bivariate_normal_cdf(h, k, rho)
        ref = {}
        for a, b in zip(h.ravel().tolist(), k.ravel().tolist()):
            ref[a, b] = ref.get((b, a)) or mp_bivariate_cdf(a, b, rho)  # symmetric in (h, k)
        assert np.max(np.abs(got - np.reshape(list(ref.values()), got.shape))) <= 1e-14

    def test_perfect_correlation_limits(self):
        h, k = np.array([-1.0, 0.5, 2.0]), np.array([0.3, 0.5, -0.7])
        assert_allclose(bivariate_normal_cdf(h, k, 1.0), gaussian_tail(-np.minimum(h, k)), atol=1e-16)
        assert_allclose(bivariate_normal_cdf(h, k, -1.0),
                        np.maximum(0.0, gaussian_tail(-h) - gaussian_tail(k)), atol=1e-16)

    def test_broadcasts_and_keeps_shape(self):
        rng = np.random.default_rng(12)
        h = rng.normal(size=(3, 7)) * 3.0
        k = rng.normal(size=(3, 1))
        rho = np.array([[-0.96], [0.1], [0.8]])
        got = bivariate_normal_cdf(h, k, rho)
        assert got.shape == (3, 7)
        for i in range(3):
            assert_allclose(got[i], bivariate_normal_cdf(h[i], k[i, 0], rho[i, 0]), rtol=0, atol=0)
        assert type(bivariate_normal_cdf(0.0, 0.0, 0.5)) is float
        assert bivariate_normal_cdf(0.0, 0.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-16)


def mp_conditional_bin(mean, cov, coef, lo, hi, below):
    """P(coef . x in [lo, hi) | X_tap < below) for x ~ N(mean, cov), by mpmath quadrature over X_tap."""
    mu_y, mu_t = coef @ mean[:5], mean[4]
    var_y, sd_t, c = coef @ cov[:5, :5] @ coef, np.sqrt(cov[4, 4]), coef @ cov[:5, 4]
    # Given the standardised tap outcome u, the series is normal with mean
    # mu_y + slope u and standard deviation sd_c.
    slope, sd_c = c / sd_t, np.sqrt(var_y - (c / sd_t) ** 2)
    k = (below - mu_t) / sd_t
    with mpmath.workdps(16):
        def joint(u):
            m = mu_y + slope * u
            return mpmath.npdf(u) * (mpmath.ncdf((hi - m) / sd_c) - mpmath.ncdf((lo - m) / sd_c))

        return float(mpmath.quad(joint, [-mpmath.inf, min(0.0, k), k]) / mpmath.ncdf(k))


class TestSeriesBinProbabilities:
    COEFFS = np.array([[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [1, 0, 1, 0, 0], [0, 1, 0, -1, 0]], float)
    EDGES = np.linspace(-25.0, 25.0, 202)

    @pytest.mark.parametrize("below", [9.0, -2.0])
    def test_conditional_against_mpmath(self, discrete_tapped, below):
        probs = series_bin_probabilities(discrete_tapped.states, self.COEFFS, self.EDGES, below)
        assert probs.shape == (2, 4, 201)
        assert np.all(probs >= 0.0)
        assert_allclose(probs.sum(axis=-1), 1.0, rtol=0, atol=1e-14)
        edges = [-math.inf, *self.EDGES[1:-1], math.inf]  # the end bins are open
        states = discrete_tapped.states
        for i in range(2):
            for s, coef in enumerate(self.COEFFS):
                for j in (0, 100, 200):
                    ref = mp_conditional_bin(states.mean[i], states.cov[i], coef, edges[j], edges[j + 1],
                                             below)
                    assert probs[i, s, j] == pytest.approx(ref, abs=1e-13)

    def test_unconditional_is_univariate(self, discrete_tapped):
        # X_tap itself (correlation 1) included: item 10's closed form is the below = inf case.
        coeffs = np.vstack([[0, 0, 0, 0, 1], self.COEFFS])
        probs = series_bin_probabilities(discrete_tapped.states, coeffs, self.EDGES)
        mean, cov = discrete_tapped.states.mean[:, :5], discrete_tapped.states.cov[:, :5, :5]
        sd = np.sqrt(np.einsum("sj,ljk,sk->ls", coeffs, cov, coeffs))
        upper = gaussian_tail((self.EDGES[1:-1] - (mean @ coeffs.T)[..., None]) / sd[..., None])
        cdf = np.concatenate([np.zeros((2, 5, 1)), 1.0 - upper, np.ones((2, 5, 1))], axis=-1)
        assert_allclose(probs, np.diff(cdf, axis=-1), rtol=0, atol=1e-15)

    def test_underflowing_condition_raises(self, discrete_tapped):
        with pytest.raises(DegenerateSelectionError, match="underflows"):
            series_bin_probabilities(discrete_tapped.states, self.COEFFS, self.EDGES, -1e3)


def no_selection_threshold(mixture3):
    """Threshold at alpha <= -40 for every component: keeps everything."""
    sigma = np.sqrt(mixture3.states.cov[:, 4, 4]).max()
    return -40.0 * sigma


class TestHerald:
    def test_no_selection_limit_reproduces_pooled_cm(self, discrete_tapped):
        ens = herald(discrete_tapped, no_selection_threshold(discrete_tapped))
        mean, cov = pooled_cm(discrete_tapped)
        assert ens.success_probability == pytest.approx(1.0, abs=1e-14)
        assert_allclose(ens.posterior_weights, discrete_tapped.weights, atol=1e-14)
        assert_allclose(ens.pooled_mean, mean[:4], atol=1e-10)
        assert_allclose(ens.pooled_cov, cov[:4, :4], atol=1e-10)

    def test_uncorrelated_tap_leaves_covariance_alone(self):
        rng = np.random.default_rng(32)
        state = random_physical_state(rng, 2)
        mix = mixture([(1.0, tensor(state, vacuum_state(1)))])
        ens = herald(mix, 1.0)
        assert_allclose(ens.pooled_cov, state.cov, atol=1e-12)
        assert ens.success_probability == pytest.approx(gaussian_tail(1.0), rel=1e-12)

    def test_offset_means_shift_with_selection(self):
        # displaced two-mode vacuum with an uncorrelated tap: the kept
        # ensemble keeps the displacement, covariance untouched
        state = GaussianState([1.5, -0.5, 0.25, 0.0], np.eye(4))
        mix = mixture([(1.0, tensor(state, vacuum_state(1)))])
        ens = herald(mix, 0.5)
        assert_allclose(ens.pooled_mean, state.mean, atol=1e-12)
        assert_allclose(ens.pooled_cov, np.eye(4), atol=1e-12)

    def test_discrete_threshold_nine_gaussifies(self, discrete_tapped):
        ens = herald(discrete_tapped, 9.0)
        assert ens.posterior_weights[1] > 0.99

    def test_weight_bookkeeping_identities(self, discrete_tapped):
        for th in (0.0, 4.0, 9.0):
            ens = herald(discrete_tapped, th)
            assert ens.success_probability == pytest.approx(
                float(ens.prior_weights @ ens.per_component_pass), rel=1e-14
            )
            expected = ens.prior_weights * ens.per_component_pass / ens.success_probability
            assert_allclose(ens.posterior_weights, expected, rtol=1e-14)
            assert ens.posterior_weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_component_moment_matrices_well_formed(self, discrete_tapped):
        for th in (0.0, 3.0, 6.0, 9.0):
            ens = herald(discrete_tapped, th)
            for mu, second in zip(ens.component_means, ens.component_second_moments):
                central = second - np.outer(mu, mu)
                assert np.linalg.eigvalsh(central).min() > 0.0
            # conditional covariance (deep-selection limit) is PSD
            for cov in discrete_tapped.states.cov:
                sigma2 = cov[4, 4]
                cvec = cov[:4, 4]
                cond = cov[:4, :4] - np.outer(cvec, cvec) / sigma2
                assert np.linalg.eigvalsh(cond).min() > -1e-12

    def test_each_level_matches_its_own_herald(self):
        # Components differ in weight, tap variance and (A, B) mean, so a
        # wrong broadcast or transpose over the level axis shows up here.
        rng = np.random.default_rng(33)
        components = []
        for weight, reflectivity in ((0.2, 0.05), (0.3, 0.2), (0.5, 0.5)):
            plain = mixture([(1.0, random_physical_state(rng, 2))])
            tapped = attach_tap(plain, TapConfig(reflectivity=reflectivity)).states
            mean = np.concatenate([rng.normal(0.0, 2.0, size=4), [0.0, 0.0]])
            components.append((weight, GaussianState(mean, tapped.cov[0])))
        mix = mixture(components)
        assert len(set(mix.states.cov[:, 4, 4].tolist())) == 3
        for th in (-1.0, 0.5, 2.5):
            ens = herald(mix, th)
            for i, (_, state) in enumerate(components):
                alone = herald(mixture([(1.0, state)]), th)
                assert_allclose(ens.per_component_pass[i], alone.per_component_pass[0], rtol=1e-13)
                assert_allclose(ens.component_means[i], alone.component_means[0], rtol=1e-13)
                assert_allclose(
                    ens.component_second_moments[i], alone.component_second_moments[0], rtol=1e-13
                )

    def test_rejects_nonzero_tap_mean(self):
        state = GaussianState([0, 0, 0, 0, 0.5, 0], np.eye(6))
        with pytest.raises(ValueError):
            herald(mixture([(1.0, state)]), 1.0)

    def test_rejects_wrong_mode_count(self, discrete_mixture):
        with pytest.raises(ValueError):
            herald(discrete_mixture, 1.0)

    def test_degenerate_selection_raises(self, discrete_tapped):
        with pytest.raises(DegenerateSelectionError):
            herald(discrete_tapped, 1e4)

    @pytest.mark.parametrize("threshold", [-np.inf, np.inf, np.nan, [2.0, np.nan], [np.inf]])
    def test_rejects_non_finite_threshold(self, discrete_tapped, threshold):
        with pytest.raises(ValueError, match="finite"):
            herald(discrete_tapped, threshold)


def mp_success(tapped, threshold):
    """Success probability of ``herald`` at one threshold, each Q from mpmath."""
    alpha = threshold / np.sqrt(tapped.states.cov[:, 4, 4])
    with mpmath.workdps(50):
        return sum(w * mpmath.erfc(mpmath.mpf(a) / mpmath.sqrt(2)) / 2
                   for w, a in zip(tapped.weights.tolist(), alpha.tolist()))


@pytest.fixture(scope="module")
def preset_tapped(calibration, calibrated_source, discrete_tapped):
    """The tapped mixtures of the 'discrete' and 'semicontinuous' presets."""
    _, semi = calibrate_envelope(calibration.v_squeezed, calibration.v_antisqueezed)
    semi_tapped = attach_tap(propagate(calibrated_source, semi), TapConfig())
    return {"discrete": discrete_tapped, "semicontinuous": semi_tapped}


class TestDegenerateRows:
    @pytest.mark.parametrize("preset", ["discrete", "semicontinuous"])
    def test_degenerate_rows_where_mpmath_puts_them(self, preset_tapped, preset):
        """Rows fail exactly where the mpmath success is at or below SUCCESS_FLOOR.

        The grid is the presets' plus thresholds within 1e-2..1e-6 (relative)
        of the floor crossing: there the success moves by >= 1e-3 relative,
        far more than the tail functions' rounding, so the knife-edge itself
        is avoided.
        """
        tapped = preset_tapped[preset]
        lo, hi = 1.0, 1e3
        while hi - lo > 1e-9 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if mp_success(tapped, mid) > SUCCESS_FLOOR else (lo, mid)
        near = [lo * (1.0 + d) for d in (-1e-2, -1e-4, -1e-6, 1e-6, 1e-4, 1e-2)]
        grid = np.array(DEFAULT_THRESHOLDS + near + [1e4])
        expected = [mp_success(tapped, t) <= SUCCESS_FLOOR for t in grid]
        assert expected == [False] * (len(DEFAULT_THRESHOLDS) + 3) + [True] * 4
        ens = herald(tapped, grid)
        assert [isinstance(e, DegenerateSelectionError) for e in ens.errors] == expected
        for t, bad in zip(grid, expected):
            if bad:
                with pytest.raises(DegenerateSelectionError):
                    herald(tapped, t)
            else:
                assert herald(tapped, t).success_probability > SUCCESS_FLOOR


class TestDistilledGln:
    def test_tap_only_cost_small(self, calibrated_source):
        mix = mixture([(1.0, calibrated_source)])
        tapped = attach_tap(mix, TapConfig())
        ens = herald(tapped, no_selection_threshold(tapped))
        ln = distilled_gln(ens)
        assert 0.65 < ln < 0.76  # slightly below the lossless 0.76

    def test_discrete_threshold_nine_value(self, discrete_tapped):
        ens = herald(discrete_tapped, 9.0)
        assert 0.58 <= distilled_gln(ens) <= 0.76

    def test_never_exceeds_best_pretap_component(self, discrete_mixture, discrete_tapped):
        best = max(gaussian_log_negativity(cov) for cov in discrete_mixture.states.cov)
        for th in np.linspace(-2.0, 10.0, 25):
            assert distilled_gln(herald(discrete_tapped, th)) <= best + 1e-9


def _assert_rows_close(actual, expected, key):
    """|actual - expected| <= 1e-12 * max(1, |expected|), entry by entry."""
    expected = np.asarray(expected)
    assert np.shape(actual) == expected.shape, key
    assert np.all(np.abs(actual - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected))), key


def _grid_row_metrics(ens):
    """Per-row values of every field and metric of a stacked ensemble, by name."""
    entropy, max_dist = gaussification_metrics(ens)
    var_x, var_p = joint_quadrature_variances(ens.pooled_cov)
    out = {f.name: getattr(ens, f.name) for f in fields(ens) if f.name not in ("prior_weights", "errors")}
    out.update(ln=distilled_gln(ens), entropy=entropy, max_dist=max_dist, var_x=var_x, var_p=var_p)
    return out


@pytest.fixture(scope="module")
def fading_tapped(calibrated_source):
    """A 45-level semi-continuous mixture with its tap attached."""
    return attach_tap(propagate(calibrated_source, envelope_fading(0.3)), TapConfig())


class TestThresholdSweep:
    """``herald`` over threshold grids: one call, rows stacked in grid order."""

    @pytest.mark.parametrize("name", ["discrete_tapped", "fading_tapped"])
    def test_grid_rows_equal_scalar_calls(self, request, name):
        tapped = request.getfixturevalue(name)
        # Unsorted, with a duplicate, and longer than one block.
        grid = np.concatenate([np.linspace(12.0, -3.0, 2 * HERALD_BLOCK + 5), [4.0, -1.0, 4.0]])
        ens = herald(tapped, grid)
        assert ens.errors == (None,) * grid.size
        assert_allclose(ens.threshold_x, grid, rtol=0, atol=0)
        stacked = _grid_row_metrics(ens)
        for k, th in enumerate(grid):
            alone = herald(tapped, th)
            assert alone.errors == ()
            assert_allclose(alone.prior_weights, ens.prior_weights, rtol=0, atol=0)
            for key, value in _grid_row_metrics(alone).items():
                _assert_rows_close(stacked[key][k], value, key)

    def test_degenerate_grid_row_only(self, discrete_tapped):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ens = herald(discrete_tapped, [2.0, 1e4, 3.0])
            metrics = _grid_row_metrics(ens)
        assert ens.errors[0] is None and ens.errors[2] is None
        assert isinstance(ens.errors[1], DegenerateSelectionError)
        assert str(ens.errors[1]) == "success probability underflowed (0.0) at threshold 10000.0"
        assert_allclose(ens.threshold_x, [2.0, 3.0], rtol=0, atol=0)
        for k, th in enumerate((2.0, 3.0)):
            alone = _grid_row_metrics(herald(discrete_tapped, th))
            for key, value in alone.items():
                _assert_rows_close(metrics[key][k], value, key)
        with pytest.raises(DegenerateSelectionError, match="underflowed"):
            herald(discrete_tapped, 1e4)

    def test_all_degenerate_grid_has_empty_stacks(self, discrete_tapped):
        ens = herald(discrete_tapped, [1e4, 2e4])
        assert all(isinstance(e, DegenerateSelectionError) for e in ens.errors)
        for value in _grid_row_metrics(ens).values():
            assert np.shape(value)[:1] == (0,)

    def test_rejects_nested_or_empty_grid(self, discrete_tapped):
        for grid in ([], [[1.0, 2.0]]):
            with pytest.raises(ValueError, match="grid"):
                herald(discrete_tapped, grid)

    def test_single_deep_negative_threshold(self, discrete_tapped):
        ens = herald(discrete_tapped, no_selection_threshold(discrete_tapped))
        assert ens.success_probability == pytest.approx(1.0, abs=1e-14)

    def test_success_strictly_decreasing(self, discrete_tapped):
        succ = [herald(discrete_tapped, th).success_probability
                for th in np.linspace(-5.0, 10.0, 50)]
        assert all(b < a for a, b in zip(succ, succ[1:]))

    def test_high_transmission_weight_non_decreasing(self, discrete_tapped):
        w_top = [herald(discrete_tapped, th).posterior_weights[1]
                 for th in np.linspace(0.0, 10.0, 21)]
        assert all(b >= a - 1e-12 for a, b in zip(w_top, w_top[1:]))

    def test_degenerate_point_raises(self, discrete_tapped):
        assert np.isfinite(distilled_gln(herald(discrete_tapped, 0.0)))
        with pytest.raises(DegenerateSelectionError):
            herald(discrete_tapped, 1e4)


class TestGaussification:
    def test_single_component(self, calibrated_source):
        tapped = attach_tap(mixture([(1.0, calibrated_source)]), TapConfig())
        ens = herald(tapped, 2.0)
        entropy, dist = gaussification_metrics(ens)
        assert entropy == pytest.approx(0.0, abs=1e-12)
        assert dist == pytest.approx(0.0, abs=1e-9)

    def test_equal_identical_components(self, calibrated_source):
        mix = mixture([(0.5, calibrated_source), (0.5, calibrated_source)])
        ens = herald(attach_tap(mix, TapConfig()), 3.0)
        entropy, dist = gaussification_metrics(ens)
        assert entropy == pytest.approx(1.0, abs=1e-12)
        assert dist == pytest.approx(0.0, abs=1e-9)

    def test_unequal_covariances_distance(self):
        # Central covariances I and 3I, means (1.5, 0, 0, 0) and (-0.5, 0, 0, 0)
        # with weights 1/4 and 3/4: the pooled mean is 0 and the pooled
        # covariance diag(3.25, 2.5, 2.5, 2.5). About the pooled mean the
        # components are diag(3.25, 1, 1, 1) and diag(3.25, 3, 3, 3), at
        # Frobenius distances 1.5*sqrt(3) and 0.5*sqrt(3).
        means = np.array([[1.5, 0.0, 0.0, 0.0], [-0.5, 0.0, 0.0, 0.0]])
        seconds = np.array([np.eye(4) + np.outer(means[0], means[0]),
                            3.0 * np.eye(4) + np.outer(means[1], means[1])])
        weights = np.array([0.25, 0.75])
        ens = DistilledEnsemble(
            threshold_x=0.0,
            success_probability=1.0,
            prior_weights=weights,
            posterior_weights=weights,
            per_component_pass=np.ones(2),
            component_means=means,
            component_second_moments=seconds,
            pooled_mean=np.zeros(4),
            pooled_cov=np.diag([3.25, 2.5, 2.5, 2.5]),
        )
        entropy, dist = gaussification_metrics(ens)
        assert entropy == pytest.approx(-(0.25 * np.log2(0.25) + 0.75 * np.log2(0.75)), rel=1e-14)
        assert dist == pytest.approx(1.5 * np.sqrt(3.0), rel=1e-14)
        # A component with posterior weight <= 1e-6 is left out of the maximum.
        faint = replace(ens, posterior_weights=np.array([1e-6, 1.0 - 1e-6]))
        assert gaussification_metrics(faint)[1] == pytest.approx(0.5 * np.sqrt(3.0), rel=1e-14)
        kept = replace(ens, posterior_weights=np.array([2e-6, 1.0 - 2e-6]))
        assert gaussification_metrics(kept)[1] == pytest.approx(1.5 * np.sqrt(3.0), rel=1e-14)

    def test_discrete_threshold_nine_entropy(self, discrete_tapped):
        entropy, _ = gaussification_metrics(herald(discrete_tapped, 9.0))
        assert entropy < 0.1


class TestJointQuadratureVariances:
    def test_two_mode_vacuum(self):
        assert joint_quadrature_variances(np.eye(4)) == (2.0, 2.0)

    def test_source_closed_form(self):
        vs, va = 0.7, 4.0
        var_sum, var_diff = joint_quadrature_variances(make_kerr_entangled(vs, va).cov)
        assert var_sum == pytest.approx(2 * vs, rel=1e-12)
        assert var_diff == pytest.approx(2 * vs, rel=1e-12)

    def test_distilled_below_shot_noise(self, discrete_tapped):
        ens = herald(discrete_tapped, 9.0)
        var_sum, var_diff = joint_quadrature_variances(ens.pooled_cov)
        assert var_sum < 2.0
        assert var_diff < 2.0
