import math
import warnings
from dataclasses import fields

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
    calibrate_envelope,
    discrete_channel,
    distilled_gln,
    envelope_fading,
    gaussian_log_negativity,
    gaussian_tail,
    herald,
    joint_quadrature_variances,
    kerr_blocks,
    run_mc_sweep,
    tail_hazard,
    two_mode_cov,
)
import cvdistill.distill as distill
from cvdistill.config import DEFAULT_THRESHOLDS
from cvdistill.distill import (_CF_CUT, HERALD_BLOCK, SUCCESS_FLOOR, bivariate_normal_cdf,
                               series_bin_probabilities)
from conftest import (beamsplitter, kerr_source, loss, model_pooled, random_physical_state,
                      reference_tap, stacked, tensor, uncorrelated_tap, vacuum)


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
    def test_vanishing_reflectivity_limit(self, calibration, discrete_levels):
        tapped = attach_tap(calibration.v_squeezed, calibration.v_antisqueezed, discrete_channel(),
                            TapConfig(reflectivity=1e-12))
        for before, after in zip(discrete_levels, tapped.cov):
            assert_allclose(after[:4, :4], before, atol=1e-10)
            assert after[4, 4] == pytest.approx(1.0, abs=1e-10)

    def test_tap_variance_closed_form(self, discrete_tapped, discrete_levels):
        for tapped, plain in zip(discrete_tapped.cov, discrete_levels):
            v = plain[2, 2]
            assert tapped[4, 4] == pytest.approx(0.93 + 0.07 * v, rel=1e-12)

    def test_matches_explicit_symplectic(self, calibration):
        rng = np.random.default_rng(31)
        state = random_physical_state(rng, 2)
        tapped = reference_tap([1.0], stacked(state), 0.07)
        ext = np.eye(6)
        ext[:4, :4] = state[1]
        s = np.eye(6)
        st, sr = np.sqrt(0.93), np.sqrt(0.07)
        for off in (0, 1):
            s[2 + off, 2 + off] = st
            s[2 + off, 4 + off] = -sr
            s[4 + off, 4 + off] = st
            s[4 + off, 2 + off] = sr
        assert_allclose(tapped.cov[0], (s @ ext @ s.T)[:5, :5], atol=1e-12)
        # The closed form on the Kerr source, against the same explicit map.
        vs, va = calibration.v_squeezed, calibration.v_antisqueezed
        closed = attach_tap(vs, va, FluctuatingChannel([1.0], [1.0]), TapConfig(reflectivity=0.07))
        ext[:4, :4] = kerr_source(vs, va)[1]
        assert_allclose(closed.cov[0], (s @ ext @ s.T)[:5, :5], atol=1e-12)

    def test_rejects_wrong_mode_count(self):
        # The reference tap needs the two-mode state it extends by one vacuum mode.
        with pytest.raises(ValueError, match="modes 2, 1 of 2"):
            reference_tap([1.0], stacked(vacuum(1)), 0.07)


def three_mode_path(model_input, tap):
    """The tapped (A, B, Tap) states and the Cholesky factors of their 6x6 covariances, tap first.

    The state path that the tap model is checked against.
    """
    states = beamsplitter(tensor(model_input, vacuum(1)), 2, 1, 1.0 - tap.reflectivity)
    order = [4, 0, 1, 2, 3, 5]  # X_Tap first, then (X_A, P_A, X_B, P_B), P_Tap last
    return states, np.linalg.cholesky(states[1][:, order][:, :, order])


def random_mixtures():
    """Random physical two-mode mixtures of 1-6 levels, and random taps."""
    rng = np.random.default_rng(34)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        weights = rng.uniform(0.05, 1.0, n)
        states = [random_physical_state(rng, 2) for _ in range(n)]
        yield weights / weights.sum(), stacked(*states), TapConfig(
            reflectivity=float(rng.uniform(0.01, 0.5)))


class TestTapModel:
    """The tap model against the three-mode state path of the reference."""

    @staticmethod
    def assert_matches_state_path(model, weights, plain, tap, rel):
        """``model`` against the reference's tapped ``plain`` levels.

        Each moment matrix matches to ``rel`` of its largest entry (0: bit for bit).
        """
        states, chol = three_mode_path(plain, tap)
        assert np.array_equal(model.weights, weights)
        for ours, ref in ((model.cov, states[1][:, :5, :5]), (model.tap_sd, chol[:, 0, 0])):
            axes = tuple(range(1, ref.ndim))
            bound = rel * np.abs(ref).max(axis=axes, initial=0.0)
            assert np.all(np.abs(ours - ref).max(axis=axes, initial=0.0) <= bound)
        # The tap-first factor's first column holds the tap SD and beta, and
        # its (X_A, P_A, X_B, P_B) block the conditional factor.
        scale = np.abs(model.cov[:, :4, :4]).max(axis=(1, 2))
        for field, ref in ((model.beta, chol[:, 1:5, 0]), (model.factor, chol[:, 1:5, 1:5])):
            err = np.abs(field - ref).reshape(len(scale), -1).max(axis=1)
            assert np.all(err <= (1e-14 + rel) * np.sqrt(scale)), err / np.sqrt(scale)
        assert np.all(np.triu(model.factor, 1) == 0.0)
        explained = model.beta[:, :, None] * model.beta[:, None, :]
        err = np.abs(model.factor @ model.factor.swapaxes(1, 2) + explained - model.cov[:, :4, :4])
        assert np.all(err.max(axis=(1, 2)) <= 1e-14 * scale)

    def test_presets_match_state_path(self, calibration, calibrated_source):
        vs, va = calibration.v_squeezed, calibration.v_antisqueezed
        _, semi = calibrate_envelope(vs, va)
        for channel in (semi, envelope_fading(0.3), FluctuatingChannel([0.25, 1.0], [0.5, 0.5])):
            self.assert_matches_state_path(
                attach_tap(vs, va, channel, TapConfig()), channel.probabilities,
                loss(calibrated_source, 1, channel.transmittances), TapConfig(), 1e-13)

    def test_random_mixtures_match_state_path(self):
        for weights, plain, tap in random_mixtures():
            model = reference_tap(weights, plain, tap.reflectivity)
            self.assert_matches_state_path(model, weights, plain, tap, 0.0)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(log_vs=st.floats(-2.0, 0.0), log_excess=st.floats(0.0, 2.0),
           transmittances=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5, unique=True),
           reflectivity=st.floats(1e-6, 1.0 - 1e-6))
    def test_closed_form_matches_reference(self, log_vs, log_excess, transmittances, reflectivity):
        # Vs from 0.01 to 1, Va from 1/Vs up to 100 times that: entries up to ~5e3.
        vs = 10.0 ** log_vs
        va = 10.0 ** (log_excess - log_vs)
        channel = FluctuatingChannel(sorted(transmittances),
                                     np.full(len(transmittances), 1.0 / len(transmittances)))
        tap = TapConfig(reflectivity=reflectivity)
        model = attach_tap(vs, va, channel, tap)
        levels = loss(kerr_source(vs, va), 1, channel.transmittances)
        reference = reference_tap(channel.probabilities, levels, reflectivity)
        scale = np.abs(reference.cov).max(axis=(1, 2))[:, None, None]
        assert np.all(np.abs(model.cov - reference.cov) <= 1e-13 * scale)
        # The untapped levels, too.
        covs = two_mode_cov(*kerr_blocks(vs, va, channel))
        assert np.all(np.abs(covs - levels[1]) <= 1e-13 * scale)

    def test_rejects_weights_as_a_mixture_does(self, discrete_tapped):
        with pytest.raises(ValueError, match="level weights must sum to 1"):
            TapModel([0.5, 0.4], discrete_tapped.cov)

    def test_rejects_singular_conditional_covariance(self):
        # X_A is a copy of X_tap: nothing of it is left given the tap.
        cov = np.eye(5)
        cov[0, 4] = cov[4, 0] = 1.0
        with pytest.raises(InvalidCovarianceError, match="not positive definite"):
            TapModel([1.0], cov[None])

    @pytest.mark.parametrize("entry, value", [((4, 4), 0.0), ((4, 4), -1.0), ((4, 4), np.nan),
                                              ((1, 2), np.inf), ((0, 0), np.nan)])
    def test_rejects_moments_that_give_no_factor(self, entry, value):
        # Checked before any square root or division, so neither a warning nor a NaN gets out.
        cov = np.eye(5)
        cov[entry] = cov[entry[::-1]] = value
        with pytest.raises(InvalidCovarianceError, match="NaN or infinite|X_tap variance must be positive"):
            TapModel([1.0], cov[None])

    def test_rejects_asymmetric_covariance(self):
        # Cholesky reads the lower triangle and beta column 4, while
        # series_bin_probabilities reads row 4: an asymmetric cov would give
        # the sampled candidates and the composed pre-selection law two models.
        cov = np.eye(5)
        cov[2, 4] = 0.5
        with pytest.raises(InvalidCovarianceError, match="not symmetric"):
            TapModel([1.0], cov[None])


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


def mp_conditional_bin(cov, coef, lo, hi, below):
    """P(coef . x in [lo, hi) | X_tap < below) for x ~ N(0, cov), by mpmath quadrature over X_tap."""
    var_y, sd_t, c = coef @ cov[:5, :5] @ coef, np.sqrt(cov[4, 4]), coef @ cov[:5, 4]
    # Given the standardised tap outcome u, the series is normal with mean
    # slope u and standard deviation sd_c.
    slope, sd_c = c / sd_t, np.sqrt(var_y - (c / sd_t) ** 2)
    k = below / sd_t
    with mpmath.workdps(16):
        def joint(u):
            m = slope * u
            return mpmath.npdf(u) * (mpmath.ncdf((hi - m) / sd_c) - mpmath.ncdf((lo - m) / sd_c))

        return float(mpmath.quad(joint, [-mpmath.inf, min(0.0, k), k]) / mpmath.ncdf(k))


class TestSeriesBinProbabilities:
    COEFFS = np.array([[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [1, 0, 1, 0, 0], [0, 1, 0, -1, 0]], float)
    EDGES = np.linspace(-25.0, 25.0, 202)

    @pytest.mark.parametrize("below", [9.0, -2.0])
    def test_conditional_against_mpmath(self, discrete_tapped, below):
        probs = series_bin_probabilities(discrete_tapped, self.COEFFS, self.EDGES, below)
        assert probs.shape == (2, 4, 201)
        assert np.all(probs >= 0.0)
        assert_allclose(probs.sum(axis=-1), 1.0, rtol=0, atol=1e-14)
        edges = [-math.inf, *self.EDGES[1:-1], math.inf]  # the end bins are open
        for i in range(2):
            for s, coef in enumerate(self.COEFFS):
                for j in (0, 100, 200):
                    ref = mp_conditional_bin(discrete_tapped.cov[i], coef, edges[j], edges[j + 1],
                                             below)
                    assert probs[i, s, j] == pytest.approx(ref, abs=1e-13)

    def test_unconditional_is_univariate(self, discrete_tapped):
        # X_tap itself (correlation 1) included: item 10's closed form is the below = inf case.
        coeffs = np.vstack([[0, 0, 0, 0, 1], self.COEFFS])
        probs = series_bin_probabilities(discrete_tapped, coeffs, self.EDGES)
        cov = discrete_tapped.cov
        sd = np.sqrt(np.einsum("sj,ljk,sk->ls", coeffs, cov, coeffs))
        upper = gaussian_tail(self.EDGES[1:-1] / sd[..., None])
        cdf = np.concatenate([np.zeros((2, 5, 1)), 1.0 - upper, np.ones((2, 5, 1))], axis=-1)
        assert_allclose(probs, np.diff(cdf, axis=-1), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("below", [0.0, 4.0, 9.0])
    @pytest.mark.parametrize("name", ["discrete_tapped", "fading_tapped"])
    def test_conditional_tap_row_is_univariate(self, request, name, below):
        # The Monte Carlo composes X_tap too. Series and tap are then one
        # variable, so the row is a truncated normal.
        model = request.getfixturevalue(name)
        probs = series_bin_probabilities(model, [[0, 0, 0, 0, 1]], self.EDGES, below)[:, 0]
        sigma = np.sqrt(model.cov[:, 4, 4])[:, None]
        lo = np.concatenate([[-np.inf], self.EDGES[1:-1]])
        hi = np.minimum(np.concatenate([self.EDGES[1:-1], [np.inf]]), below)
        mass = gaussian_tail(-hi / sigma) - gaussian_tail(-lo / sigma)
        ref = np.maximum(mass, 0.0) / gaussian_tail(-below / sigma)
        assert_allclose(probs, ref, rtol=0, atol=1e-15)
        assert not probs[:, lo >= below].any()  # no shot below t0 lands at or above it

    @pytest.mark.parametrize("name", ["discrete_tapped", "fading_tapped"])
    def test_tap_series_correlation_is_exactly_one(self, request, monkeypatch, name):
        # X_tap against itself takes the bivariate CDF's exact rho = 1 branch on
        # every level, not its 20-node quadrature with rho an ulp below 1.
        seen = []
        monkeypatch.setattr(distill, "bivariate_normal_cdf",
                            lambda h, k, r: seen.append(r) or bivariate_normal_cdf(h, k, r))
        series_bin_probabilities(request.getfixturevalue(name), np.vstack([[0, 0, 0, 0, 1], self.COEFFS]),
                                 self.EDGES, 4.0)
        (rho,) = seen
        assert np.all(rho[:, 0] == 1.0)
        assert np.all(np.abs(rho[:, 1:]) < 1.0)

    def test_underflowing_condition_raises(self, discrete_tapped):
        with pytest.raises(DegenerateSelectionError, match="underflows"):
            series_bin_probabilities(discrete_tapped, self.COEFFS, self.EDGES, -1e3)


def no_selection_threshold(model):
    """Threshold at alpha <= -40 for every level of ``model``: keeps everything."""
    return -40.0 * np.sqrt(model.cov[:, 4, 4]).max()


class TestHerald:
    def test_no_selection_limit_reproduces_pooled_cm(self, discrete_tapped):
        ens = herald(discrete_tapped, [no_selection_threshold(discrete_tapped)])
        cov = model_pooled(discrete_tapped)
        assert ens.success_probability[0] == pytest.approx(1.0, abs=1e-14)
        assert_allclose(ens.posterior_weights[0], discrete_tapped.weights, atol=1e-14)
        assert_allclose(ens.pooled_mean[0], 0.0, atol=1e-10)
        assert_allclose(ens.pooled_cov[0], cov[:4, :4], atol=1e-10)

    def test_uncorrelated_tap_leaves_covariance_alone(self):
        rng = np.random.default_rng(32)
        state = random_physical_state(rng, 2)
        ens = herald(uncorrelated_tap(state), [1.0])
        assert_allclose(ens.pooled_cov[0], state[1], atol=1e-12)
        assert ens.success_probability[0] == pytest.approx(gaussian_tail(1.0), rel=1e-12)

    def test_discrete_threshold_nine_gaussifies(self, discrete_tapped):
        ens = herald(discrete_tapped, [9.0])
        assert ens.posterior_weights[0, 1] > 0.99

    def test_weight_bookkeeping_identities(self, discrete_tapped):
        ens = herald(discrete_tapped, [0.0, 4.0, 9.0])
        prior = discrete_tapped.weights
        assert_allclose(ens.success_probability, ens.per_component_pass @ prior, rtol=1e-14)
        expected = prior * ens.per_component_pass / ens.success_probability[:, None]
        assert_allclose(ens.posterior_weights, expected, rtol=1e-14)
        assert_allclose(ens.posterior_weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_component_moment_matrices_well_formed(self, discrete_tapped):
        # A one-level herald's pooled covariance is that level's kept central covariance.
        for cov in discrete_tapped.cov:
            alone = herald(TapModel([1.0], cov[None]), [0.0, 3.0, 6.0, 9.0])
            assert np.linalg.eigvalsh(alone.pooled_cov).min() > 0.0
        # conditional covariance (deep-selection limit) is PSD
        for cov in discrete_tapped.cov:
            sigma2 = cov[4, 4]
            cvec = cov[:4, 4]
            cond = cov[:4, :4] - np.outer(cvec, cvec) / sigma2
            assert np.linalg.eigvalsh(cond).min() > -1e-12

    def test_each_level_matches_its_own_herald(self):
        # Components differ in weight, tap variance and covariance, so a
        # wrong broadcast or transpose over the level axis shows up here.
        rng = np.random.default_rng(33)
        components = []
        for weight, reflectivity in ((0.2, 0.05), (0.3, 0.2), (0.5, 0.5)):
            tapped = reference_tap([1.0], stacked(random_physical_state(rng, 2)), reflectivity)
            components.append((weight, tapped.cov[0]))
        model = TapModel(*(np.array(column) for column in zip(*components)))
        assert len(set(model.cov[:, 4, 4].tolist())) == 3
        grid = [-1.0, 0.5, 2.5]
        ens = herald(model, grid)
        pooled_mean, pooled_second = 0.0, 0.0
        for i, (_, cov) in enumerate(components):
            alone = herald(TapModel([1.0], cov[None]), grid)
            assert_allclose(ens.per_component_pass[:, i], alone.per_component_pass[:, 0], rtol=1e-13)
            # The mixture's kept moments pool the levels' by posterior weight.
            w = ens.posterior_weights[:, i, None]
            mu = alone.pooled_mean
            pooled_mean = pooled_mean + w * mu
            pooled_second = pooled_second + w[:, :, None] * (
                alone.pooled_cov + mu[:, :, None] * mu[:, None, :])
        assert_allclose(ens.pooled_mean, pooled_mean, rtol=1e-13, atol=1e-13)
        pooled_cov = pooled_second - pooled_mean[:, :, None] * pooled_mean[:, None, :]
        assert_allclose(ens.pooled_cov, pooled_cov, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("threshold", [-1.5, 2.0, 9.0])
    def test_displaced_tap_against_mpmath(self, three_level_tapped, threshold):
        # The tap SD differs per level: herald standardises each threshold by
        # it, as the Monte Carlo does, and one level's tap is uncorrelated.
        assert len(set(three_level_tapped.tap_sd.tolist())) == 3
        assert not three_level_tapped.beta[0].any()
        ens = herald(three_level_tapped, [threshold])
        ref = mp_heralded(three_level_tapped, threshold)
        assert ens.errors == (None,)
        _assert_rel(ens.success_probability, [ref["success"]], 1e-13, "success")
        _assert_rel(ens.per_component_pass[0], ref["passes"], 1e-13, "passes")
        for key in ("posterior_weights", "pooled_mean", "pooled_cov", "weight_entropy",
                    "max_component_cov_distance"):
            _assert_rows_close(getattr(ens, key)[0], ref[key], key)

    def test_rejects_wrong_mode_count(self, discrete_levels):
        # The model holds five quadratures, one weight per level: a two-mode
        # mixture's four are rejected when it is built, before any engine
        # reads it, as is a weight missing.
        weights = discrete_channel().probabilities
        for args in ((weights, discrete_levels), ([1.0], np.stack([np.eye(5)] * 2))):
            with pytest.raises(ValueError, match="cov \\(L, 5, 5\\)"):
                herald(TapModel(*args), [1.0])

    def test_degenerate_selection_recorded(self, discrete_tapped):
        ens = herald(discrete_tapped, [1e4])
        assert isinstance(ens.errors[0], DegenerateSelectionError)
        assert ens.success_probability.shape == (1,) and ens.success_probability[0] <= SUCCESS_FLOOR
        assert ens.pooled_cov.shape == (1, 4, 4) and np.isnan(ens.pooled_cov).all()

    @pytest.mark.parametrize("threshold", [-np.inf, np.inf, np.nan, [2.0, np.nan], [np.inf]])
    def test_rejects_non_finite_threshold(self, discrete_tapped, threshold):
        with pytest.raises(ValueError, match="finite"):
            herald(discrete_tapped, np.atleast_1d(threshold))


def mp_heralded(model, threshold):
    """``herald``'s fields at one threshold by mpmath quadrature over each level's tap outcome.

    Given its tap outcome u, a level's (X_A, P_A, X_B, P_B) is normal with
    mean c u / sd^2 and covariance S - c c^T / sd^2, so the kept moments need
    the tap's truncated moments E[u^k | u > threshold], k = 0, 1, 2, which
    are integrated here in the standardised z = u / sd, with breakpoints that
    follow the integrand's scale.
    """
    out = {key: [] for key in ("passes", "component_means", "component_second_moments")}
    with mpmath.workdps(30):
        for cov in model.cov.tolist():
            cov = mpmath.matrix(cov)
            sd = mpmath.sqrt(cov[4, 4])
            alpha = mpmath.mpf(threshold) / sd
            top = max(alpha, 0)
            points = sorted({alpha, top, top + 1 / (top + 1), top + 10 / (top + 1)}) + [mpmath.inf]
            moments = [mpmath.quad(lambda z, k=k: z ** k * mpmath.npdf(z), points) for k in range(3)]
            q, e1, e2 = moments[0], moments[1] / moments[0], moments[2] / moments[0]
            c = cov[:4, 4] / sd  # the regression on z
            out["passes"].append(q)
            out["component_means"].append(c * e1)
            out["component_second_moments"].append(cov[:4, :4] - c * c.T + c * c.T * e2)
        weights = [mpmath.mpf(w) for w in model.weights.tolist()]
        success = mpmath.fsum(w * q for w, q in zip(weights, out["passes"]))
        post = [w * q / success for w, q in zip(weights, out["passes"])]
        pooled_mean = sum((w * mu for w, mu in zip(post, out["component_means"])), mpmath.zeros(4, 1))
        pooled_second = sum((w * s2 for w, s2 in zip(post, out["component_second_moments"])),
                            mpmath.zeros(4, 4))
        pooled_cov = pooled_second - pooled_mean * pooled_mean.T
        # Each level's central covariance about the pooled mean, against the pooled one.
        dists = [mpmath.mnorm(s2 - mu * mu.T + (mu - pooled_mean) * (mu - pooled_mean).T
                              - pooled_cov, "f")
                 for w, mu, s2 in zip(post, out["component_means"], out["component_second_moments"])
                 if w > 1e-6]
        to_array = lambda v: np.array(v.tolist(), dtype=float)
        return {
            "success": float(success), "passes": [float(q) for q in out["passes"]],
            "posterior_weights": [float(w) for w in post],
            "pooled_mean": to_array(pooled_mean)[:, 0],
            "pooled_cov": to_array(pooled_cov),
            "weight_entropy": float(-mpmath.fsum(w * mpmath.log(w, 2) for w in post)),
            "max_component_cov_distance": float(max(dists, default=0)),
        }


def mp_success(tapped, threshold):
    """Success probability of ``herald`` at one threshold, each Q from mpmath."""
    alpha = threshold / np.sqrt(tapped.cov[:, 4, 4])
    with mpmath.workdps(50):
        return sum(w * mpmath.erfc(mpmath.mpf(a) / mpmath.sqrt(2)) / 2
                   for w, a in zip(tapped.weights.tolist(), alpha.tolist()))


@pytest.fixture(scope="module")
def preset_tapped(calibration, discrete_tapped):
    """The tapped mixtures of the 'discrete' and 'semicontinuous' presets."""
    vs, va = calibration.v_squeezed, calibration.v_antisqueezed
    _, semi = calibrate_envelope(vs, va)
    semi_tapped = attach_tap(vs, va, semi, TapConfig())
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
            alone = herald(tapped, [t])
            assert isinstance(alone.errors[0], DegenerateSelectionError) == bad
            assert alone.success_probability.size == 1
            assert (alone.success_probability[0] <= SUCCESS_FLOOR) == bad


class TestDistilledGln:
    def test_tap_only_cost_small(self, calibration):
        tapped = attach_tap(calibration.v_squeezed, calibration.v_antisqueezed,
                            FluctuatingChannel([1.0], [1.0]), TapConfig())
        (ln,) = distilled_gln(herald(tapped, [no_selection_threshold(tapped)]))
        assert 0.65 < ln < 0.76  # slightly below the lossless 0.76

    def test_discrete_threshold_nine_value(self, discrete_tapped):
        ens = herald(discrete_tapped, [9.0])
        assert 0.58 <= distilled_gln(ens)[0] <= 0.76

    def test_never_exceeds_best_pretap_component(self, discrete_levels, discrete_tapped):
        best = max(gaussian_log_negativity(cov) for cov in discrete_levels)
        lns = distilled_gln(herald(discrete_tapped, np.linspace(-2.0, 10.0, 25)))
        assert lns.shape == (25,) and np.all(lns <= best + 1e-9)


def _assert_rows_close(actual, expected, key):
    """|actual - expected| <= 1e-12 * max(1, |expected|), entry by entry."""
    expected = np.asarray(expected)
    assert np.shape(actual) == expected.shape, key
    assert np.all(np.abs(actual - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected))), key


def _grid_row_metrics(ens):
    """Per-row values of every field and metric of a stacked ensemble, by name."""
    var_x, var_p = joint_quadrature_variances(ens.pooled_cov)
    out = {f.name: getattr(ens, f.name) for f in fields(ens) if f.name != "errors"}
    out.update(ln=distilled_gln(ens), var_x=var_x, var_p=var_p)
    return out


# The metrics that a degenerate row holds NaN in; the other two keep their values.
SUCCESS_METRICS = ("success_probability", "per_component_pass")


def _assert_nan_rows(metrics, degenerate):
    """Each metric but ``SUCCESS_METRICS`` is NaN exactly on the ``degenerate`` rows, whole rows."""
    for key, value in metrics.items():
        nan = np.isnan(value).reshape(len(degenerate), -1)
        expected = np.zeros(len(degenerate), bool) if key in SUCCESS_METRICS else degenerate
        assert np.array_equal(nan.all(axis=1), expected), key
        assert np.array_equal(nan.any(axis=1), expected), key


@pytest.fixture(scope="module")
def fading_tapped(calibration):
    """A 45-level semi-continuous mixture with its tap attached."""
    return attach_tap(calibration.v_squeezed, calibration.v_antisqueezed, envelope_fading(0.3),
                      TapConfig())


class TestThresholdSweep:
    """``herald`` over threshold grids: one call, rows stacked in grid order."""

    @pytest.mark.parametrize("name", ["discrete_tapped", "fading_tapped"])
    def test_grid_rows_equal_one_entry_grids(self, request, name):
        tapped = request.getfixturevalue(name)
        # Unsorted, with a duplicate, and longer than one block.
        grid = np.concatenate([np.linspace(12.0, -3.0, 2 * HERALD_BLOCK + 5), [4.0, -1.0, 4.0]])
        ens = herald(tapped, grid)
        assert ens.errors == (None,) * grid.size
        stacked = _grid_row_metrics(ens)
        for k, th in enumerate(grid):
            alone = herald(tapped, [th])
            assert alone.errors == (None,)
            for key, value in _grid_row_metrics(alone).items():
                _assert_rows_close(stacked[key][k], value[0], key)

    def test_degenerate_grid_row_only(self, discrete_tapped):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ens = herald(discrete_tapped, [2.0, 1e4, 3.0])
            metrics = _grid_row_metrics(ens)
        assert ens.errors[0] is None and ens.errors[2] is None
        assert isinstance(ens.errors[1], DegenerateSelectionError)
        assert str(ens.errors[1]) == "success probability underflowed (0.0) at threshold 10000.0"
        _assert_nan_rows(metrics, np.array([False, True, False]))
        for k, th in ((0, 2.0), (2, 3.0)):
            alone = _grid_row_metrics(herald(discrete_tapped, [th]))
            for key, value in alone.items():
                _assert_rows_close(metrics[key][k], value[0], key)
        (error,) = herald(discrete_tapped, [1e4]).errors
        assert str(error) == str(ens.errors[1])

    def test_all_degenerate_grid_has_nan_stacks(self, discrete_tapped):
        ens = herald(discrete_tapped, [1e4, 2e4])
        assert all(isinstance(e, DegenerateSelectionError) for e in ens.errors)
        metrics = _grid_row_metrics(ens)
        for value in metrics.values():
            assert np.shape(value)[:1] == (2,)
        _assert_nan_rows(metrics, np.array([True, True]))

    def test_rejects_nested_or_empty_grid(self, discrete_tapped):
        # Scalars included: a single threshold is the one-entry grid.
        for grid in ([], [[1.0, 2.0]], [[1.0]], 9.0, np.float64(9.0)):
            with pytest.raises(ValueError) as analytic:
                herald(discrete_tapped, grid)
            with pytest.raises(ValueError) as sampled:
                run_mc_sweep(discrete_tapped, McConfig(n_shots=10), grid)
            assert str(analytic.value) == str(sampled.value) == (
                "thresholds must be a non-empty 1-d sequence")

    def test_single_deep_negative_threshold(self, discrete_tapped):
        ens = herald(discrete_tapped, [no_selection_threshold(discrete_tapped)])
        assert ens.success_probability[0] == pytest.approx(1.0, abs=1e-14)

    def test_success_strictly_decreasing(self, discrete_tapped):
        succ = herald(discrete_tapped, np.linspace(-5.0, 10.0, 50)).success_probability
        assert succ.size == 50 and np.all(np.diff(succ) < 0.0)

    def test_high_transmission_weight_non_decreasing(self, discrete_tapped):
        w_top = herald(discrete_tapped, np.linspace(0.0, 10.0, 21)).posterior_weights[:, 1]
        assert w_top.size == 21 and np.all(np.diff(w_top) >= -1e-12)


def floor_crossing(tapped):
    """The threshold where the mpmath success falls to SUCCESS_FLOOR, to 1e-12 relative.

    Every level has alpha >= 40 at 40 tap deviations, where Q < 1e-300.
    """
    lo, hi = 0.0, 40.0 * np.sqrt(tapped.cov[:, 4, 4]).max()
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mp_success(tapped, mid) > SUCCESS_FLOOR else (lo, mid)
    return hi


@st.composite
def heralding_cases(draw):
    """A random physical tapped mixture of 1-6 levels and a grid reaching past its floor crossing.

    The grid's thresholds are fractions of the crossing, some a relative
    1e-2, 1e-4 or 1e-6 from it, and the last past it. A threshold whose mpmath
    success lies within 1e-3 (relative) of SUCCESS_FLOOR is dropped: the
    knife edge is left to rounding.
    """
    n = draw(st.integers(1, 6))
    transmittances = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n, unique=True)))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    channel = FluctuatingChannel(transmittances, raw / raw.sum())
    source = random_physical_state(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), 2)
    tap = TapConfig(reflectivity=draw(st.floats(0.01, 0.5)))
    tapped = reference_tap(channel.probabilities, loss(source, 1, channel.transmittances),
                           tap.reflectivity)
    crossing = floor_crossing(tapped)
    near = st.sampled_from([1.0 + d for d in (-1e-2, -1e-4, -1e-6, 1e-6, 1e-4, 1e-2)])
    fractions = draw(st.lists(st.floats(-0.3, 1.3) | near, min_size=1, max_size=10))
    grid = np.array(fractions + [draw(st.floats(1.01, 2.0))]) * crossing
    success = np.array([float(mp_success(tapped, t)) for t in grid])
    clear = np.abs(success - SUCCESS_FLOOR) > 1e-3 * SUCCESS_FLOOR
    return tapped, grid[clear], success[clear]


class TestGridContract:
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(case=heralding_cases())
    def test_rows_errors_and_one_entry_grids(self, case):
        tapped, grid, success = case
        ens = herald(tapped, grid)
        degenerate = success <= SUCCESS_FLOOR
        assert degenerate[-1]
        assert [isinstance(e, DegenerateSelectionError) for e in ens.errors] == degenerate.tolist()
        assert [e is None for e in ens.errors] == (~degenerate).tolist()
        if not degenerate.all():
            _assert_rel(ens.success_probability[~degenerate], success[~degenerate], 1e-12, "success")
        stacked = _grid_row_metrics(ens)
        _assert_nan_rows(stacked, degenerate)
        for k in np.flatnonzero(~degenerate):
            th = grid[k]
            alone = herald(tapped, [th])
            assert alone.errors == (None,)
            for key, value in _grid_row_metrics(alone).items():
                _assert_rows_close(stacked[key][k], value[0], key)


class TestGaussification:
    def test_single_component(self, calibration):
        tapped = attach_tap(calibration.v_squeezed, calibration.v_antisqueezed,
                            FluctuatingChannel([1.0], [1.0]), TapConfig())
        ens = herald(tapped, [2.0])
        assert ens.weight_entropy[0] == pytest.approx(0.0, abs=1e-12)
        assert ens.max_component_cov_distance[0] == pytest.approx(0.0, abs=1e-9)

    def test_equal_identical_components(self, calibrated_source):
        mix = stacked(calibrated_source, calibrated_source)
        ens = herald(reference_tap([0.5, 0.5], mix, TapConfig().reflectivity), [3.0])
        assert ens.weight_entropy[0] == pytest.approx(1.0, abs=1e-12)
        assert ens.max_component_cov_distance[0] == pytest.approx(0.0, abs=1e-9)

    def test_unequal_covariances_distance(self):
        def ensemble(w):
            # Levels of weights w and 1 - w with covariances I and 3I, and one
            # tap uncorrelated with them: at threshold 0 the posterior is the
            # prior, and the kept moments are the levels' own.
            model = TapModel([w, 1.0 - w], np.stack([np.eye(5), np.diag([3, 3, 3, 3, 1.0])]))
            assert np.all(model.beta == 0.0)
            return herald(model, [0.0])

        # At weight w the pooled covariance is (3 - 2w) I, and the levels lie
        # at Frobenius distances 2 (2 - 2w) and 2 (2w) from it: 3 and 1 at w = 1/4.
        ens = ensemble(0.25)
        assert ens.weight_entropy[0] == pytest.approx(
            -(0.25 * np.log2(0.25) + 0.75 * np.log2(0.75)), rel=1e-14)
        assert ens.max_component_cov_distance[0] == pytest.approx(3.0, rel=1e-14)
        # A level of posterior weight <= 1e-6 is left out of the maximum.
        w = 1e-7
        assert ensemble(w).max_component_cov_distance[0] == pytest.approx(4.0 * w, rel=1e-6)
        w = 2e-6
        assert ensemble(w).max_component_cov_distance[0] == pytest.approx(4.0 - 4.0 * w, rel=1e-12)

    def test_discrete_threshold_nine_entropy(self, discrete_tapped):
        assert herald(discrete_tapped, [9.0]).weight_entropy[0] < 0.1


class TestJointQuadratureVariances:
    def test_two_mode_vacuum(self):
        assert joint_quadrature_variances(np.eye(4)) == (2.0, 2.0)

    def test_source_closed_form(self):
        vs, va = 0.7, 4.0
        var_sum, var_diff = joint_quadrature_variances(
            two_mode_cov(*kerr_blocks(vs, va, FluctuatingChannel([1.0], [1.0])))[0])
        assert var_sum == pytest.approx(2 * vs, rel=1e-12)
        assert var_diff == pytest.approx(2 * vs, rel=1e-12)

    def test_distilled_below_shot_noise(self, discrete_tapped):
        ens = herald(discrete_tapped, [9.0])
        (var_sum,), (var_diff,) = joint_quadrature_variances(ens.pooled_cov)
        assert var_sum < 2.0
        assert var_diff < 2.0
