import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvdistill import (
    FluctuatingChannel,
    TapConfig,
    TapModel,
    attach_tap,
    calibrate_envelope,
    discrete_channel,
    envelope_exponential,
    envelope_fading,
    gaussian_log_negativity,
    kerr_blocks,
    semicontinuous_levels,
    two_mode_cov,
    upper_bound_ln,
)
from cvdistill.calibrate import premix_ln
from cvdistill.config import ChannelSettings
from conftest import (is_physical, loss, pooled, random_physical_state, reference_tap, stacked,
                      vacuum)


VAC5 = np.eye(5)


def random_mixture(rng, n_comp, n_modes=2):
    """Weights summing to exactly 1 and a stack of that many random physical states."""
    weights = rng.dirichlet(np.ones(n_comp))
    weights /= weights.sum()
    # fold rounding into the first weight so the sum is exactly 1
    weights[0] += 1.0 - weights.sum()
    return weights, stacked(*(random_physical_state(rng, n_modes) for _ in weights))


def level_covs(calibration, channel):
    """The calibrated source's level covariances (L, 4, 4) through ``channel``, in closed form."""
    return two_mode_cov(*kerr_blocks(calibration.v_squeezed, calibration.v_antisqueezed, channel))


class TestChannelTypes:
    def test_level_validation(self):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            FluctuatingChannel([0.25, 1.2], [0.5, 0.5])
        with pytest.raises(ValueError, match="positive"):
            FluctuatingChannel([0.5], [0.0])

    def test_channel_requires_increasing_transmittance(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            FluctuatingChannel([0.5, 0.5], [0.5, 0.5])

    def test_channel_requires_normalized_probabilities(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FluctuatingChannel([0.5, 1.0], [0.3, 0.3])

    @pytest.mark.parametrize("transmittances, probabilities, reason", [
        ([0.5, 1.0], [0.5, np.nan], "level probabilities must be finite"),
        ([0.5, 1.0], [1.5, -0.5], "level probabilities must be positive"),
        ([np.nan], [1.0], r"lie in \[0, 1\]"),
        ([-0.1], [1.0], r"lie in \[0, 1\]"),
        ([0.5, 1.0], [1.0], "1 probabilities but transmittances of shape"),
        ([], [], "at least one"),
        ([[1.0]], [[1.0]], "at least one"),
    ], ids=["nan-probability", "negative", "nan-transmittance", "below-zero", "shorter",
            "empty", "nested"])
    def test_channel_rejections(self, transmittances, probabilities, reason):
        with pytest.raises(ValueError, match=reason):
            FluctuatingChannel(transmittances, probabilities)

    def test_channel_holds_checked_copies(self):
        ts, ps = np.array([0.25, 1.0]), np.array([0.5, 0.5])
        chan = FluctuatingChannel(ts, ps)
        ts[0], ps[0] = 2.0, -1.0
        assert chan.transmittances.tolist() == [0.25, 1.0]
        assert chan.probabilities.tolist() == [0.5, 0.5]
        assert chan.transmittances.size == 2

    def test_mixture_weight_validation(self):
        # A tap model is the mixture both engines read: its level weights
        # and its quadrature count are checked on construction.
        with pytest.raises(ValueError):
            TapModel([0.5, 0.6], np.zeros((2, 5)), np.stack([VAC5, VAC5]))
        with pytest.raises(ValueError):
            TapModel([1.0], np.zeros((1, 2)), np.diag([0.5, 0.5])[None])

    @pytest.mark.parametrize("weights, levels, reason", [
        ([np.nan], 1, "finite"),
        ([0.5, np.nan], 2, "finite"),
        ([np.inf, 0.5], 2, "finite"),
        ([1.0, 0.0], 2, "positive"),
        ([1.5, -0.5], 2, "positive"),
        ([0.5, 0.6], 2, "sum to 1"),
        ([], 1, "at least one"),
        ([0.5, 0.5], 3, r"L = 2 weights"),
        ([1.0], 2, r"L = 1 weights"),
        ([1.0], None, r"L = 1 weights"),
    ], ids=["nan", "nan-second", "inf", "zero", "negative", "sum-1.1", "empty",
            "longer-stack", "shorter-stack", "unstacked-state"])
    def test_mixture_rejections(self, weights, levels, reason):
        if levels is None:
            mean, cov = np.zeros(5), VAC5
        else:
            mean, cov = np.zeros((levels, 5)), np.stack([VAC5] * levels)
        with pytest.raises(ValueError, match=reason):
            TapModel(weights, mean, cov)

    @pytest.mark.parametrize("weights, reason", [
        ([0.5, np.nan], "finite"),
        ([np.inf, 0.5], "finite"),
        ([1.0, 0.0], "positive"),
        ([1.5, -0.5], "positive"),
        ([0.5, 0.6], "sum to 1"),
    ], ids=["nan", "inf", "zero", "negative", "sum-1.1"])
    def test_reweighted_rejections(self, weights, reason):
        # Re-weighting a built tap model over its own levels goes through the
        # constructor's checks and leaves the original model as it was.
        model = TapModel([0.25, 0.75], np.zeros((2, 5)), np.stack([VAC5, VAC5]))
        with pytest.raises(ValueError, match=reason):
            dataclasses.replace(model, weights=weights)
        assert np.array_equal(model.weights, [0.25, 0.75])


class TestDiscreteChannel:
    def test_levels(self):
        chan = discrete_channel()
        assert chan.transmittances.size == 2
        assert_allclose(chan.transmittances, [0.25, 1.0])
        assert_allclose(chan.probabilities, [0.5, 0.5])

    def test_probabilities_sum_to_one(self):
        assert discrete_channel().probabilities.sum() == pytest.approx(1.0, abs=1e-15)


class TestSemicontinuousLevels:
    def test_grid(self):
        ts = semicontinuous_levels()
        assert len(ts) == 45
        assert ts[0] == pytest.approx(0.1, abs=1e-15)
        assert ts[-1] == pytest.approx(1.0, abs=1e-15)
        assert_allclose(np.diff(ts), 0.9 / 44, rtol=1e-12)


class TestEnvelopes:
    def test_exponential_full_transmission_probability(self):
        chan = envelope_exponential(3.0, p_full=0.2)
        assert chan.probabilities[-1] == pytest.approx(0.2, abs=1e-12)
        assert chan.transmittances[-1] == 1.0

    def test_exponential_flat_at_beta_zero(self):
        chan = envelope_exponential(0.0, p_full=0.2)
        assert_allclose(chan.probabilities[:-1], 0.8 / 44, rtol=1e-12)

    @pytest.mark.parametrize("beta, n_levels", [(800.0, 45), (-800.0, 45), (-7000.0, 7)])
    def test_exponential_extreme_beta_builds_a_channel(self, beta, n_levels):
        # Past |beta| ~ 725 exp(beta * t) itself over- or underflows; the
        # envelope relative to its peak does not. Levels whose weight is
        # below the smallest float are dropped.
        chan = envelope_exponential(beta, p_full=0.2)
        assert chan.transmittances.size == n_levels
        assert chan.probabilities[-1] == pytest.approx(0.2, abs=1e-12)
        peak = -2 if beta > 0 else 0
        assert chan.probabilities[peak] == pytest.approx(0.8, rel=1e-6)
        assert ChannelSettings(preset="semicontinuous", envelope="exponential", beta=beta).beta == beta

    def test_fading_full_transmission_probability(self):
        chan = envelope_fading(0.3, p_full=0.2)
        assert chan.probabilities[-1] == pytest.approx(0.2, abs=1e-12)
        assert chan.transmittances.size == 45

    def test_fading_pure_floor_is_flat(self):
        chan = envelope_fading(1.0, p_full=0.2)
        assert_allclose(chan.probabilities[:-1], 0.8 / 44, rtol=1e-12)

    @pytest.mark.parametrize("build, param", [(envelope_exponential, 0.0), (envelope_fading, 0.3)],
                             ids=["exponential", "fading"])
    @pytest.mark.parametrize("p_full", [0.0, 1.0, 1.5, np.nan])
    def test_p_full_rejected_by_both_families(self, build, param, p_full):
        with pytest.raises(ValueError, match=rf"^p_full must lie in \(0, 1\), got {p_full}$"):
            build(param, p_full=p_full)

    def test_envelopes_normalized(self):
        for chan in (envelope_exponential(4.6), envelope_fading(0.18)):
            assert chan.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


class TestPropagate:
    """The closed-form levels of ``kerr_blocks`` against the reference's loss on mode B."""

    def test_trivial_channel(self, calibration, calibrated_source):
        covs = level_covs(calibration, FluctuatingChannel([1.0], [1.0]))
        assert covs.shape == (1, 4, 4)
        assert_allclose(covs[0], calibrated_source[1], atol=1e-12)
        # The lossless level is the source's blocks bit for bit.
        vs, va = calibration.v_squeezed, calibration.v_antisqueezed
        assert np.array_equal(covs[0], two_mode_cov(0.5 * (vs + va), 0.5 * (vs + va),
                                                    0.5 * (vs - va)))

    def test_discrete_weights(self, discrete_tapped):
        assert_allclose(discrete_tapped.weights, [0.5, 0.5])

    def test_component_count_matches_levels(self, calibration):
        chan = envelope_fading(0.2)
        s, b, c = kerr_blocks(calibration.v_squeezed, calibration.v_antisqueezed, chan)
        assert isinstance(s, float) and b.shape == c.shape == (chan.transmittances.size,)
        assert chan.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    def test_components_physical(self, discrete_levels):
        assert np.all(is_physical(discrete_levels))

    def test_stacked_levels_equal_single_state_operations(self, calibration, calibrated_source):
        # The calibrated semi-continuous preset: every level of the reference's
        # stacked loss and tap equals its one-state operation bit for bit, and
        # the closed form matches each level to rounding.
        _, chan = calibrate_envelope(calibration.v_squeezed, calibration.v_antisqueezed)
        levels = loss(calibrated_source, 1, chan.transmittances)
        tapped = reference_tap(chan.probabilities, levels, TapConfig().reflectivity)
        closed = attach_tap(calibration.v_squeezed, calibration.v_antisqueezed, chan, TapConfig())
        assert chan.transmittances.size == tapped.weights.size == closed.weights.size == 45
        for i, t in enumerate(chan.transmittances.tolist()):
            lossy = loss(calibrated_source, 1, t)
            one = reference_tap([1.0], stacked(lossy), TapConfig().reflectivity)
            assert np.array_equal(levels[0][i], lossy[0])
            assert np.array_equal(levels[1][i], lossy[1])
            assert np.array_equal(tapped.mean[i], one.mean[0])
            assert np.array_equal(tapped.cov[i], one.cov[0])
        scale = np.abs(tapped.cov).max(axis=(1, 2))[:, None, None]
        assert np.all(np.abs(closed.cov - tapped.cov) <= 1e-13 * scale)
        assert np.array_equal(closed.mean, np.zeros((45, 5)))

    def test_acts_on_requested_mode(self, calibration, calibrated_source):
        # The source is symmetric in its modes, so loss on A gives loss on B's
        # blocks with the modes swapped: the closed form's choice of B is general.
        _, on_a = loss(calibrated_source, 0, 0.25)
        swap = [2, 3, 0, 1]
        closed = level_covs(calibration, FluctuatingChannel([0.25], [1.0]))[0]
        assert_allclose(on_a, closed[swap][:, swap], atol=1e-12)


class TestPooledCm:
    def test_single_component(self, calibration, calibrated_source):
        mean, cov = pooled(np.array([1.0]), stacked(calibrated_source))
        assert_allclose(mean, calibrated_source[0], atol=1e-15)
        assert_allclose(cov, calibrated_source[1], atol=1e-12)
        assert premix_ln(calibration.v_squeezed, calibration.v_antisqueezed,
                         FluctuatingChannel([1.0], [1.0])) == pytest.approx(
            gaussian_log_negativity(calibrated_source[1]), abs=1e-12)

    def test_two_identical_components(self, calibrated_source):
        _, cov = pooled(np.array([0.5, 0.5]), stacked(calibrated_source, calibrated_source))
        assert_allclose(cov, calibrated_source[1], atol=1e-12)

    def test_mean_spread_term(self):
        # two displaced vacua: pooled cov picks up the between-component spread
        a = (np.array([2.0, 0.0]), np.eye(2))
        b = (np.array([-2.0, 0.0]), np.eye(2))
        mean, cov = pooled(np.array([0.5, 0.5]), stacked(a, b))
        assert_allclose(mean, [0.0, 0.0], atol=1e-15)
        assert_allclose(cov, np.diag([5.0, 1.0]), atol=1e-12)

    def test_calibrated_discrete_mixture_ln(self, calibration, calibrated_source):
        # The closed-form pooled LN against the reference's pooled levels.
        chan = discrete_channel()
        ln = premix_ln(calibration.v_squeezed, calibration.v_antisqueezed, chan)
        _, cov = pooled(chan.probabilities, loss(calibrated_source, 1, chan.transmittances))
        assert ln == pytest.approx(-1.63, abs=1e-4)
        assert ln == pytest.approx(gaussian_log_negativity(cov), abs=1e-12)

    def test_positive_definite_for_random_mixtures(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            _, cov = pooled(*random_mixture(rng, int(rng.integers(1, 5))))
            assert_allclose(cov, cov.T, atol=1e-12)
            assert np.linalg.eigvalsh(cov).min() > 0


class TestUpperBound:
    def test_single_separable_component(self):
        assert upper_bound_ln([1.0], vacuum(2)[1][None]) == pytest.approx(0.0, abs=1e-12)

    def test_tight_for_single_entangled_component(self, calibrated_source):
        ln = gaussian_log_negativity(calibrated_source[1])
        assert upper_bound_ln([1.0], calibrated_source[1][None]) == pytest.approx(ln, rel=1e-9)

    def test_calibrated_discrete_value(self, discrete_levels):
        bound = upper_bound_ln(discrete_channel().probabilities, discrete_levels)
        assert bound == pytest.approx(0.49, abs=0.08)

    def test_never_negative_and_dominates_gaussian_fit(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            weights, states = random_mixture(rng, int(rng.integers(1, 5)))
            bound = upper_bound_ln(weights, states[1])
            _, cov = pooled(weights, states)
            assert bound >= -1e-12
            assert bound >= gaussian_log_negativity(cov) - 1e-9


class TestLossMonotonicity:
    def test_single_level_ln_non_increasing_in_loss(self, calibration):
        lns = [premix_ln(calibration.v_squeezed, calibration.v_antisqueezed,
                         FluctuatingChannel([t], [1.0])) for t in np.arange(1.0, 0.05, -0.1)]
        assert all(b <= a + 1e-12 for a, b in zip(lns, lns[1:]))
