import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvdistill import (
    ChannelLevel,
    FluctuatingChannel,
    GaussianState,
    MixtureState,
    TapConfig,
    apply_beamsplitter,
    apply_loss,
    attach_tap,
    calibrate_envelope,
    discrete_channel,
    envelope_exponential,
    envelope_fading,
    gaussian_log_negativity,
    pooled_cm,
    propagate,
    semicontinuous_levels,
    tensor,
    upper_bound_ln,
    vacuum_state,
    validate_physical,
)
from conftest import level, mixture, random_physical_state, stacked


VAC = vacuum_state(2)
UNPHYSICAL = GaussianState(np.zeros(4), np.diag([0.5, 0.5, 1.0, 1.0]))


def random_mixture(rng, n_comp, n_modes=2):
    weights = rng.dirichlet(np.ones(n_comp))
    weights /= weights.sum()
    comps = [(w, random_physical_state(rng, n_modes)) for w in weights]
    # fold rounding into the first weight so the sum is exactly 1
    total = sum(w for w, _ in comps)
    comps[0] = (comps[0][0] + (1.0 - total), comps[0][1])
    return mixture(comps)


class TestChannelTypes:
    def test_level_validation(self):
        with pytest.raises(ValueError):
            ChannelLevel(1.2, 0.5)
        with pytest.raises(ValueError):
            ChannelLevel(0.5, 0.0)

    def test_channel_requires_increasing_transmittance(self):
        with pytest.raises(ValueError):
            FluctuatingChannel([ChannelLevel(0.5, 0.5), ChannelLevel(0.5, 0.5)])

    def test_channel_requires_normalized_probabilities(self):
        with pytest.raises(ValueError):
            FluctuatingChannel([ChannelLevel(0.5, 0.3), ChannelLevel(1.0, 0.3)])

    def test_mixture_weight_validation(self):
        vac = vacuum_state(2)
        with pytest.raises(ValueError):
            mixture([(0.5, vac), (0.6, vac)])
        with pytest.raises(ValueError):
            mixture([(1.0, GaussianState(np.zeros(2), np.diag([0.5, 0.5])))])

    @pytest.mark.parametrize("weights, states, reason", [
        ([np.nan], stacked(VAC), "finite"),
        ([0.5, np.nan], stacked(VAC, VAC), "finite"),
        ([np.inf, 0.5], stacked(VAC, VAC), "finite"),
        ([1.0, 0.0], stacked(VAC, VAC), "positive"),
        ([1.5, -0.5], stacked(VAC, VAC), "positive"),
        ([0.5, 0.6], stacked(VAC, VAC), "sum to 1"),
        ([], stacked(VAC), "at least one"),
        ([0.5, 0.5], stacked(VAC, VAC, VAC), "2 weights but a stack"),
        ([1.0], VAC, "1 weights but a stack"),
        ([0.5, 0.5], stacked(VAC, UNPHYSICAL), "unphysical"),
    ], ids=["nan", "nan-second", "inf", "zero", "negative", "sum-1.1", "empty",
            "longer-stack", "unstacked-state", "unphysical-level"])
    def test_mixture_rejections(self, weights, states, reason):
        with pytest.raises(ValueError, match=reason):
            MixtureState(weights, states)

    @pytest.mark.parametrize("weights, reason", [
        ([0.5, np.nan], "finite"),
        ([np.inf, 0.5], "finite"),
        ([1.0, 0.0], "positive"),
        ([1.5, -0.5], "positive"),
        ([0.5, 0.6], "sum to 1"),
        ([1.0], "1 weights but a stack"),
    ], ids=["nan", "inf", "zero", "negative", "sum-1.1", "shorter"])
    def test_reweighted_rejections(self, weights, reason):
        mix = MixtureState([0.25, 0.75], stacked(VAC, VAC))
        with pytest.raises(ValueError, match=reason):
            mix.reweighted(weights)
        assert np.array_equal(mix.weights, [0.25, 0.75])

    def test_reweighted_checks_only_the_weights(self, monkeypatch):
        mix = MixtureState([0.25, 0.75], stacked(VAC, VAC))
        monkeypatch.setattr(sys.modules["cvdistill.channel"], "validate_physical", pytest.fail)
        again = mix.reweighted([0.5, 0.5])
        assert np.array_equal(again.weights, [0.5, 0.5]) and again.states is mix.states
        assert np.array_equal(mix.weights, [0.25, 0.75])


class TestDiscreteChannel:
    def test_levels(self):
        chan = discrete_channel()
        assert len(chan) == 2
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

    def test_fading_full_transmission_probability(self):
        chan = envelope_fading(0.3, p_full=0.2)
        assert chan.probabilities[-1] == pytest.approx(0.2, abs=1e-12)
        assert len(chan) == 45

    def test_fading_pure_floor_is_flat(self):
        chan = envelope_fading(1.0, p_full=0.2)
        assert_allclose(chan.probabilities[:-1], 0.8 / 44, rtol=1e-12)

    def test_envelopes_normalized(self):
        for chan in (envelope_exponential(4.6), envelope_fading(0.18)):
            assert chan.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


class TestPropagate:
    def test_trivial_channel(self, calibrated_source):
        chan = FluctuatingChannel([ChannelLevel(1.0, 1.0)])
        mix = propagate(calibrated_source, chan)
        assert len(mix) == 1
        assert_allclose(mix.states.cov[0], calibrated_source.cov, atol=1e-12)

    def test_discrete_weights(self, discrete_mixture):
        assert_allclose(discrete_mixture.weights, [0.5, 0.5])

    def test_component_count_matches_levels(self, calibrated_source):
        chan = envelope_fading(0.2)
        mix = propagate(calibrated_source, chan)
        assert len(mix) == len(chan)
        assert mix.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_components_physical(self, discrete_mixture):
        for i in range(len(discrete_mixture)):
            assert validate_physical(level(discrete_mixture, i))

    def test_stacked_levels_equal_single_state_operations(self, calibration, calibrated_source):
        # The calibrated semi-continuous preset: every level of the stacked
        # loss and tap equals the one-state operation bit for bit.
        _, chan = calibrate_envelope(calibration.v_squeezed, calibration.v_antisqueezed)
        mix = propagate(calibrated_source, chan)
        tapped = attach_tap(mix, TapConfig())
        assert len(mix) == len(tapped) == 45
        for i, t in enumerate(chan.transmittances.tolist()):
            lossy = apply_loss(calibrated_source, 1, t)
            tap = apply_beamsplitter(tensor(lossy, vacuum_state(1)), 2, 1,
                                     1.0 - TapConfig().reflectivity)
            for single, stack in ((lossy, mix.states), (tap, tapped.states)):
                assert np.array_equal(stack.mean[i], single.mean)
                assert np.array_equal(stack.cov[i], single.cov)

    def test_acts_on_requested_mode(self, calibrated_source):
        chan = FluctuatingChannel([ChannelLevel(0.25, 1.0)])
        mix = propagate(calibrated_source, chan, mode=0)
        expected = apply_loss(calibrated_source, 0, 0.25)
        assert_allclose(mix.states.cov[0], expected.cov, atol=1e-12)


class TestPooledCm:
    def test_single_component(self, calibrated_source):
        mix = mixture([(1.0, calibrated_source)])
        mean, cov = pooled_cm(mix)
        assert_allclose(mean, calibrated_source.mean, atol=1e-15)
        assert_allclose(cov, calibrated_source.cov, atol=1e-12)

    def test_two_identical_components(self, calibrated_source):
        mix = mixture([(0.5, calibrated_source), (0.5, calibrated_source)])
        _, cov = pooled_cm(mix)
        assert_allclose(cov, calibrated_source.cov, atol=1e-12)

    def test_mean_spread_term(self):
        # two displaced vacua: pooled cov picks up the between-component spread
        a = GaussianState([2.0, 0.0], np.eye(2))
        b = GaussianState([-2.0, 0.0], np.eye(2))
        mean, cov = pooled_cm(mixture([(0.5, a), (0.5, b)]))
        assert_allclose(mean, [0.0, 0.0], atol=1e-15)
        assert_allclose(cov, np.diag([5.0, 1.0]), atol=1e-12)

    def test_calibrated_discrete_mixture_ln(self, discrete_mixture):
        _, cov = pooled_cm(discrete_mixture)
        assert gaussian_log_negativity(cov) == pytest.approx(-1.63, abs=1e-4)

    def test_positive_definite_for_random_mixtures(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            _, cov = pooled_cm(random_mixture(rng, int(rng.integers(1, 5))))
            assert_allclose(cov, cov.T, atol=1e-12)
            assert np.linalg.eigvalsh(cov).min() > 0


class TestUpperBound:
    def test_single_separable_component(self):
        mix = mixture([(1.0, vacuum_state(2))])
        assert upper_bound_ln(mix) == pytest.approx(0.0, abs=1e-12)

    def test_tight_for_single_entangled_component(self, calibrated_source):
        mix = mixture([(1.0, calibrated_source)])
        ln = gaussian_log_negativity(calibrated_source)
        assert upper_bound_ln(mix) == pytest.approx(ln, rel=1e-9)

    def test_calibrated_discrete_value(self, discrete_mixture):
        assert upper_bound_ln(discrete_mixture) == pytest.approx(0.49, abs=0.08)

    def test_never_negative_and_dominates_gaussian_fit(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            mix = random_mixture(rng, int(rng.integers(1, 5)))
            bound = upper_bound_ln(mix)
            _, cov = pooled_cm(mix)
            assert bound >= -1e-12
            assert bound >= gaussian_log_negativity(cov) - 1e-9


class TestLossMonotonicity:
    def test_single_level_ln_non_increasing_in_loss(self, calibrated_source):
        lns = []
        for t in np.arange(1.0, 0.05, -0.1):
            chan = FluctuatingChannel([ChannelLevel(float(t), 1.0)])
            _, cov = pooled_cm(propagate(calibrated_source, chan))
            lns.append(gaussian_log_negativity(cov))
        assert all(b <= a + 1e-12 for a, b in zip(lns, lns[1:]))
