import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvdistill import (
    FluctuatingChannel,
    InvalidCovarianceError,
    discrete_channel,
    gaussian_log_negativity,
    herald,
    kerr_blocks,
    preset_config,
    pt_trace_norm,
    run_scenario,
    two_mode_cov,
)
from cvdistill.gaussian import (_PT_FORM, PHYS_TOL, kerr_variances, log_negativity_gradient,
                                pt_symplectic_spectrum)
from conftest import (beamsplitter, is_physical, kerr_source, loss, random_physical_state, rotation,
                      squeezed, stacked, symplectic_eigenvalues, symplectic_form, tensor, vacuum)


def kerr_cov(vs, va):
    """The source's covariance in closed form: the blocks of the one-level channel at t = 1."""
    return two_mode_cov(*kerr_blocks(vs, va, FluctuatingChannel([1.0], [1.0])))[0]


def two_mode_symplectic_eigenvalues_closed_form(cov):
    """Independent oracle: nu^2 = (Delta -/+ sqrt(Delta^2 - 4 det)) / 2."""
    a = np.linalg.det(cov[:2, :2])
    b = np.linalg.det(cov[2:, 2:])
    c = np.linalg.det(cov[:2, 2:])
    delta = a + b + 2.0 * c
    disc = np.sqrt(max(delta**2 - 4.0 * np.linalg.det(cov), 0.0))
    return np.sqrt((delta - disc) / 2.0), np.sqrt((delta + disc) / 2.0)


class TestSymplecticForm:
    def test_blocks(self):
        expected = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
        assert_allclose(symplectic_form(2), expected)
        # The partial transpose's form is the symplectic form with mode B's block negated.
        assert np.array_equal(_PT_FORM, symplectic_form(2) * np.array([1.0, 1.0, -1.0, -1.0]))

    def test_built_once_and_read_only(self):
        with pytest.raises(ValueError):
            _PT_FORM[0, 1] = 2.0
        assert _PT_FORM[0, 1] == 1.0


class TestSymplecticEigenvalues:
    def test_two_vacuum_modes(self):
        assert_allclose(symplectic_eigenvalues(np.eye(4)), [1.0, 1.0])

    def test_single_mode_thermal(self):
        assert_allclose(symplectic_eigenvalues(np.diag([3.0, 3.0])), [3.0])

    def test_kerr_state_against_closed_form(self):
        _, cov = kerr_source(0.5904, 125.0)
        nu = symplectic_eigenvalues(cov)
        lo, hi = two_mode_symplectic_eigenvalues_closed_form(cov)
        assert_allclose(nu, [lo, hi], rtol=1e-12)
        # both equal sqrt(Vs*Va) for this construction
        assert_allclose(nu, np.sqrt(0.5904 * 125.0) * np.ones(2), rtol=1e-12)

    def test_random_states_match_closed_form(self):
        rng = np.random.default_rng(1)
        covs = [random_physical_state(rng, 2)[1] for _ in range(20)]
        for cov in covs:
            lo, hi = two_mode_symplectic_eigenvalues_closed_form(cov)
            assert_allclose(symplectic_eigenvalues(cov), [lo, hi], rtol=1e-9)
        stack = symplectic_eigenvalues(np.array(covs))
        assert stack.shape == (20, 2)
        for cov, spectrum in zip(covs, stack):
            assert np.array_equal(spectrum, symplectic_eigenvalues(cov))

    def test_rejects_asymmetric(self):
        bad = np.eye(4)
        bad[0, 1] = 0.5
        with pytest.raises(InvalidCovarianceError):
            symplectic_eigenvalues(bad)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(InvalidCovarianceError):
            symplectic_eigenvalues(np.diag([1.0, -1.0, 1.0, 1.0]))


class TestValidatePhysical:
    def test_vacuum(self):
        assert is_physical(vacuum(2)[1]) is True

    def test_below_uncertainty_limit(self):
        assert is_physical(np.diag([0.5, 0.5])) is False

    def test_pure_squeezed(self):
        assert is_physical(np.diag([0.5, 2.0])) is True

    def test_one_verdict_per_stacked_state(self):
        covs = np.array([np.eye(2), np.diag([0.5, 0.5]), np.diag([0.5, 2.0])])
        assert is_physical(covs).tolist() == [True, False, True]


class TestLogNegativity:
    def test_two_mode_vacuum_is_zero(self):
        assert gaussian_log_negativity(np.eye(4)) == pytest.approx(0.0, abs=1e-12)

    def test_pure_entangled_closed_form(self):
        vs = 0.5904
        ln = gaussian_log_negativity(kerr_cov(vs, 1.0 / vs))
        assert ln == pytest.approx(-np.log2(vs), abs=1e-12)
        assert ln == pytest.approx(0.76, abs=0.08)

    def test_closed_form_holds_across_parameters(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            vs = rng.uniform(0.2, 1.0)
            va = rng.uniform(1.0 / vs, 50.0 / vs)
            ln = gaussian_log_negativity(kerr_cov(vs, va))
            assert ln == pytest.approx(-np.log2(vs), abs=1e-9)

    def test_negative_values_not_clamped(self):
        # strong uncorrelated thermal noise on both modes: Gaussian fit is separable
        cov = np.diag([9.0, 9.0, 9.0, 9.0])
        assert gaussian_log_negativity(cov) == pytest.approx(-np.log2(9.0), abs=1e-12)

    def test_invariant_under_local_phase_rotations(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            state = random_physical_state(rng, 2)
            ln = gaussian_log_negativity(state[1])
            _, rotated = rotation(state, int(rng.integers(2)), rng.uniform(0, 2 * np.pi))
            assert gaussian_log_negativity(rotated) == pytest.approx(ln, abs=1e-9)

    def test_rejects_wrong_mode_count(self):
        with pytest.raises(ValueError):
            gaussian_log_negativity(np.eye(6))

    def test_rejects_rank_deficient_sample_covariances(self):
        # The sample covariance of 3 points in 4 dimensions has rank 2; its zero
        # eigenvalues round to +-1e-16, and a sign test alone let them through.
        rng = np.random.default_rng(0)
        for _ in range(200):
            cov = np.cov(rng.standard_normal((3, 4)), rowvar=False)
            for check in (gaussian_log_negativity, symplectic_eigenvalues, pt_symplectic_spectrum):
                with pytest.raises(InvalidCovarianceError, match="positive definite"):
                    check(cov)

    @pytest.mark.parametrize("name", ["perfect", "discrete", "semicontinuous"])
    def test_presets_physical_covariances_pass(self, name):
        report = run_scenario(preset_config(name))
        values = [report.ln_source, report.ln_before, report.upper_bound]
        values += [row["analytic"]["gaussian_ln"] for row in report.thresholds]
        assert all(row["error"] is None for row in report.thresholds)
        assert np.all(np.isfinite(values))

    def test_rejects_malformed_covariances(self):
        asymmetric = np.eye(4)
        asymmetric[0, 2] = 0.5
        singular = np.eye(4)
        singular[3, 3] = 0.0
        for bad in (asymmetric, singular):
            with pytest.raises(InvalidCovarianceError):
                gaussian_log_negativity(bad)
        for bad in (np.eye(2), np.eye(6), np.eye(3)):
            with pytest.raises(ValueError):
                gaussian_log_negativity(bad)


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_entries(self, value):
        # Every comparison with NaN is False, so a NaN entry passed the symmetry
        # and eigenvalue tests and reached numpy's LinAlgError; inf did the same.
        checks = (symplectic_eigenvalues, is_physical, gaussian_log_negativity,
                  pt_symplectic_spectrum)
        for entry in [(0, 0), (1, 2)]:
            cov = np.eye(4)
            cov[entry] = value
            for check in checks:
                with pytest.raises(InvalidCovarianceError, match="NaN or infinite"):
                    check(cov)
            with pytest.raises(InvalidCovarianceError, match="NaN or infinite"):
                symplectic_eigenvalues(np.stack([np.eye(4), cov]))
        # An empty stack, as a sweep with no moment row gives, has nothing to reject.
        assert [a.shape for a in pt_symplectic_spectrum(np.zeros((0, 4, 4)))] == [(0,), (0,)]


class TestLogNegativityGradient:
    @staticmethod
    def central_difference(cov, h=1e-5):
        grad = np.zeros((4, 4))
        for j in range(4):
            for k in range(j, 4):
                step = np.zeros((4, 4))
                step[j, k] = step[k, j] = h
                diff = gaussian_log_negativity(cov + step) - gaussian_log_negativity(cov - step)
                grad[j, k] = grad[k, j] = diff / (2 * h) / (1 if j == k else 2)
        return grad

    def test_matches_central_difference(self, discrete_levels, discrete_tapped):
        covs = list(discrete_levels)
        covs.append(np.einsum("i,ijk->jk", discrete_channel().probabilities, discrete_levels))
        covs += list(herald(discrete_tapped, [0.0, 4.0, 9.0]).pooled_cov)
        rng = np.random.default_rng(14)
        covs += [random_physical_state(rng, 2)[1] for _ in range(20)]
        for cov in covs:
            grad = log_negativity_gradient(cov)
            assert_allclose(grad, grad.T, rtol=0, atol=1e-15 * np.abs(grad).max())
            assert_allclose(
                grad, self.central_difference(cov), rtol=1e-6, atol=1e-9 * np.abs(grad).max()
            )

    def test_stack_gives_each_matrix_its_gradient(self, discrete_levels, discrete_tapped):
        covs = np.concatenate([herald(discrete_tapped, [0.0, 4.0, 9.0]).pooled_cov,
                               discrete_levels])
        stacked = log_negativity_gradient(covs)
        assert stacked.shape == covs.shape
        for cov, grad in zip(covs, stacked):
            assert_allclose(grad, log_negativity_gradient(cov), rtol=1e-14, atol=0)


class TestPtTraceNorm:
    def test_two_mode_vacuum(self):
        assert pt_trace_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_consistency_with_log_negativity(self, calibrated_source):
        ln = gaussian_log_negativity(calibrated_source[1])
        assert ln == pytest.approx(0.76, abs=1e-6)
        assert pt_trace_norm(calibrated_source[1]) == pytest.approx(2.0**ln, rel=1e-9)

    def test_separable_states_give_exactly_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            # product of noisy single-mode states: PT spectrum stays >= 1
            _, cov = tensor(random_physical_state(rng, 1), random_physical_state(rng, 1))
            assert pt_trace_norm(cov) == 1.0

    def test_at_least_one_everywhere(self):
        rng = np.random.default_rng(5)
        covs = [random_physical_state(rng, 2)[1] for _ in range(50)]
        for cov in covs:
            norm = pt_trace_norm(cov)
            assert norm >= 1.0
            flip = np.diag([1.0, 1.0, 1.0, -1.0])
            nu = symplectic_eigenvalues(flip @ cov @ flip)
            assert_allclose(np.sqrt(pt_symplectic_spectrum(cov)), nu, rtol=1e-12)
            if np.sum(nu < 1.0) == 1:
                assert norm == pytest.approx(2.0 ** gaussian_log_negativity(cov), rel=1e-9)
        assert_allclose(pt_trace_norm(np.array(covs)), [pt_trace_norm(c) for c in covs], rtol=1e-15)


class TestBeamsplitter:
    """The reference beam splitter."""

    def test_full_transmission_is_identity(self):
        rng = np.random.default_rng(6)
        mean, cov = random_physical_state(rng, 2)
        out_mean, out_cov = beamsplitter((mean, cov), 0, 1, 1.0)
        assert_allclose(out_cov, cov, atol=1e-12)
        assert_allclose(out_mean, mean, atol=1e-12)

    def test_vacuum_invariant(self):
        _, cov = beamsplitter(vacuum(2), 0, 1, 0.3)
        assert_allclose(cov, np.eye(4), atol=1e-12)

    def test_balanced_mixing_of_squeezed_inputs(self):
        vs, va = 0.5904, 1.0 / 0.5904
        _, cov = beamsplitter(tensor(squeezed(vs, va), squeezed(va, vs)), 1, 0, 0.5)
        s = (vs + va) / 2.0
        expected = np.diag([s, s, s, s])
        expected[0, 2] = expected[2, 0] = (vs - va) / 2.0
        expected[1, 3] = expected[3, 1] = (va - vs) / 2.0
        assert_allclose(cov, expected, atol=1e-12)
        assert_allclose(kerr_cov(vs, va), expected, atol=1e-12)

    def test_matches_explicit_symplectic_conjugation(self):
        rng = np.random.default_rng(7)
        state = random_physical_state(rng, 3)
        t = 0.37
        _, out = beamsplitter(state, 2, 0, t)
        s = np.eye(6)
        st, sr = np.sqrt(t), np.sqrt(1 - t)
        for off in (0, 1):
            s[0 + off, 0 + off] = st
            s[0 + off, 4 + off] = -sr
            s[4 + off, 4 + off] = st
            s[4 + off, 0 + off] = sr
        assert_allclose(out, s @ state[1] @ s.T, atol=1e-12)
        # A stack is transformed state by state, with the same arithmetic.
        states = [state] + [random_physical_state(rng, 3) for _ in range(2)]
        stack = beamsplitter(stacked(*states), 2, 0, t)
        for i, one in enumerate(states):
            alone = beamsplitter(one, 2, 0, t)
            assert np.array_equal(stack[1][i], alone[1])
            assert np.array_equal(stack[0][i], alone[0])

    def test_preserves_symplectic_spectrum(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            state = random_physical_state(rng, 2)
            before = symplectic_eigenvalues(state[1])
            after = symplectic_eigenvalues(beamsplitter(state, 0, 1, rng.uniform(0, 1))[1])
            assert_allclose(after, before, atol=1e-9)

    def test_parameter_validation(self):
        state = vacuum(2)
        for args in ((0, 1, 1.5), (1, 1, 0.5), (0, 2, 0.5)):
            with pytest.raises(ValueError):
                beamsplitter(state, *args)


class TestLoss:
    """The reference loss, and the closed form's levels against it."""

    def test_eta_one_is_identity(self):
        rng = np.random.default_rng(9)
        state = random_physical_state(rng, 2)
        assert_allclose(loss(state, 1, 1.0)[1], state[1], atol=1e-12)

    def test_vacuum_fixed_point(self):
        assert_allclose(loss(vacuum(2), 0, 0.4)[1], np.eye(4), atol=1e-12)

    def test_quarter_transmission_blocks(self, calibration, calibrated_source):
        s = (calibration.v_squeezed + calibration.v_antisqueezed) / 2.0
        _, cov = loss(calibrated_source, 1, 0.25)
        assert_allclose(np.diag(cov)[2:], 0.25 * s + 0.75, rtol=1e-12)
        assert_allclose(cov[:2, 2:], 0.5 * calibrated_source[1][:2, 2:], atol=1e-12)
        closed = two_mode_cov(*kerr_blocks(calibration.v_squeezed, calibration.v_antisqueezed,
                                           FluctuatingChannel([0.25], [1.0])))[0]
        assert_allclose(closed, cov, rtol=0, atol=1e-13 * np.abs(cov).max())

    def test_equals_beamsplitter_with_ancilla(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n_modes = int(rng.integers(1, 4))
            state = random_physical_state(rng, n_modes)
            mode = int(rng.integers(n_modes))
            eta = rng.choice([0.0, 0.25, 0.5, 0.93, 1.0])
            direct = loss(state, mode, eta)
            extended = beamsplitter(tensor(state, vacuum(1)), n_modes, mode, eta)
            kept = slice(0, 2 * n_modes)
            assert_allclose(direct[1], extended[1][kept, kept], atol=1e-12)
            assert_allclose(direct[0], extended[0][kept], atol=1e-12)

    def test_stacked_inputs_act_level_by_level(self):
        rng = np.random.default_rng(16)
        states = [random_physical_state(rng, 2) for _ in range(4)]
        etas = np.array([0.0, 0.25, 0.93, 1.0])
        stack = stacked(*states)
        # A stack with one eta, one state with one eta per level, a stack with one per level.
        cases = [(loss(stack, 1, 0.25), [(s, 0.25) for s in states]),
                 (loss(states[0], 1, etas), [(states[0], e) for e in etas]),
                 (loss(stack, 1, etas), list(zip(states, etas)))]
        for (mean, cov), pairs in cases:
            assert mean.shape == (4, 4) and cov.shape == (4, 4, 4)
            for i, (state, eta) in enumerate(pairs):
                alone = loss(state, 1, float(eta))
                assert np.array_equal(cov[i], alone[1])
                assert np.array_equal(mean[i], alone[0])
        # A stack against a single state in either order, joined level by level.
        vac = vacuum(1)
        for joined, order in ((tensor(stack, vac), 0), (tensor(vac, stack), 1)):
            assert joined[1].shape == (4, 6, 6)
            for i, state in enumerate(states):
                alone = tensor(state, vac) if order == 0 else tensor(vac, state)
                assert np.array_equal(joined[1][i], alone[1])
                assert np.array_equal(joined[0][i], alone[0])

    def test_every_output_physical(self, calibration):
        rng = np.random.default_rng(11)
        for _ in range(30):
            state = random_physical_state(rng, 2)
            assert is_physical(loss(state, int(rng.integers(2)), rng.uniform(0, 1))[1])
        # Every level of the closed form is physical: loss keeps a state physical.
        channel = FluctuatingChannel(np.linspace(0.0, 1.0, 41), np.full(41, 1.0 / 41))
        covs = two_mode_cov(*kerr_blocks(calibration.v_squeezed, calibration.v_antisqueezed,
                                         channel))
        assert np.all(is_physical(covs))

    def test_eta_validation(self):
        for bad in (-0.1, 1.1, [0.5, 1.1], [0.5, np.nan], [[0.5]]):
            with pytest.raises(ValueError, match="eta must lie"):
                loss(vacuum(1), 0, bad)


class TestMakeKerrEntangled:
    """The closed-form source against the reference's squeezed beams on a 50/50 beam splitter."""

    def test_unsqueezed_inputs_give_vacuum(self):
        mean, cov = kerr_source(1.0, 1.0)
        assert_allclose(cov, np.eye(4), atol=1e-12)
        assert_allclose(mean, np.zeros(4), atol=1e-12)
        assert np.array_equal(kerr_cov(1.0, 1.0), np.eye(4))

    def test_joint_quadratures_squeezed(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            vs = rng.uniform(0.2, 1.0)
            va = rng.uniform(1.0 / vs, 100.0)
            for cov in (kerr_cov(vs, va), kerr_source(vs, va)[1]):
                var_sum = cov[0, 0] + cov[2, 2] + 2 * cov[0, 2]
                var_diff = cov[1, 1] + cov[3, 3] - 2 * cov[1, 3]
                assert var_sum == pytest.approx(2 * vs, rel=1e-12)
                assert var_diff == pytest.approx(2 * vs, rel=1e-12)

    def test_rejects_unphysical_inputs(self):
        for vs, va in ((1.2, 2.0), (0.5, 0.9), (0.5, 1.5)):  # the last: product < 1
            with pytest.raises(ValueError):
                kerr_source(vs, va)
            with pytest.raises(ValueError):
                kerr_blocks(vs, va, discrete_channel())

    def test_output_physical(self, calibration, calibrated_source):
        assert is_physical(calibrated_source[1])
        assert is_physical(kerr_cov(calibration.v_squeezed, calibration.v_antisqueezed))

    def test_thermal_marginal(self, calibration, calibrated_source):
        s = (calibration.v_squeezed + calibration.v_antisqueezed) / 2.0
        assert_allclose(calibrated_source[1][2:, 2:], np.diag([s, s]), atol=1e-12)
        cov = kerr_cov(calibration.v_squeezed, calibration.v_antisqueezed)
        assert np.array_equal(cov[2:, 2:], np.diag([s, s]))


class TestKerrVariances:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("which", ["squeezed", "antisqueezed"])
    def test_rejects_non_finite(self, which, value):
        # NaN compares False with every bound and inf meets "va >= 1": only
        # an explicit finiteness test rejects them as an antisqueezed variance.
        args = (value, 2.0) if which == "squeezed" else (0.5, value)
        with pytest.raises(ValueError, match="must"):
            kerr_variances(*args)

    def test_product_rule_is_exact(self):
        # Accepted exactly when Vs * Va >= 1 - PHYS_TOL, however strong the squeezing.
        for va in 10.0 ** np.arange(0.0, 15.25, 0.25):
            pure = 1.0 / va
            for vs in (pure, np.nextafter(pure, 0.0), np.nextafter(pure, 2.0), 0.5, 1.0):
                ok = vs <= 1.0 and vs * va >= 1.0 - PHYS_TOL
                try:
                    assert kerr_variances(vs, va) == (vs, va) and ok
                except ValueError:
                    assert not ok
