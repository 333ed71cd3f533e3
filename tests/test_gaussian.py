import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvdistill import (
    GaussianState,
    InvalidCovarianceError,
    apply_beamsplitter,
    apply_loss,
    gaussian_log_negativity,
    herald,
    make_kerr_entangled,
    pooled_cm,
    pt_trace_norm,
    squeezed_state,
    symplectic_eigenvalues,
    tensor,
    vacuum_state,
    validate_physical,
)
from cvdistill.gaussian import log_negativity_gradient, pt_symplectic_spectrum, symplectic_form
from conftest import apply_phase_rotation, random_physical_state


def two_mode_symplectic_eigenvalues_closed_form(cov):
    """Independent oracle: nu^2 = (Delta -/+ sqrt(Delta^2 - 4 det)) / 2."""
    a = np.linalg.det(cov[:2, :2])
    b = np.linalg.det(cov[2:, 2:])
    c = np.linalg.det(cov[:2, 2:])
    delta = a + b + 2.0 * c
    disc = np.sqrt(max(delta**2 - 4.0 * np.linalg.det(cov), 0.0))
    return np.sqrt((delta - disc) / 2.0), np.sqrt((delta + disc) / 2.0)


class TestGaussianState:
    def test_symmetrizes_on_construction(self):
        cov = np.eye(2)
        cov[0, 1] = 1e-12  # below tolerance, symmetrized away
        state = GaussianState(np.zeros(2), cov)
        assert state.cov[0, 1] == state.cov[1, 0]

    def test_rejects_asymmetric(self):
        cov = np.eye(2)
        cov[0, 1] = 1e-3
        with pytest.raises(InvalidCovarianceError):
            GaussianState(np.zeros(2), cov)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            GaussianState(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError):
            GaussianState(np.zeros(2), np.eye(4))

    def test_n_modes(self):
        assert vacuum_state(3).n_modes == 3


class TestSymplecticForm:
    def test_blocks(self):
        expected = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
        assert_allclose(symplectic_form(2), expected)

    def test_built_once_and_read_only(self):
        omega = symplectic_form(3)
        assert symplectic_form(3) is omega
        with pytest.raises(ValueError):
            omega[0, 1] = 2.0
        assert omega[0, 1] == 1.0


class TestSymplecticEigenvalues:
    def test_two_vacuum_modes(self):
        assert_allclose(symplectic_eigenvalues(np.eye(4)), [1.0, 1.0])

    def test_single_mode_thermal(self):
        assert_allclose(symplectic_eigenvalues(np.diag([3.0, 3.0])), [3.0])

    def test_kerr_state_against_closed_form(self):
        cov = make_kerr_entangled(0.5904, 125.0).cov
        nu = symplectic_eigenvalues(cov)
        lo, hi = two_mode_symplectic_eigenvalues_closed_form(cov)
        assert_allclose(nu, [lo, hi], rtol=1e-12)
        # both equal sqrt(Vs*Va) for this construction
        assert_allclose(nu, np.sqrt(0.5904 * 125.0) * np.ones(2), rtol=1e-12)

    def test_random_states_match_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            cov = random_physical_state(rng, 2).cov
            lo, hi = two_mode_symplectic_eigenvalues_closed_form(cov)
            assert_allclose(symplectic_eigenvalues(cov), [lo, hi], rtol=1e-9)

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
        assert validate_physical(vacuum_state(2)) is True

    def test_below_uncertainty_limit(self):
        assert validate_physical(GaussianState(np.zeros(2), np.diag([0.5, 0.5]))) is False

    def test_pure_squeezed(self):
        assert validate_physical(GaussianState(np.zeros(2), np.diag([0.5, 2.0]))) is True


class TestLogNegativity:
    def test_two_mode_vacuum_is_zero(self):
        assert gaussian_log_negativity(vacuum_state(2)) == pytest.approx(0.0, abs=1e-12)

    def test_pure_entangled_closed_form(self):
        vs = 0.5904
        state = make_kerr_entangled(vs, 1.0 / vs)
        ln = gaussian_log_negativity(state)
        assert ln == pytest.approx(-np.log2(vs), abs=1e-12)
        assert ln == pytest.approx(0.76, abs=0.08)

    def test_closed_form_holds_across_parameters(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            vs = rng.uniform(0.2, 1.0)
            va = rng.uniform(1.0 / vs, 50.0 / vs)
            state = make_kerr_entangled(vs, va)
            assert gaussian_log_negativity(state) == pytest.approx(-np.log2(vs), abs=1e-9)

    def test_negative_values_not_clamped(self):
        # strong uncorrelated thermal noise on both modes: Gaussian fit is separable
        state = GaussianState(np.zeros(4), np.diag([9.0, 9.0, 9.0, 9.0]))
        assert gaussian_log_negativity(state) == pytest.approx(-np.log2(9.0), abs=1e-12)

    def test_invariant_under_local_phase_rotations(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            state = random_physical_state(rng, 2)
            ln = gaussian_log_negativity(state)
            rotated = apply_phase_rotation(state, int(rng.integers(2)), rng.uniform(0, 2 * np.pi))
            assert gaussian_log_negativity(rotated) == pytest.approx(ln, abs=1e-9)

    def test_rejects_wrong_mode_count(self):
        with pytest.raises(ValueError):
            gaussian_log_negativity(vacuum_state(3))

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

    def test_matches_central_difference(self, discrete_mixture, discrete_tapped):
        covs = [s.cov for s in discrete_mixture.states]
        covs.append(pooled_cm(discrete_mixture)[1])
        covs += [herald(discrete_tapped, t).pooled_cov for t in (0.0, 4.0, 9.0)]
        rng = np.random.default_rng(14)
        covs += [random_physical_state(rng, 2).cov for _ in range(20)]
        for cov in covs:
            grad = log_negativity_gradient(cov)
            assert_allclose(grad, grad.T, rtol=0, atol=1e-15 * np.abs(grad).max())
            assert_allclose(
                grad, self.central_difference(cov), rtol=1e-6, atol=1e-9 * np.abs(grad).max()
            )


class TestPtTraceNorm:
    def test_two_mode_vacuum(self):
        assert pt_trace_norm(vacuum_state(2)) == pytest.approx(1.0, abs=1e-12)

    def test_consistency_with_log_negativity(self, calibrated_source):
        ln = gaussian_log_negativity(calibrated_source)
        assert ln == pytest.approx(0.76, abs=1e-6)
        assert pt_trace_norm(calibrated_source) == pytest.approx(2.0**ln, rel=1e-9)

    def test_separable_states_give_exactly_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            # product of noisy single-mode states: PT spectrum stays >= 1
            state = tensor(random_physical_state(rng, 1), random_physical_state(rng, 1))
            assert pt_trace_norm(state) == 1.0

    def test_at_least_one_everywhere(self):
        rng = np.random.default_rng(5)
        states = [random_physical_state(rng, 2) for _ in range(50)]
        for state in states:
            norm = pt_trace_norm(state)
            assert norm >= 1.0
            flip = np.diag([1.0, 1.0, 1.0, -1.0])
            nu = symplectic_eigenvalues(flip @ state.cov @ flip)
            assert_allclose(np.sqrt(pt_symplectic_spectrum(state.cov)), nu, rtol=1e-12)
            if np.sum(nu < 1.0) == 1:
                assert norm == pytest.approx(
                    2.0 ** gaussian_log_negativity(state), rel=1e-9
                )
        stacked = pt_trace_norm(np.array([s.cov for s in states]))
        assert_allclose(stacked, [pt_trace_norm(s) for s in states], rtol=1e-15)


class TestBeamsplitter:
    def test_full_transmission_is_identity(self):
        rng = np.random.default_rng(6)
        state = random_physical_state(rng, 2)
        out = apply_beamsplitter(state, 0, 1, 1.0)
        assert_allclose(out.cov, state.cov, atol=1e-12)
        assert_allclose(out.mean, state.mean, atol=1e-12)

    def test_vacuum_invariant(self):
        out = apply_beamsplitter(vacuum_state(2), 0, 1, 0.3)
        assert_allclose(out.cov, np.eye(4), atol=1e-12)

    def test_balanced_mixing_of_squeezed_inputs(self):
        vs, va = 0.5904, 1.0 / 0.5904
        inputs = tensor(squeezed_state(vs, va), squeezed_state(va, vs))
        out = apply_beamsplitter(inputs, mode_a=1, mode_b=0, transmittance=0.5)
        s = (vs + va) / 2.0
        expected = np.diag([s, s, s, s])
        expected[0, 2] = expected[2, 0] = (vs - va) / 2.0
        expected[1, 3] = expected[3, 1] = (va - vs) / 2.0
        assert_allclose(out.cov, expected, atol=1e-12)

    def test_matches_explicit_symplectic_conjugation(self):
        rng = np.random.default_rng(7)
        state = random_physical_state(rng, 3)
        t = 0.37
        out = apply_beamsplitter(state, 2, 0, t)
        s = np.eye(6)
        st, sr = np.sqrt(t), np.sqrt(1 - t)
        for off in (0, 1):
            s[0 + off, 0 + off] = st
            s[0 + off, 4 + off] = -sr
            s[4 + off, 4 + off] = st
            s[4 + off, 0 + off] = sr
        assert_allclose(out.cov, s @ state.cov @ s.T, atol=1e-12)

    def test_preserves_symplectic_spectrum(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            state = random_physical_state(rng, 2)
            before = symplectic_eigenvalues(state.cov)
            after = symplectic_eigenvalues(
                apply_beamsplitter(state, 0, 1, rng.uniform(0, 1)).cov
            )
            assert_allclose(after, before, atol=1e-9)

    def test_parameter_validation(self):
        state = vacuum_state(2)
        with pytest.raises(ValueError):
            apply_beamsplitter(state, 0, 1, 1.5)
        with pytest.raises(ValueError):
            apply_beamsplitter(state, 1, 1, 0.5)
        with pytest.raises(ValueError):
            apply_beamsplitter(state, 0, 2, 0.5)


class TestLoss:
    def test_eta_one_is_identity(self):
        rng = np.random.default_rng(9)
        state = random_physical_state(rng, 2)
        out = apply_loss(state, 1, 1.0)
        assert_allclose(out.cov, state.cov, atol=1e-12)

    def test_vacuum_fixed_point(self):
        out = apply_loss(vacuum_state(2), 0, 0.4)
        assert_allclose(out.cov, np.eye(4), atol=1e-12)

    def test_quarter_transmission_blocks(self, calibration, calibrated_source):
        s = (calibration.v_squeezed + calibration.v_antisqueezed) / 2.0
        out = apply_loss(calibrated_source, 1, 0.25)
        assert_allclose(np.diag(out.cov)[2:], 0.25 * s + 0.75, rtol=1e-12)
        assert_allclose(out.cov[:2, 2:], 0.5 * calibrated_source.cov[:2, 2:], atol=1e-12)

    def test_equals_beamsplitter_with_ancilla(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n_modes = int(rng.integers(1, 4))
            state = random_physical_state(rng, n_modes)
            mode = int(rng.integers(n_modes))
            eta = rng.choice([0.0, 0.25, 0.5, 0.93, 1.0])
            direct = apply_loss(state, mode, eta)
            extended = apply_beamsplitter(
                tensor(state, vacuum_state(1)), mode_a=n_modes, mode_b=mode, transmittance=eta
            )
            kept = slice(0, 2 * n_modes)
            assert_allclose(direct.cov, extended.cov[kept, kept], atol=1e-12)
            assert_allclose(direct.mean, extended.mean[kept], atol=1e-12)

    def test_every_output_physical(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            state = random_physical_state(rng, 2)
            out = apply_loss(state, int(rng.integers(2)), rng.uniform(0, 1))
            assert validate_physical(out)

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            apply_loss(vacuum_state(1), 0, -0.1)
        with pytest.raises(ValueError):
            apply_loss(vacuum_state(1), 0, 1.1)


class TestMakeKerrEntangled:
    def test_unsqueezed_inputs_give_vacuum(self):
        out = make_kerr_entangled(1.0, 1.0)
        assert_allclose(out.cov, np.eye(4), atol=1e-12)
        assert_allclose(out.mean, np.zeros(4), atol=1e-12)

    def test_joint_quadratures_squeezed(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            vs = rng.uniform(0.2, 1.0)
            va = rng.uniform(1.0 / vs, 100.0)
            cov = make_kerr_entangled(vs, va).cov
            var_sum = cov[0, 0] + cov[2, 2] + 2 * cov[0, 2]
            var_diff = cov[1, 1] + cov[3, 3] - 2 * cov[1, 3]
            assert var_sum == pytest.approx(2 * vs, rel=1e-12)
            assert var_diff == pytest.approx(2 * vs, rel=1e-12)

    def test_rejects_unphysical_inputs(self):
        with pytest.raises(ValueError):
            make_kerr_entangled(1.2, 2.0)
        with pytest.raises(ValueError):
            make_kerr_entangled(0.5, 0.9)
        with pytest.raises(ValueError):
            make_kerr_entangled(0.5, 1.5)  # product < 1

    def test_output_physical(self, calibrated_source):
        assert validate_physical(calibrated_source)

    def test_thermal_marginal(self, calibration, calibrated_source):
        s = (calibration.v_squeezed + calibration.v_antisqueezed) / 2.0
        assert_allclose(calibrated_source.cov[2:, 2:], np.diag([s, s]), atol=1e-12)

