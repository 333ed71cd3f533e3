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
    preset_config,
    pt_trace_norm,
    run_scenario,
    squeezed_state,
    symplectic_eigenvalues,
    tensor,
    vacuum_state,
    validate_physical,
)
from cvdistill.gaussian import log_negativity_gradient, pt_symplectic_spectrum, symplectic_form
from conftest import apply_phase_rotation, random_physical_state, stacked


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

    def test_stack_of_states(self):
        rng = np.random.default_rng(15)
        states = [random_physical_state(rng, 2) for _ in range(3)]
        stack = stacked(*states)
        assert stack.n_modes == 2 and stack.mean.shape == (3, 4) and stack.cov.shape == (3, 4, 4)
        for i, state in enumerate(states):
            assert np.array_equal(stack.mean[i], state.mean)
            assert np.array_equal(stack.cov[i], state.cov)
        with pytest.raises(ValueError):
            GaussianState(np.zeros((3, 4)), np.eye(4))
        with pytest.raises(ValueError):
            GaussianState(np.zeros((1, 3, 4)), np.zeros((1, 3, 4, 4)))


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
        covs = [random_physical_state(rng, 2).cov for _ in range(20)]
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
        assert validate_physical(vacuum_state(2)) is True

    def test_below_uncertainty_limit(self):
        assert validate_physical(GaussianState(np.zeros(2), np.diag([0.5, 0.5]))) is False

    def test_pure_squeezed(self):
        assert validate_physical(GaussianState(np.zeros(2), np.diag([0.5, 2.0]))) is True

    def test_one_verdict_per_stacked_state(self):
        covs = np.array([np.eye(2), np.diag([0.5, 0.5]), np.diag([0.5, 2.0])])
        assert validate_physical(covs).tolist() == [True, False, True]


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
        checks = (lambda cov: GaussianState(np.zeros(4), cov), symplectic_eigenvalues,
                  validate_physical, gaussian_log_negativity, pt_symplectic_spectrum)
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

    def test_matches_central_difference(self, discrete_mixture, discrete_tapped):
        covs = list(discrete_mixture.states.cov)
        covs.append(pooled_cm(discrete_mixture)[1])
        covs += list(herald(discrete_tapped, [0.0, 4.0, 9.0]).pooled_cov)
        rng = np.random.default_rng(14)
        covs += [random_physical_state(rng, 2).cov for _ in range(20)]
        for cov in covs:
            grad = log_negativity_gradient(cov)
            assert_allclose(grad, grad.T, rtol=0, atol=1e-15 * np.abs(grad).max())
            assert_allclose(
                grad, self.central_difference(cov), rtol=1e-6, atol=1e-9 * np.abs(grad).max()
            )

    def test_stack_gives_each_matrix_its_gradient(self, discrete_mixture, discrete_tapped):
        covs = np.concatenate([herald(discrete_tapped, [0.0, 4.0, 9.0]).pooled_cov,
                               discrete_mixture.states.cov])
        stacked = log_negativity_gradient(covs)
        assert stacked.shape == covs.shape
        for cov, grad in zip(covs, stacked):
            assert_allclose(grad, log_negativity_gradient(cov), rtol=1e-14, atol=0)


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
        # A stack is transformed state by state, with the same arithmetic.
        states = [state] + [random_physical_state(rng, 3) for _ in range(2)]
        stack = apply_beamsplitter(stacked(*states), 2, 0, t)
        for i, one in enumerate(states):
            alone = apply_beamsplitter(one, 2, 0, t)
            assert np.array_equal(stack.cov[i], alone.cov)
            assert np.array_equal(stack.mean[i], alone.mean)

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

    def test_stacked_inputs_act_level_by_level(self):
        rng = np.random.default_rng(16)
        states = [random_physical_state(rng, 2) for _ in range(4)]
        etas = np.array([0.0, 0.25, 0.93, 1.0])
        stack = stacked(*states)
        # A stack with one eta, one state with one eta per level, a stack with one per level.
        cases = [(apply_loss(stack, 1, 0.25), [(s, 0.25) for s in states]),
                 (apply_loss(states[0], 1, etas), [(states[0], e) for e in etas]),
                 (apply_loss(stack, 1, etas), list(zip(states, etas)))]
        for out, pairs in cases:
            assert out.mean.shape == (4, 4) and out.cov.shape == (4, 4, 4)
            for i, (state, eta) in enumerate(pairs):
                alone = apply_loss(state, 1, float(eta))
                assert np.array_equal(out.cov[i], alone.cov)
                assert np.array_equal(out.mean[i], alone.mean)
        # A stack against a single state in either order, joined level by level.
        vac = vacuum_state(1)
        for joined, order in ((tensor(stack, vac), 0), (tensor(vac, stack), 1)):
            assert joined.cov.shape == (4, 6, 6)
            for i, state in enumerate(states):
                alone = tensor(state, vac) if order == 0 else tensor(vac, state)
                assert np.array_equal(joined.cov[i], alone.cov)
                assert np.array_equal(joined.mean[i], alone.mean)
        with pytest.raises(ValueError):
            tensor(stack, stacked(vac, vac))

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
        for bad in ([0.5, 1.1], [0.5, np.nan], [[0.5]]):
            with pytest.raises(ValueError, match="eta must lie"):
                apply_loss(vacuum_state(1), 0, bad)


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

