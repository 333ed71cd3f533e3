import mpmath
import numpy as np
import pytest

from cvdistill import (FluctuatingChannel, TapConfig, TapModel, attach_tap, calibrate,
                       discrete_channel, kerr_blocks, two_mode_cov)
from cvdistill.gaussian import PHYS_TOL, _check_covariance, kerr_variances
from cvdistill.mc.engine import PAIRS


# The reference construction of the optical layout, on n-mode Gaussian states
# held as (mean, cov) array pairs: mean (2n,) and cov (2n, 2n), or (L, 2n) and
# (L, 2n, 2n) for a stack of L states of one mode count. Quadratures are
# interleaved (X1, P1, X2, P2, ...). The closed forms of cvdistill.channel and
# cvdistill.distill are tested against it.


def vacuum(n_modes):
    """The n-mode vacuum: zero mean, identity covariance."""
    return np.zeros(2 * n_modes), np.eye(2 * n_modes)


def squeezed(var_x, var_p):
    """Single-mode state with uncorrelated quadrature variances; ValueError unless physical."""
    if var_x <= 0 or var_p <= 0 or var_x * var_p < 1.0 - PHYS_TOL:
        raise ValueError(f"variances ({var_x}, {var_p}) violate the uncertainty relation")
    return np.zeros(2), np.diag([float(var_x), float(var_p)])


def tensor(*states):
    """Concatenated means and block-diagonal covariances; a stacked factor stacks the product."""
    lead = max((mean.shape[:-1] for mean, _ in states), key=len)
    dim = sum(mean.shape[-1] for mean, _ in states)
    out_mean, out_cov = np.empty(lead + (dim,)), np.zeros(lead + (dim, dim))
    k = 0
    for mean, cov in states:
        d = mean.shape[-1]
        out_mean[..., k:k + d] = mean
        out_cov[..., k:k + d, k:k + d] = cov
        k += d
    return out_mean, out_cov


def symplectic_form(n_modes):
    """Block diagonal [[0, 1], [-1, 0]] per mode."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def symplectic_eigenvalues(cov):
    """Symplectic spectrum, ascending, one value per mode (per stacked matrix).

    InvalidCovarianceError unless each matrix is symmetric positive definite.
    """
    cov = np.asarray(cov, dtype=float)
    _check_covariance(cov)
    spectrum = np.linalg.eigvals(symplectic_form(cov.shape[-1] // 2) @ cov)
    # Eigenvalues of Omega*cov come in +/- i*nu pairs; |.| yields each nu twice.
    return np.sort(np.abs(spectrum), axis=-1)[..., ::2]


def is_physical(cov):
    """Whether each covariance meets the uncertainty relation: min nu >= 1 - PHYS_TOL."""
    ok = symplectic_eigenvalues(cov).min(axis=-1) >= 1.0 - PHYS_TOL
    return bool(ok) if ok.ndim == 0 else ok


def symplectic(state, s):
    """The state after the symplectic map ``s``: mean s m, covariance s cov s^T, symmetrized."""
    mean, cov = state
    cov = s @ cov @ s.T
    mean = (s @ np.asarray(mean, dtype=float)[..., None])[..., 0]
    return mean, 0.5 * (cov + np.swapaxes(cov, -1, -2))


def beamsplitter(state, mode_a, mode_b, transmittance):
    """Mix two modes: X_b' = sqrt(T) X_b - sqrt(1-T) X_a, X_a' = sqrt(T) X_a + sqrt(1-T) X_b.

    The P quadratures mix alike.
    """
    n = state[0].shape[-1] // 2
    if not 0.0 <= transmittance <= 1.0 or mode_a == mode_b or not {mode_a, mode_b} <= set(range(n)):
        raise ValueError(f"bad beam splitter: modes {mode_a}, {mode_b} of {n}, T = {transmittance}")
    t, r = np.sqrt(transmittance), np.sqrt(1.0 - transmittance)
    s = np.eye(2 * n)
    for off in (0, 1):
        a, b = 2 * mode_a + off, 2 * mode_b + off
        s[b, b], s[b, a], s[a, a], s[a, b] = t, -r, t, r
    return symplectic(state, s)


def rotation(state, mode, theta):
    """Rotate one mode in phase space by angle theta (a local Gaussian unitary)."""
    s = np.eye(state[0].shape[-1])
    c, sn = np.cos(theta), np.sin(theta)
    s[2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2] = [[c, -sn], [sn, c]]
    return symplectic(state, s)


def loss(state, mode, eta):
    """Attenuate one mode with transmittance eta: mix it with vacuum and drop the ancilla.

    The mode's block becomes eta*block + (1-eta)*I, its cross blocks and mean
    scale by sqrt(eta). An (L,) array of etas gives a stack of L states.
    """
    mean, cov = state
    n = mean.shape[-1] // 2
    eta = np.asarray(eta, dtype=float)
    if eta.ndim > 1 or not np.all((0.0 <= eta) & (eta <= 1.0)) or not 0 <= mode < n:
        raise ValueError(f"eta must lie in [0, 1] and mode in range, got {eta} and {mode}")
    scale = np.ones(eta.shape + (2 * n,))
    scale[..., 2 * mode:2 * mode + 2] = np.sqrt(eta)[..., None]
    cov = cov * (scale[..., :, None] * scale[..., None, :])
    cov[..., 2 * mode, 2 * mode] += 1.0 - eta
    cov[..., 2 * mode + 1, 2 * mode + 1] += 1.0 - eta
    return mean * scale, cov


def kerr_source(v_squeezed, v_antisqueezed):
    """Two squeezed beams, X-squeezed (Vs, Va) and P-squeezed (Va, Vs), on a 50/50 beam splitter."""
    vs, va = kerr_variances(v_squeezed, v_antisqueezed)
    # The X-squeezed beam enters the transmitted-signal port.
    return beamsplitter(tensor(squeezed(vs, va), squeezed(va, vs)), 1, 0, 0.5)


def zero_mean_cov(state):
    """The covariance of ``state``; ValueError unless its mean is zero, as a TapModel's is."""
    mean, cov = state
    if np.any(mean):
        raise ValueError("a TapModel is zero-mean: the state must be too")
    return cov


def reference_tap(weights, state, reflectivity):
    """The TapModel of a stacked zero-mean two-mode state whose mode B meets a vacuum tap."""
    zero_mean_cov(state)
    _, cov = beamsplitter(tensor(state, vacuum(1)), 2, 1, 1.0 - reflectivity)
    return TapModel(weights, cov[:, :5, :5])


def pooled(weights, state):
    """Mean and central covariance of a stack of states pooled with ``weights``."""
    mean, cov = state
    mu = weights @ mean
    second = np.einsum("i,ijk->jk", weights, cov + mean[:, :, None] * mean[:, None, :])
    return mu, second - np.outer(mu, mu)


def random_physical_state(rng, n_modes=2, max_thermal=5.0, max_squeeze=2.0):
    """Random physical Gaussian state built from physical primitives.

    Tensor of noisy squeezed single-mode states, scrambled by random phase
    rotations and beam splitters; physicality is preserved by construction.
    """
    modes = []
    for _ in range(n_modes):
        nu = 1.0 + rng.uniform(0.0, max_thermal - 1.0)
        r = rng.uniform(0.0, max_squeeze)
        modes.append(squeezed(nu * np.exp(-r), nu * np.exp(r)))
    state = tensor(*modes)
    for m in range(n_modes):
        state = rotation(state, m, rng.uniform(0.0, 2.0 * np.pi))
    for _ in range(2 * n_modes):
        a, b = rng.choice(n_modes, size=2, replace=False) if n_modes > 1 else (0, 0)
        if a != b:
            state = beamsplitter(state, int(a), int(b), rng.uniform(0.0, 1.0))
    for m in range(n_modes):
        state = rotation(state, m, rng.uniform(0.0, 2.0 * np.pi))
    return state


def stacked(*states):
    """One stacked state of ``states`` in order."""
    return np.array([mean for mean, _ in states]), np.array([cov for _, cov in states])


def uncorrelated_tap(state):
    """One-level TapModel of a zero-mean two-mode state with an uncorrelated vacuum tap X."""
    full = np.eye(5)
    full[:4, :4] = zero_mean_cov(state)
    return TapModel([1.0], full[None])


def model_pooled(model):
    """Covariance (5, 5) of a TapModel's zero-mean levels pooled."""
    return np.einsum("i,ijk->jk", model.weights, model.cov)


def pooled_cov_se(sweep):
    """Entrywise standard errors of a sweep's ``pooled_cov`` (T, 4, 4), off ``cov_sampling``'s diagonal."""
    se = np.zeros(sweep.pooled_cov.shape)
    rows, cols = np.array(PAIRS).T
    se[:, rows, cols] = se[:, cols, rows] = np.sqrt(np.maximum(
        np.diagonal(sweep.cov_sampling, axis1=1, axis2=2), 0.0))
    return se


def batch_moments(x):
    """The (count, mean, M2) triple of a batch of samples, shape (n, dim)."""
    mean = x.mean(axis=0)
    d = x - mean
    return x.shape[0], mean, d.T @ d


def _beta_fraction(a, b, x, y):
    """r in I_x(a, b) = x^a y^b / B(a, b) * r, y = 1 - x, by Lentz's method (Numerical Recipes, 6.4).

    The fraction is the even part of the incomplete beta's, in DiDonato and
    Morris' form (ACM TOMS 18:360, 1992, BFRAC): its terms read y and
    lambda = (a + b) y - b as given, not 1 - x, so an x within 1e-9 of 1
    costs no digits. It converges quickly for x < (a + 1) / (a + b + 2).
    """
    tiny = 1e-300
    lam = (a + b) * y - b if a > b else a - (a + b) * x
    c, c0, c1 = 1.0 + lam, b / a, 1.0 + 1.0 / a
    f = big = c / c1 if abs(c) > tiny else tiny
    d, p, s = 0.0, 1.0, a + 1.0
    for n in range(1, 10**7):
        t, w, e = n / a, n * (b - n) * x, a / s
        alpha = p * (p + c0) * e * e * (w * x)
        beta = n + w / s + (1.0 + t) / (c1 + t + t) * (c + n * (y + 1.0))
        p, s = 1.0 + t, s + 2.0
        d = beta + alpha * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        big = beta + alpha / big
        big = big if abs(big) > tiny else tiny
        f *= big * d
        if abs(big * d - 1.0) <= 1e-16:
            return 1.0 / f
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _regularized_beta(a, b, x, y, front):
    """I_x(a, b), given y = 1 - x and front = x^a y^b / B(a, b).

    Below the switch point x = (a + 1) / (a + b + 2) the fraction of
    I_x(a, b), above it 1 - I_y(b, a) by the complement's fraction, which
    converges there; ``front`` serves both.
    """
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x, y)
    return 1.0 - front * _beta_fraction(b, a, y, x)


def binomial_two_sided_p(k, n, p):
    """Exact two-sided binomial tail 2 min(P(K <= k), P(K >= k)), capped at 1.

    P(K >= k) = I_p(k, n - k + 1) and P(K <= k) = I_(1-p)(n - k, k + 1),
    regularized incomplete beta functions by their continued fraction in
    float64. Their prefactors are k pmf(k) (1 - p) and (n - k) pmf(k) p,
    taken from one log-pmf in mpmath: lgamma differences in float64 lose
    digits at n ~ 1e11. p is passed to the fractions as given, never
    recovered as 1 - (1 - p).
    """
    with mpmath.workdps(30):
        mp_n, mp_p = mpmath.mpf(n), mpmath.mpf(p)
        pmf = mpmath.exp(mpmath.loggamma(mp_n + 1) - mpmath.loggamma(k + 1)
                         - mpmath.loggamma(mp_n - k + 1) + k * mpmath.log(mp_p)
                         + (mp_n - k) * mpmath.log1p(-mp_p))
        front_up, front_down = float(k * pmf * (1 - mp_p)), float((mp_n - k) * pmf * mp_p)
    q = 1.0 - p
    upper = 1.0 if k == 0 else _regularized_beta(float(k), float(n - k + 1), p, q, front_up)
    lower = 1.0 if k == n else _regularized_beta(float(n - k), float(k + 1), q, p, front_down)
    return min(1.0, 2.0 * min(lower, upper))


@pytest.fixture(scope="session")
def calibration():
    return calibrate()


@pytest.fixture(scope="session")
def calibrated_source(calibration):
    """The calibrated source's (mean, cov) by the reference construction."""
    return kerr_source(calibration.v_squeezed, calibration.v_antisqueezed)


@pytest.fixture(scope="session")
def discrete_levels(calibration):
    """The discrete preset's level covariances (2, 4, 4), in closed form."""
    return two_mode_cov(*kerr_blocks(calibration.v_squeezed, calibration.v_antisqueezed,
                                     discrete_channel()))


@pytest.fixture(scope="session")
def discrete_tapped(calibration):
    return attach_tap(calibration.v_squeezed, calibration.v_antisqueezed, discrete_channel(),
                      TapConfig())


@pytest.fixture(scope="session")
def three_level_tapped(calibration):
    """The calibrated source on a three-level channel with a blocked level (T = 0), tapped.

    The levels differ in tap SD, and the blocked one leaves the tap
    uncorrelated with the kept modes (beta = 0).
    """
    channel = FluctuatingChannel([0.0, 0.4, 1.0], [0.2, 0.3, 0.5])
    return attach_tap(calibration.v_squeezed, calibration.v_antisqueezed, channel, TapConfig())
