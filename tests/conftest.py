import mpmath
import numpy as np
import pytest

from cvdistill import (
    GaussianState,
    MixtureState,
    TapConfig,
    TapModel,
    apply_beamsplitter,
    attach_tap,
    calibrate,
    discrete_channel,
    make_kerr_entangled,
    propagate,
    squeezed_state,
    tensor,
)
from cvdistill.mc.engine import PAIRS


def apply_phase_rotation(state, mode, theta):
    """Rotate one mode in phase space by angle theta (a local Gaussian unitary)."""
    s = np.eye(2 * state.n_modes)
    c, sn = np.cos(theta), np.sin(theta)
    s[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = [[c, -sn], [sn, c]]
    return GaussianState(s @ state.mean, s @ state.cov @ s.T)


def random_physical_state(rng, n_modes=2, max_thermal=5.0, max_squeeze=2.0):
    """Random physical Gaussian state built from physical primitives.

    Tensor of noisy squeezed single-mode states, scrambled by random phase
    rotations and beam splitters; physicality is preserved by construction.
    """
    modes = []
    for _ in range(n_modes):
        nu = 1.0 + rng.uniform(0.0, max_thermal - 1.0)
        r = rng.uniform(0.0, max_squeeze)
        modes.append(squeezed_state(nu * np.exp(-r), nu * np.exp(r)))
    state = tensor(*modes) if n_modes > 1 else modes[0]
    for m in range(n_modes):
        state = apply_phase_rotation(state, m, rng.uniform(0.0, 2.0 * np.pi))
    for _ in range(2 * n_modes):
        a, b = rng.choice(n_modes, size=2, replace=False) if n_modes > 1 else (0, 0)
        if a != b:
            state = apply_beamsplitter(state, int(a), int(b), rng.uniform(0.0, 1.0))
    for m in range(n_modes):
        state = apply_phase_rotation(state, m, rng.uniform(0.0, 2.0 * np.pi))
    return state


def stacked(*states):
    """One GaussianState stacking ``states`` in order."""
    return GaussianState(np.array([s.mean for s in states]), np.array([s.cov for s in states]))


def mixture(components):
    """MixtureState of (weight, GaussianState) pairs, their states stacked in order."""
    weights, states = zip(*components)
    return MixtureState(np.array(weights), stacked(*states))


def level(mix, i):
    """Component i of a mixture as a GaussianState of its own."""
    return GaussianState(mix.states.mean[i], mix.states.cov[i])


def uncorrelated_tap(state):
    """One-level TapModel of a two-mode state whose tap X is an uncorrelated vacuum quadrature."""
    cov = np.eye(5)
    cov[:4, :4] = state.cov
    return TapModel([1.0], np.append(state.mean, 0.0)[None], cov[None])


def model_pooled(model):
    """Mean (5,) and central covariance (5, 5) of a TapModel's levels pooled, as ``pooled_cm`` pools."""
    mean = model.weights @ model.mean
    second = np.einsum("i,ijk->jk", model.weights,
                       model.cov + model.mean[:, :, None] * model.mean[:, None, :])
    return mean, second - np.outer(mean, mean)


def pooled_cov_se(sweep):
    """Entrywise standard errors of a sweep's ``pooled_cov`` (K, 4, 4), off ``cov_sampling``'s diagonal."""
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
    return make_kerr_entangled(calibration.v_squeezed, calibration.v_antisqueezed)


@pytest.fixture(scope="session")
def discrete_mixture(calibrated_source):
    return propagate(calibrated_source, discrete_channel())


@pytest.fixture(scope="session")
def discrete_tapped(discrete_mixture):
    return attach_tap(discrete_mixture, TapConfig())


@pytest.fixture(scope="session")
def displaced_tapped(calibrated_source):
    """The discrete preset's channel on the calibrated source displaced in both modes, tapped."""
    source = GaussianState([0.4, -0.7, 1.3, 0.5], calibrated_source.cov)
    return attach_tap(propagate(source, discrete_channel()), TapConfig())
