import mpmath
import numpy as np
import pytest

from cvdistill import (
    GaussianState,
    MixtureState,
    TapConfig,
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


def binomial_two_sided_p(k, n, p):
    """Exact two-sided binomial tail 2 min(P(K <= k), P(K >= k)), capped at 1.

    Sums the probability mass outward from k in mpmath, by the ratio of
    neighbouring terms, until a term is below 1e-40 of its tail.
    """
    with mpmath.workdps(40):
        n, p = mpmath.mpf(n), mpmath.mpf(p)
        at_k = mpmath.exp(mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
                          + k * mpmath.log(p) + (n - k) * mpmath.log1p(-p))
        odds = p / (1 - p)

        def tail(step):
            total, term, j = at_k, at_k, k
            while 0 < j < n and term > total * mpmath.mpf(10) ** -40:
                term *= (n - j) / (j + 1) * odds if step > 0 else j / (n - j + 1) / odds
                j += step
                total += term
            return total

        return float(min(1, 2 * min(tail(-1), tail(+1))))


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
