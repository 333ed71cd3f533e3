"""Analytic distillation engine: tap coupling and threshold heralding.

The distiller reflects a small fraction of beam B onto a tap mode, measures
the tap's X quadrature, and keeps the remaining two-mode state only when
the outcome exceeds a threshold. For each Gaussian component of the input
mixture the post-selected first and second moments are exact truncated-
Gaussian expressions, so the heralded ensemble (weights, means, covariance)
is computed in closed form rather than by sampling.

A threshold sweep is one array pass: ``herald`` takes a grid of thresholds
and evaluates every quantity as a (threshold, level, ...) array expression,
block by block of ``HERALD_BLOCK`` thresholds, and the metrics of this module
accept the stacked ensemble it returns. One threshold is the one-entry grid,
so a grid row and the one-threshold call agree to float rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import MixtureState
from .config import DEFAULT_TAP_REFLECTIVITY, TapConfig
from .gaussian import (GaussianState, apply_beamsplitter, pt_symplectic_spectrum, tensor,
                       vacuum_state)

__all__ = [
    "DEFAULT_TAP_REFLECTIVITY",
    "SUCCESS_FLOOR",
    "TapConfig",
    "DegenerateSelectionError",
    "DistilledEnsemble",
    "attach_tap",
    "gaussian_tail",
    "tail_hazard",
    "bivariate_normal_cdf",
    "series_bin_probabilities",
    "herald",
    "distilled_gln",
    "gaussification_metrics",
    "joint_quadrature_variances",
]

# Below this success probability the selection is reported as degenerate
# instead of returning denormal/NaN-poisoned moments.
SUCCESS_FLOOR = 1e-300
# Thresholds per block of a threshold grid: bounds the (block, L, 4, 4)
# temporaries of herald and gaussification_metrics, whatever the grid's length.
HERALD_BLOCK = 32

_SQRT2 = np.sqrt(2.0)
_SQRT_2PI = np.sqrt(2.0 * np.pi)
# From this alpha up the tail functions use Laplace's continued fraction, exact
# to rounding there at depth _CF_DEPTH; below it erfc(alpha/sqrt2), whose relative
# error grows like alpha^2 * eps from rounding alpha/sqrt2 (1.8e-13 at alpha 37).
_CF_CUT = 5.0
_CF_DEPTH = 40
_TWOPI = 2.0 * np.pi
# Genz's bivariate normal rules: Gauss-Legendre node count per |rho| band
# [lo, hi). The last rule also serves his expansion from 0.925 up.
_BVN_BANDS = ((0.0, 0.3, 6), (0.3, 0.75, 12), (0.75, 0.925, 20))
_BVN_CLIP = 40.0


class DegenerateSelectionError(RuntimeError):
    """Post-selection kept (essentially) nothing; results would be meaningless."""


@dataclass(eq=False)
class DistilledEnsemble:
    """Heralded mixture after tap measurement and thresholding.

    Component moments refer to the kept two-mode (A, B) state conditioned
    on the tap outcome exceeding the threshold; second moments are
    uncentered. ``pooled_cov`` is the central covariance of the pooled kept
    ensemble (mean subtracted after pooling).

    For a grid of thresholds (see :func:`herald`) every field but
    ``prior_weights`` and ``errors`` gains a leading axis with one entry per
    threshold whose selection is not degenerate, in grid order. ``errors``
    then has one entry per grid threshold: None where the stacks have a row
    for it, else its :class:`DegenerateSelectionError`. For one threshold
    it is empty.
    """

    threshold_x: float | np.ndarray
    success_probability: float | np.ndarray
    prior_weights: np.ndarray  # (L,)
    posterior_weights: np.ndarray  # (..., L)
    per_component_pass: np.ndarray  # (..., L)
    component_means: np.ndarray  # (..., L, 4)
    component_second_moments: np.ndarray  # (..., L, 4, 4), uncentered
    pooled_mean: np.ndarray  # (..., 4)
    pooled_cov: np.ndarray  # (..., 4, 4)
    errors: tuple = ()


def attach_tap(mixture: MixtureState, tap: TapConfig) -> MixtureState:
    """Append a vacuum tap mode and couple it to beam B.

    The stack of two-mode components is extended to (A, B, Tap) and the
    tap beam splitter of transmittance 1 - reflectivity is applied with the
    convention X_B' = sqrt(T) X_B - sqrt(1-T) X_Tap,
    X_Tap' = sqrt(T) X_Tap + sqrt(1-T) X_B.
    """
    if mixture.n_modes != 2:
        raise ValueError(f"expected a two-mode mixture, got {mixture.n_modes} modes")
    extended = tensor(mixture.states, vacuum_state(1))
    return MixtureState(mixture.weights, apply_beamsplitter(
        extended, mode_a=2, mode_b=1, transmittance=1.0 - tap.reflectivity))


def _scalar_or_array(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def _density(a: np.ndarray) -> np.ndarray:
    """Standard normal density phi(a), accurate to a few ulp where it is a normal float.

    a^2 is split as hi^2 + (a - hi)(a + hi) with hi = a rounded to 2^-16, so
    hi^2 is exact and the exponent carries no rounding error of order a^2 eps.
    Clipping at |a| = 40 changes nothing (phi(40) underflows to 0) and keeps
    hi^2 finite.
    """
    a = np.clip(a, -40.0, 40.0)
    hi = np.round(a * 65536.0) / 65536.0
    return np.exp(-0.5 * hi * hi) * np.exp(-0.5 * (a - hi) * (a + hi)) / _SQRT_2PI


def _hazard_cf(a: np.ndarray) -> np.ndarray:
    """phi(a)/Q(a) for a >= _CF_CUT by Laplace's continued fraction.

    The inverse Mills ratio a + 1/(a + 2/(a + 3/(a + ...))) (Abramowitz and
    Stegun 26.2.14), evaluated bottom-up at a fixed depth.
    """
    f = a.copy()
    for k in range(_CF_DEPTH, 0, -1):
        f = a + k / f
    return f


def gaussian_tail(alpha):
    """Upper-tail probability Q(alpha) of the standard normal.

    erfc(alpha/sqrt(2))/2 from ``math.erfc`` below ``_CF_CUT``, and
    phi(alpha) over :func:`tail_hazard`'s continued fraction at and above it,
    which keeps the relative error within a few 1e-15 of mpmath wherever Q
    is a normal float (alpha up to ~37.5); beyond, Q underflows to 0. Never
    NaN for a non-NaN input. Accepts scalars or arrays.
    """
    a = np.asarray(alpha, dtype=float)
    q = np.empty_like(a)
    low = a < _CF_CUT
    scaled = a[low] / _SQRT2
    q[low] = 0.5 * np.fromiter(map(math.erfc, scaled.tolist()), float, scaled.size)
    q[~low] = _density(a[~low]) / _hazard_cf(a[~low])
    return _scalar_or_array(q)


def tail_hazard(alpha):
    """Hazard function phi(alpha)/Q(alpha) of the standard normal.

    The density over :func:`gaussian_tail` below ``_CF_CUT``, and Laplace's
    continued fraction for the inverse Mills ratio at and above it, so it
    stays finite (~alpha + 1/alpha) deep in the upper tail where phi and Q
    both underflow. Goes to 0 for very negative alpha. Accepts scalars or
    arrays.
    """
    a = np.asarray(alpha, dtype=float)
    lam = np.empty_like(a)
    low = a < _CF_CUT
    lam[low] = _density(a[low]) / gaussian_tail(a[low])
    lam[~low] = _hazard_cf(a[~low])
    return _scalar_or_array(lam)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], read-only.

    Built on first use, so importing this module does not load numpy.polynomial.
    """
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def bivariate_normal_cdf(h, k, rho):
    """P(X < h, Y < k) for standard normals X and Y of correlation ``rho``.

    Genz's algorithm (Stat. Comput. 14:251, 2004). Below |rho| = 0.925 it
    integrates Sheppard's formula over arcsin(rho) with a Gauss-Legendre rule
    of 6, 12 or 20 nodes by |rho| band; from 0.925 up it takes his
    expansion about |rho| = 1 plus a 20-node rule for the remainder, exact
    at rho = +-1. The absolute error is a few 1e-16.

    h, k and rho broadcast together; h and k may be infinite. The node
    terms depend on rho alone and are computed once per entry of ``rho`` as
    passed, so pass it unbroadcast: (P, 1) against h of shape (P, E).
    """
    # Q(40) underflows to 0, so clipping there changes no value.
    h, k = (np.clip(np.asarray(v, dtype=float), -_BVN_CLIP, _BVN_CLIP) for v in (h, k))
    rho = np.asarray(rho, dtype=float)
    shape = np.broadcast_shapes(h.shape, k.shape, rho.shape)
    # Genz's upper orthant P(X > dh, Y > dk), at dh = -h and dk = -k.
    dh, dk = (-np.broadcast_to(v, shape).ravel() for v in (h, k))
    # Phi(h) and Phi(k) on the arrays as passed, before broadcasting.
    ph, pk = (np.broadcast_to(gaussian_tail(-v), shape).ravel() for v in (h, k))
    r = rho.ravel()
    # Index into r of the rho that each output entry reads.
    which = np.broadcast_to(np.arange(r.size).reshape(rho.shape), shape).ravel()
    out = np.empty(dh.size)
    for lo, hi, n in _BVN_BANDS:
        band = (np.abs(r) >= lo) & (np.abs(r) < hi)
        sel = np.flatnonzero(band[which])
        if sel.size == 0:
            continue
        x, w = _gauss_legendre(n)
        asr = np.arcsin(r[band])
        sn = np.sin(asr[:, None] * (x + 1.0) / 2.0)
        inv = 1.0 / (1.0 - sn * sn)
        slot = (np.cumsum(band) - 1)[which[sel]]
        a, b = dh[sel], dk[sel]
        expo = (a * b)[:, None] * (sn * inv)[slot] - ((a * a + b * b) / 2.0)[:, None] * inv[slot]
        out[sel] = (np.exp(expo) @ w) * asr[slot] / (2.0 * _TWOPI) + ph[sel] * pk[sel]
    sel = np.flatnonzero((np.abs(r) >= _BVN_BANDS[-1][1])[which])
    if sel.size:
        out[sel] = _bvn_high(dh[sel], dk[sel], r[which[sel]])
    return _scalar_or_array(out.reshape(shape))


def _bvn_high(dh, dk, r):
    """Genz's P(X > dh, Y > dk) for 0.925 <= |r| <= 1 (his BVND, |r| >= 0.925 branch)."""
    neg = r < 0.0
    dk = np.where(neg, -dk, dk)
    hk = dh * dk
    bvn = np.zeros(dh.size)
    inner = np.flatnonzero(np.abs(r) < 1.0)
    if inner.size:
        x, w = _gauss_legendre(_BVN_BANDS[-1][2])
        h, k, hk_in, r_in = dh[inner], dk[inner], hk[inner], r[inner]
        a2 = (1.0 - r_in) * (1.0 + r_in)
        a = np.sqrt(a2)
        b2 = (h - k) ** 2
        c = (4.0 - hk_in) / 8.0
        d = (12.0 - hk_in) / 16.0
        v = a * np.exp(-(b2 / a2 + hk_in) / 2.0) * (
            1.0 - c * (b2 - a2) * (1.0 - d * b2 / 5.0) / 3.0 + c * d * a2 * a2 / 5.0)
        tail = np.flatnonzero(hk_in > -160.0)  # below, exp(-hk/2) overflows and the term is 0
        b = np.sqrt(b2[tail])
        v[tail] -= (np.exp(-hk_in[tail] / 2.0) * np.sqrt(_TWOPI) * gaussian_tail(b / a[tail]) * b
                    * (1.0 - c[tail] * b2[tail] * (1.0 - d[tail] * b2[tail] / 5.0) / 3.0))
        xs = (a[:, None] * (x + 1.0) / 2.0) ** 2
        rs = np.sqrt(1.0 - xs)
        b2, hk_in, c, d = b2[:, None], hk_in[:, None], c[:, None], d[:, None]
        terms = (np.exp(-b2 / (2.0 * xs) - hk_in / (1.0 + rs)) / rs
                 - np.exp(-(b2 / xs + hk_in) / 2.0) * (1.0 + c * xs * (1.0 + d * xs)))
        v += a / 2.0 * (terms @ w)
        bvn[inner] = -v / _TWOPI
    pos = ~neg
    bvn[pos] += gaussian_tail(np.maximum(dh[pos], dk[pos]))
    bvn[neg] = np.maximum(0.0, gaussian_tail(dh[neg]) - gaussian_tail(dk[neg])) - bvn[neg]
    return bvn


def series_bin_probabilities(states: GaussianState, coefficients, edges, below=np.inf) -> np.ndarray:
    """Per stacked state, the law of each linear series' histogram bin given X_tap < ``below``.

    ``states`` stacks L (A, B, Tap) states; series s is
    ``coefficients[s]`` (S, 5) applied to (X_A, P_A, X_B, P_B, X_Tap). Bin j
    spans ``edges[j]`` to ``edges[j + 1]``, except that the end bins are
    open, as the Monte Carlo kernel clamps. Per state, a series and X_tap
    are jointly normal, so P(series < e, X_tap < below) is one
    :func:`bivariate_normal_cdf` per edge. ``below`` = inf gives the
    unconditional bin probabilities.

    Returns (L, S, bins), each row summing to 1. Raises
    :class:`DegenerateSelectionError` where P(X_tap < below) underflows to 0.
    """
    mean, cov = states.mean[:, :5], states.cov[:, :5, :5]
    coefficients = np.asarray(coefficients, dtype=float)
    tap_sd = np.sqrt(cov[:, 4, 4])
    k = (below - mean[:, 4]) / tap_sd
    p_below = gaussian_tail(-k)
    if np.any(p_below == 0.0):
        raise DegenerateSelectionError(
            f"P(X_tap < {below}) underflows to 0 for state(s) {np.flatnonzero(p_below == 0.0).tolist()}")
    sd = np.sqrt(np.einsum("sj,ljk,sk->ls", coefficients, cov, coefficients))
    rho = np.clip((cov[:, 4] @ coefficients.T) / (sd * tap_sd[:, None]), -1.0, 1.0)
    h = (np.asarray(edges, dtype=float)[1:-1] - (mean @ coefficients.T)[..., None]) / sd[..., None]
    cdf = bivariate_normal_cdf(h, k[:, None, None], rho[..., None]) / p_below[:, None, None]
    # Rounding may leave the conditional CDF a few ulp out of order or above 1.
    cdf = np.clip(np.maximum.accumulate(cdf, axis=-1), 0.0, 1.0)
    return np.diff(cdf, axis=-1, prepend=0.0, append=1.0)


def herald(mixture3: MixtureState, threshold_x) -> DistilledEnsemble:
    """Post-select on the tap X quadrature exceeding ``threshold_x``.

    The tap must be the third mode and must have zero mean in X (true for
    every state this pipeline produces). For component i with tap variance
    sigma_i^2, tap pass probability q_i = Q(threshold/sigma_i); the kept
    two-mode moments follow from the exact conditional moments of a
    Gaussian given a one-sided truncation of one linear combination.

    ``threshold_x`` is one threshold or a 1-d grid of them (unsorted and
    repeated values allowed). A grid is evaluated as array expressions over
    blocks of ``HERALD_BLOCK`` thresholds, so its temporaries do not grow
    with its length, and gives stacked fields (see
    :class:`DistilledEnsemble`): one threshold is the one-entry grid, its
    leading axis dropped. A grid threshold whose success probability is at
    or below ``SUCCESS_FLOOR`` gets an entry in ``errors`` and no row.

    Raises ``ValueError`` for a non-finite threshold and, for one
    threshold, :class:`DegenerateSelectionError` when the success
    probability underflows.
    """
    if mixture3.n_modes != 3:
        raise ValueError(f"expected a three-mode (A, B, Tap) mixture, got {mixture3.n_modes}")
    grid = np.asarray(threshold_x, dtype=float)
    if grid.ndim > 1 or grid.size == 0:
        raise ValueError(f"expected one threshold or a non-empty 1-d grid, got shape {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise ValueError(f"threshold must be finite, got {threshold_x}")
    prior, mean, cov = mixture3.weights, mixture3.states.mean, mixture3.states.cov
    if np.any(np.abs(mean[:, 4]) > 1e-12):
        raise ValueError("herald requires zero mean in the tap X quadrature")
    sigma = np.sqrt(cov[:, 4, 4])
    thresholds = grid.reshape(-1)
    alpha = thresholds[:, None] / sigma  # (T, L)
    passes = gaussian_tail(alpha)
    success = (passes[:, None, :] @ prior[:, None])[:, 0, 0]  # one dot per threshold
    kept = np.flatnonzero(success > SUCCESS_FLOOR)
    errors = tuple(
        None if s > SUCCESS_FLOOR else DegenerateSelectionError(
            f"success probability underflowed ({s!r}) at threshold {t}")
        for t, s in zip(thresholds.tolist(), success.tolist())
    )
    if grid.ndim == 0 and errors[0] is not None:
        raise errors[0]

    # Regression of (X_A,P_A,X_B,P_B) on the standardised tap outcome Z:
    # given Z > alpha, E[Z] = lam and E[Z^2] = 1 + alpha*lam, so the mean
    # shifts along reg, the explained part reg reg^T gains alpha*lam and
    # the residual is intact.
    reg = cov[:, :4, 4] / sigma[:, None]
    explained = reg[:, :, None] * reg[:, None, :]
    m = mean[:, :4]
    n_kept, n_levels = kept.size, prior.size
    posterior = np.empty((n_kept, n_levels))
    cond_mean = np.empty((n_kept, n_levels, 4))
    seconds = np.empty((n_kept, n_levels, 4, 4))
    pooled_mean = np.empty((n_kept, 4))
    pooled_cov = np.empty((n_kept, 4, 4))
    hazard = tail_hazard(alpha[kept])
    for block in _blocks(n_kept):
        rows = kept[block]
        a = alpha[rows]
        lam = hazard[block]
        c = cond_mean[block] = m + reg * lam[:, :, None]
        second = (
            cov[:, :4, :4]
            + explained * (a * lam)[:, :, None, None]
            + m[:, :, None] * c[:, :, None, :]
            + c[:, :, :, None] * m[:, None, :]
            - m[:, :, None] * m[:, None, :]
        )
        s2 = seconds[block] = 0.5 * (second + second.swapaxes(-1, -2))
        w = posterior[block] = prior * passes[rows] / success[rows, None]
        mu = pooled_mean[block] = (w[:, None, :] @ c)[:, 0]
        pc = np.einsum("ti,tijk->tjk", w, s2) - mu[:, :, None] * mu[:, None, :]
        pooled_cov[block] = 0.5 * (pc + pc.swapaxes(-1, -2))

    stacks = (posterior, passes[kept], cond_mean, seconds, pooled_mean, pooled_cov)
    if grid.ndim == 0:
        return DistilledEnsemble(float(grid), float(success[0]), prior, *(x[0] for x in stacks))
    return DistilledEnsemble(thresholds[kept], success[kept], prior, *stacks, errors=errors)


def _blocks(n: int):
    """Slices of ``range(n)`` in consecutive blocks of ``HERALD_BLOCK``."""
    return [slice(lo, lo + HERALD_BLOCK) for lo in range(0, n, HERALD_BLOCK)]


def distilled_gln(ensemble: DistilledEnsemble):
    """Gaussian logarithmic negativity of the heralded pooled covariance.

    A float, or one value per row of a stacked ensemble, from one
    :func:`pt_symplectic_spectrum` call (the LN of
    :func:`gaussian_log_negativity`).
    """
    nu_minus_sq, _ = pt_symplectic_spectrum(ensemble.pooled_cov)
    return _scalar_or_array(-0.5 * np.log2(nu_minus_sq))


def gaussification_metrics(ensemble: DistilledEnsemble):
    """How close the heralded mixture is to a single Gaussian.

    Returns (weight_entropy, max_component_cov_distance): the Shannon
    entropy of the posterior weights in bits, and the largest Frobenius
    distance between any component of posterior weight above 1e-6 and the
    pooled covariance, the component's central covariance taken about the
    pooled mean. Both vanish for a single-component ensemble. Each is a
    float, or one value per row of a stacked ensemble, evaluated over
    blocks of ``HERALD_BLOCK`` rows.
    """
    w = ensemble.posterior_weights
    n_levels = w.shape[-1]
    log_w = np.log2(w, out=np.zeros_like(w), where=w > 0.0)
    entropy = -(w[..., None, :] @ log_w[..., :, None])[..., 0, 0]
    keep = (w > 1e-6).reshape(-1, n_levels)
    means = ensemble.component_means.reshape(-1, n_levels, 4)
    seconds = ensemble.component_second_moments.reshape(-1, n_levels, 4, 4)
    pooled_mean = ensemble.pooled_mean.reshape(-1, 4)
    pooled_cov = ensemble.pooled_cov.reshape(-1, 4, 4)
    max_dist = np.empty(keep.shape[0])
    for block in _blocks(keep.shape[0]):
        mu = means[block]
        shift = mu - pooled_mean[block, None, :]
        centered = (
            seconds[block]
            - mu[:, :, :, None] * mu[:, :, None, :]
            + shift[:, :, :, None] * shift[:, :, None, :]
        )
        dist = np.linalg.norm(centered - pooled_cov[block, None], axis=(-2, -1))
        max_dist[block] = np.where(keep[block], dist, 0.0).max(axis=-1, initial=0.0)
    return _scalar_or_array(entropy), _scalar_or_array(max_dist.reshape(w.shape[:-1]))


def joint_quadrature_variances(cov):
    """Variances of the joint quadratures X_A+X_B and P_A-P_B.

    The two-mode vacuum gives (2, 2); values below 2 show squeezing of the
    joint observables, the signature of recovered entanglement. ``cov`` is
    one 4x4 covariance (floats returned) or a stack (..., 4, 4).
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape[-2:] != (4, 4):
        raise ValueError(f"expected two-mode (4x4) covariances, got {cov.shape}")
    var_x_sum = cov[..., 0, 0] + cov[..., 2, 2] + 2.0 * cov[..., 0, 2]
    var_p_diff = cov[..., 1, 1] + cov[..., 3, 3] - 2.0 * cov[..., 1, 3]
    return _scalar_or_array(var_x_sum), _scalar_or_array(var_p_diff)
