"""Analytic distillation engine: tap coupling and threshold heralding.

The distiller reflects a small fraction of beam B onto a tap mode, measures
the tap's X quadrature, and keeps the remaining two-mode state only when
the outcome exceeds a threshold. For each level of the :class:`TapModel`
that ``attach_tap`` returns and both engines read, the post-selected first and
second moments are exact truncated-Gaussian expressions, so the heralded
ensemble (weights, means, covariance) is computed in closed form, not sampled.

A threshold sweep is one array pass: ``herald`` takes a grid of thresholds
and evaluates every quantity, the Gaussification measures included, as a
(threshold, level, ...) array expression, block by block of ``HERALD_BLOCK``
thresholds. The per-level moments live only inside a block; the stacked
ensemble keeps what the report reads, and ``distilled_gln`` accepts it. One
threshold is the one-entry grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import FluctuatingChannel, _check_weights, kerr_blocks, two_mode_cov
from .config import TapConfig
from .gaussian import InvalidCovarianceError, _check_covariance, pt_symplectic_spectrum

__all__ = [
    "SUCCESS_FLOOR",
    "DegenerateSelectionError",
    "DistilledEnsemble",
    "TapModel",
    "attach_tap",
    "gaussian_tail",
    "tail_hazard",
    "bivariate_normal_cdf",
    "series_bin_probabilities",
    "herald",
    "distilled_gln",
    "joint_quadrature_variances",
]

# Below this success probability the selection is reported as degenerate
# instead of returning denormal/NaN-poisoned moments.
SUCCESS_FLOOR = 1e-300
# Thresholds per block of a threshold grid: bounds herald's (block, L, 4, 4)
# per-level moments, whatever the grid's length.
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

    Moments refer to the kept two-mode (A, B) state conditioned on the tap
    outcome exceeding the threshold. ``pooled_cov`` is the central
    covariance of the pooled kept ensemble (mean subtracted after pooling).

    Two measures say how close the heralded mixture is to one Gaussian
    (Gaussification): ``weight_entropy``, the Shannon entropy of the
    posterior weights in bits, and ``max_component_cov_distance``, the
    largest Frobenius distance between ``pooled_cov`` and the central
    covariance of any level of posterior weight above 1e-6, taken about
    the pooled mean. Both vanish for a single-level ensemble.

    Every field has one row per grid threshold (see :func:`herald`), in
    grid order. ``errors`` holds None, or the :class:`DegenerateSelectionError`
    of a threshold whose selection is degenerate; :func:`row_mask` reads
    it. On such a row the moment fields are NaN, while
    ``success_probability`` and ``per_component_pass`` keep their values.
    """

    success_probability: np.ndarray  # (T,)
    posterior_weights: np.ndarray  # (T, L)
    per_component_pass: np.ndarray  # (T, L)
    pooled_mean: np.ndarray  # (T, 4)
    pooled_cov: np.ndarray  # (T, 4, 4)
    weight_entropy: np.ndarray  # (T,)
    max_component_cov_distance: np.ndarray  # (T,)
    errors: tuple


@dataclass(eq=False)
class TapModel:
    """Per channel level, the zero-mean law of (X_A, P_A, X_B, P_B, X_tap) that both engines read.

    From ``weights`` (L,), checked as mixture weights are, and ``cov`` (L, 5, 5)
    come X_tap's SD ``tap_sd``, the regression ``beta`` = cov[:, :4, 4] / tap_sd on
    the standardised tap outcome z = X_tap / tap_sd, and ``factor``, the lower
    Cholesky factor of cov[:, :4, :4] - beta beta^T: a level's point is beta z +
    factor w, w four standard normals. Raises ``ValueError`` for bad weights or
    shapes, and ``InvalidCovarianceError`` for a non-finite or asymmetric ``cov``,
    a non-positive X_tap variance or a ``factor`` that does not exist.
    """

    weights: np.ndarray
    cov: np.ndarray
    tap_sd: np.ndarray = field(init=False)
    beta: np.ndarray = field(init=False)
    factor: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.weights = _check_weights(self.weights, "level weights")
        self.cov = np.asarray(self.cov, dtype=float)
        n = self.weights.size
        if self.cov.shape != (n, 5, 5):
            raise ValueError(f"expected cov (L, 5, 5) for L = {n} weights, got {self.cov.shape}")
        _check_covariance(self.cov, positive_definite=False)
        if not (self.cov[:, 4, 4] > 0.0).all():
            raise InvalidCovarianceError("X_tap variance must be positive")
        self.tap_sd = np.sqrt(self.cov[:, 4, 4])
        self.beta = self.cov[:, :4, 4] / self.tap_sd[:, None]
        try:
            self.factor = np.linalg.cholesky(
                self.cov[:, :4, :4] - self.beta[:, :, None] * self.beta[:, None, :])
        except np.linalg.LinAlgError as exc:
            raise InvalidCovarianceError("covariance matrix is not positive definite") from exc


def attach_tap(v_squeezed: float, v_antisqueezed: float, channel: FluctuatingChannel,
               tap: TapConfig) -> TapModel:
    """The :class:`TapModel` of the Kerr source whose beam B crosses ``channel`` and then the tap.

    The tap is a beam splitter of reflectivity R and T = 1 - R with vacuum in
    its other port: X_B' = sqrt(T) X_B - sqrt(R) X_vac and X_tap = sqrt(T)
    X_vac + sqrt(R) X_B, and the same for P; P_tap, which no statistic reads,
    is left out. From a level's blocks (s, b, c) of
    :func:`~cvdistill.channel.kerr_blocks`, X_A and P_A keep variance s,
    X_B' and P_B' get T b + R and X_tap gets R b + T; cov(X_A, X_B') =
    -cov(P_A, P_B') = sqrt(T) c, cov(X_A, X_tap) = sqrt(R) c and
    cov(X_B', X_tap) = sqrt(T R) (b - 1).
    """
    s, b, c = kerr_blocks(v_squeezed, v_antisqueezed, channel)
    r = tap.reflectivity
    t_tap = 1.0 - r
    cov = np.zeros((b.size, 5, 5))
    cov[:, :4, :4] = two_mode_cov(s, t_tap * b + r, np.sqrt(t_tap) * c)
    cov[:, 4, 4] = r * b + t_tap
    cov[:, 0, 4] = cov[:, 4, 0] = np.sqrt(r) * c
    cov[:, 2, 4] = cov[:, 4, 2] = np.sqrt(t_tap * r) * (b - 1.0)
    return TapModel(channel.probabilities, cov)


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
        np.divide(k, f, out=f)
        f += a
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


def series_bin_probabilities(model: TapModel, coefficients, edges, below=np.inf) -> np.ndarray:
    """Per level of ``model``, the law of each linear series' histogram bin given X_tap < ``below``.

    Series s is ``coefficients[s]`` (S, 5) applied to the zero-mean (X_A,
    P_A, X_B, P_B, X_tap). Bin j spans ``edges[j]`` to ``edges[j + 1]``,
    except that the end bins are open, as the Monte Carlo kernel clamps. Per
    level, a series and X_tap are jointly normal, so P(series < e, X_tap <
    below) is one :func:`bivariate_normal_cdf` per edge. ``below`` = inf
    gives the unconditional bin probabilities.

    Returns (L, S, bins), each row summing to 1. Raises
    :class:`DegenerateSelectionError` where P(X_tap < below) underflows to 0.
    """
    cov = model.cov
    coefficients = np.asarray(coefficients, dtype=float)
    k = below / model.tap_sd
    p_below = gaussian_tail(-k)
    if np.any(p_below == 0.0):
        raise DegenerateSelectionError(
            f"P(X_tap < {below}) underflows to 0 for level(s) {np.flatnonzero(p_below == 0.0).tolist()}")
    var = np.einsum("sj,ljk,sk->ls", coefficients, cov, coefficients)
    sd = np.sqrt(var)
    # One square root of the product: X_tap's own series gets rho = 1 exactly.
    rho = np.clip((cov[:, 4] @ coefficients.T) / np.sqrt(var * cov[:, 4, 4, None]), -1.0, 1.0)
    h = np.asarray(edges, dtype=float)[1:-1] / sd[..., None]
    cdf = bivariate_normal_cdf(h, k[:, None, None], rho[..., None]) / p_below[:, None, None]
    # Rounding may leave the conditional CDF a few ulp out of order or above 1.
    cdf = np.clip(np.maximum.accumulate(cdf, axis=-1), 0.0, 1.0)
    return np.diff(cdf, axis=-1, prepend=0.0, append=1.0)


def check_grid(thresholds) -> np.ndarray:
    """``thresholds`` as a float array; ``ValueError`` unless it is a non-empty, finite 1-d grid."""
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.ndim != 1 or thresholds.size == 0:
        raise ValueError("thresholds must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(thresholds)):
        raise ValueError(f"thresholds must be finite, got {thresholds.tolist()}")
    return thresholds


def row_mask(errors) -> np.ndarray:
    """Whether each row of a stacked result holds values: its ``errors`` entry is None."""
    return np.array([exc is None for exc in errors], dtype=bool)


def herald(model: TapModel, thresholds) -> DistilledEnsemble:
    """Post-select on the tap X quadrature exceeding each of ``thresholds``.

    Level i of ``model`` passes with probability q_i = Q(alpha_i), alpha_i =
    threshold / tap SD_i as the Monte Carlo takes it, and its kept two-mode
    moments are exact truncated-Gaussian moments.

    ``thresholds`` is a non-empty 1-d grid (unsorted and repeated values
    allowed), evaluated as array expressions over blocks of
    ``HERALD_BLOCK`` thresholds: the per-level moments exist one block at
    a time, so only the (T, L) and smaller outputs grow with its length.
    The fields are stacked (see :class:`DistilledEnsemble`). A threshold
    whose success probability is at or below ``SUCCESS_FLOOR`` gets a
    :class:`DegenerateSelectionError` in ``errors`` and NaN moments; its
    moments are not computed. Raises ``ValueError`` as :func:`check_grid`
    does.
    """
    thresholds = check_grid(thresholds)
    prior, cov, reg = model.weights, model.cov, model.beta
    alpha = thresholds[:, None] / model.tap_sd  # (T, L)
    passes = gaussian_tail(alpha)
    success = (passes[:, None, :] @ prior[:, None])[:, 0, 0]  # one dot per threshold
    kept = np.flatnonzero(success > SUCCESS_FLOOR)
    errors = tuple(
        None if s > SUCCESS_FLOOR else DegenerateSelectionError(
            f"success probability underflowed ({s!r}) at threshold {t}")
        for t, s in zip(thresholds.tolist(), success.tolist())
    )

    # reg regresses (X_A,P_A,X_B,P_B) on the standardised tap outcome Z: given
    # Z > alpha, E[Z] = lam and E[Z^2] = 1 + alpha*lam, so the mean is reg*lam,
    # the explained part reg reg^T gains alpha*lam and the residual is intact.
    explained = reg[:, :, None] * reg[:, None, :]
    posterior, pooled_mean, pooled_cov, max_dist = (
        np.full(thresholds.shape + shape, np.nan) for shape in (prior.shape, (4,), (4, 4), ()))
    hazard = tail_hazard(alpha[kept])
    for lo in range(0, kept.size, HERALD_BLOCK):
        rows = kept[lo:lo + HERALD_BLOCK]
        a = alpha[rows]
        lam = hazard[lo:lo + HERALD_BLOCK]
        c = reg * lam[:, :, None]
        s2 = cov[:, :4, :4] + explained * (a * lam)[:, :, None, None]
        w = posterior[rows] = prior * passes[rows] / success[rows, None]
        mu = pooled_mean[rows] = (w[:, None, :] @ c)[:, 0]
        pc = np.einsum("ti,tijk->tjk", w, s2) - mu[:, :, None] * mu[:, None, :]
        pc = pooled_cov[rows] = 0.5 * (pc + pc.swapaxes(-1, -2))
        # Each level's central covariance, taken about the pooled mean.
        shift = c - mu[:, None, :]
        centered = (s2 - c[:, :, :, None] * c[:, :, None, :]
                    + shift[:, :, :, None] * shift[:, :, None, :])
        dist = np.linalg.norm(centered - pc[:, None], axis=(-2, -1))
        max_dist[rows] = np.where(w > 1e-6, dist, 0.0).max(axis=-1, initial=0.0)

    # NaN rows stay NaN: they fail posterior > 0 and give log_w 0, and NaN * 0 is NaN.
    log_w = np.log2(posterior, out=np.zeros_like(posterior), where=posterior > 0.0)
    entropy = -(posterior[:, None, :] @ log_w[:, :, None])[:, 0, 0]
    return DistilledEnsemble(success, posterior, passes, pooled_mean, pooled_cov, entropy,
                             max_dist, errors)


def distilled_gln(ensemble: DistilledEnsemble) -> np.ndarray:
    """Gaussian logarithmic negativity of the heralded pooled covariance, (T,).

    One :func:`pt_symplectic_spectrum` call over the rows of ``pooled_cov``
    that :func:`row_mask` passes (the LN of :func:`gaussian_log_negativity`),
    so a non-finite entry in such a row raises ``InvalidCovarianceError``.
    NaN on the other rows. Takes a ``run_mc_sweep`` result too.
    """
    rows = row_mask(ensemble.errors)
    ln = np.full(rows.shape, np.nan)
    nu_minus_sq, _ = pt_symplectic_spectrum(ensemble.pooled_cov[rows])
    ln[rows] = -0.5 * np.log2(nu_minus_sq)
    return ln


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
