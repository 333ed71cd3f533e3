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

from dataclasses import dataclass

import numpy as np
from scipy import special

from .channel import MixtureState
from .gaussian import apply_beamsplitter, pt_symplectic_spectrum, tensor, vacuum_state

__all__ = [
    "DEFAULT_TAP_REFLECTIVITY",
    "SUCCESS_FLOOR",
    "TapConfig",
    "DegenerateSelectionError",
    "DistilledEnsemble",
    "attach_tap",
    "gaussian_tail",
    "tail_hazard",
    "herald",
    "distilled_gln",
    "gaussification_metrics",
    "joint_quadrature_variances",
]

DEFAULT_TAP_REFLECTIVITY = 0.07
# Below this success probability the selection is reported as degenerate
# instead of returning denormal/NaN-poisoned moments.
SUCCESS_FLOOR = 1e-300
# Thresholds per block of a threshold grid: bounds the (block, L, 4, 4)
# temporaries of herald and gaussification_metrics, whatever the grid's length.
HERALD_BLOCK = 32

_SQRT2 = np.sqrt(2.0)
_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


@dataclass(frozen=True)
class TapConfig:
    """Tap beam splitter reflectivity."""

    reflectivity: float = DEFAULT_TAP_REFLECTIVITY

    def __post_init__(self) -> None:
        if not 0.0 < self.reflectivity < 1.0:
            raise ValueError(f"reflectivity must lie in (0, 1), got {self.reflectivity}")


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

    Each two-mode component is extended to (A, B, Tap) and the tap beam
    splitter of transmittance 1 - reflectivity is applied with the
    convention X_B' = sqrt(T) X_B - sqrt(1-T) X_Tap,
    X_Tap' = sqrt(T) X_Tap + sqrt(1-T) X_B.
    """
    if mixture.n_modes != 2:
        raise ValueError(f"expected a two-mode mixture, got {mixture.n_modes} modes")
    t = 1.0 - tap.reflectivity
    vac = vacuum_state(1)
    return MixtureState(
        [
            (w, apply_beamsplitter(tensor(state, vac), mode_a=2, mode_b=1, transmittance=t))
            for w, state in mixture.components
        ]
    )


def _scalar_or_array(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def gaussian_tail(alpha):
    """Upper-tail probability Q(alpha) of the standard normal.

    Evaluated as erfc(alpha/sqrt(2))/2, which stays accurate far into both
    tails (down to the smallest normal floats) and never yields NaN.
    Accepts scalars or arrays.
    """
    return _scalar_or_array(0.5 * special.erfc(np.asarray(alpha, dtype=float) / _SQRT2))


def tail_hazard(alpha):
    """Hazard function phi(alpha)/Q(alpha) of the standard normal.

    Uses the scaled complementary error function so the ratio stays finite
    deep in the upper tail where phi and Q both underflow.
    """
    return _scalar_or_array(_SQRT_2_OVER_PI / special.erfcx(np.asarray(alpha, dtype=float) / _SQRT2))


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
    prior = mixture3.weights
    mean = np.array([s.mean for s in mixture3.states])  # (L, 6)
    cov = np.array([s.cov for s in mixture3.states])  # (L, 6, 6)
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
    for block in _blocks(n_kept):
        rows = kept[block]
        a = alpha[rows]
        lam = tail_hazard(a)
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
