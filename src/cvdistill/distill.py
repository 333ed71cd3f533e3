"""Analytic distillation engine: tap coupling and threshold heralding.

The distiller reflects a small fraction of beam B onto a tap mode, measures
the tap's X quadrature, and keeps the remaining two-mode state only when
the outcome exceeds a threshold. For each Gaussian component of the input
mixture the post-selected first and second moments are exact truncated-
Gaussian expressions, so the heralded ensemble (weights, means, covariance)
is computed in closed form rather than by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .channel import MixtureState
from .gaussian import apply_beamsplitter, gaussian_log_negativity, tensor, vacuum_state

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
    """

    threshold_x: float
    success_probability: float
    prior_weights: np.ndarray
    posterior_weights: np.ndarray
    per_component_pass: np.ndarray
    component_means: np.ndarray  # (L, 4)
    component_second_moments: np.ndarray  # (L, 4, 4), uncentered
    pooled_mean: np.ndarray  # (4,)
    pooled_cov: np.ndarray  # (4, 4)


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


def gaussian_tail(alpha):
    """Upper-tail probability Q(alpha) of the standard normal.

    Evaluated as erfc(alpha/sqrt(2))/2, which stays accurate far into both
    tails (down to the smallest normal floats) and never yields NaN.
    Accepts scalars or arrays.
    """
    out = 0.5 * special.erfc(np.asarray(alpha, dtype=float) / _SQRT2)
    return float(out) if out.ndim == 0 else out


def tail_hazard(alpha):
    """Hazard function phi(alpha)/Q(alpha) of the standard normal.

    Uses the scaled complementary error function so the ratio stays finite
    deep in the upper tail where phi and Q both underflow.
    """
    out = _SQRT_2_OVER_PI / special.erfcx(np.asarray(alpha, dtype=float) / _SQRT2)
    return float(out) if out.ndim == 0 else out


def herald(mixture3: MixtureState, threshold_x: float) -> DistilledEnsemble:
    """Post-select on the tap X quadrature exceeding ``threshold_x``.

    The tap must be the third mode and must have zero mean in X (true for
    every state this pipeline produces). For component i with tap variance
    sigma_i^2, tap pass probability q_i = Q(threshold/sigma_i); the kept
    two-mode moments follow from the exact conditional moments of a
    Gaussian given a one-sided truncation of one linear combination.

    Raises ``ValueError`` for a non-finite threshold and
    :class:`DegenerateSelectionError` when the success probability
    underflows.
    """
    if mixture3.n_modes != 3:
        raise ValueError(f"expected a three-mode (A, B, Tap) mixture, got {mixture3.n_modes}")
    if not np.isfinite(threshold_x):
        raise ValueError(f"threshold must be finite, got {threshold_x}")
    prior = mixture3.weights
    mean = np.array([s.mean for s in mixture3.states])  # (L, 6)
    cov = np.array([s.cov for s in mixture3.states])  # (L, 6, 6)
    if np.any(np.abs(mean[:, 4]) > 1e-12):
        raise ValueError("herald requires zero mean in the tap X quadrature")
    sigma = np.sqrt(cov[:, 4, 4])
    alpha = threshold_x / sigma
    passes = gaussian_tail(alpha)
    lam = tail_hazard(alpha)
    # Regression of (X_A,P_A,X_B,P_B) on the standardised tap outcome Z:
    # given Z > alpha, E[Z] = lam and E[Z^2] = 1 + alpha*lam, so the mean
    # shifts along reg, the explained part reg reg^T gains alpha*lam and
    # the residual is intact.
    reg = cov[:, :4, 4] / sigma[:, None]
    explained = reg[:, :, None] * reg[:, None, :]
    m = mean[:, :4]
    cond_mean = m + reg * lam[:, None]
    second = (
        cov[:, :4, :4]
        + explained * (alpha * lam)[:, None, None]
        + m[:, :, None] * cond_mean[:, None, :]
        + cond_mean[:, :, None] * m[:, None, :]
        - m[:, :, None] * m[:, None, :]
    )
    seconds = 0.5 * (second + second.transpose(0, 2, 1))

    success = float(prior @ passes)
    if not success > SUCCESS_FLOOR:
        raise DegenerateSelectionError(
            f"success probability underflowed ({success!r}) at threshold {threshold_x}"
        )
    posterior = prior * passes / success
    pooled_mean = posterior @ cond_mean
    pooled_cov = np.einsum("i,ijk->jk", posterior, seconds) - np.outer(pooled_mean, pooled_mean)
    return DistilledEnsemble(
        threshold_x=float(threshold_x),
        success_probability=success,
        prior_weights=prior,
        posterior_weights=posterior,
        per_component_pass=passes,
        component_means=cond_mean,
        component_second_moments=seconds,
        pooled_mean=pooled_mean,
        pooled_cov=0.5 * (pooled_cov + pooled_cov.T),
    )


def distilled_gln(ensemble: DistilledEnsemble) -> float:
    """Gaussian logarithmic negativity of the heralded pooled covariance."""
    return gaussian_log_negativity(ensemble.pooled_cov)


def gaussification_metrics(ensemble: DistilledEnsemble):
    """How close the heralded mixture is to a single Gaussian.

    Returns (weight_entropy, max_component_cov_distance): the Shannon
    entropy of the posterior weights in bits, and the largest Frobenius
    distance between any surviving component's central covariance (taken
    about the pooled mean) and the pooled covariance. Both vanish for a
    single-component ensemble.
    """
    w = ensemble.posterior_weights
    nz = w > 0.0
    entropy = float(-(w[nz] @ np.log2(w[nz])))
    keep = w > 1e-6
    mu = ensemble.component_means[keep]
    shift = mu - ensemble.pooled_mean
    centered = (
        ensemble.component_second_moments[keep]
        - mu[:, :, None] * mu[:, None, :]
        + shift[:, :, None] * shift[:, None, :]
    )
    dist = np.linalg.norm(centered - ensemble.pooled_cov, axis=(1, 2))
    return entropy, float(dist.max(initial=0.0))


def joint_quadrature_variances(cov):
    """Variances of the joint quadratures X_A+X_B and P_A-P_B.

    The two-mode vacuum gives (2, 2); values below 2 show squeezing of the
    joint observables, the signature of recovered entanglement.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (4, 4):
        raise ValueError(f"expected a two-mode (4x4) covariance, got {cov.shape}")
    var_x_sum = cov[0, 0] + cov[2, 2] + 2.0 * cov[0, 2]
    var_p_diff = cov[1, 1] + cov[3, 3] - 2.0 * cov[1, 3]
    return float(var_x_sum), float(var_p_diff)
