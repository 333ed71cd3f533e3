"""Fix the free model parameters from measured entanglement values.

The squeezing variances of the source are not direct observables, so they
are inverted from two measured log-negativities: the initial entanglement
(which fixes the squeezed variance in closed form) and the Gaussian-fitted
entanglement of the two-level lossy channel's output (which fixes the
antisqueezed variance by a one-dimensional root find). The semi-continuous
channel envelope is calibrated the same way against its measured
pre-distillation value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import discrete_channel, envelope_exponential, envelope_fading
from .gaussian import apply_loss, gaussian_log_negativity, make_kerr_entangled

__all__ = [
    "CalibrationError",
    "SourceCalibration",
    "calibrate",
    "calibrate_envelope",
]

DEFAULT_LN_INITIAL = 0.76
DEFAULT_LN_DISCRETE_PREMIX = -1.63
DEFAULT_LN_SEMI_PREMIX = -0.11
DEFAULT_P_FULL = 0.2

ENVELOPE_FAMILIES = ("fading", "exponential")


class CalibrationError(ValueError):
    """Targets are unphysical or the root is not bracketed."""


@dataclass(frozen=True)
class SourceCalibration:
    """Fitted squeezing variances and the residuals of the fit."""

    v_squeezed: float
    v_antisqueezed: float
    ln_initial: float
    ln_discrete_premix: float


def _bisect(func, lo: float, hi: float, target: float, ln_tol: float, max_iter: int = 200):
    """Bisection on a monotone decreasing function until |f - target| <= ln_tol."""
    flo, fhi = func(lo), func(hi)
    if not (flo >= target >= fhi):
        raise CalibrationError(
            f"target {target} not bracketed: f({lo}) = {flo:.6g}, f({hi}) = {fhi:.6g}"
        )
    mid, fmid = lo, flo
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = func(mid)
        if abs(fmid - target) <= ln_tol:
            return mid, fmid
        if fmid > target:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(f"bisection did not reach tolerance {ln_tol}; last f = {fmid:.6g}")


def _level_covs(v_squeezed: float, v_antisqueezed: float, transmittances) -> np.ndarray:
    """Covariances of the zero-mean source after each loss t on mode B, stacked."""
    source = make_kerr_entangled(v_squeezed, v_antisqueezed)
    return np.array([apply_loss(source, 1, t).cov for t in transmittances])


def _pooled_cov(level_covs: np.ndarray, weights) -> np.ndarray:
    """The pooled covariance that ``pooled_cm`` gives for the mixture of zero-mean levels."""
    return np.einsum("i,ijk->jk", weights, level_covs)


def discrete_premix_ln(v_squeezed: float, v_antisqueezed: float) -> float:
    """Gaussian-fitted log-negativity of the two-level channel's pooled output."""
    channel = discrete_channel()
    covs = _level_covs(v_squeezed, v_antisqueezed, channel.transmittances)
    return gaussian_log_negativity(_pooled_cov(covs, channel.probabilities))


def calibrate(
    ln_initial: float = DEFAULT_LN_INITIAL,
    ln_discrete_premix: float = DEFAULT_LN_DISCRETE_PREMIX,
    ln_tol: float = 1e-6,
    bracket_hi: float = 1e4,
) -> SourceCalibration:
    """Fit (v_squeezed, v_antisqueezed) to the two measured log-negativities.

    v_squeezed = 2**(-ln_initial) exactly (the source construction gives
    LN = -log2 of the squeezed variance); v_antisqueezed is found by
    bisection, using that the pooled two-level-channel entanglement
    decreases monotonically in the antisqueezed variance, over the bracket
    [1/v_squeezed, bracket_hi] that the uncertainty relation leaves it.
    """
    if not 0.0 < ln_initial < math.log2(bracket_hi):
        raise CalibrationError(f"ln_initial must lie in (0, log2(bracket_hi)), got {ln_initial}")
    v_squeezed = 2.0 ** (-ln_initial)
    lo = 1.0 / v_squeezed
    v_antisqueezed, achieved = _bisect(
        lambda va: discrete_premix_ln(v_squeezed, va), lo, bracket_hi, ln_discrete_premix, ln_tol
    )
    return SourceCalibration(
        v_squeezed=v_squeezed,
        v_antisqueezed=v_antisqueezed,
        ln_initial=gaussian_log_negativity(make_kerr_entangled(v_squeezed, v_antisqueezed).cov),
        ln_discrete_premix=achieved,
    )


def semicontinuous_premix_ln(level_covs: np.ndarray, weights) -> float:
    """Gaussian-fitted log-negativity of the levels ``level_covs`` pooled with ``weights``."""
    return gaussian_log_negativity(_pooled_cov(level_covs, weights))


def calibrate_envelope(
    v_squeezed: float,
    v_antisqueezed: float,
    p_full: float = DEFAULT_P_FULL,
    ln_premix: float = DEFAULT_LN_SEMI_PREMIX,
    family: str = "fading",
    ln_tol: float = 1e-4,
):
    """Fit the semi-continuous envelope's shape parameter to ``ln_premix``.

    For the 'fading' family the parameter is the deep-fade floor fraction
    (pooled entanglement decreases as the floor grows); for the
    'exponential' family it is the exponent beta (pooled entanglement
    increases with beta). Returns (parameter, fitted channel).
    """
    if family == "fading":
        build = lambda frac: envelope_fading(frac, p_full=p_full)
        lo, hi = 0.0, 1.0
    elif family == "exponential":
        # Decreasing orientation for the shared bisection: flip the sign.
        build = lambda b: envelope_exponential(-b, p_full=p_full)
        lo, hi = -50.0, 50.0
    else:
        raise CalibrationError(f"unknown envelope family {family!r}; use one of {ENVELOPE_FAMILIES}")
    # Zero-mean levels on one transmittance grid: each step only re-weights them.
    try:
        covs = _level_covs(v_squeezed, v_antisqueezed, build(lo).transmittances)
    except ValueError as exc:
        raise CalibrationError(f"cannot build the {family} envelope: {exc}") from exc
    param, _ = _bisect(
        lambda p: semicontinuous_premix_ln(covs, build(p).probabilities),
        lo,
        hi,
        ln_premix,
        ln_tol,
    )
    return (-param if family == "exponential" else param), build(param)
