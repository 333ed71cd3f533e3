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

from .channel import (MixtureState, discrete_channel, envelope_exponential, envelope_fading,
                      pooled_cm, propagate)
from .gaussian import gaussian_log_negativity, make_kerr_entangled

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

# Bisection tolerances on the fitted LN (bits); top of the antisqueezed-variance bracket.
SOURCE_LN_TOL = 1e-6
ENVELOPE_LN_TOL = 1e-4
BRACKET_HI = 1e4

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


def discrete_premix_ln(v_squeezed: float, v_antisqueezed: float) -> float:
    """Gaussian-fitted log-negativity of the two-level channel's pooled output."""
    source = make_kerr_entangled(v_squeezed, v_antisqueezed)
    return gaussian_log_negativity(pooled_cm(propagate(source, discrete_channel()))[1])


def calibrate(
    ln_initial: float = DEFAULT_LN_INITIAL,
    ln_discrete_premix: float = DEFAULT_LN_DISCRETE_PREMIX,
) -> SourceCalibration:
    """Fit (v_squeezed, v_antisqueezed) to the two measured log-negativities.

    v_squeezed = 2**(-ln_initial) exactly (the source construction gives
    LN = -log2 of the squeezed variance); v_antisqueezed is found by
    bisection, using that the pooled two-level-channel entanglement
    decreases monotonically in the antisqueezed variance, over the bracket
    [1/v_squeezed, BRACKET_HI] that the uncertainty relation leaves it, to
    within ``SOURCE_LN_TOL``.
    """
    if not 0.0 < ln_initial < math.log2(BRACKET_HI):
        raise CalibrationError(f"ln_initial must lie in (0, log2(BRACKET_HI) = "
                               f"{math.log2(BRACKET_HI):.2f}), got {ln_initial}")
    v_squeezed = 2.0 ** (-ln_initial)
    lo = 1.0 / v_squeezed
    v_antisqueezed, achieved = _bisect(
        lambda va: discrete_premix_ln(v_squeezed, va), lo, BRACKET_HI, ln_discrete_premix,
        SOURCE_LN_TOL,
    )
    return SourceCalibration(
        v_squeezed=v_squeezed,
        v_antisqueezed=v_antisqueezed,
        ln_initial=gaussian_log_negativity(make_kerr_entangled(v_squeezed, v_antisqueezed).cov),
        ln_discrete_premix=achieved,
    )


def semicontinuous_premix_ln(levels: MixtureState, weights) -> float:
    """Gaussian-fitted log-negativity of the mixture ``levels`` re-weighted with ``weights``."""
    return gaussian_log_negativity(pooled_cm(levels.reweighted(weights))[1])


def calibrate_envelope(
    v_squeezed: float,
    v_antisqueezed: float,
    p_full: float = DEFAULT_P_FULL,
    ln_premix: float = DEFAULT_LN_SEMI_PREMIX,
    family: str = "fading",
):
    """Fit the semi-continuous envelope's shape parameter to ``ln_premix``.

    For the 'fading' family the parameter is the deep-fade floor fraction
    (pooled entanglement decreases as the floor grows); for the
    'exponential' family it is the exponent beta (pooled entanglement
    increases with beta). The fit stops within ``ENVELOPE_LN_TOL``. Returns
    (parameter, fitted channel).
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
    # Every envelope shares one transmittance grid: each step only re-weights its levels.
    try:
        levels = propagate(make_kerr_entangled(v_squeezed, v_antisqueezed), build(lo))
    except ValueError as exc:
        raise CalibrationError(f"cannot build the {family} envelope: {exc}") from exc
    param, _ = _bisect(
        lambda p: semicontinuous_premix_ln(levels, build(p).probabilities),
        lo,
        hi,
        ln_premix,
        ENVELOPE_LN_TOL,
    )
    return (-param if family == "exponential" else param), build(param)
