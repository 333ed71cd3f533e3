"""Fix the free model parameters from measured entanglement values.

The squeezing variances of the source are not direct observables, so they
are inverted from two measured log-negativities: the initial entanglement
(which fixes the squeezed variance in closed form) and the Gaussian-fitted
entanglement of the two-level lossy channel's output (which fixes the
antisqueezed variance by a one-dimensional root find). The semi-continuous
channel envelope is calibrated the same way against its measured
pre-distillation value.

Both fits are closed form: each bisection step builds the channel's pooled
4x4 covariance from the levels' blocks (:func:`premix_ln`); only the
log-negativity's own symmetry and positive-definiteness checks run per
step. The source's physicality is checked once per step, on its two
variances, by :func:`~cvdistill.gaussian.kerr_variances`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import (FluctuatingChannel, discrete_channel, envelope_exponential, envelope_fading,
                      kerr_blocks, two_mode_cov)
from .gaussian import gaussian_log_negativity, kerr_variances

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

# Each semi-continuous envelope family: its builder, called as build(param, p_full=...),
# and the bracket that its envelope fit searches for the parameter.
ENVELOPES = {
    "fading": (envelope_fading, (0.0, 1.0)),
    "exponential": (envelope_exponential, (-50.0, 50.0)),
}
ENVELOPE_FAMILIES = tuple(ENVELOPES)


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
    """Bisection on a monotone function, either way round, until |f - target| <= ln_tol.

    An increasing f is bisected as -f, exactly: its iterates mirror those of f(-x) on [-hi, -lo].
    """
    flo, fhi = func(lo), func(hi)
    sign = 1.0 if flo >= fhi else -1.0
    if not (sign * flo >= sign * target >= sign * fhi):
        raise CalibrationError(
            f"target {target} not bracketed: f({lo}) = {flo:.6g}, f({hi}) = {fhi:.6g}"
        )
    mid, fmid = lo, flo
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = func(mid)
        if abs(fmid - target) <= ln_tol:
            return mid, fmid
        if sign * fmid > sign * target:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(f"bisection did not reach tolerance {ln_tol}; last f = {fmid:.6g}")


def premix_ln(v_squeezed: float, v_antisqueezed: float, channel: FluctuatingChannel) -> float:
    """Gaussian-fitted log-negativity of ``channel``'s pooled output for the Kerr source.

    The levels' blocks come from :func:`~cvdistill.channel.kerr_blocks`. With
    zero means the pooled covariance is the probability-weighted sum of the
    levels' covariances, so its B and C blocks are the weighted sums of b
    and c, and :func:`gaussian_log_negativity` checks it and takes its
    spectrum. A one-level channel at t = 1 gives the source's own LN.
    Raises ValueError as ``kerr_blocks`` does.
    """
    s, b, c = kerr_blocks(v_squeezed, v_antisqueezed, channel)
    p = channel.probabilities
    return gaussian_log_negativity(two_mode_cov(s, float(p @ b), float(p @ c)))


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
    channel = discrete_channel()
    v_antisqueezed, achieved = _bisect(
        lambda va: premix_ln(v_squeezed, va, channel), lo, BRACKET_HI, ln_discrete_premix,
        SOURCE_LN_TOL,
    )
    return SourceCalibration(
        v_squeezed=v_squeezed,
        v_antisqueezed=v_antisqueezed,
        ln_initial=premix_ln(v_squeezed, v_antisqueezed, FluctuatingChannel([1.0], [1.0])),
        ln_discrete_premix=achieved,
    )


def calibrate_envelope(
    v_squeezed: float,
    v_antisqueezed: float,
    p_full: float = DEFAULT_P_FULL,
    ln_premix: float = DEFAULT_LN_SEMI_PREMIX,
    family: str = "fading",
):
    """Fit the semi-continuous envelope's shape parameter to ``ln_premix``.

    ``family`` names an entry of ``ENVELOPES``, which gives the envelope's
    builder and the bracket searched for its parameter: for 'fading' the
    deep-fade floor fraction in [0, 1] (pooled entanglement decreases as
    the floor grows), for 'exponential' the exponent beta in [-50, 50]
    (pooled entanglement increases with beta). The fit stops within
    ``ENVELOPE_LN_TOL``; each step is one :func:`premix_ln`, so no state is
    built. Variances or a ``p_full`` that cannot build the envelope raise
    ``CalibrationError`` before the first step. Returns (parameter, fitted
    channel).
    """
    if family not in ENVELOPE_FAMILIES:
        raise CalibrationError(f"unknown envelope family {family!r}; use one of {ENVELOPE_FAMILIES}")
    envelope, (lo, hi) = ENVELOPES[family]
    build = lambda param: envelope(param, p_full=p_full)
    try:
        vs, va = kerr_variances(v_squeezed, v_antisqueezed)
        build(lo)
    except ValueError as exc:
        raise CalibrationError(f"cannot build the {family} envelope: {exc}") from exc
    param, _ = _bisect(lambda p: premix_ln(vs, va, build(p)), lo, hi, ln_premix, ENVELOPE_LN_TOL)
    return param, build(param)
