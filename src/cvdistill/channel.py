"""Fluctuating-loss channels and the closed-form states they carry.

A channel is a discrete distribution over transmittance levels, held as two
(L,) arrays of transmittances and probabilities. The package models one
layout: a Kerr two-mode source whose beam B goes through the channel.
Level i then carries a zero-mean two-mode Gaussian state whose 4x4
covariance has the blocks that :func:`kerr_blocks` returns,

    A = s I,   B = b_i I,   C = sqrt(t_i) diag(c, -c),

with s = (Vs + Va)/2, c = (Vs - Va)/2 and b_i = t_i s + 1 - t_i; the
mixture over levels is non-Gaussian as a whole. Loss maps a physical state
to a physical state, so the source's variance test
(:func:`~cvdistill.gaussian.kerr_variances`) is the only physicality
check. This module also gives the convexity upper bound on a mixture's
total logarithmic negativity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import kerr_variances, pt_trace_norm

__all__ = [
    "WEIGHT_TOL",
    "FluctuatingChannel",
    "discrete_channel",
    "semicontinuous_levels",
    "envelope_exponential",
    "envelope_fading",
    "kerr_blocks",
    "two_mode_cov",
    "upper_bound_ln",
]

WEIGHT_TOL = 1e-12

# Number of transmittance levels of the semi-continuous channel grid.
SEMICONTINUOUS_LEVELS = 45
# Sharpness of the specular peak of the fading envelope, fixed so that the
# heralded reweighting of the full-transmission level matches observation
# (see envelope_fading).
FADING_PEAK_RATE = 25.0


def _check_weights(weights, what: str) -> np.ndarray:
    """``weights`` as a float array, checked: 1-d, non-empty, finite, positive, summing to 1.

    The sum may miss 1 by ``WEIGHT_TOL``. ``what`` names the weights in the
    ``ValueError`` messages. Channel level probabilities and a tap model's
    level weights both follow this rule.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError(f"{what} need at least one entry in a 1-d array, got shape {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise ValueError(f"{what} must be finite, got {weights}")
    if np.any(weights <= 0.0):
        raise ValueError(f"{what} must be positive, got {weights.min()}")
    total = weights.sum()
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValueError(f"{what} must sum to 1, got {total!r}")
    return weights


@dataclass(eq=False)
class FluctuatingChannel:
    """Distribution over transmittance levels: ``transmittances`` (L,) and ``probabilities`` (L,).

    The transmittances lie in [0, 1] and strictly increase; the
    probabilities are checked as a tap model's level weights are. Both are
    copied into float arrays and checked once, on construction. Levels with
    zero probability are not representable; drop them before construction.
    """

    transmittances: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        self.probabilities = _check_weights(np.array(self.probabilities, dtype=float),
                                           "level probabilities")
        ts = self.transmittances = np.array(self.transmittances, dtype=float)
        if ts.shape != self.probabilities.shape:
            raise ValueError(f"channel has {self.probabilities.size} probabilities but "
                             f"transmittances of shape {ts.shape}")
        if not np.all((ts >= 0.0) & (ts <= 1.0)):
            raise ValueError(f"transmittances must lie in [0, 1], got {ts.tolist()}")
        if np.any(np.diff(ts) <= 0.0):
            raise ValueError("transmittances must be strictly increasing")


def discrete_channel() -> FluctuatingChannel:
    """Two-level channel: 25% and full transmission, each with probability 1/2."""
    return FluctuatingChannel([0.25, 1.0], [0.5, 0.5])


def semicontinuous_levels() -> np.ndarray:
    """Evenly spaced grid of ``SEMICONTINUOUS_LEVELS`` transmittances spanning [0.1, 1.0]."""
    return 0.1 + np.arange(SEMICONTINUOUS_LEVELS) * (0.9 / (SEMICONTINUOUS_LEVELS - 1))


def _semicontinuous_channel(lower, p_full: float) -> FluctuatingChannel:
    """The semi-continuous grid with ``p_full`` at full transmission and ``lower(1 - p_full)`` below.

    ``lower`` maps the mass left below full transmission to the lower
    levels' probabilities; it is called once ``p_full`` is checked. The
    probabilities are renormalized away from float rounding, so that they
    sum to exactly 1, and a level whose probability is 0 is dropped, as
    ``FluctuatingChannel`` holds no zero-probability level.
    """
    if not 0.0 < p_full < 1.0:
        raise ValueError(f"p_full must lie in (0, 1), got {p_full}")
    probs = np.append(lower(1.0 - p_full), p_full)
    probs /= probs.sum()
    keep = probs > 0.0
    return FluctuatingChannel(semicontinuous_levels()[keep], probs[keep])


def envelope_exponential(beta: float, p_full: float = 0.2) -> FluctuatingChannel:
    """Semi-continuous channel with an exponential probability envelope.

    The full-transmission level carries probability ``p_full``; the
    remaining mass is spread over the lower levels proportionally to
    exp(beta * t), so beta = 0 gives a flat envelope. The exponent is
    taken relative to its largest value, so no beta overflows it; a level
    whose weight still underflows to 0 (|beta| beyond ~850) is dropped.
    """
    exponent = beta * semicontinuous_levels()[:-1]
    weights = np.exp(exponent - exponent.max())
    return _semicontinuous_channel(lambda rest: weights * (rest / weights.sum()), p_full)


def envelope_fading(floor_fraction: float, p_full: float = 0.2) -> FluctuatingChannel:
    """Semi-continuous channel with a fading-style probability envelope.

    Models a free-space link that transmits near its maximum most of the
    time but suffers occasional deep fades: the full-transmission level
    carries ``p_full``; of the remaining mass, a fraction ``floor_fraction``
    is spread uniformly over all lower levels (deep fades) and the rest
    decays as exp(-FADING_PEAK_RATE * (1 - t)) just below full transmission.

    ``floor_fraction`` in [0, 1] is the single shape parameter used when
    calibrating the channel to a measured pre-distillation entanglement.
    """
    if not 0.0 <= floor_fraction <= 1.0:
        raise ValueError(f"floor_fraction must lie in [0, 1], got {floor_fraction}")
    peak = np.exp(-FADING_PEAK_RATE * (1.0 - semicontinuous_levels()[:-1]))
    peak /= peak.sum()
    floor = np.full(SEMICONTINUOUS_LEVELS - 1, 1.0 / (SEMICONTINUOUS_LEVELS - 1))
    shape = (1.0 - floor_fraction) * peak + floor_fraction * floor
    return _semicontinuous_channel(lambda rest: rest * shape, p_full)


def kerr_blocks(v_squeezed: float, v_antisqueezed: float, channel: FluctuatingChannel):
    """(s, b, c): per level of ``channel``, the blocks of the Kerr source whose beam B crosses it.

    The level's covariance is ``two_mode_cov(s, b[i], c[i])``: s = (Vs + Va)/2
    (a float), b = t s + 1 - t and c = sqrt(t) (Vs - Va)/2, (L,) arrays over
    the transmittances t. A level at t = 1 gives the source's blocks bit for
    bit. Raises ValueError as :func:`~cvdistill.gaussian.kerr_variances` does.
    """
    vs, va = kerr_variances(v_squeezed, v_antisqueezed)
    t = channel.transmittances
    s = 0.5 * (vs + va)
    return s, t * s + (1.0 - t), np.sqrt(t) * (0.5 * (vs - va))


def two_mode_cov(s, b, c) -> np.ndarray:
    """The covariance [[s I, C], [C, b I]], C = diag(c, -c); (L,) ``b`` and ``c`` give (L, 4, 4)."""
    b, c = np.broadcast_arrays(np.asarray(b, dtype=float), np.asarray(c, dtype=float))
    cov = np.zeros(b.shape + (4, 4))
    cov[..., 0, 0] = cov[..., 1, 1] = s
    cov[..., 2, 2] = cov[..., 3, 3] = b
    cov[..., 0, 2] = cov[..., 2, 0] = c
    cov[..., 1, 3] = cov[..., 3, 1] = -c
    return cov


def upper_bound_ln(weights, covs) -> float:
    """Convexity upper bound on the logarithmic negativity of a mixture.

    log2 of the ``weights``-weighted sum of the partial-transpose trace
    norms of the Gaussian components, whose covariances ``covs`` (L, 4, 4)
    stacks; bounds the total (non-Gaussian) logarithmic negativity of the
    mixed state from above and is >= 0 always.
    """
    return float(np.log2(np.asarray(weights, dtype=float) @ pt_trace_norm(covs)))
