"""Fluctuating-loss channels and the non-Gaussian mixture states they produce.

A channel is a discrete distribution over transmittance levels, held as two
(L,) arrays of transmittances and probabilities; sending one mode of a
Gaussian state through it yields a convex mixture of Gaussian states (one
per level), which is non-Gaussian as a whole. A
``MixtureState(weights, states)`` holds the level weights (L,) and the
components as one stacked ``GaussianState``, mean (L, 2n) and covariance
(L, 2n, 2n): ``propagate`` is one ``apply_loss`` over the (L,)
transmittances, and every consumer reads the stacked arrays. This module also
provides the pooled second moments of such a mixture (what a Gaussian fit
to the transmitted ensemble would measure) and the convexity upper bound
on its total logarithmic negativity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState, apply_loss, pt_trace_norm, validate_physical

__all__ = [
    "WEIGHT_TOL",
    "FluctuatingChannel",
    "MixtureState",
    "discrete_channel",
    "semicontinuous_levels",
    "envelope_exponential",
    "envelope_fading",
    "propagate",
    "pooled_cm",
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
    ``ValueError`` messages. Mixture weights and channel level probabilities
    both follow this rule.
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
    probabilities are checked as mixture weights are. Both are copied into
    float arrays and checked once, on construction. Levels with zero
    probability are not representable; drop them before construction.
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

    def __len__(self) -> int:
        return self.transmittances.size


@dataclass(eq=False)
class MixtureState:
    """Convex mixture of Gaussian states of one mode count.

    ``weights`` (L,) are positive and sum to one; ``states`` is one
    :class:`~cvdistill.gaussian.GaussianState` stacking the L components,
    ``mean`` (L, 2n) and ``cov`` (L, 2n, 2n), in weight order. Every
    component must be physical.
    """

    weights: np.ndarray
    states: GaussianState

    def __post_init__(self) -> None:
        self.weights = _check_weights(self.weights, "component weights")
        if self.states.mean.shape[:-1] != self.weights.shape:
            raise ValueError(f"mixture has {self.weights.size} weights but a stack of states "
                             f"of shape {self.states.mean.shape}")
        if not np.all(validate_physical(self.states)):
            raise ValueError("mixture contains an unphysical component")

    def __len__(self) -> int:
        return self.weights.size


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


def propagate(
    state: GaussianState, channel: FluctuatingChannel, mode: int = 1
) -> MixtureState:
    """Send one mode of a Gaussian state through a fluctuating-loss channel.

    Returns one Gaussian component per channel level, weighted by the level
    probability, in channel order.
    """
    return MixtureState(channel.probabilities, apply_loss(state, mode, channel.transmittances))


def pooled_cm(mixture: MixtureState):
    """Mean and central covariance of the pooled (Gaussian-fitted) ensemble.

    cov = sum_i w_i (cov_i + mu_i mu_i^T) - mu mu^T, i.e. the second central
    moments of the overall distribution; the mean-spread term matters for
    heralded ensembles even though pre-channel means are zero.
    """
    weights, means, covs = mixture.weights, mixture.states.mean, mixture.states.cov
    mean = weights @ means
    cov = np.einsum("i,ijk->jk", weights, covs + means[:, :, None] * means[:, None, :])
    cov -= np.outer(mean, mean)
    return mean, 0.5 * (cov + cov.T)


def upper_bound_ln(mixture: MixtureState) -> float:
    """Convexity upper bound on the logarithmic negativity of a mixture.

    log2 of the weighted sum of the partial-transpose trace norms of the
    Gaussian components; bounds the total (non-Gaussian) logarithmic
    negativity of the mixed state from above and is >= 0 always.
    """
    return float(np.log2(mixture.weights @ pt_trace_norm(mixture.states)))
