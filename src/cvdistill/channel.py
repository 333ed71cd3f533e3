"""Fluctuating-loss channels and the non-Gaussian mixture states they produce.

A channel is a discrete distribution over transmittance levels; sending one
mode of a Gaussian state through it yields a convex mixture of Gaussian
states (one per level), which is non-Gaussian as a whole. A
``MixtureState(weights, states)`` holds the level weights (L,) and the
components as one stacked ``GaussianState``, mean (L, 2n) and covariance
(L, 2n, 2n): ``propagate`` is one ``apply_loss`` over the (L,)
transmittances, and every consumer reads the stacked arrays. This module also
provides the pooled second moments of such a mixture (what a Gaussian fit
to the transmitted ensemble would measure) and the convexity upper bound
on its total logarithmic negativity.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState, apply_loss, pt_trace_norm, validate_physical

__all__ = [
    "WEIGHT_TOL",
    "ChannelLevel",
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


@dataclass(frozen=True)
class ChannelLevel:
    """One attenuation level: transmittance t occurring with probability p."""

    transmittance: float
    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.transmittance <= 1.0:
            raise ValueError(f"transmittance must lie in [0, 1], got {self.transmittance}")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(f"probability must lie in (0, 1], got {self.probability}")


@dataclass
class FluctuatingChannel:
    """Distribution over transmittance levels, strictly increasing in t.

    Levels with zero probability are not representable; drop them before
    construction.
    """

    levels: list

    def __post_init__(self) -> None:
        levels = [
            lv if isinstance(lv, ChannelLevel) else ChannelLevel(*lv) for lv in self.levels
        ]
        if not levels:
            raise ValueError("channel needs at least one level")
        ts = [lv.transmittance for lv in levels]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("transmittances must be strictly increasing")
        total = sum(lv.probability for lv in levels)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"level probabilities must sum to 1, got {total!r}")
        self.levels = levels

    @property
    def transmittances(self) -> np.ndarray:
        return np.array([lv.transmittance for lv in self.levels])

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([lv.probability for lv in self.levels])

    def __len__(self) -> int:
        return len(self.levels)


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
        self.weights = self._checked_weights(self.weights)
        if not np.all(validate_physical(self.states)):
            raise ValueError("mixture contains an unphysical component")

    def _checked_weights(self, weights) -> np.ndarray:
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("mixture needs at least one component")
        if self.states.mean.shape[:-1] != weights.shape:
            raise ValueError(f"mixture has {weights.size} weights but a stack of states "
                             f"of shape {self.states.mean.shape}")
        if not np.all(np.isfinite(weights)):
            raise ValueError(f"component weights must be finite, got {weights}")
        if np.any(weights <= 0.0):
            raise ValueError(f"component weights must be positive, got {weights.min()}")
        total = weights.sum()
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"component weights must sum to 1, got {total!r}")
        return weights

    def reweighted(self, weights) -> MixtureState:
        """This mixture's components with new ``weights``, checked as the constructor checks them.

        The components were validated when this mixture was built, so only
        the weights are checked.
        """
        out = copy.copy(self)
        out.weights = self._checked_weights(weights)
        return out

    @property
    def n_modes(self) -> int:
        return self.states.n_modes

    def __len__(self) -> int:
        return self.weights.size


def discrete_channel() -> FluctuatingChannel:
    """Two-level channel: 25% and full transmission, each with probability 1/2."""
    return FluctuatingChannel([ChannelLevel(0.25, 0.5), ChannelLevel(1.0, 0.5)])


def semicontinuous_levels() -> np.ndarray:
    """Evenly spaced grid of ``SEMICONTINUOUS_LEVELS`` transmittances spanning [0.1, 1.0]."""
    return 0.1 + np.arange(SEMICONTINUOUS_LEVELS) * (0.9 / (SEMICONTINUOUS_LEVELS - 1))


def envelope_exponential(beta: float, p_full: float = 0.2) -> FluctuatingChannel:
    """Semi-continuous channel with an exponential probability envelope.

    The full-transmission level carries probability ``p_full``; the
    remaining mass is spread over the lower levels proportionally to
    exp(beta * t), so beta = 0 gives a flat envelope.
    """
    if not 0.0 < p_full < 1.0:
        raise ValueError(f"p_full must lie in (0, 1), got {p_full}")
    ts = semicontinuous_levels()
    weights = np.exp(beta * ts[:-1])
    weights *= (1.0 - p_full) / weights.sum()
    probs = np.append(weights, p_full)
    # Renormalize away float rounding so the sum is exactly 1.
    probs /= probs.sum()
    return FluctuatingChannel([ChannelLevel(t, p) for t, p in zip(ts, probs)])


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
    if not 0.0 < p_full < 1.0:
        raise ValueError(f"p_full must lie in (0, 1), got {p_full}")
    if not 0.0 <= floor_fraction <= 1.0:
        raise ValueError(f"floor_fraction must lie in [0, 1], got {floor_fraction}")
    ts = semicontinuous_levels()
    peak = np.exp(-FADING_PEAK_RATE * (1.0 - ts[:-1]))
    peak /= peak.sum()
    floor = np.full(SEMICONTINUOUS_LEVELS - 1, 1.0 / (SEMICONTINUOUS_LEVELS - 1))
    weights = (1.0 - p_full) * ((1.0 - floor_fraction) * peak + floor_fraction * floor)
    probs = np.append(weights, p_full)
    probs /= probs.sum()
    return FluctuatingChannel([ChannelLevel(t, p) for t, p in zip(ts, probs)])


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
