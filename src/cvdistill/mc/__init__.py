"""Monte Carlo engine."""

from .accumulators import CovarianceAccumulator
from .engine import (
    SERIES,
    McSweep,
    ln_with_se,
    run_mc_sweep,
)

__all__ = [
    "SERIES",
    "CovarianceAccumulator",
    "McSweep",
    "ln_with_se",
    "run_mc_sweep",
]
