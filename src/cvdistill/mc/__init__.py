"""Monte Carlo engine."""

from .accumulators import CovarianceAccumulator
from .engine import (
    SERIES,
    McConfig,
    McResult,
    ln_with_se,
    run_mc,
    run_mc_sweep,
)

__all__ = [
    "SERIES",
    "CovarianceAccumulator",
    "McConfig",
    "McResult",
    "ln_with_se",
    "run_mc",
    "run_mc_sweep",
]
