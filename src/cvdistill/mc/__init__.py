"""Monte Carlo engine."""

from ..config import McConfig
from .accumulators import CovarianceAccumulator
from .engine import (
    SERIES,
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
