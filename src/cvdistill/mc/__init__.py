"""Monte Carlo engine.

The shot kernel is the compiled extension when it was built and the numpy
kernel otherwise; ``kernel_backend()`` names the one in use.
"""

from .accumulators import CovarianceAccumulator
from .engine import (
    SERIES,
    McConfig,
    McResult,
    kernel_backend,
    ln_with_se,
    run_mc,
    run_mc_sweep,
)

__all__ = [
    "SERIES",
    "CovarianceAccumulator",
    "McConfig",
    "McResult",
    "kernel_backend",
    "ln_with_se",
    "run_mc",
    "run_mc_sweep",
]
