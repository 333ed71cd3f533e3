"""Monte Carlo engine with a compiled hot kernel and a numpy fallback."""

from .accumulators import CovarianceAccumulator
from .engine import (
    SERIES,
    McConfig,
    McResult,
    histogram,
    kernel_backend,
    ln_with_se,
    run_mc,
    run_mc_sweep,
    sample_level,
    sample_phase_point,
)

__all__ = [
    "SERIES",
    "CovarianceAccumulator",
    "McConfig",
    "McResult",
    "histogram",
    "kernel_backend",
    "ln_with_se",
    "run_mc",
    "run_mc_sweep",
    "sample_level",
    "sample_phase_point",
]
