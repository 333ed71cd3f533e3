"""Monte Carlo engine."""

from .engine import (
    SERIES,
    McSweep,
    ln_with_se,
    run_mc_sweep,
)

__all__ = [
    "SERIES",
    "McSweep",
    "ln_with_se",
    "run_mc_sweep",
]
