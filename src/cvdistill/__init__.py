"""Continuous-variable entanglement distillation simulator.

Closed-form covariances of a Kerr source sent through fluctuating-loss channels,
tap-and-threshold heralding with exact truncated-Gaussian moments, and a
reproducible Monte Carlo pipeline that mimics the experimental data flow.
"""

from ._version import __version__
from .calibrate import CalibrationError, SourceCalibration, calibrate, calibrate_envelope
from .channel import (
    FluctuatingChannel,
    discrete_channel,
    envelope_exponential,
    envelope_fading,
    kerr_blocks,
    semicontinuous_levels,
    two_mode_cov,
    upper_bound_ln,
)
from .config import ExperimentConfig, McConfig, TapConfig, load_config, parse_config, preset_config
from .distill import (
    DegenerateSelectionError,
    DistilledEnsemble,
    TapModel,
    attach_tap,
    distilled_gln,
    gaussian_tail,
    herald,
    joint_quadrature_variances,
    tail_hazard,
)
from .gaussian import InvalidCovarianceError, gaussian_log_negativity, pt_trace_norm
from .mc import McSweep, run_mc_sweep
from .scenario import RunReport, emit_artifacts, run_scenario

__all__ = [
    "__version__",
    "CalibrationError",
    "SourceCalibration",
    "calibrate",
    "calibrate_envelope",
    "FluctuatingChannel",
    "discrete_channel",
    "envelope_exponential",
    "envelope_fading",
    "kerr_blocks",
    "semicontinuous_levels",
    "two_mode_cov",
    "upper_bound_ln",
    "ExperimentConfig",
    "load_config",
    "parse_config",
    "preset_config",
    "DegenerateSelectionError",
    "DistilledEnsemble",
    "TapConfig",
    "TapModel",
    "attach_tap",
    "distilled_gln",
    "gaussian_tail",
    "herald",
    "joint_quadrature_variances",
    "tail_hazard",
    "InvalidCovarianceError",
    "gaussian_log_negativity",
    "pt_trace_norm",
    "McConfig",
    "McSweep",
    "run_mc_sweep",
    "RunReport",
    "emit_artifacts",
    "run_scenario",
]
