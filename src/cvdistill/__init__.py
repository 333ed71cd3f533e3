"""Continuous-variable entanglement distillation simulator.

Covariance-matrix engine for Gaussian states, fluctuating-loss channels,
tap-and-threshold heralding with exact truncated-Gaussian moments, and a
reproducible Monte Carlo pipeline that mimics the experimental data flow.
"""

from ._version import __version__
from .calibrate import CalibrationError, SourceCalibration, calibrate, calibrate_envelope
from .channel import (
    ChannelLevel,
    FluctuatingChannel,
    MixtureState,
    discrete_channel,
    envelope_exponential,
    envelope_fading,
    pooled_cm,
    propagate,
    semicontinuous_levels,
    upper_bound_ln,
)
from .config import ExperimentConfig, McConfig, TapConfig, load_config, parse_config, preset_config
from .distill import (
    DegenerateSelectionError,
    DistilledEnsemble,
    attach_tap,
    distilled_gln,
    gaussian_tail,
    gaussification_metrics,
    herald,
    joint_quadrature_variances,
    tail_hazard,
)
from .gaussian import (
    GaussianState,
    InvalidCovarianceError,
    apply_beamsplitter,
    apply_loss,
    gaussian_log_negativity,
    make_kerr_entangled,
    pt_trace_norm,
    squeezed_state,
    symplectic_eigenvalues,
    tensor,
    vacuum_state,
    validate_physical,
)
from .mc import McResult, run_mc, run_mc_sweep
from .scenario import RunReport, emit_artifacts, run_scenario

__all__ = [
    "__version__",
    "CalibrationError",
    "SourceCalibration",
    "calibrate",
    "calibrate_envelope",
    "ChannelLevel",
    "FluctuatingChannel",
    "MixtureState",
    "discrete_channel",
    "envelope_exponential",
    "envelope_fading",
    "pooled_cm",
    "propagate",
    "semicontinuous_levels",
    "upper_bound_ln",
    "ExperimentConfig",
    "load_config",
    "parse_config",
    "preset_config",
    "DegenerateSelectionError",
    "DistilledEnsemble",
    "TapConfig",
    "attach_tap",
    "distilled_gln",
    "gaussian_tail",
    "gaussification_metrics",
    "herald",
    "joint_quadrature_variances",
    "tail_hazard",
    "GaussianState",
    "InvalidCovarianceError",
    "apply_beamsplitter",
    "apply_loss",
    "gaussian_log_negativity",
    "make_kerr_entangled",
    "pt_trace_norm",
    "squeezed_state",
    "symplectic_eigenvalues",
    "tensor",
    "vacuum_state",
    "validate_physical",
    "McConfig",
    "McResult",
    "run_mc",
    "run_mc_sweep",
    "RunReport",
    "emit_artifacts",
    "run_scenario",
]
