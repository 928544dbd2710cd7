"""Rotationally invariant Ricci flow on twisted projective bundles.

The metric is encoded by a single convex potential u(rho, t) on the real
line; the flow becomes a scalar parabolic equation for u, and the package
integrates it, monitors curvature and volume quantities along the way,
and analyzes the rescaled geometry near the singular time.

The package namespace exports what the command line, the tests and the
README use; everything else is imported from its module.
"""

from .blowup import (
    BlowupError,
    RegimeMismatchError,
    blowup_report,
    blowup_window,
    fik_reference,
    gaussian_reference,
    infer_initial_class,
    soliton_residual,
)
from .curvature import curvature_sample, scalar_curvature
from .diagnostics import (
    CheckpointRecord,
    DiagnosticsError,
    MonitorSet,
    read_trace,
    regime_indicator,
    sample_row,
    trace_header,
)
from .flow import (
    FlowError,
    FlowState,
    StepControl,
    StepStats,
    checkpoint_times,
    run,
    step,
    validate_profile,
)
from .moment import MomentDomainError, c1_distance, moment_profile
from .profile import (
    CalabiProfile,
    FlowParams,
    KahlerClass,
    ProfileError,
    Regime,
    RhoGrid,
    build_canonical_profile,
    class_at,
    load_checkpoint,
    profile_from_samples,
    save_checkpoint,
    singular_time,
)

__version__ = "0.1.0"

__all__ = [
    "BlowupError",
    "CalabiProfile",
    "CheckpointRecord",
    "DiagnosticsError",
    "FlowError",
    "FlowParams",
    "FlowState",
    "KahlerClass",
    "MomentDomainError",
    "MonitorSet",
    "ProfileError",
    "Regime",
    "RegimeMismatchError",
    "RhoGrid",
    "StepControl",
    "StepStats",
    "blowup_report",
    "blowup_window",
    "build_canonical_profile",
    "c1_distance",
    "checkpoint_times",
    "class_at",
    "curvature_sample",
    "fik_reference",
    "gaussian_reference",
    "infer_initial_class",
    "load_checkpoint",
    "moment_profile",
    "profile_from_samples",
    "read_trace",
    "regime_indicator",
    "run",
    "sample_row",
    "save_checkpoint",
    "scalar_curvature",
    "singular_time",
    "soliton_residual",
    "step",
    "trace_header",
    "validate_profile",
]
