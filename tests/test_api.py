"""The package namespace: an explicit list of exports, each one resolvable.

The list is what the command line, the tests, the README and the benchmark
use.  A new export is a deliberate change to this file.
"""
import calabiflow as cf

PUBLIC = {
    "BlowupError", "CalabiProfile", "CheckpointRecord",
    "DiagnosticsError", "FlowError", "FlowParams", "FlowState", "KahlerClass",
    "MomentDomainError", "MonitorSet", "ProfileError", "Regime",
    "RegimeMismatchError", "RhoGrid", "StepControl", "StepStats",
    "blowup_report", "blowup_window",
    "build_canonical_profile", "c1_distance", "c4_combination", "c4_trust_mask",
    "checkpoint_times", "class_at", "curvature_sample",
    "divisor_diameter", "evolution_residuals", "fik_reference",
    "fit_boundary_tails", "gaussian_reference",
    "infer_initial_class", "load_checkpoint", "moment_profile",
    "profile_from_samples", "ratio_g", "ratio_h", "read_trace",
    "regime_indicator", "run", "sample_row",
    "save_checkpoint", "scalar_curvature", "singular_time", "soliton_residual",
    "step", "total_volume", "trace_header", "validate_profile",
}


def test_exports_are_pinned():
    assert len(cf.__all__) == len(set(cf.__all__))
    assert set(cf.__all__) == PUBLIC


def test_every_export_resolves():
    for name in cf.__all__:
        assert getattr(cf, name) is not None, name
