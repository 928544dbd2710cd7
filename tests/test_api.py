"""The package namespace: an explicit list of exports, each one resolvable.

The list is what the command line, the tests, the README and the benchmark
use.  A new export is a deliberate change to this file.
"""
import os
import subprocess
import sys
from pathlib import Path

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


def test_import_loads_only_lapack_from_scipy():
    """Importing the package and its command line pulls in scipy's LAPACK
    bindings and none of the heavy scipy submodules, whose import would
    dominate the start-up of every run."""
    src = str(Path(cf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, calabiflow, calabiflow.cli; "
             "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy.'))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "scipy.linalg.lapack" in loaded
    heavy = ("scipy.integrate", "scipy.special", "scipy.interpolate",
             "scipy.optimize", "scipy.sparse")
    assert [m for m in loaded if m.startswith(heavy)] == []


def test_benchmark_probes_resolve():
    """Every layer boundary the benchmark's tracer wraps is a name the
    package still binds, and the stepper still holds a banded or tridiagonal
    solver; a rename would otherwise zero a per-layer metric."""
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.PROBES:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    assert tracing._linear_solvers(importlib.import_module("calabiflow.flow"))
