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
    "build_canonical_profile", "c1_distance",
    "checkpoint_times", "class_at", "curvature_sample",
    "fik_reference",
    "infer_initial_class", "load_checkpoint", "moment_profile",
    "profile_from_samples", "read_trace",
    "regime_indicator", "run", "sample_row",
    "save_checkpoint", "scalar_curvature", "singular_time", "soliton_residual",
    "step", "trace_header", "validate_profile",
}


def test_exports_are_pinned():
    assert len(cf.__all__) == len(set(cf.__all__))
    assert set(cf.__all__) == PUBLIC


def test_every_export_resolves():
    for name in cf.__all__:
        assert getattr(cf, name) is not None, name


def _run_python(probe: str, *path: str) -> subprocess.CompletedProcess:
    """Run probe in a fresh interpreter with path and the package's src/
    ahead of PYTHONPATH."""
    src = str(Path(cf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [*path, src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120, env=env)


def test_import_loads_only_lapack_from_scipy():
    """Importing the package and its command line loads scipy's compiled
    LAPACK bindings and no other scipy module: not the scipy.linalg package,
    whose __init__ would dominate the start-up of every run.  A later
    import of scipy.linalg.lapack, the order the benchmark's worker uses,
    reuses that extension, so its dgtsv is the one the stepper calls."""
    probe = ("import sys, calabiflow, calabiflow.cli; "
             "print(' '.join(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))); "
             "from scipy.linalg import lapack; "
             "print(lapack.dgtsv is calabiflow.flow.dgtsv)")
    proc = _run_python(probe)
    assert proc.returncode == 0, proc.stderr
    loaded, same = proc.stdout.splitlines()
    assert loaded.split() == ["scipy.linalg._flapack"]
    assert same == "True"


def test_import_without_lapack_extension_names_it(tmp_path):
    """A scipy without its compiled LAPACK module fails the import with an
    ImportError that names the module, not with a later NameError."""
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    proc = _run_python("import calabiflow", str(tmp_path))
    assert proc.returncode != 0
    assert "ImportError: calabiflow needs scipy's compiled LAPACK module " \
           "scipy.linalg._flapack" in proc.stderr


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
