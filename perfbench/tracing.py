"""Spans around calabiflow's layer boundaries, recorded from outside.

The tracer replaces module attributes of the installed calabiflow package
with timing wrappers, so the package itself carries no instrumentation and
a later rewrite of a layer is measured by this unchanged file.  A wrapper
replaces the name a module looks up when it calls into another layer:
`calabiflow.flow.profile_from_samples` is the rebuild as called by the
stepper, `calabiflow.diagnostics.curvature_sample` the curvature sample as
called by the monitors.  Calls the benchmark makes itself (`run`,
`load_checkpoint`, `blowup_report`) are wrapped on the package.

Every span is kept in memory as [name, start, end, parent, run id] and
written out once, at the end.  The layer of a span is the part of its name
before the first dot.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("flow", "profile", "diagnostics", "curvature", "moment", "blowup")

# (module, attribute, span name)
PROBES = (
    ("calabiflow", "run", "flow.run"),
    ("calabiflow.flow", "step", "flow.step"),
    ("calabiflow.flow", "profile_from_samples", "profile.rebuild"),
    ("calabiflow.flow", "save_checkpoint", "profile.checkpoint_write"),
    ("calabiflow.diagnostics", "sample_row", "diagnostics.sample_row"),
    ("calabiflow.diagnostics", "curvature_sample", "curvature.sample"),
    ("calabiflow.diagnostics", "c4_trust_mask", "profile.trust_mask"),
    ("calabiflow.diagnostics", "export_trace", "diagnostics.export"),
    ("calabiflow.diagnostics", "write_summary", "diagnostics.export"),
    ("calabiflow", "load_checkpoint", "profile.checkpoint_load"),
    ("calabiflow", "blowup_report", "blowup.report"),
    ("calabiflow.blowup", "soliton_residual", "blowup.soliton_fit"),
    ("calabiflow.blowup", "c1_distance", "moment.c1_distance"),
)

# counts that depend only on the inputs; they must repeat exactly
EXACT_COUNTS = ("flow.steps", "flow.retries", "flow.linsolves", "diagnostics.rows",
                "profile.rebuilds")


def _linear_solvers(module) -> list[str]:
    """Names in a module bound to scipy's banded or tridiagonal solvers:
    the Newton iteration calls solve_banded today, and a tridiagonal
    rewrite of it would call one of the others."""
    from scipy import linalg
    from scipy.linalg import lapack

    solvers = {id(linalg.solve_banded), id(linalg.solveh_banded),
               id(lapack.dgtsv), id(lapack.dptsv)}
    return [name for name, value in vars(module).items() if id(value) in solvers]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = 0
        self.retries = 0
        self.checkpoint_bytes = 0
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name == "flow.step":
                tracer.retries += result.stats.retries
            elif name == "profile.checkpoint_write":
                path = args[1] if len(args) > 1 else kwargs["path"]
                tracer.checkpoint_bytes += os.path.getsize(path)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import importlib

        flow = importlib.import_module("calabiflow.flow")
        solvers = _linear_solvers(flow)
        if not solvers:
            self._note_missing("calabiflow.flow: no banded or tridiagonal solver")
        probes = list(PROBES) + [("calabiflow.flow", n, "flow.linsolve") for n in solvers]
        for module_name, attr, span_name in probes:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self._note_missing(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span_name))

    def _note_missing(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def start_run(self, run_id: int) -> None:
        self.run_id = run_id
        self.retries = 0
        self.checkpoint_bytes = 0

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")

    def run_metrics(self, run_id: int) -> dict[str, float]:
        """Per-layer counts and times of one traced run; call it right after
        the run, before the next start_run resets the run's counters."""
        ids = [i for i, s in enumerate(self.spans) if s[4] == run_id]
        first = ids[0]
        spans = self.spans[first:ids[-1] + 1]
        dur = [s[2] - s[1] for s in spans]
        child_time = defaultdict(float)
        for s, d in zip(spans, dur):
            if s[3] >= first:
                child_time[s[3] - first] += d
        total = defaultdict(float)
        count = defaultdict(int)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        step_self = 0.0
        for i, (s, d) in enumerate(zip(spans, dur)):
            total[s[0]] += d
            count[s[0]] += 1
            own = d - child_time[i]
            layer = s[0].split(".")[0]
            if layer in layer_self:
                layer_self[layer] += own
            if s[0] == "flow.step":
                step_self += own

        steps = count["flow.step"]
        m = {
            "flow.steps": steps,
            "flow.retries": self.retries,
            "flow.accept_ratio": steps / (steps + self.retries) if steps else 0.0,
            "flow.step_s": total["flow.step"],
            "flow.self_s": step_self,
            "flow.linsolves": count["flow.linsolve"],
            "flow.linsolve_s": total["flow.linsolve"],
            "flow.linsolves_per_step": count["flow.linsolve"] / steps if steps else 0.0,
            "profile.rebuilds": count["profile.rebuild"],
            "profile.rebuild_s": total["profile.rebuild"],
            "diagnostics.rows": count["diagnostics.sample_row"],
            "diagnostics.sample_row_s": total["diagnostics.sample_row"],
            "curvature.sample_s": total["curvature.sample"],
            "profile.trust_mask_s": total["profile.trust_mask"],
            "profile.checkpoint_write_s": total["profile.checkpoint_write"],
            "profile.checkpoint_bytes": self.checkpoint_bytes,
            "diagnostics.export_s": total["diagnostics.export"],
            "profile.checkpoint_load_s": total["profile.checkpoint_load"],
            "blowup.report_s": total["blowup.report"],
            "blowup.soliton_fit_s": total["blowup.soliton_fit"],
            "moment.c1_distance_s": total["moment.c1_distance"],
            "trace.spans": len(spans),
        }
        for layer, seconds in layer_self.items():
            m[f"self.{layer}_s"] = seconds
        return m


def combine(runs: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each metric over traced runs, and the exact-count check.
    The low median is a measured value, so counts stay whole numbers."""
    problems = [f"{name} differs between traced runs: {[r[name] for r in runs]}"
                for name in EXACT_COUNTS if len({r[name] for r in runs}) > 1]
    return {k: statistics.median_low(r[k] for r in runs) for k in runs[0]}, problems
