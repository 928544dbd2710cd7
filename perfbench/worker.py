"""One workload process: set up, run the workload repeatedly, check it.

    python3 perfbench/worker.py setup   --workload W --seed S
    python3 perfbench/worker.py measure --workload W --seed S --seconds X --trace 0|1

`setup` imports calabiflow and builds the seed profiles, nothing else, and
prints its time; run.py starts it several times for the set-up median.
`measure` repeats the whole workload (seed profile to final result, files
included) until the time budget is spent, and prints one JSON object.
With --trace 1 the repetitions alternate between untraced and traced, so
the tracing overhead is measured in the same process.  Both modes also
time the host-speed kernel of calibrate.py: `setup` in a row after its
timed part, `measure` alongside each untraced repetition (after each
traced one with --trace 1).  Both print their JSON as the last line of
standard output.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REF_DIR = HERE / "reference"
MIN_J = 4
CHECKPOINT_LEVELS = 10
# relative error charged for a flow or level that produced no solution
MISSING_ERR = 1.0

sys.path.insert(0, str(HERE))
from workloads import (  # noqa: E402
    TOL_RATIO,
    WORKLOADS,
    blowup_failures,
    c1_decreasing,
    flow_failures,
    flow_specs,
    level_error,
    moment_samples,
    slot_of,
)


def import_package():
    """Import calabiflow from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import calabiflow

    origin = Path(calabiflow.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"calabiflow imported from {origin}, not from {SRC}")
    return calabiflow


def set_up(workload, seed):
    """Import the package and build one seed profile per flow."""
    cf = import_package()
    grid = cf.RhoGrid(workload.L, workload.N)
    flows = []
    for spec in flow_specs(workload, seed):
        params = cf.FlowParams(spec.n, spec.k, spec.a0, spec.b0)
        seed_profile = cf.build_canonical_profile(cf.class_at(params, 0.0), grid,
                                                  spec.n, spec.k)
        flows.append((spec, params, seed_profile))
    return cf, flows


# ---------------------------------------------------------------------------
# solution references

def load_reference(workload, seed: int, flows) -> tuple[list[dict], dict]:
    """Reference moment profiles per flow, and the reference's settings.

    Refuses a reference that does not describe the workload: another grid,
    other classes, or one not computed at 1/TOL_RATIO of the step tolerance
    of the commit that generated it.  The program's current tolerance may
    differ from that one: sol_err then shows what the change costs.
    """
    import numpy as np

    path = REF_DIR / f"{workload.name}-s{slot_of(seed)}.npz"
    if not path.exists():
        raise SystemExit(f"no solution reference {path.name}")
    with np.load(path) as z:
        meta = json.loads(str(z["meta"]))
        arrays = {k: z[k].astype(float) for k in z.files if k != "meta"}
    problems = []
    if (meta["workload"], meta["L"], meta["N"]) != (workload.name, workload.L, workload.N):
        problems.append(f"grid {meta['L']}/{meta['N']} vs {workload.L}/{workload.N}")
    if meta["tol_ratio"] != TOL_RATIO or \
            not math.isclose(meta["tol_step"] / meta["tol_ref"], TOL_RATIO):
        problems.append(f"tolerance {meta['tol_ref']} is not {meta['tol_step']}/{TOL_RATIO:g}")
    classes = [(f["n"], f["k"], f["a0"], f["b0"]) for f in meta["flows"]]
    if classes != [(s.n, s.k, s.a0, s.b0) for s, _, _ in flows]:
        problems.append(f"classes {classes}")
    if problems:
        raise SystemExit(f"reference {path.name} does not match the workload: "
                         + "; ".join(problems))
    levels = [{j: (arrays[f"f{i}_j{j}_x"], arrays[f"f{i}_j{j}_phi"]) for j in f["levels"]}
              for i, f in enumerate(meta["flows"])]
    return levels, {k: meta[k] for k in ("commit", "tol_step", "tol_ref")}


def solution_error(trace, ref_levels: dict) -> float:
    """Max over checkpoint levels of sup|phi - phi_ref| / sup phi_ref."""
    got = {rec.j: rec.profile for rec in trace.checkpoints}
    worst = 0.0
    for j, (x_ref, phi_ref) in ref_levels.items():
        if j not in got:
            return MISSING_ERR
        x, phi = moment_samples(got[j].du, got[j].d2u)
        worst = max(worst, level_error(x, phi, x_ref, phi_ref))
    return worst


# ---------------------------------------------------------------------------
# one repetition of the workload

def run_once(cf, workload, flows, ctl, monitors, out: Path):
    """Seed to final result; returns (seconds, traces, report or error)."""
    started = time.perf_counter()
    traces = []
    report = None
    for spec, params, seed_profile in flows:
        try:
            trace = cf.run(params, ctl=ctl, monitors=monitors, seed_profile=seed_profile,
                           out_dir=out / spec.preset, checkpoints_j=CHECKPOINT_LEVELS)
        except cf.FlowError as exc:
            trace = exc
        traces.append(trace)
    if workload.blowup and not isinstance(traces[0], Exception):
        spec = flows[0][0]
        try:
            records = []
            for path in sorted((out / spec.preset).glob("checkpoint_j*.json")):
                p = cf.load_checkpoint(path)
                records.append(cf.CheckpointRecord(j=int(path.stem[len("checkpoint_j"):]),
                                                   t=p.t, profile=p))
            report = cf.blowup_report(records, T=spec.T, n=spec.n, k=spec.k, min_j=MIN_J)
        except cf.BlowupError as exc:
            report = exc
    return time.perf_counter() - started, traces, report


def check_once(cf, workload, seed, flows, traces, report, refs, ctl) -> dict:
    """Check every operation of one repetition; a flow or the blow-up
    report is one operation, failed if any of its checks fails."""
    failed_ops: list[list[str]] = []
    sup_h, errs = {}, []
    for (spec, _, _), trace, ref in zip(flows, traces, refs):
        if isinstance(trace, Exception):
            failed_ops.append([f"{spec.preset}: {trace}"])
            errs.append(MISSING_ERR)
            continue
        failures = flow_failures(cf, spec, trace, ctl.t_stop_fraction)
        if failures:
            failed_ops.append([f"{spec.preset}: {f}" for f in failures])
        sup_h[spec.preset] = max(r.H_sup for r in trace.rows)
        errs.append(solution_error(trace, ref))
    out = {"ops": len(flows), "sup_h": sup_h, "sol_err": max(errs)}
    if workload.blowup:
        out["ops"] += 1
        if report is None or isinstance(report, Exception):
            failed_ops.append([f"blowup_report: {report or 'not run, flow failed'}"])
        else:
            written = [rec.j for rec in traces[0].checkpoints]
            failures = blowup_failures(report, flows[0][0], written, MIN_J, slot_of(seed))
            if failures:
                failed_ops.append([f"blowup_report: {f}" for f in failures])
            rows = report.rows
            out["soliton_rms_ratio"] = rows[0].soliton_rms / rows[-1].soliton_rms
            out["selfsim"] = [r.selfsim_prev for r in rows[1:]]
            out["c1_decreasing"] = c1_decreasing(report)
    out["failed_ops"] = failed_ops
    return out


def measure(workload, seed: int, seconds: float, traced: bool) -> dict:
    cf, flows = set_up(workload, seed)
    ctl = cf.StepControl()
    monitors = cf.MonitorSet(cadence=workload.cadence)
    refs, ref_meta = load_reference(workload, seed, flows)

    import calibrate
    from tracing import Tracer, combine

    calibrate.kernel_slice()
    # untraced repetitions run with the host-speed sampler alongside; traced
    # ones without it, so that no slice lands inside a span
    sampler = None if traced else calibrate.Sampler()
    tracer = Tracer() if traced else None
    work = OUT / f"work-{os.getpid()}"
    walls = {False: [], True: []}
    host, normalised = [], {False: [], True: []}
    layer_runs, checks = [], []
    began = time.perf_counter()
    try:
        rep = 0
        while True:
            with_trace = traced and rep % 2 == 1
            if with_trace:
                tracer.start_run(rep)
                tracer.install()
            if sampler:
                sampler.start()
            try:
                wall, traces, report = run_once(cf, workload, flows, ctl, monitors,
                                                work / f"rep{rep}")
            finally:
                if with_trace:
                    tracer.uninstall()
                if sampler:
                    sampler.stop()
            if sampler:
                wall -= sum(sampler.slices)
            slices = (sampler and sampler.slices) or calibrate.serial_slices()
            host.append(statistics.fmean(slices))
            normalised[with_trace].append(calibrate.normalise(wall, slices))
            walls[with_trace].append(wall)
            if with_trace:
                layer_runs.append(tracer.run_metrics(rep))
            checks.append(check_once(cf, workload, seed, flows, traces, report, refs, ctl))
            shutil.rmtree(work / f"rep{rep}", ignore_errors=True)
            rep += 1
            if time.perf_counter() - began >= seconds and (not traced or walls[True]):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "wall_s": walls[False],
        "wall_traced_s": walls[True],
        "wall_normalised_s": normalised[False],
        "kernel_s": host,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": sum(c["ops"] for c in checks),
        "ops_failed": sum(len(c["failed_ops"]) for c in checks),
        "failures": sorted({f for c in checks for op in c["failed_ops"] for f in op}),
        "sol_err": max(c["sol_err"] for c in checks),
        "sup_h": checks[0]["sup_h"],
        "soliton_rms_ratio": checks[0].get("soliton_rms_ratio"),
        "selfsim": checks[0].get("selfsim"),
        "c1_decreasing": checks[0].get("c1_decreasing"),
        "classes": [[s.preset, s.a0, s.b0] for s, _, _ in flows],
        "tol_step": ctl.tol_step,
        "reference": ref_meta,
        "env": environment(),
    }
    if traced:
        layers, problems = combine(layer_runs)
        layers["trace.overhead_s"] = (statistics.median(normalised[True])
                                      - statistics.median(normalised[False]))
        result["layers"] = layers
        result["count_problems"] = problems
        result["probes_missing"] = tracer.missing
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod) -> str:
        try:
            cfg = mod.show_config(mode="dicts")
            dep = cfg["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (TypeError, KeyError, AttributeError):
            return "unknown"

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy),
            "scipy_blas": blas(scipy),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        set_up(workload, args.seed)
        result = {"setup_s": time.perf_counter() - T_START}
        import calibrate

        result["kernel_s"] = statistics.fmean(calibrate.serial_slices())
    else:
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
