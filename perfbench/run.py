"""calabiflow benchmark: seed-to-result time and solution error per workload.

    python3 perfbench/run.py --workload contract_fine --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the package is imported from its
src/ directory, nothing is installed.  Each workload runs in its own
worker process (one caller, one flow at a time, no threads) with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1.  Set-up time is the median
over SETUP_PROBES fresh processes that only import the package and build
the seed profiles.

--trace 0 prints the end-to-end metrics (setup_s, wall_s, sol_err,
peak_rss_mb); setup_s and wall_s are rescaled to a reference host speed
measured alongside (see calibrate.py), and the raw seconds are printed
next to them.  --trace 1 prints the per-layer metrics from spans recorded
around the package's layer boundaries (see tracing.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Details, with the environment, go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# the last repetition overruns the budget; the rest is start-up and checks
MEASURE_SLACK_S = 120
# one BLAS thread: the load is a single caller on one core
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

sys.path.insert(0, str(HERE))
from calibrate import REFERENCE_S, normalise  # noqa: E402
from workloads import SLOTS, WORKLOADS, source_commit  # noqa: E402


class BenchError(RuntimeError):
    pass


def call_worker(args: list[str], timeout: float) -> dict:
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=WORKER_ENV,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    probes = [] if traced else [call_worker(["setup", *common], PROBE_TIMEOUT_S)
                                for _ in range(SETUP_PROBES)]
    res = call_worker(["measure", *common, "--seconds", str(seconds),
                       "--trace", str(int(traced))], seconds + MEASURE_SLACK_S)
    res["setup_s"] = [p["setup_s"] for p in probes]
    res["setup_kernel_s"] = [p["kernel_s"] for p in probes]
    res["problems"] = res.get("count_problems", [])
    res["correct"] = res["ops_failed"] == 0 and not res["problems"]
    if traced:
        res["metrics"] = {k: (v, unit_of(k)) for k, v in res["layers"].items()}
        res["metrics"]["host.kernel_s"] = (statistics.median(res["kernel_s"]), "s")
    else:
        res["metrics"] = {
            "setup_s": (statistics.median(normalise(s, [k]) for s, k in
                                          zip(res["setup_s"], res["setup_kernel_s"])), "s"),
            "wall_s": (statistics.median(res["wall_normalised_s"]), "s"),
            "sol_err": (res["sol_err"], "1"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    return res


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(("_ratio", "_per_step")):
        return "1"
    return "count"


def report(name: str, seed: int, res: dict) -> None:
    classes = ", ".join(f"{p} ({a0:g}, {b0:g})" for p, a0, b0 in res["classes"])
    print(f"== {name}  seed {seed}  classes: {classes}")
    for metric, (value, unit) in res["metrics"].items():
        print(f"  {metric:28s} {value:.6g} {unit}")
    runs = res["wall_s"]
    print(f"  repetitions: {len(runs)} untraced"
          + (f", {len(res['wall_traced_s'])} traced" if res["wall_traced_s"] else "")
          + f"; raw wall seconds {', '.join(f'{w:.3f}' for w in runs)}")
    kernel = statistics.median(res["kernel_s"])
    print(f"  host kernel slice {kernel * 1e3:.2f} ms (reference host {REFERENCE_S * 1e3:g} ms); "
          f"raw medians: wall {statistics.median(runs):.4f} s"
          + (f", setup {statistics.median(res['setup_s']):.4f} s with kernel slice "
             f"{statistics.median(res['setup_kernel_s']) * 1e3:.2f} ms" if res["setup_s"] else ""))
    ref = res["reference"]
    print(f"  sol_err reference: tol {ref['tol_ref']:g} = {ref['tol_step']:g}/100 on commit "
          f"{ref['commit']}; the program ran at tol_step {res['tol_step']:g}")
    print(f"  ops {res['ops']}  ops_failed {res['ops_failed']}")
    for failure in res["failures"] + res["problems"]:
        print(f"  FAILED: {failure}")
    for probe in res.get("probes_missing", []):
        print(f"  warning: not traced, its metrics read 0: {probe}")
    # criteria 4 and 9 are printed, not counted: the program fails them at
    # the seed commit (the blow-up fit and its slopes), see README.md; the
    # C1 trend is counted on seed slot 0 only
    sup_h = ", ".join(f"{p} {h:.5f}" for p, h in res["sup_h"].items())
    print(f"  criterion 4 (not gated): sup H {sup_h}")
    if res.get("soliton_rms_ratio") is not None:
        trend = "strictly decreasing" if res["c1_decreasing"] else "NOT strictly decreasing"
        gated = "gated" if seed % SLOTS == 0 else "not gated off slot 0"
        print(f"  criterion 9: soliton rms j4/j9 = {res['soliton_rms_ratio']:.4f} (not gated); "
              "C1 distances " + ", ".join(f"{d:.4f}" for d in res["selfsim"])
              + f" ({trend}, {gated})")
    if res.get("spans_file"):
        print(f"  spans: {res['spans_file']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*sorted(WORKLOADS), "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "calabiflow" / "__init__.py").is_file():
        print(f"error: no calabiflow source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = {"commit": source_commit(ROOT), "nproc": len(os.sched_getaffinity(0)),
           "cpu": cpu_model()}
    print("environment: " + json.dumps(env))

    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            env.update(results[name].pop("env"))
            report(name, args.seed, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("environment: " + json.dumps(env))

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"environment": env, "args": vars(args), "results": results},
                   indent=1, default=str) + "\n")

    def key(name: str, metric: str) -> str:
        return metric if len(names) == 1 else f"{name}.{metric}"

    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["ops"] for r in results.values()),
        "failed": sum(r["ops_failed"] for r in results.values()),
        "metrics": {key(n, m): {"value": v, "unit": u}
                    for n, r in results.items() for m, (v, u) in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
