"""Generate the stored solution references that `sol_err` is measured against.

Each reference recomputes every flow of one workload for one seed slot at
a step tolerance TOL_RATIO times tighter than the workload's default, and
stores phi = u'' against x = u' at every dyadic checkpoint level, together
with the grid, the classes, both tolerances and the commit it ran on.

    python3 perfbench/make_reference.py --workload contract_fine --slot 0
    python3 perfbench/make_reference.py --all

A reference is only valid for the code it was generated from; regenerate
the whole set only on purpose, from a commit whose accuracy is trusted.
Run from the repository root; about 20 to 40 s per flow on one core.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF_DIR = HERE / "reference"
# every STRIDE-th moment sample, stored as float32: the sup error over the
# kept samples matched the sup over all samples to 0.02 % at slot 0, and the
# float32 rounding of x and phi is below 1e-6 of sup phi
STRIDE = 2

sys.path.insert(0, str(HERE))
from workloads import (  # noqa: E402
    SLOTS,
    TOL_RATIO,
    WORKLOADS,
    flow_specs,
    moment_samples,
    source_commit,
)


def ref_path(workload: str, slot: int) -> Path:
    return REF_DIR / f"{workload}-s{slot}.npz"


def generate(workload_name: str, slot: int) -> Path:
    sys.path.insert(0, str(ROOT / "src"))
    import calabiflow as cf

    w = WORKLOADS[workload_name]
    ctl_default = cf.StepControl()
    ctl = cf.StepControl(tol_step=ctl_default.tol_step / TOL_RATIO)
    grid = cf.RhoGrid(w.L, w.N)
    arrays: dict[str, np.ndarray] = {}
    flows = []
    for i, spec in enumerate(flow_specs(w, slot)):
        started = time.perf_counter()
        params = cf.FlowParams(spec.n, spec.k, spec.a0, spec.b0)
        trace = cf.run(params, ctl=ctl, grid=grid,
                       monitors=cf.MonitorSet(cadence=10**9))
        levels = []
        for rec in trace.checkpoints:
            x, phi = moment_samples(rec.profile.du, rec.profile.d2u)
            keep = np.unique(np.r_[np.arange(0, x.size, STRIDE), x.size - 1])
            arrays[f"f{i}_j{rec.j}_x"] = x[keep].astype(np.float32)
            arrays[f"f{i}_j{rec.j}_phi"] = phi[keep].astype(np.float32)
            levels.append(rec.j)
        flows.append({"preset": spec.preset, "n": spec.n, "k": spec.k,
                      "a0": spec.a0, "b0": spec.b0, "levels": levels,
                      "seconds": round(time.perf_counter() - started, 1)})
        print(f"{workload_name} slot {slot} {spec.preset}: {len(levels)} levels, "
              f"{flows[-1]['seconds']} s", flush=True)
    meta = {
        "workload": workload_name, "slot": slot, "commit": source_commit(ROOT),
        "L": w.L, "N": w.N, "flows": flows,
        "tol_step": ctl_default.tol_step, "tol_ref": ctl.tol_step,
        "tol_ratio": TOL_RATIO, "t_stop_fraction": ctl.t_stop_fraction,
        "stride": STRIDE,
    }
    REF_DIR.mkdir(exist_ok=True)
    path = ref_path(workload_name, slot)
    np.savez_compressed(path, meta=np.array(json.dumps(meta, sort_keys=True)), **arrays)
    return path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--slot", type=int, choices=range(SLOTS))
    ap.add_argument("--all", action="store_true",
                    help="every workload and slot, one subprocess each")
    args = ap.parse_args(argv)
    if args.all:
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        for slot in range(SLOTS):
            for name in WORKLOADS:
                subprocess.run([sys.executable, __file__, "--workload", name,
                                "--slot", str(slot)], env=env, check=True)
        return 0
    if args.workload is None or args.slot is None:
        ap.error("give --workload and --slot, or --all")
    print(generate(args.workload, args.slot))
    return 0


if __name__ == "__main__":
    sys.exit(main())
