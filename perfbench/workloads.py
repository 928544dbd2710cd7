"""Workload definitions, seeded inputs, output checks and the solution error.

The calabiflow package is passed in by the caller as `cf`, so that the
worker alone decides when it is imported (inside the timed set-up).

A workload is a fixed list of flows on one grid.  The seed picks one of
SLOTS perturbations of the preset Kahler classes (slot = seed mod SLOTS),
so every seed maps onto a stored solution reference; slot 0 reproduces
the presets exactly.
"""

from __future__ import annotations

import math
import random
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_DIM = 2
K_TWIST = 1
SLOTS = 10

# initial class (a0, b0) and the regime the class evolution predicts
PRESETS = {
    "contract": (1.0, 4.0, "Contract"),
    "collapse": (1.0, 2.0, "Collapse"),
    "shrink": (1.0, 3.0, "Shrink"),
}

# criteria 1 and 5 of the acceptance scorecard, as operation checks
TOL_CLASS_LAW = 1e-3
TOL_VOLUME = 1e-6
# nodes at each end of the grid left out of the solution error
EDGE = 3
# the solution reference runs at the workload's step tolerance / TOL_RATIO
TOL_RATIO = 100.0


@dataclass(frozen=True)
class Workload:
    name: str
    presets: tuple[str, ...]
    L: float
    N: int
    # a monitor row every `cadence` accepted steps
    cadence: int
    blowup: bool


# why each was chosen: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("contract_fine", ("contract",), 16.0, 2731, 10, True),
        Workload("contract_dense", ("contract",), 12.0, 2049, 1, False),
        Workload("sweep_coarse", ("contract", "collapse", "shrink"), 12.0, 513, 10, False),
    )
}


@dataclass(frozen=True)
class FlowSpec:
    preset: str
    n: int
    k: int
    a0: float
    b0: float
    regime: str

    @property
    def T(self) -> float:
        return min(self.a0 / (self.n - self.k), (self.b0 - self.a0) / (2.0 * self.k))


def slot_of(seed: int) -> int:
    return seed % SLOTS


def flow_specs(workload: Workload, seed: int) -> list[FlowSpec]:
    """The workload's flows with the seed's perturbed initial classes.

    a0 moves by at most 1 % and b0 by at most 1 % independently, which
    keeps contract and collapse far from the regime boundary; shrink keeps
    b0 = 3 a0 so that both endpoints still reach zero together.
    """
    slot = slot_of(seed)
    specs = []
    for preset in workload.presets:
        a0, b0, regime = PRESETS[preset]
        if slot:
            rng = random.Random(f"calabiflow-{preset}-{slot}")
            a0 = round(a0 * (1.0 + rng.uniform(-0.01, 0.01)), 6)
            b0 = 3.0 * a0 if preset == "shrink" else round(
                b0 * (1.0 + rng.uniform(-0.01, 0.01)), 6)
        specs.append(FlowSpec(preset, N_DIM, K_TWIST, a0, b0, regime))
    return specs


# ---------------------------------------------------------------------------
# output checks

def flow_failures(cf, spec: FlowSpec, trace, t_stop_fraction: float) -> list[str]:
    """The checks one finished flow misses: stop time, regime, class law
    and volume identity."""
    out = []
    t_stop = t_stop_fraction * spec.T
    if not trace.final_profile.t >= t_stop * (1.0 - 1e-12):
        out.append(f"flow stopped at t={trace.final_profile.t:.9g} < {t_stop:.9g}")
    try:
        regime = cf.regime_indicator(trace).value
    except cf.DiagnosticsError as exc:
        regime = f"unclassified ({exc})"
    if regime != spec.regime:
        out.append(f"regime {regime} != predicted {spec.regime}")
    class_law = max(abs(r.a - (spec.a0 - (spec.n - spec.k) * r.t)) for r in trace.rows)
    if not class_law <= TOL_CLASS_LAW:
        out.append(f"max|u'(-L)-a_t| = {class_law:.3e} > {TOL_CLASS_LAW:g}")
    volume = max((abs(r.vol_quad / r.vol_class - 1.0) for r in trace.rows
                  if math.isfinite(r.vol_quad)), default=math.inf)
    if not volume <= TOL_VOLUME:
        out.append(f"max|vol_quad/vol_class-1| = {volume:.3e} > {TOL_VOLUME:g}")
    return out


def blowup_failures(report, spec: FlowSpec, written: list[int], min_j: int,
                    slot: int) -> list[str]:
    """Every level from min_j that the flow wrote is reported with finite
    values, magnification by 1/(T - t) sends the contracting endpoint to
    n - k, and on the presets (slot 0) the C^1 distances fall strictly."""
    out = []
    levels = [r.j for r in report.rows]
    expected = sorted(j for j in written if j >= min_j)
    if levels != expected:
        out.append(f"levels {levels}, the flow wrote {expected}")
    for r in report.rows:
        values = (r.K, r.soliton_rms, r.fik_dist, *((r.selfsim_prev,) if r.j > min_j else ()))
        if not all(math.isfinite(v) for v in values):
            out.append(f"j={r.j}: non-finite value")
        if abs(r.a_hat - (spec.n - spec.k)) > 1e-6:
            out.append(f"j={r.j}: rescaled endpoint {r.a_hat:.9g} != {spec.n - spec.k}")
    if slot == 0 and not c1_decreasing(report):
        out.append("C1 distances between consecutive levels do not fall strictly: "
                   + ", ".join(f"{r.selfsim_prev:.4f}" for r in report.rows[1:]))
    return out


def c1_decreasing(report) -> bool:
    """Whether the C^1 distances between consecutive rescaled levels fall
    strictly (the self-similarity half of acceptance criterion 9)."""
    dists = [r.selfsim_prev for r in report.rows[1:]]
    return all(b < a for a, b in zip(dists, dists[1:]))


def source_commit(root: Path) -> str:
    """The checkout's git commit, with -dirty when src/ has changes, or
    "unknown" outside a git checkout."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                              capture_output=True, text=True, timeout=30).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root,
                               check=True, capture_output=True, text=True,
                               timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head + ("-dirty" if dirty else "")


# ---------------------------------------------------------------------------
# solution error in moment coordinates

def moment_samples(du: np.ndarray, d2u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, phi) = (u', u'') on the nodes a solution is compared on.

    The three outermost nodes at each end are closure and ghost-supported
    nodes, which the monitors leave out of their reductions too.  Of the
    rest, the longest strictly increasing run of u' through the middle node
    is kept: near T the outer nodes can lose monotonicity while the
    interior stays healthy.
    """
    du, d2u = du[EDGE:-EDGE], d2u[EDGE:-EDGE]
    inc = np.diff(du) > 0.0
    mid = du.size // 2
    lo = mid
    while lo > 0 and inc[lo - 1]:
        lo -= 1
    hi = mid
    while hi < inc.size and inc[hi]:
        hi += 1
    return du[lo:hi + 1], d2u[lo:hi + 1]


def level_error(x: np.ndarray, phi: np.ndarray,
                x_ref: np.ndarray, phi_ref: np.ndarray) -> float:
    """sup |phi - phi_ref| / sup phi_ref, comparing at the reference's
    moment samples that lie inside the measured moment domain (1 when the
    domains do not overlap)."""
    from scipy.interpolate import PchipInterpolator

    inside = (x_ref >= x[0]) & (x_ref <= x[-1])
    if not inside.any():
        return 1.0
    got = PchipInterpolator(x, phi)(x_ref[inside])
    return float(np.max(np.abs(got - phi_ref[inside])) / np.max(phi_ref))
