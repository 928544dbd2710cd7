"""Flow monitors: curvature statistics, volume identities, trace export.

A trace row is one sampled instant of the flow.  Scaled quantities carry a
factor (T - t) per curvature power, so a type-I singularity shows up as
rows with bounded entries.  The curvature columns, H_sup and the G
columns included, are reductions of one curvature_sample per row, made in
sample_row and nowhere else.  Every reduction over nodes that involves a
raw fourth difference is restricted to the trust mask from profile.py
(the sample's rm_proxy already is); in a degenerating tail those stencils
are rounding noise and would otherwise pollute suprema and minima.

The trace table layout is fixed:

    t,a,b,supRm,typeI,H_sup,G_sup,G_inf,bisec_min,bisec_min_scaled,
    c4_min_scaled,lambda_div_scaled,sigma2,...,sigmaN,
    vol_quad,vol_class,vol_ratio,diam,dt,iters

with one sigma column per symmetric function from 2 to n.  c4_min_scaled
and the sigma columns are NaN in a row with no trusted node, and
lambda_div_scaled outside the contraction regime.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .curvature import curvature_sample
from .profile import CalabiProfile, FlowParams, Regime, c4_trust_mask, write_atomic


class DiagnosticsError(RuntimeError):
    pass


@dataclass(frozen=True)
class MonitorSet:
    """How often to sample a trace row, in accepted steps."""

    cadence: int = 10

    def __post_init__(self):
        if self.cadence < 1:
            raise ValueError(f"cadence must be >= 1, got {self.cadence}")


@dataclass(frozen=True)
class TraceRow:
    """One monitor sample; a and b are the measured boundary slopes
    u'(-L) and u'(+L), to be compared against the class endpoints."""

    t: float
    a: float
    b: float
    supRm: float
    typeI: float
    H_sup: float
    G_sup: float
    G_inf: float
    bisec_min: float
    bisec_min_scaled: float
    c4_min_scaled: float
    lambda_div_scaled: float
    sigma: tuple[float, ...]
    vol_quad: float
    vol_class: float
    vol_ratio: float
    diam: float
    dt: float
    iters: int


@dataclass(frozen=True)
class CheckpointRecord:
    j: int
    t: float
    profile: CalabiProfile


@dataclass
class FlowTrace:
    """Rows and checkpoints of one run; error holds the FlowError text of a
    run that stopped early, and is None otherwise.  steps and retries count
    accepted steps and rejected attempts, newton_iters the Newton
    iterations of every stage of every accepted step."""

    params: FlowParams
    T: float
    regime: Regime
    rows: list[TraceRow] = field(default_factory=list)
    checkpoints: list[CheckpointRecord] = field(default_factory=list)
    final_profile: CalabiProfile | None = None
    elapsed: float = 0.0
    steps: int = 0
    retries: int = 0
    newton_iters: int = 0
    error: str | None = field(default=None, init=False)


# ---------------------------------------------------------------------------
# volume and diameter monitors

def total_volume(p: CalabiProfile) -> tuple[float, float]:
    """(quadrature volume, class volume), both per unit angular factor.

    The density (u')^(n-1) u'' integrates in the moment variable to
    (b^n - a^n)/n exactly; the quadrature value is the composite Simpson
    sum on the grid (weights 1, 4, 2, ..., 4, 1; RhoGrid's odd N makes the
    interval count even) plus the closed-form contribution of the truncated
    tails.
    """
    n = p.n
    f = p.du ** (n - 1) * p.d2u
    core = float(np.sum(f[0:-1:2] + 4.0 * f[1::2] + f[2::2]) * (p.grid.h / 3.0))
    left = (float(p.du[0]) ** n - p.cls.a**n) / n
    right = (p.cls.b**n - float(p.du[-1]) ** n) / n
    vol_class = (p.cls.b**n - p.cls.a**n) / n
    return core + left + right, vol_class


# integral of sqrt(sig(1-sig)/2) drho over the line
_DIAMETER_ALPHA = math.pi / math.sqrt(2.0)


def divisor_diameter(p: CalabiProfile) -> float:
    """Diameter scale of the zero divisor, proportional to sqrt(a)."""
    return _DIAMETER_ALPHA * math.sqrt(p.cls.a)


def regime_indicator(trace: FlowTrace) -> Regime:
    """Classify the singularity from the volume decay rate near T.

    Fits the log-log slope of vol/(T-t) between the rows closest to
    T-t = 0.01 T and T-t = 0.001 T: slopes below -0.5 mean the volume
    survives (divisor contraction), above +0.5 the volume vanishes at
    order n (global shrink), in between it vanishes linearly (fibration
    collapse).
    """
    rows = [r for r in trace.rows if math.isfinite(r.vol_quad) and r.vol_quad > 0.0]
    if not rows:
        raise DiagnosticsError("trace has no volume samples")
    if rows[-1].t < 0.99 * trace.T:
        raise DiagnosticsError(
            f"trace ends at t={rows[-1].t:.6g}, need at least 0.99 T to classify")
    taus = trace.T - np.array([r.t for r in rows])
    vr = np.array([r.vol_ratio for r in rows])
    i1 = int(np.argmin(np.abs(taus - 0.01 * trace.T)))
    i2 = int(np.argmin(np.abs(taus - 0.001 * trace.T)))
    if i1 == i2 or taus[i1] <= taus[i2] * (1.0 + 1e-9):
        raise DiagnosticsError("insufficient sampling near the singular time")
    slope = (math.log(vr[i2]) - math.log(vr[i1])) / (math.log(taus[i2]) - math.log(taus[i1]))
    if slope < -0.5:
        return Regime.CONTRACT
    if slope > 0.5:
        return Regime.SHRINK
    return Regime.COLLAPSE


# ---------------------------------------------------------------------------
# row assembly

def sample_row(p: CalabiProfile, T: float, regime: Regime,
               dt: float = 0.0, iters: int = 0) -> TraceRow:
    """One trace row at the profile's time.

    typeI is (T - t) times the trusted sup of the curvature proxy,
    bisec_min the min over interior nodes and components of the
    holomorphic-frame curvatures, c4_min_scaled (T - t) times the trusted
    min of the fourth-order combination, lambda_div_scaled (T - t) times
    the base eigenvalue at the left edge (contraction only), and sigma_j
    the trusted max of |sigma_j| (T - t)^(j-1) relative to supRm.
    """
    nan = float("nan")
    tau = T - p.t
    n = p.n

    # the outermost three nodes at each end lean on ghost extrapolation;
    # sup/min reductions stay on stencil-supported interior nodes
    inner = slice(3, p.grid.N - 3)
    # read before curvature_sample, so that perfbench's profile.trust_mask
    # span times the profile's tail-guard pass
    itrust = c4_trust_mask(p)[inner]
    cs = curvature_sample(p)
    supRm = float(np.max(cs.rm_proxy[inner]))
    typeI = tau * supRm

    H_sup = float(np.max(cs.H[inner]))
    G_sup = float(np.max(cs.G[inner]))
    G_inf = float(np.min(cs.G[inner]))

    cands = [float(np.min(cs.r11kk[inner])), float(np.min(cs.rkkkk[inner]))]
    c4min = nan
    sigma = tuple(nan for _ in range(2, n + 1))
    if itrust.any():
        cands.append(float(np.min(cs.r1111[inner][itrust])))
        c4min = tau * float(np.min(cs.c4[inner][itrust]))
        sigma = tuple(
            tau ** (j - 1) * float(np.max(np.abs(cs.sigma[j])[inner][itrust]))
            / max(supRm, 1e-30) for j in range(2, n + 1))
    bmin = min(cands)
    bmin_scaled = tau * bmin
    lam_div = tau * float(cs.lambda2[0]) if regime is Regime.CONTRACT else nan

    vol_quad, vol_class = total_volume(p)
    vol_ratio = vol_quad / tau
    diam = divisor_diameter(p)

    return TraceRow(t=p.t, a=float(p.du[0]), b=float(p.du[-1]), supRm=supRm, typeI=typeI,
                    H_sup=H_sup, G_sup=G_sup, G_inf=G_inf, bisec_min=bmin,
                    bisec_min_scaled=bmin_scaled, c4_min_scaled=c4min,
                    lambda_div_scaled=lam_div, sigma=sigma, vol_quad=vol_quad,
                    vol_class=vol_class, vol_ratio=vol_ratio, diam=diam,
                    dt=dt, iters=iters)


# ---------------------------------------------------------------------------
# export

def trace_header(n: int) -> str:
    cols = ["t", "a", "b", "supRm", "typeI", "H_sup", "G_sup", "G_inf",
            "bisec_min", "bisec_min_scaled", "c4_min_scaled",
            "lambda_div_scaled"]
    cols += [f"sigma{j}" for j in range(2, n + 1)]
    cols += ["vol_quad", "vol_class", "vol_ratio", "diam", "dt", "iters"]
    return ",".join(cols)


def export_trace(trace: FlowTrace, path: str | Path) -> None:
    """Write the trace as CSV with %.17g floats; fully deterministic."""
    n = trace.params.n
    lines = [trace_header(n)]
    for r in trace.rows:
        vals = [r.t, r.a, r.b, r.supRm, r.typeI, r.H_sup, r.G_sup, r.G_inf,
                r.bisec_min, r.bisec_min_scaled, r.c4_min_scaled,
                r.lambda_div_scaled, *r.sigma, r.vol_quad, r.vol_class,
                r.vol_ratio, r.diam, r.dt]
        lines.append(",".join("%.17g" % v for v in vals) + ",%d" % r.iters)
    write_atomic(path, "\n".join(lines) + "\n")


def read_trace(path: str | Path) -> dict[str, np.ndarray]:
    """Read a trace CSV back as named columns."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    if data.shape == ():
        data = data.reshape(1)
    return {name: np.asarray(data[name], dtype=float) for name in data.dtype.names}


def json_number(x: float) -> float | None:
    """x for a JSON file: null where it is not finite."""
    return x if math.isfinite(x) else None


def write_summary(trace: FlowTrace, path: str | Path) -> None:
    rows = trace.rows
    typeI = [r.typeI for r in rows if math.isfinite(r.typeI)]
    summary = {
        "regime": trace.regime.value,
        "T": trace.T,
        "n": trace.params.n,
        "k": trace.params.k,
        "a0": trace.params.a0,
        "b0": trace.params.b0,
        "t_final": json_number(rows[-1].t if rows else float("nan")),
        "typeI_max": json_number(max(typeI) if typeI else float("nan")),
        "supRm_final": json_number(rows[-1].supRm if rows else float("nan")),
        "lambda_div_final": json_number(rows[-1].lambda_div_scaled if rows else float("nan")),
        "vol_ratio_final": json_number(rows[-1].vol_ratio if rows else float("nan")),
        "num_rows": len(rows),
        "checkpoints": [c.j for c in trace.checkpoints],
        "elapsed_seconds": round(trace.elapsed, 3),
        "steps": trace.steps,
        "retries": trace.retries,
        "newton_iters": trace.newton_iters,
    }
    if trace.error is not None:
        summary["error"] = trace.error
    write_atomic(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
