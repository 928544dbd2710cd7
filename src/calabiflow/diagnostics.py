"""Flow monitors: curvature statistics, volume identities, trace export.

A trace row is one sampled instant of the flow.  Scaled quantities carry a
factor (T - t) per curvature power, so a type-I singularity shows up as
rows with bounded entries.  sample_row makes a row from moment arrays
(x, phi, phi', phi'', trust) that any solver can fill: its curvature
columns are reductions of one curvature_sample over exactly the nodes it
is given, those of fourth-order pieces over trusted nodes only (in a
degenerating tail those pieces are rounding noise).  A rho state reaches
it through one body, _row: profile_row reads a profile's arrays through
moment_arrays, as the blow-up report does, and row_from_samples derives
the same arrays from the samples u, with no profile built.

The trace table's columns are TraceRow's fields in field order, with
sigma expanded to one column per symmetric function, sigma2 ... sigmaN;
trace_header and export_trace read that order.  c4_min_scaled and the
sigma columns are NaN in a row with no trusted node, and
lambda_div_scaled outside the contraction regime.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .curvature import base_eigenvalue, curvature_sample
from .profile import (
    CalabiProfile,
    FlowParams,
    ProfileError,
    Regime,
    _GHOST,
    _number,
    c4_trust_mask,
    class_at,
    guard_tails,
    stencil_derivatives,
    write_atomic,
)


class DiagnosticsError(RuntimeError):
    pass


@dataclass(frozen=True)
class MonitorSet:
    """How often to sample a trace row, in accepted steps."""

    cadence: int = 10

    def __post_init__(self):
        object.__setattr__(self, "cadence", _number("cadence", self.cadence, integer=True))
        if self.cadence < 1:
            raise ProfileError(f"cadence must be >= 1, got {self.cadence}")


class TraceRow(NamedTuple):
    """One monitor sample; a and b are the measured boundary slopes
    u'(-L) and u'(+L), to be compared against the class endpoints.  The
    field order is trace.csv's column order (trace_header)."""

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


class CheckpointRecord(NamedTuple):
    j: int
    t: float
    profile: CalabiProfile


@dataclass
class FlowTrace:
    """Rows and checkpoints of one run; error holds the text of the FlowError
    (or a checkpoint write's ProfileError) that stopped it early, or None.
    steps and retries count accepted steps and rejected attempts,
    newton_iters the Newton iterations of every stage of every accepted
    step.  phase_seconds holds the part of elapsed that run() spent in
    steps (a failing one included), monitor rows, checkpoints and the
    trace.csv export."""

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
    phase_seconds: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(
            ("step", "monitors", "checkpoints", "export"), 0.0), init=False)


# ---------------------------------------------------------------------------
# volume and diameter monitors

def _volume(du: np.ndarray, d2u: np.ndarray, h: float, a: float, b: float,
            n: int) -> tuple[float, float]:
    """(quadrature volume, class volume), both per unit angular factor, of
    the samples u', u'' with spacing h of a profile in the class (a, b).

    The density (u')^(n-1) u'' integrates in the moment variable to
    (b^n - a^n)/n exactly; the quadrature value is the composite Simpson
    sum on the grid (weights 1, 4, 2, ..., 4, 1; RhoGrid's odd N makes the
    interval count even) plus the closed-form contribution of the truncated
    tails.
    """
    f = (du if n == 2 else du ** (n - 1)) * d2u
    core = float(np.add.reduce(f[0:-1:2] + 4.0 * f[1::2] + f[2::2]) * (h / 3.0))
    x0, x1 = float(du[0]), float(du[-1])
    return core + (x0**n - a**n) / n + (b**n - x1**n) / n, (b**n - a**n) / n


# integral of sqrt(sig(1-sig)/2) drho over the line
_DIAMETER_ALPHA = math.pi / math.sqrt(2.0)


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

def sample_row(x: np.ndarray, phi: np.ndarray, dphi: np.ndarray, d2phi: np.ndarray,
               trust: np.ndarray, n: int, *, t: float, T: float, regime: Regime,
               ends: tuple[float, float], volume: tuple[float, float], diam: float,
               lam_edge: float, dt: float = 0.0, iters: int = 0) -> TraceRow:
    """One trace row at time t, reduced over every node of the moment arrays.

    typeI is (T - t) times the trusted sup of the curvature proxy,
    bisec_min the min over nodes and components of the holomorphic-frame
    curvatures, c4_min_scaled (T - t) times the trusted min of the
    fourth-order combination, lambda_div_scaled (T - t) times lam_edge, the
    base eigenvalue at the divisor end (contraction only), and sigma_j the
    trusted max of |sigma_j| (T - t)^(j-1) relative to supRm.  ends are
    the boundary slopes (a, b), volume the (quadrature, class) pair.
    """
    tau = T - t
    cs = curvature_sample(x, phi, dphi, d2phi, trust, n)
    # ufunc reductions: NaN propagates as in np.max, without np.max's wrapper cost
    lo, hi = np.minimum.reduce, np.maximum.reduce
    supRm = float(hi(cs.rm_proxy))
    cands = [float(lo(cs.r11kk)), float(lo(cs.rkkkk))]
    c4min, sigma = math.nan, (math.nan,) * (n - 1)
    trusted, = trust.nonzero()
    if trusted.size:
        cands.append(float(lo(cs.r1111[trusted])))
        c4min = tau * float(lo(cs.c4[trusted]))
        sigma = tuple(tau ** (j - 1) * float(hi(np.abs(cs.sigma[j][trusted])))
                      / max(supRm, 1e-30) for j in range(2, n + 1))
    bmin = min(cands)
    lam_div = tau * lam_edge if regime is Regime.CONTRACT else math.nan
    return TraceRow(t=t, a=ends[0], b=ends[1], supRm=supRm, typeI=tau * supRm,
                    H_sup=float(hi(cs.H)), G_sup=float(hi(cs.G)),
                    G_inf=float(lo(cs.G)), bisec_min=bmin, bisec_min_scaled=tau * bmin,
                    c4_min_scaled=c4min, lambda_div_scaled=lam_div, sigma=sigma,
                    vol_quad=volume[0], vol_class=volume[1], vol_ratio=volume[0] / tau,
                    diam=diam, dt=dt, iters=iters)


def moment_arrays(p: CalabiProfile) -> tuple[np.ndarray, ...]:
    """A rho profile as curvature_sample's arrays on every node: u', u'', the
    guarded u'''/u'', minus the fourth-order combination, the trust mask:
    the one reader of the profile's guard pass, CalabiProfile.guarded."""
    return p.du, p.d2u, p.guarded[0], -p.guarded[1], c4_trust_mask(p)


def _row(x, phi, dphi, d2phi, trust, n, t, h, a, b, T, regime, dt, iters) -> TraceRow:
    """sample_row of a rho state's arrays, reduced off the ghost-supported end nodes."""
    inner, x0 = slice(_GHOST, len(x) - _GHOST), float(x[0])
    return sample_row(x[inner], phi[inner], dphi[inner], d2phi[inner], trust[inner], n,
                      t=t, T=T, regime=regime, ends=(x0, float(x[-1])),
                      volume=_volume(x, phi, h, a, b, n), diam=_DIAMETER_ALPHA * math.sqrt(a),
                      lam_edge=base_eigenvalue(x0, float(phi[0]) / x0, float(dphi[0]), n),
                      dt=dt, iters=iters)


def profile_row(p: CalabiProfile, T: float, regime: Regime,
                dt: float = 0.0, iters: int = 0) -> TraceRow:
    """The row of a rho profile at its time, read through moment_arrays."""
    return _row(*moment_arrays(p), p.n, p.t, p.grid.h, p.cls.a, p.cls.b, T, regime, dt, iters)


def row_from_samples(u: np.ndarray, h: float, params: FlowParams, t: float, T: float,
                     regime: Regime, dt: float = 0.0, iters: int = 0) -> TraceRow:
    """profile_row(profile_from_samples(u, ...)) at time t, bit for bit, building none."""
    cls, k = class_at(params, t), params.k
    du, d2u, d3u, d4u = stencil_derivatives(u, h, k, cls.a, cls.b)
    G, c4, trust = guard_tails(u, d2u, d3u, d4u, h, k)
    return _row(du, d2u, G, -c4, trust, params.n, t, h, cls.a, cls.b, T, regime, dt, iters)


# ---------------------------------------------------------------------------
# export

_SIGMA = TraceRow._fields.index("sigma")


def _columns(row: tuple, sigma) -> tuple:
    """row, in TraceRow's field order, with its sigma entry expanded to sigma."""
    return (*row[:_SIGMA], *sigma, *row[_SIGMA + 1:])


def trace_header(n: int) -> str:
    """trace.csv's header: TraceRow's fields in order, with sigma expanded to
    one column per symmetric function, sigma2 ... sigman."""
    return ",".join(_columns(TraceRow._fields, (f"sigma{j}" for j in range(2, n + 1))))


def export_trace(trace: FlowTrace, path: str | Path) -> None:
    """Write the trace as CSV under trace_header, every column with %.17g,
    which prints the integer iters as %d does; fully deterministic."""
    header = trace_header(trace.params.n)
    fmt = ",".join(["%.17g"] * (header.count(",") + 1))
    rows = (fmt % _columns(r, r.sigma) for r in trace.rows)
    write_atomic(path, "\n".join([header, *rows]) + "\n")


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
        # whole milliseconds, rounded down, so they never sum above elapsed
        "phase_seconds": {key: math.floor(val * 1e3) / 1e3
                          for key, val in trace.phase_seconds.items()},
    }
    if trace.error is not None:
        summary["error"] = trace.error
    write_atomic(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
