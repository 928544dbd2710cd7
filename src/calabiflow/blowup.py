"""Rescaling analysis near the singular time.

When the zero divisor contracts, profiles approaching T are magnified by
K = 1/(T - t), which sends the left class endpoint to the fixed value
n - k.  Convergence of the magnified moment profiles in C^1 on a fixed
window, together with a shrinking residual of the soliton relation

    rho_s(x) = n - (n-1) phi(x)/x - phi'(x) + (mu - lambda) x - c,

is the numerical signature of a self-similar limit.  (mu, c) are fitted
by least squares at fixed lambda; the flat Gaussian model phi(x) = x
satisfies the relation with mu = lambda, c = 0, and the cone reference

    phi(x) = (k/n) (x - a^n x^(1-n)),   x >= a,

the profile with conical slope k at the collapsed divisor, satisfies it
with mu = lambda and c = n - k.  Distances to the cone reference are
reported alongside the fit so drift toward it is visible row by row.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import CheckpointRecord
from .moment import MomentProfile, c1_distance
from .profile import (
    CalabiProfile,
    FlowParams,
    Regime,
    ratio_g,
    rescaled_copy,
    singular_time,
    to_moment_profile,
)


class BlowupError(RuntimeError):
    pass


class RegimeMismatchError(BlowupError):
    """The class evolution is not in the divisor-contraction regime."""


@dataclass(frozen=True)
class RescaledProfile:
    profile: CalabiProfile
    K: float
    t: float

    @property
    def a_hat(self) -> float:
        return self.profile.cls.a


@dataclass(frozen=True)
class SolitonFit:
    mu: float
    c: float
    lam: float
    rms: float


@dataclass(frozen=True)
class BlowupRow:
    j: int
    t: float
    K: float
    a_hat: float
    selfsim_prev: float
    soliton_rms: float
    fik_dist: float
    mu: float
    c: float


@dataclass(frozen=True)
class BlowupReport:
    n: int
    k: int
    T: float
    lam: float
    rows: tuple[BlowupRow, ...]


def rescale(p: CalabiProfile, T: float) -> RescaledProfile:
    """Magnify a profile by 1/(T - t)."""
    if p.t >= T:
        raise BlowupError(f"profile time {p.t} is not before T={T}")
    K = 1.0 / (T - p.t)
    return RescaledProfile(profile=rescaled_copy(p, K), K=K, t=p.t)


def blowup_window(rp: RescaledProfile) -> tuple[float, float]:
    """Comparison window in the magnified moment variable.

    Starts a fixed offset above the rescaled left endpoint and stops well
    short of the right endpoint, growing toward the cap 10 as the right
    endpoint recedes.
    """
    lo = rp.profile.cls.a + 0.1
    hi = min(10.0, 0.5 * rp.profile.cls.b)
    if hi <= lo:
        raise BlowupError(f"empty comparison window ({lo:.6g}, {hi:.6g})")
    return lo, hi


def soliton_residual(m: MomentProfile, n: int,
                     window: tuple[float, float] | None = None,
                     lam: float = 0.5, samples: int = 801) -> SolitonFit:
    """Least-squares fit of (mu, c) in the soliton relation; rms residual.

    lam is the normalization of the rescaled time variable and is held
    fixed; the relation is invariant under (x, phi, lam) ->
    (s x, s phi, lam / s), which the fitted mu simply follows.
    """
    if window is None:
        window = (m.x_min, m.x_max)
    m.check_window(window)
    xs = np.linspace(window[0], window[1], samples)
    phi = m.eval(xs)
    dphi = m.eval_slope(xs)
    base = n - (n - 1) * phi / xs - dphi - lam * xs
    A = np.column_stack([xs, -np.ones_like(xs)])
    coef, *_ = np.linalg.lstsq(A, -base, rcond=None)
    mu, c = float(coef[0]), float(coef[1])
    resid = base + mu * xs - c
    return SolitonFit(mu=mu, c=c, lam=lam,
                      rms=float(np.sqrt(np.mean(resid**2))))


def fik_reference(n: int, k: int, a_hat: float,
                  x_max: float | None = None, samples: int = 2001) -> MomentProfile:
    """Cone-slope reference profile phi(x) = (k/n)(x - a^n x^(1-n)).

    Vanishes with slope k at x = a_hat and approaches the linear growth
    (k/n) x; defined for k < n so the slope at the divisor matches an
    admissible closure.
    """
    if not 0 < k < n:
        raise BlowupError(f"reference needs 0 < k < n, got k={k}, n={n}")
    if a_hat <= 0.0:
        raise BlowupError(f"reference needs a_hat > 0, got {a_hat}")
    if x_max is None:
        x_max = max(12.0, 4.0 * a_hat)
    xs = np.linspace(a_hat, x_max, samples)
    an = a_hat**n
    phi = (k / n) * (xs - an * xs ** (1 - n))
    dphi = (k / n) * (1.0 + (n - 1) * an * xs ** (-n))
    return MomentProfile(x=xs, phi=phi, dphi=dphi, a_hat=a_hat, b_hat=x_max,
                         slopes=(float(k), float(dphi[-1])))


def gaussian_reference(x_min: float = 0.5, x_max: float = 10.0,
                       samples: int = 801) -> MomentProfile:
    """The flat model phi(x) = x; annihilates the soliton relation with
    mu = lambda, c = 0."""
    xs = np.linspace(x_min, x_max, samples)
    return MomentProfile(x=xs, phi=xs.copy(), dphi=np.ones_like(xs),
                         a_hat=x_min, b_hat=x_max, slopes=(1.0, 1.0))


def infer_initial_class(p: CalabiProfile, n: int, k: int) -> FlowParams:
    """Undo the linear class motion to recover the t=0 endpoints."""
    return FlowParams(n=n, k=k,
                      a0=p.cls.a + (n - k) * p.t,
                      b0=p.cls.b + (n + k) * p.t)


def _moment_core(p: CalabiProfile) -> MomentProfile:
    """Moment conversion tolerant of degraded boundary nodes.

    Close to the singular time the outermost node or two can lose strict
    monotonicity of u' while the interior stays healthy.  Those nodes map
    to the extreme ends of the moment domain, far outside any comparison
    window, so the conversion keeps the longest strictly increasing run
    of u' containing the center and drops the rest.
    """
    increasing = np.diff(p.du) > 0.0
    if bool(increasing.all()):
        return to_moment_profile(p)
    c = p.grid.center
    lo = c
    while lo > 0 and increasing[lo - 1]:
        lo -= 1
    hi = c
    while hi < increasing.size and increasing[hi]:
        hi += 1
    if hi - lo < 3:
        raise BlowupError(
            f"u' at t={p.t:.6g} has no usable increasing run around the center")
    dphi = ratio_g(p)
    core = slice(lo, hi + 1)
    return MomentProfile(
        x=p.du[core].copy(),
        phi=p.d2u[core].copy(),
        dphi=dphi[core],
        a_hat=p.cls.a,
        b_hat=p.cls.b,
        slopes=(float(dphi[lo]), float(dphi[hi])),
    )


def blowup_report(
    checkpoints: list[CheckpointRecord],
    T: float,
    n: int,
    k: int,
    min_j: int = 4,
    lam: float = 0.5,
    out_dir: str | Path | None = None,
) -> BlowupReport:
    """Self-similarity and soliton diagnostics over the late checkpoints.

    Rows, one per checkpoint with j >= min_j: magnification K, rescaled
    left endpoint, C^1 distance to the previous rescaled profile on the
    overlap window, soliton fit residual, and C^1 distance to the cone
    reference with a_hat = n - k.  Requires the divisor-contraction
    regime and at least three usable checkpoints.
    """
    if not checkpoints:
        raise BlowupError("no checkpoints given")
    first = min(checkpoints, key=lambda c: c.j)
    params = infer_initial_class(first.profile, n, k)
    info = singular_time(params)
    if info.regime is not Regime.CONTRACT:
        raise RegimeMismatchError(
            f"blow-up analysis needs the {Regime.CONTRACT.value} regime, "
            f"class evolution is {info.regime.value}")
    if abs(info.T - T) > 1e-6 * max(T, 1.0):
        raise BlowupError(
            f"stated T={T} inconsistent with class data (T={info.T:.9g})")

    usable = sorted((c for c in checkpoints if c.j >= min_j), key=lambda c: c.j)
    if len(usable) < 3:
        raise BlowupError(
            f"need at least 3 checkpoints with j >= {min_j}, have {len(usable)}")

    reference = fik_reference(n, k, float(n - k))
    rows: list[BlowupRow] = []
    prev_m: MomentProfile | None = None
    prev_win: tuple[float, float] | None = None
    for rec in usable:
        rp = rescale(rec.profile, T)
        m = _moment_core(rp.profile)
        win = blowup_window(rp)
        selfsim = float("nan")
        if prev_m is not None:
            overlap = (max(prev_win[0], win[0]), min(prev_win[1], win[1]))
            if overlap[1] <= overlap[0]:
                raise BlowupError(f"windows of j={rec.j} and previous do not overlap")
            selfsim = c1_distance(prev_m, m, overlap)
        fit = soliton_residual(m, n, window=win, lam=lam)
        fik_d = c1_distance(m, reference, win)
        rows.append(BlowupRow(j=rec.j, t=rec.t, K=rp.K, a_hat=rp.a_hat,
                              selfsim_prev=selfsim, soliton_rms=fit.rms,
                              fik_dist=fik_d, mu=fit.mu, c=fit.c))
        prev_m, prev_win = m, win

    report = BlowupReport(n=n, k=k, T=T, lam=lam, rows=tuple(rows))
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def write_report(report: BlowupReport, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["j,t,K,a_hat,selfsim_prev,soliton_rms,fik_dist"]
    for r in report.rows:
        lines.append("%d," % r.j + ",".join(
            "%.17g" % v for v in (r.t, r.K, r.a_hat, r.selfsim_prev,
                                  r.soliton_rms, r.fik_dist)))
    (out / "blowup.csv").write_text("\n".join(lines) + "\n")

    def clean(x: float):
        return None if not math.isfinite(x) else x

    payload = {
        "n": report.n,
        "k": report.k,
        "T": report.T,
        "lambda": report.lam,
        "rows": [
            {"j": r.j, "t": r.t, "K": r.K, "a_hat": r.a_hat,
             "selfsim_prev": clean(r.selfsim_prev),
             "soliton_rms": r.soliton_rms, "fik_dist": r.fik_dist,
             "mu": r.mu, "c": r.c}
            for r in report.rows
        ],
    }
    with (out / "blowup.json").open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
