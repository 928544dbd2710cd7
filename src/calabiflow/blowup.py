"""Rescaling analysis near the singular time.

When the zero divisor contracts, profiles approaching T are magnified by
K = 1/(T - t), which sends the left class endpoint to the fixed value
n - k; moment.moment_profile magnifies a checkpoint's moment arrays, read
by the monitors' adapter diagnostics.moment_arrays, scaling x and phi by
K.  Convergence of the magnified moment profiles in C^1 on a fixed window,
together with a shrinking residual of the shrinker relation

    phi'(x) = n - (n-1) phi(x)/x - lambda x + mu phi(x) - alpha,

is the numerical signature of a self-similar limit.

Derivation.  With x = u'(rho) and phi(x) = u''(rho), the Ricci form of
omega = i ddbar u(rho) has the radial potential
P = n rho - log phi - (n-1) log x, and the radial moment variable of
i ddbar F(rho) is F'(rho).  Since d/drho = phi d/dx,

    P'(rho) = n - phi'(x) - (n-1) phi/x.

A gradient Kaehler-Ricci soliton Ric + i ddbar f = lambda omega with a
rotationally symmetric holomorphic soliton field has that field a multiple
of the Euler field, whose Hamiltonian is the moment map x; so f = mu x
and f'(rho) = mu phi.  Taking the moment variable of the soliton
equation, P' + mu phi - lambda x is a constant alpha, which is the
relation above (the rotationally symmetric shrinkers of Feldman, Ilmanen
and Knopf satisfy it).

- lambda = 1.  Under d omega/dt = -Ric a self-similar solution is
  omega(t) = (T - t) omega_inf up to diffeomorphism, so the limit of the
  1/(T - t) magnification solves the soliton equation with lambda = 1
  (acceptance criterion 2 measures the same normalization: (T - t) times
  the divisor eigenvalue tends to 1).
- alpha = (n - k)(1 - lambda).  At the rescaled divisor x = n - k the
  profile vanishes with slope k; putting phi = 0, phi' = k there gives
  alpha = (n - k)(1 - lambda), so alpha = 0 for the blow-up limit.

The relation is fitted for (mu, alpha) by least squares at fixed lambda
(``soliton_residual``; alpha is reported as ``c``).  Two exact references
check the fit: the flat model phi(x) = x satisfies it with
mu = lambda, alpha = 0, and the Ricci-flat cone

    phi(x) = (k/n) (x - a^n x^(1-n)),   x >= a,

with conical slope k at the collapsed divisor satisfies it with
lambda = mu = 0 and alpha = n - k.  Distances to the cone are reported
alongside the fit so drift relative to it is visible row by row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import CheckpointRecord, json_number, moment_arrays
from .moment import (
    WINDOW_SAMPLES,
    MomentDomainError,
    MomentProfile,
    c1_distance,
    moment_profile,
)
from .profile import (
    CalabiProfile,
    FlowParams,
    Regime,
    on_class_motion,
    singular_time,
    write_atomic,
)


class BlowupError(RuntimeError):
    pass


class RegimeMismatchError(BlowupError):
    """The class evolution is not in the divisor-contraction regime."""


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
    rows: tuple[BlowupRow, ...]


def blowup_window(m: MomentProfile, a_hat: float,
                  b_hat: float) -> tuple[float, float]:
    """Comparison window in the magnified moment variable.

    It starts a fixed offset above the magnified left class endpoint a_hat
    and stops well short of b_hat, growing toward the cap 10 as b_hat
    recedes.  It must lie inside the samples of m; it is never clipped to
    them, since the raw slopes next to the grid ends are not the solution's.
    """
    window = (a_hat + 0.1, min(10.0, 0.5 * b_hat))
    try:
        m.check_window(window)
    except MomentDomainError as exc:
        raise BlowupError(f"comparison window: {exc}") from exc
    return window


def soliton_residual(m: MomentProfile, n: int,
                     window: tuple[float, float] | None = None,
                     lam: float = 1.0) -> SolitonFit:
    """Least-squares fit of (mu, alpha) in the shrinker relation; rms residual.

    The relation is phi' = n - (n-1) phi/x - lam x + mu phi - alpha (derived
    in the module docstring).  lam is held fixed: lam = 1 is the
    normalization of a Type I blow-up under 1/(T - t) magnification, lam = 0
    a steady (Ricci-flat) profile.  mu is the strength of the soliton
    potential f = mu x, and alpha = (n - k)(1 - lam) for a profile vanishing
    with slope k at x = n - k; the fitted alpha is returned as ``c``.
    """
    if window is None:
        window = (m.x_min, m.x_max)
    m.check_window(window)
    xs = np.linspace(window[0], window[1], WINDOW_SAMPLES)
    phi, dphi = m.sample(xs)
    base = n - (n - 1) * phi / xs - lam * xs - dphi
    A = np.stack([phi, -np.ones_like(xs)], axis=1)
    coef, *_ = np.linalg.lstsq(A, -base, rcond=None)
    mu, alpha = float(coef[0]), float(coef[1])
    resid = base + mu * phi - alpha
    return SolitonFit(mu=mu, c=alpha, lam=lam,
                      rms=float(np.sqrt(np.mean(resid**2))))


def fik_reference(n: int, k: int) -> MomentProfile:
    """Cone-slope reference phi(x) = (k/n)(x - a^n x^(1-n)) on [a, max(12, 4a)].

    a = n - k is the rescaled divisor, where phi vanishes with slope k; k < n
    so that slope matches an admissible closure.  Evaluated through a/x <= 1,
    it cannot overflow; a is at most 1e6, beyond which a fit on its samples
    loses its constant column.
    """
    if not 0 < k < n:
        raise BlowupError(f"reference needs 0 < k < n, got k={k}, n={n}")
    a = float(n - k)
    if a > 1e6:
        raise BlowupError(f"reference needs n - k <= 1e6, got {n - k}")
    xs = np.linspace(a, max(12.0, 4.0 * a), 2001)
    ratio = a / xs
    phi = (k / n) * (xs - a * ratio ** (n - 1))
    dphi = (k / n) * (1.0 + (n - 1) * ratio**n)
    return MomentProfile(x=xs, phi=phi, dphi=dphi)


def gaussian_reference() -> MomentProfile:
    """The flat model phi(x) = x on [0.5, 10]; satisfies the shrinker
    relation with mu = lambda, alpha = 0."""
    xs = np.linspace(0.5, 10.0, 801)
    return MomentProfile(x=xs, phi=xs.copy(), dphi=np.ones_like(xs))


def infer_initial_class(p: CalabiProfile, n: int, k: int) -> FlowParams:
    """Undo the linear class motion to recover the t=0 endpoints."""
    return FlowParams(n=n, k=k,
                      a0=p.cls.a + (n - k) * p.t,
                      b0=p.cls.b + (n + k) * p.t)


def blowup_report(
    checkpoints: list[CheckpointRecord],
    T: float,
    n: int,
    k: int,
    min_j: int = 4,
    out_dir: str | Path | None = None,
) -> BlowupReport:
    """Self-similarity and soliton diagnostics over the late checkpoints.

    Rows, one per checkpoint with j >= min_j: magnification K, rescaled
    left endpoint, C^1 distance to the previous rescaled profile on the
    overlap window, soliton fit residual at lambda = 1, and C^1 distance
    to the cone reference with a_hat = n - k.  Requires the divisor-contraction
    regime and at least three usable checkpoints.  A level whose n, k or
    class is not that of the first level's flow, or whose samples miss its
    window, raises a BlowupError that names the level.
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

    reference = fik_reference(n, k)
    rows: list[BlowupRow] = []
    prev_m: MomentProfile | None = None
    prev_win: tuple[float, float] | None = None
    for rec in usable:
        p = rec.profile
        if p.t >= T:
            raise BlowupError(f"profile time {p.t} is not before T={T}")
        if (p.n, p.k) != (n, k) or not on_class_motion(params, p):
            raise BlowupError(
                f"level j={rec.j}: n={p.n}, k={p.k}, class ({p.cls.a:.9g}, {p.cls.b:.9g}) "
                f"at t={p.t:.9g} is off the flow of level j={first.j} (n={n}, k={k}, "
                f"a0={params.a0:.9g}, b0={params.b0:.9g})")
        K = 1.0 / (T - p.t)
        a_hat = K * p.cls.a
        try:
            m = moment_profile(*moment_arrays(p)[:3], K)
            win = blowup_window(m, a_hat, K * p.cls.b)
        except (MomentDomainError, BlowupError) as exc:
            raise BlowupError(f"level j={rec.j}: {exc}") from exc
        selfsim = float("nan")
        if prev_m is not None:
            overlap = (max(prev_win[0], win[0]), min(prev_win[1], win[1]))
            if overlap[1] <= overlap[0]:
                raise BlowupError(f"windows of j={rec.j} and previous do not overlap")
            selfsim = c1_distance(prev_m, m, overlap)
        fit = soliton_residual(m, n, window=win)
        fik_d = c1_distance(m, reference, win)
        rows.append(BlowupRow(j=rec.j, t=rec.t, K=K, a_hat=a_hat,
                              selfsim_prev=selfsim, soliton_rms=fit.rms,
                              fik_dist=fik_d, mu=fit.mu, c=fit.c))
        prev_m, prev_win = m, win

    report = BlowupReport(n=n, k=k, T=T, rows=tuple(rows))
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
    write_atomic(out / "blowup.csv", "\n".join(lines) + "\n")

    payload = {
        "n": report.n,
        "k": report.k,
        "T": report.T,
        "lambda": 1.0,
        "rows": [
            {"j": r.j, "t": r.t, "K": r.K, "a_hat": r.a_hat,
             "selfsim_prev": json_number(r.selfsim_prev),
             "soliton_rms": r.soliton_rms, "fik_dist": r.fik_dist,
             "mu": r.mu, "c": r.c}
            for r in report.rows
        ],
    }
    write_atomic(out / "blowup.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
