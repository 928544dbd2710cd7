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
and f'(rho) = mu phi.  Taking the moment variable of the soliton equation,
P' + mu phi - lambda x is a constant alpha: the relation above.

- lambda = 1.  Under d omega/dt = -Ric a self-similar solution is
  omega(t) = (T - t) omega_inf up to diffeomorphism, so the limit of the
  1/(T - t) magnification solves the soliton equation with lambda = 1.
- alpha = 0.  The limit vanishes with slope k at x = n - k, and phi = 0,
  phi' = k there give alpha = (n - k)(1 - lambda) = 0.

The complete solution with a = n - k is the Feldman-Ilmanen-Knopf shrinker

    phi(x) = (n!/mu^(n+1)) x^(1-n) [e_n(mu x) - mu e_(n-1)(mu x)],   x >= a,

with e_m(z) = sum_(j <= m) z^j/j!; completeness, phi(a) = 0, fixes mu by
mu e_(n-1)(mu a) = e_n(mu a).  It is the blow-up limit along the
exceptional divisor, and the report's one reference (``fik_reference``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .diagnostics import CheckpointRecord, _write_table, json_number, moment_arrays
from .moment import (
    WINDOW_SAMPLES,
    MomentDomainError,
    MomentProfile,
    c1_distance,
    moment_profile,
)
from .profile import (
    Regime,
    _number,
    infer_initial_class,
    on_class_motion,
    singular_time,
    write_atomic,
)


class BlowupError(RuntimeError):
    pass


class RegimeMismatchError(BlowupError):
    """The class evolution is not in the divisor-contraction regime."""


class SolitonFit(NamedTuple):
    mu: float
    c: float
    rms: float


class BlowupRow(NamedTuple):
    j: int
    t: float
    K: float
    a_hat: float
    selfsim_prev: float
    soliton_rms: float
    fik_dist: float
    mu: float
    c: float


# the columns of blowup.csv and of the blowup command's table
_TABLE_COLUMNS = BlowupRow._fields[:7]


class BlowupReport(NamedTuple):
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
                     window: tuple[float, float] | None = None) -> SolitonFit:
    """Least-squares fit of (mu, alpha) in the shrinker relation at
    lambda = 1 (module docstring), with the rms residual; mu is the
    strength of the soliton potential f = mu x, and alpha is returned as c."""
    if window is None:
        window = (m.x_min, m.x_max)
    m.check_window(window)
    xs = np.linspace(window[0], window[1], WINDOW_SAMPLES)
    phi, dphi = m.sample(xs)
    base = n - (n - 1) * phi / xs - xs - dphi
    A = np.stack([phi, -np.ones_like(xs)], axis=1)
    coef, *_ = np.linalg.lstsq(A, -base, rcond=None)
    mu, alpha = float(coef[0]), float(coef[1])
    resid = base + mu * phi - alpha
    return SolitonFit(mu=mu, c=alpha, rms=float(np.sqrt(np.mean(resid**2))))


def _scaled_exp_sum(m: int, z):
    """S_m(z) = e_m(z) m!/z^m = sum_i prod_(l<i) (m - l)/z, summed until a term
    falls below 1e-17 of the total or it overflows: no power or factorial."""
    term = total = 1.0
    for l in range(m):
        term = term * ((m - l) / z)
        total = total + term
        if np.all(term <= 1e-17 * total):  # inf <= inf ends an overflowed sum
            break
    return total


def fik_reference(n: int, k: int) -> MomentProfile:
    """The Feldman-Ilmanen-Knopf shrinker on [a, max(12, 4a)], a = n - k.

    With z = mu x, nu = mu - 1 and t = nu n S_(n-1)(z)/mu (S_m: _scaled_exp_sum),
    the closed form is phi = (x/mu) [1 - nu (n/z) S_(n-1)(z)] = (x - t)/mu, and
    its derivative, with S_(n-1) = 1 + ((n-1)/z) S_(n-2) so that no terms of size
    S cancel, is phi' = (1 - n) phi/x + n - t.  Completeness, nu n S_(n-1)(mu a)
    = mu a, is bisected geometrically in nu, which keeps its digits below the
    rounding of 1.  Refused: nu below the smallest normal double (n >= 171 at
    k = n - 1, where S overflows), and a > 1e6 (a fit loses its constant column).
    """
    n, k = _number("n", n, integer=True), _number("k", k, integer=True)
    if not 0 < k < n:
        raise BlowupError(f"reference needs 0 < k < n, got k={k}, n={n}")
    a = float(n - k)
    if a > 1e6:
        raise BlowupError(f"reference needs n - k <= 1e6, got {n - k}")

    def gap(nu: float) -> float:
        return nu * n * _scaled_exp_sum(n - 1, (1.0 + nu) * a) - (1.0 + nu) * a

    lo, hi = float(np.finfo(float).tiny), 49.0
    if not gap(lo) < 0.0:
        raise BlowupError(f"reference needs mu - 1 >= {lo:.1e}, got less for n={n}, k={k}")
    if not gap(hi) > 0.0:
        raise BlowupError(f"no shrinker with mu in (1, 50] for n={n}, k={k}")
    while lo < (mid := lo**0.5 * hi**0.5) < hi:
        lo, hi = (mid, hi) if gap(mid) < 0.0 else (lo, mid)
    nu, mu = hi, 1.0 + hi
    xs = np.linspace(a, max(12.0, 4.0 * a), 2001)
    t = nu * n * _scaled_exp_sum(n - 1, mu * xs) / mu
    phi = (xs - t) / mu
    return MomentProfile(x=xs, phi=phi, dphi=(1 - n) * phi / xs + n - t)


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
    to the shrinker ``fik_reference(n, k)``.  Requires the divisor-contraction
    regime, an integer min_j and at least three usable checkpoints.  A level
    given twice, off the first level's flow (its n, k or class), or whose
    samples miss its window raises a BlowupError that names the level.
    """
    T, min_j = _number("T", T), _number("min_j", min_j, integer=True)
    if not checkpoints:
        raise BlowupError("no checkpoints given")
    levels = sorted(checkpoints, key=lambda c: c.j)
    for prev, rec in zip(levels, levels[1:]):
        if rec.j == prev.j:
            raise BlowupError(f"two checkpoints of level j={rec.j}")
    first = levels[0]
    params = infer_initial_class(first.profile, n, k)
    info = singular_time(params)
    if info.regime is not Regime.CONTRACT:
        raise RegimeMismatchError(
            f"blow-up analysis needs the {Regime.CONTRACT.value} regime, "
            f"class evolution is {info.regime.value}")
    if not abs(info.T - T) <= 1e-6 * max(info.T, 1.0):
        raise BlowupError(
            f"stated T={T} inconsistent with class data (T={info.T:.9g})")

    usable = [c for c in levels if c.j >= min_j]
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
        if not on_class_motion(params, p):
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
        rows.append(BlowupRow(j=rec.j, t=p.t, K=K, a_hat=a_hat,
                              selfsim_prev=selfsim, soliton_rms=fit.rms,
                              fik_dist=fik_d, mu=fit.mu, c=fit.c))
        prev_m, prev_win = m, win

    report = BlowupReport(n=n, k=k, T=T, rows=tuple(rows))
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def write_report(report: BlowupReport, out_dir: str | Path) -> None:
    """blowup.csv holds the _TABLE_COLUMNS of each row; blowup.json holds every
    field of the report and of its rows, with a NaN selfsim_prev as null."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(out / "blowup.csv", ",".join(_TABLE_COLUMNS),
                 (r[:len(_TABLE_COLUMNS)] for r in report.rows))
    rows = [{**r._asdict(), "selfsim_prev": json_number(r.selfsim_prev)} for r in report.rows]
    payload = {**report._asdict(), "lambda": 1.0, "rows": rows}
    write_atomic(out / "blowup.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
