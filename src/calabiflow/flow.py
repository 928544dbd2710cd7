"""Time integration of the symmetric potential flow.

The potential evolves by du/dt = log u'' + (n-1) log u' - n*rho + c(t),
where the gauge constant c(t) pins the velocity at rho = 0 to zero:

    c(t) = -log u''(0, t) - (n-1) * log u'(0, t)

Each step is one TR-BDF2 step (Bank et al., IEEE TCAD 1985) with
gamma = 2 - sqrt(2), second order and L-stable.  With f(u) = log u'' +
(n-1) log u' - n rho and d = gamma/2, both stages solve w - d dt f(w) = rhs
on the interior rows: the trapezoidal stage to t + gamma dt with
rhs = u_n + d dt f(u_n), then the BDF2 stage to t + dt with
rhs = (u_gamma - (1-gamma)^2 u_n) / (gamma (2-gamma)).  Interior rows
discretize the equation with second-order differences; the two boundary
rows are exponentially fitted closure relations, imposed at each stage's
time, that are exact on the asymptotic tail model, so u'(+-L) tracks the
moving class endpoints.

Each stage is solved by a damped Newton iteration.  Its Jacobian, the
stage matrix I - d dt df/dw, is tridiagonal on the interior rows; each
closure row reaches one column further into the grid.  One row operation
against its interior neighbour removes that entry, so every Newton step
is a single tridiagonal solve (LAPACK dgtsv, partial pivoting), assembled
by the one helper that the error filter uses too.  The differences u', u''
that decide whether a damped iterate is admissible are the ones the next
residual and Jacobian use, so each iterate is differenced once.  Newton
stops after an undamped update delta_k when sup|delta_k| is below
TOL_NEWTON, or when it follows an undamped delta_(k-1) and the contraction
estimate theta = |delta_k|/|delta_(k-1)| < 1 bounds the error left,
theta/(1-theta) |delta_k|, by TOL_NEWTON (Hairer-Wanner, Solving ODEs II,
IV.8).  From the explicit predictor (the trapezoidal stage) or the linear
extrapolation of u_n and u_gamma (the BDF2 stage) that saves the
confirming iteration: two linear solves per stage.

The gauge only fixes the additive constant of u, which the Kahler form
never sees.  Every interior term, both closure rows and c(t) itself depend
on differences of u alone, and J maps the constant vector to 1 on interior
rows and 0 on the closure rows; the reduced tridiagonal system comes from
J by row operations, so it solves the same equations.  So the gauged
stage solution is the ungauged one plus a constant: each stage is solved
without c(t), and the result is shifted so that u(0, t) keeps its
previous value.

Step size is controlled by the embedded estimate of Hosea and Shampine
(Analysis and implementation of TR-BDF2, APNUM 1996),
    est = C dt (f_n/gamma - f_gamma/(gamma (1-gamma)) + f_1/(1-gamma)),
C = (-3 gamma^2 + 4 gamma - 2) / (6 (2 - gamma)), on the interior rows and
0 on the closure rows.  f_n is the velocity the step computes once; f_gamma
and f_1 follow from the stage equations without another evaluation.  The
estimate is filtered by one more tridiagonal solve with the stage matrix
at u_1, which damps the stiff components a raw estimate would overstate,
and its center value is subtracted, since the gauge constant shifts the
stage values of f.  Its sup norm is held to tol_step, and the dt proposal
follows the cube-root rule of a second-order integrator; it is clipped
only by 0.25 (T - t) and by the next event time.  A rejected
attempt, a failed Newton solve or a missed estimate, shrinks dt through one
retry path; below DT_MIN the step fails, and its FlowError carries the
rejected attempts for the run log.

Admissibility (finite samples, u' > 0, u'' > FLOOR_U2) is checked once,
when each step starts; f_n comes from the differences that check takes, and
every damped Newton iterate stays admissible.  Stepping reads only the
samples u; the full CalabiProfile (tail fits and four derivative arrays) of
an accepted state is built on first read, so a run builds it only for
monitor rows, checkpoints and the final profile.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import dgtsv

from . import diagnostics
from .profile import (
    _STENCILS,
    CalabiProfile,
    FlowParams,
    KahlerClass,
    RhoGrid,
    build_canonical_profile,
    class_at,
    closure_rows,
    profile_from_samples,
    save_checkpoint,
    singular_time,
)

class FlowError(RuntimeError):
    """Integration failure.  rejected lists the attempts the failing step
    rejected before it gave up; trace is the partial trace when raised from
    run()."""

    def __init__(self, message: str, trace: "diagnostics.FlowTrace | None" = None,
                 rejected: tuple[str, ...] = ()):
        super().__init__(message)
        self.trace = trace
        self.rejected = rejected


class _StepFailure(Exception):
    """Internal: Newton did not converge or produced an invalid iterate."""


# step-size rule: a run's first step tries DT_INIT, a step fails below
# DT_MIN, and dt changes by the factor SAFETY (tol_step / err)^(1/3),
# clipped to [0.2, MAX_GROWTH]
DT_INIT = 1e-6
DT_MIN = 1e-13
SAFETY = 0.9
MAX_GROWTH = 4.0
# Newton stop tolerance and iteration limit; every iterate has u'' > FLOOR_U2
TOL_NEWTON = 1e-10
NEWTON_MAX_ITER = 12
FLOOR_U2 = 1e-10


@dataclass(frozen=True)
class StepControl:
    tol_step: float = 1e-6
    t_stop_fraction: float = 0.999

    def __post_init__(self):
        if not (math.isfinite(self.tol_step) and self.tol_step > 0.0):
            raise ValueError(f"need a finite tol_step > 0, got {self.tol_step}")
        if not 0.0 < self.t_stop_fraction < 1.0:
            raise ValueError("need 0 < t_stop_fraction < 1")


@dataclass(frozen=True)
class StepStats:
    """One accepted step.  newton_iters sums the Newton iterations of both
    stages; residual belongs to the last (BDF2) stage."""

    dt: float
    dt_next: float
    newton_iters: int
    residual: float
    error: float
    retries: int
    rejected: tuple[str, ...] = ()


class FlowState:
    """Samples u at time t on grid, with the stats of the step that made
    them.  Stepping reads only u, t and grid; `profile` is built from them
    on first read and kept."""

    def __init__(self, profile: CalabiProfile, params: FlowParams,
                 stats: StepStats | None = None):
        self._profile: CalabiProfile | None = profile
        self.params = params
        self.stats = stats
        self.u, self.t, self.grid = profile.u, profile.t, profile.grid

    @classmethod
    def _from_samples(cls, u: np.ndarray, t: float, grid: RhoGrid,
                      params: FlowParams, stats: StepStats) -> "FlowState":
        state = cls.__new__(cls)
        state._profile = None
        state.params, state.stats = params, stats
        state.u, state.t, state.grid = u, t, grid
        return state

    @property
    def profile(self) -> CalabiProfile:
        if self._profile is None:
            p = self.params
            self._profile = profile_from_samples(self.u, self.grid, class_at(p, self.t),
                                                 self.t, p.n, p.k)
        return self._profile


# ---------------------------------------------------------------------------
# TR-BDF2: two implicit stages with one coefficient, and the error filter

_GAMMA = 2.0 - math.sqrt(2.0)
_D = 0.5 * _GAMMA  # both stages solve w - D dt f(w) = rhs
_BDF2_OLD = (1.0 - _GAMMA) ** 2
_BDF2_SCALE = 1.0 / (_GAMMA * (2.0 - _GAMMA))
# est = dt (E_N f_n + E_G f_gamma + E_1 f_1), Hosea-Shampine
_ERR_COEF = (-3.0 * _GAMMA**2 + 4.0 * _GAMMA - 2.0) / (6.0 * (2.0 - _GAMMA))
_E_N = _ERR_COEF / _GAMMA
_E_G = -_ERR_COEF / (_GAMMA * (1.0 - _GAMMA))
_E_1 = _ERR_COEF / (1.0 - _GAMMA)


def _second_diffs(w: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(d1, d2) at interior nodes 1..N-2 by central differences."""
    d1 = (w[2:] - w[:-2]) / (2.0 * h)
    d2 = (w[:-2] - 2.0 * w[1:-1] + w[2:]) / h**2
    return d1, d2


def _valid(w: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray] | None:
    """(d1, d2) of an admissible iterate (finite, u' > 0, u'' > FLOOR_U2),
    or None."""
    if not np.all(np.isfinite(w)):
        return None
    d1, d2 = _second_diffs(w, h)
    if np.all(d1 > 0.0) and np.all(d2 > FLOOR_U2):
        return d1, d2
    return None


def _stage_matrix_solve(d1: np.ndarray, d2: np.ndarray, ddt: float, h: float,
                        n: int, efac: float, b: np.ndarray) -> np.ndarray:
    """Solve M x = b, M the stage Jacobian at differences (d1, d2).

    Interior rows of M are I - ddt df/dw, tridiagonal; each closure row's
    third entry is eliminated against its interior neighbour, in M and in
    b (which is overwritten), so the system is one dgtsv call.
    """
    curv = (ddt / h**2) / d2
    drift = (ddt * (n - 1) / (2.0 * h)) / d1
    N = b.size
    diag = np.empty(N)
    dl = np.empty(N - 1)
    du = np.empty(N - 1)
    diag[1:-1] = 1.0 + 2.0 * curv
    dl[:-1] = drift - curv
    du[1:] = -(curv + drift)
    r = 1.0 / du[1]
    diag[0] = 1.0 + efac - r * dl[0]
    du[0] = -2.0 - efac - r * diag[1]
    b[0] -= r * b[1]
    r = 1.0 / dl[-2]
    diag[-1] = 1.0 + efac - r * du[-1]
    dl[-1] = -2.0 - efac - r * diag[-2]
    b[-1] -= r * b[-2]
    _, _, _, x, info = dgtsv(dl, diag, du, b, overwrite_dl=True, overwrite_d=True,
                             overwrite_du=True, overwrite_b=True)
    if info != 0:
        raise _StepFailure(f"tridiagonal solve failed: info={info}")
    if not np.all(np.isfinite(x)):
        raise _StepFailure("nonfinite tridiagonal solution")
    return x


def _solve_stage(
    u_prev: np.ndarray,
    rhs: np.ndarray,
    ddt: float,
    grid: RhoGrid,
    cls_new: KahlerClass,
    n: int,
    k: int,
    w0: np.ndarray,
) -> tuple[np.ndarray, int, float]:
    """Solve w - ddt f(w) = rhs on the interior rows, with the closure rows
    of cls_new, by damped Newton from w0 (from u_prev, which must be
    admissible, if w0 is not); f(w) = log w'' + (n-1) log w' - n rho.  Returns
    (w, iterations, residual), the residual taken at the start of the last
    iteration.

    The system is solved without the gauge constant, and the converged
    solution is shifted to keep the center value of u_prev.
    """
    h, c = grid.h, grid.center
    efac = math.expm1(k * h)
    # interior rows: F = w - (rhs - ddt n rho) - ddt (log u'' + (n-1) log u')
    base = rhs - ddt * n * grid.nodes[1:-1]

    w = w0
    diffs = _valid(w, h)
    if diffs is None:
        w = u_prev
        diffs = _second_diffs(w, h)

    F = np.empty(grid.N)
    res = math.inf
    prev_full = None  # sup|delta| of the previous update, if undamped
    for it in range(1, NEWTON_MAX_ITER + 1):
        d1, d2 = diffs
        F[1:-1] = w[1:-1] - base - ddt * (np.log(d2) + (n - 1) * np.log(d1))
        F[0], F[-1] = closure_rows(w, h, efac, cls_new.a, cls_new.b)
        res = float(np.max(np.abs(F)))
        if not math.isfinite(res):
            raise _StepFailure("nonfinite residual")
        delta = _stage_matrix_solve(d1, d2, ddt, h, n, efac, F)

        sup_delta = float(np.max(np.abs(delta)))
        lam = 1.0
        for _ in range(9):
            w_try = w - lam * delta
            diffs = _valid(w_try, h)
            if diffs is not None:
                break
            lam *= 0.5
        else:
            raise _StepFailure("damping exhausted: iterate leaves admissible cone")
        w = w_try
        if lam < 1.0:
            prev_full = None
            continue
        # stop on an undamped update below tolerance or, after two undamped
        # updates in a row, on the contraction estimate of the error left
        theta = sup_delta / prev_full if prev_full is not None else math.inf
        if sup_delta <= TOL_NEWTON or (
                theta < 1.0 and theta / (1.0 - theta) * sup_delta <= TOL_NEWTON):
            return w - (w[c] - u_prev[c]), it, res
        prev_full = sup_delta
    raise _StepFailure(f"Newton stalled after {NEWTON_MAX_ITER} iterations "
                       f"(residual {res:.3e})")


def _velocity(d1: np.ndarray, d2: np.ndarray, grid: RhoGrid, n: int) -> np.ndarray:
    """Explicit velocity f(u) at interior nodes from the differences of an
    admissible u."""
    return np.log(d2) + (n - 1) * np.log(d1) - n * grid.nodes[1:-1]


def _predictor(u_prev: np.ndarray, dt: float, vel: np.ndarray) -> np.ndarray:
    w = u_prev.copy()
    w[1:-1] += dt * vel
    w[0] += dt * vel[0]
    w[-1] += dt * vel[-1]
    return w


def step(state: FlowState, ctl: StepControl, t_cap: float | None = None) -> FlowState:
    """Advance one accepted adaptive TR-BDF2 step (with internal retries).

    t_cap, when given, is an event time the step must not overshoot; the
    step lands on it exactly when the proposal reaches it.  The returned
    state builds its profile on first read.  An inadmissible u fails before
    any attempt; a failure after attempts carries them in FlowError.rejected.
    """
    params = state.params
    n, k = params.n, params.k
    u, t, grid = state.u, state.t, state.grid
    c = grid.center
    T = singular_time(params).T
    if t >= ctl.t_stop_fraction * T:
        raise FlowError(f"t={t} already beyond the stop time {ctl.t_stop_fraction * T}")

    diffs = _valid(u, grid.h)
    if diffs is None:
        d1, d2 = _second_diffs(u, grid.h)
        bad = np.flatnonzero(~((d1 > 0.0) & (d2 > FLOOR_U2))) + 1
        raise FlowError(f"profile inadmissible at t={t:.12g}: u' <= 0, u'' <= FLOOR_U2 "
                        f"or a non-finite sample at {bad.size} node(s), first at "
                        f"rho={grid.nodes[bad[0]]:.6g}")

    dt = min(state.stats.dt_next if state.stats is not None else DT_INIT, 0.25 * (T - t))
    f_n = _velocity(*diffs, grid, n)
    u_in = u[1:-1]
    b_old = (_BDF2_SCALE * _BDF2_OLD) * u_in
    rejected: list[str] = []
    while True:
        hit_cap = False
        if t_cap is not None and t + dt >= t_cap * (1.0 - 1e-14):
            dt = t_cap - t
            hit_cap = True
            if dt <= 0.0:
                raise FlowError(f"event time {t_cap} not ahead of t={t}")
        ddt = _D * dt
        try:
            # TR stage to t + gamma dt, from the explicit predictor
            rhs = u_in + ddt * f_n
            u_g, iters_g, _ = _solve_stage(
                u, rhs, ddt, grid, class_at(params, t + _GAMMA * dt), n, k,
                _predictor(u, _GAMMA * dt, f_n))
            f_g = (u_g[1:-1] - rhs) / ddt
            # BDF2 stage to t + dt, from the linear extrapolation of u, u_g
            rhs = _BDF2_SCALE * u_g[1:-1] - b_old
            u1, iters, res = _solve_stage(
                u, rhs, ddt, grid, class_at(params, t + dt), n, k,
                u + (u_g - u) / _GAMMA)
            f_1 = (u1[1:-1] - rhs) / ddt
            # embedded estimate, filtered through the stage matrix at u1
            est = np.zeros(grid.N)
            est[1:-1] = dt * (_E_N * f_n + _E_G * f_g + _E_1 * f_1)
            d1, d2 = _second_diffs(u1, grid.h)
            est = _stage_matrix_solve(d1, d2, ddt, grid.h, n,
                                      math.expm1(k * grid.h), est)
        except _StepFailure as exc:
            reason, factor = str(exc), 0.5
        else:
            # the gauge constant is invisible: compare with the center pinned
            err = float(np.max(np.abs(est - est[c])))
            factor = MAX_GROWTH if err == 0.0 else min(
                MAX_GROWTH, max(0.2, SAFETY * (ctl.tol_step / err) ** (1.0 / 3.0)))
            if err <= ctl.tol_step or dt <= 2.0 * DT_MIN:
                break
            reason = f"err={err:.6g} > tol"
        rejected.append(f"dt={dt:.6g} {reason}")
        dt *= factor
        if dt < DT_MIN:
            raise FlowError(f"profile degenerate: step size underflow at t={t:.12g} "
                            f"({reason})", rejected=tuple(rejected))

    t_new = t_cap if hit_cap else t + dt
    dt_next = max(dt * factor, DT_MIN)

    if float(np.min(d2)) <= FLOOR_U2:
        raise FlowError(f"profile degenerate: u'' at floor after step to t={t_new:.12g}",
                        rejected=tuple(rejected))
    stats = StepStats(dt=dt, dt_next=dt_next, newton_iters=iters_g + iters,
                      residual=res, error=err, retries=len(rejected),
                      rejected=tuple(rejected))
    return FlowState._from_samples(u1, t_new, grid, params, stats)


# ---------------------------------------------------------------------------
# full runs

def checkpoint_times(T: float, t_stop: float, count: int) -> list[tuple[float, int]]:
    """Dyadic approach times T*(1 - 2^-j) that fall inside the run."""
    out = []
    for j in range(1, count + 1):
        tj = T * (1.0 - 0.5**j)
        if tj <= t_stop * (1.0 + 1e-12):
            out.append((tj, j))
    return out


def run(
    params: FlowParams,
    ctl: StepControl | None = None,
    grid: RhoGrid | None = None,
    monitors: "diagnostics.MonitorSet | None" = None,
    seed_profile: CalabiProfile | None = None,
    out_dir: str | Path | None = None,
    checkpoints_j: int = 10,
) -> "diagnostics.FlowTrace":
    """Integrate from t=0 (or the seed's time) to the stop fraction of T.

    Rows are sampled at t=0, at every cadence-th accepted step, at each
    dyadic checkpoint time, and at the stop time.  With out_dir set, the
    trace table, a JSON summary, per-step log lines and the checkpoint
    profiles are written there.  A run that fails with FlowError still
    writes the trace and summary of the rows sampled so far; the summary
    then carries the error text under "error".
    """
    ctl = ctl or StepControl()
    grid = grid or RhoGrid(12.0, 2049)
    monitors = monitors or diagnostics.MonitorSet()
    info = singular_time(params)
    T = info.T
    t_stop = ctl.t_stop_fraction * T

    if seed_profile is None:
        seed_profile = build_canonical_profile(class_at(params, 0.0), grid,
                                               params.n, params.k)
    else:
        grid = seed_profile.grid
        expect = class_at(params, seed_profile.t)
        drift = max(abs(seed_profile.cls.a - expect.a),
                    abs(seed_profile.cls.b - expect.b))
        if drift > 1e-9 * max(params.b0, 1.0):
            raise FlowError(
                f"seed class ({seed_profile.cls.a:.9g}, {seed_profile.cls.b:.9g}) "
                f"does not match the class motion at t={seed_profile.t:.9g}")
    if seed_profile.t >= t_stop:
        raise FlowError(f"seed time {seed_profile.t} is past the stop time {t_stop}")

    events = [(tj, j) for tj, j in checkpoint_times(T, t_stop, checkpoints_j)
              if tj > seed_profile.t]
    if not events or t_stop - events[-1][0] > 1e-12 * T:
        events.append((t_stop, 0))

    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    log_fh = (out / "run.log").open("w") if out is not None else None

    state = FlowState(profile=seed_profile, params=params)
    trace = diagnostics.FlowTrace(params=params, T=T, regime=info.regime)
    trace.rows.append(diagnostics.sample_row(seed_profile, T, info.regime,
                                             dt=0.0, iters=0))
    started = time.perf_counter()
    failure: FlowError | None = None
    try:
        ev_idx = 0
        while state.t < t_stop * (1.0 - 1e-14):
            if ev_idx >= len(events):
                break
            t_cap = events[ev_idx][0]
            state = step(state, ctl, t_cap=t_cap)
            st = state.stats
            trace.steps += 1
            trace.retries += st.retries
            trace.newton_iters += st.newton_iters
            t = state.t
            if log_fh is not None:
                log_fh.writelines(f"reject {entry}\n" for entry in st.rejected)
                log_fh.write(f"t={t:.12g} dt={st.dt:.6g} iters={st.newton_iters} "
                             f"res={st.residual:.6g} retries={st.retries} "
                             f"err={st.error:.6g}\n")
            if abs(t - t_cap) <= 1e-12 * max(T, 1.0):
                j = events[ev_idx][1]
                ev_idx += 1
                if j > 0:
                    trace.checkpoints.append(
                        diagnostics.CheckpointRecord(j=j, t=t, profile=state.profile))
                    if out is not None:
                        save_checkpoint(state.profile, out / f"checkpoint_j{j:02d}.json")
                trace.rows.append(diagnostics.sample_row(
                    state.profile, T, info.regime, dt=st.dt, iters=st.newton_iters))
            elif trace.steps % monitors.cadence == 0:
                trace.rows.append(diagnostics.sample_row(
                    state.profile, T, info.regime, dt=st.dt, iters=st.newton_iters))
    except FlowError as exc:
        failure = exc
        trace.retries += len(exc.rejected)
        trace.error = str(exc)
        if log_fh is not None:
            log_fh.writelines(f"reject {entry}\n" for entry in exc.rejected)
            log_fh.write(f"error: {exc}\n")
    finally:
        if log_fh is not None:
            log_fh.close()

    trace.final_profile = state.profile
    trace.elapsed = time.perf_counter() - started
    if out is not None:
        diagnostics.export_trace(trace, out / "trace.csv")
        diagnostics.write_summary(trace, out / "summary.json")
    if failure is not None:
        failure.trace = trace
        raise failure
    return trace


# ---------------------------------------------------------------------------
# consistency diagnostics

def evolution_residuals(p_prev: CalabiProfile, p_next: CalabiProfile,
                        dt: float) -> dict[str, float]:
    """Sup-norm defects of the differentiated flow equations over one step.

    Compares finite time differences of u', u'', u''' against the
    trapezoidal average of their analytic evolution laws, e.g.
    d(u')/dt = u'''/u'' + (n-1) u''/u' - n.  Restricted to nodes away from
    both tails (raw stencils are exact there); the fifth derivative needed
    for the u''' law is obtained by differencing d4u.
    """
    if p_prev.grid.N != p_next.grid.N:
        raise ValueError("profiles on different grids")
    n = p_prev.n
    h = p_prev.grid.h
    N = p_prev.grid.N
    lo, hi = 4, N - 4

    def pieces(p: CalabiProfile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        du, d2u, d3u, d4u = p.du, p.d2u, p.d3u, p.d4u
        r1 = d3u / d2u + (n - 1) * d2u / du - n
        r2 = (d4u / d2u - (d3u / d2u) ** 2
              + (n - 1) * (d3u / du - (d2u / du) ** 2))
        radius, coeffs = _STENCILS[1]
        d5_mid = np.convolve(d4u, coeffs[::-1], mode="valid") / h
        d5 = np.full(N, np.nan)
        d5[radius:N - radius] = d5_mid
        r3 = (d5 / d2u - 3.0 * d3u * d4u / d2u**2 + 2.0 * d3u**3 / d2u**3
              + (n - 1) * (d4u / du - 3.0 * d2u * d3u / du**2
                           + 2.0 * d2u**3 / du**3))
        return r1, r2, r3

    prev_r = pieces(p_prev)
    next_r = pieces(p_next)
    # stay in the transition region: raw high-order stencils are only
    # noise-free there, and that is where the dynamics happen anyway
    krho = p_prev.k * p_prev.grid.nodes
    band = np.abs(krho[lo:hi]) <= 2.0
    interior = slice(lo, hi)
    out = {}
    for name, get_prev, get_next, arr_prev, arr_next in (
        ("du", p_prev.du, p_next.du, prev_r[0], next_r[0]),
        ("d2u", p_prev.d2u, p_next.d2u, prev_r[1], next_r[1]),
        ("d3u", p_prev.d3u, p_next.d3u, prev_r[2], next_r[2]),
    ):
        lhs = (get_next[interior] - get_prev[interior]) / dt
        rhs_avg = 0.5 * (arr_prev[interior] + arr_next[interior])
        defect = np.abs(lhs - rhs_avg)[band]
        out[name] = float(np.nanmax(defect))
    return out
