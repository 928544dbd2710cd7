"""Time integration of the symmetric potential flow.

The potential evolves by du/dt = log u'' + (n-1) log u' - n*rho + c(t),
where the gauge constant c(t) pins the velocity at rho = 0 to zero:

    c(t) = -log u''(0, t) - (n-1) * log u'(0, t)

Each backward-Euler step solves the nonlinear system by a damped Newton
iteration.  Interior rows discretize the equation with second-order
differences; the two boundary rows are exponentially fitted closure
relations that are exact on the asymptotic tail model, so u'(+-L) tracks
the moving class endpoints.

The Newton Jacobian J is tridiagonal on the interior rows; each closure
row reaches one column further into the grid.  One row operation against
its interior neighbour removes that entry, so every Newton step is a
single tridiagonal solve (LAPACK dgtsv, partial pivoting).  The
differences u', u'' that decide whether a damped iterate is admissible are
the ones the next residual and Jacobian use, so each iterate is
differenced once, and the stage's arrays are allocated once and filled in
place.  Newton stops after an undamped update delta_k when sup|delta_k| is
below tol_newton, or when it follows an undamped delta_(k-1) and the
contraction estimate theta = |delta_k|/|delta_(k-1)| < 1 bounds the error
left, theta/(1-theta) |delta_k|, by tol_newton (Hairer-Wanner, Solving
ODEs II, IV.8).  From the explicit predictor that saves the confirming
iteration: two linear solves per stage.

The gauge only fixes the additive constant of u, which the Kahler form
never sees.  Every interior term, both closure rows and c(t) itself depend
on differences of u alone, and J maps the constant vector to 1 on interior
rows and 0 on the closure rows; the reduced tridiagonal system comes from
J by row operations, so it solves the same equations.  So the gauged
stage solution is the ungauged one plus a constant: each stage is solved
without c(t), and the result is shifted so that u(0, t) keeps its
previous value.

Step size is controlled by step doubling: the error estimate is the
sup-norm gap between one full step and two half steps, and the dt proposal
follows the usual square-root rule for a first-order integrator.  The
full step and the first half step start from one predictor velocity.
Stepping reads only the samples u; the full CalabiProfile (tail fits and
four derivative arrays) of an accepted state is built on first read, so a
run builds it only for monitor rows, checkpoints and the final profile.
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
    """Integration failure; carries the partial trace when raised from run()."""

    def __init__(self, message: str, trace: "diagnostics.FlowTrace | None" = None):
        super().__init__(message)
        self.trace = trace


class _StepFailure(Exception):
    """Internal: Newton did not converge or produced an invalid iterate."""


@dataclass(frozen=True)
class StepControl:
    dt_init: float = 1e-6
    dt_min: float = 1e-13
    dt_max: float = 5e-3
    tol_newton: float = 1e-10
    tol_step: float = 1e-6
    t_stop_fraction: float = 0.999
    floor_u2: float = 1e-10
    newton_max_iter: int = 12
    safety: float = 0.9
    max_growth: float = 4.0

    def __post_init__(self):
        if not 0.0 < self.dt_min <= self.dt_init <= self.dt_max:
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if not 0.0 < self.t_stop_fraction < 1.0:
            raise ValueError("need 0 < t_stop_fraction < 1")


@dataclass(frozen=True)
class StepStats:
    """One accepted step.  newton_iters and residual belong to its last
    stage, total_iters sums the Newton iterations of all three stages."""

    dt: float
    dt_next: float
    newton_iters: int
    residual: float
    error: float
    retries: int
    rejected: tuple[str, ...] = ()
    total_iters: int = 0


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


def compute_ct(p: CalabiProfile) -> float:
    """Gauge constant -log u''(0) - (n-1) log u'(0) from the center values."""
    c = p.grid.center
    d2, d1 = float(p.d2u[c]), float(p.du[c])
    if d2 <= 0.0 or d1 <= 0.0:
        raise FlowError(f"profile degenerate at center: u''={d2}, u'={d1}")
    return -math.log(d2) - (p.n - 1) * math.log(d1)


# ---------------------------------------------------------------------------
# Newton solver for one backward-Euler stage

def _second_diffs(w: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(d1, d2) at interior nodes 1..N-2 by central differences."""
    d1 = (w[2:] - w[:-2]) / (2.0 * h)
    d2 = (w[:-2] - 2.0 * w[1:-1] + w[2:]) / h**2
    return d1, d2


def _valid(w: np.ndarray, h: float,
           floor: float) -> tuple[np.ndarray, np.ndarray] | None:
    """(d1, d2) of an admissible iterate (finite, u' > 0, u'' > floor),
    or None."""
    if not np.all(np.isfinite(w)):
        return None
    d1, d2 = _second_diffs(w, h)
    if np.all(d1 > 0.0) and np.all(d2 > floor):
        return d1, d2
    return None


def _solve_stage(
    u_prev: np.ndarray,
    dt: float,
    grid: RhoGrid,
    cls_new: KahlerClass,
    n: int,
    k: int,
    ctl: StepControl,
    w0: np.ndarray,
) -> tuple[np.ndarray, int, float]:
    """One backward-Euler solve; returns (w, iterations, residual), the
    residual taken at the start of the last iteration.

    The system is solved without the gauge constant, and the converged
    solution is shifted to keep the center value of u_prev.
    """
    N, h, c = grid.N, grid.h, grid.center
    efac = math.expm1(k * h)
    curv_dt = dt * (1.0 / h**2)
    drift_dt = dt * (n - 1) * (1.0 / (2.0 * h))
    # interior rows: F = w - (u_prev - dt n rho) - dt (log u'' + (n-1) log u')
    base = u_prev[1:-1] - dt * n * grid.nodes[1:-1]

    w = w0
    diffs = _valid(w, h, ctl.floor_u2)
    if diffs is None:
        w = u_prev
        diffs = _valid(w, h, ctl.floor_u2)
        if diffs is None:
            raise _StepFailure("previous profile invalid at stage entry")

    F = np.empty(N)
    diag = np.empty(N)
    dl = np.empty(N - 1)
    du = np.empty(N - 1)
    res = math.inf
    prev_full = None  # sup|delta| of the previous update, if undamped
    for it in range(1, ctl.newton_max_iter + 1):
        d1, d2 = diffs
        F[1:-1] = w[1:-1] - base - dt * (np.log(d2) + (n - 1) * np.log(d1))
        F[0], F[-1] = closure_rows(w, h, efac, cls_new.a, cls_new.b)
        res = float(np.max(np.abs(F)))
        if not math.isfinite(res):
            raise _StepFailure("nonfinite residual")

        # tridiagonal Jacobian: interior rows carry (dl, diag, du); each
        # closure row's third entry is eliminated against its neighbour
        curv = curv_dt / d2
        drift = drift_dt / d1
        diag[1:-1] = 1.0 + 2.0 * curv
        dl[:-1] = drift - curv
        du[1:] = -(curv + drift)
        r = 1.0 / du[1]
        diag[0] = 1.0 + efac - r * dl[0]
        du[0] = -2.0 - efac - r * diag[1]
        F[0] -= r * F[1]
        r = 1.0 / dl[-2]
        diag[-1] = 1.0 + efac - r * du[-1]
        dl[-1] = -2.0 - efac - r * diag[-2]
        F[-1] -= r * F[-2]

        _, _, _, delta, info = dgtsv(dl, diag, du, F, overwrite_dl=True,
                                     overwrite_d=True, overwrite_du=True,
                                     overwrite_b=True)
        if info != 0:
            raise _StepFailure(f"tridiagonal solve failed: info={info}")
        if not np.all(np.isfinite(delta)):
            raise _StepFailure("nonfinite Newton update")

        sup_delta = float(np.max(np.abs(delta)))
        lam = 1.0
        for _ in range(9):
            w_try = w - lam * delta
            diffs = _valid(w_try, h, ctl.floor_u2)
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
        if sup_delta <= ctl.tol_newton or (
                theta < 1.0 and theta / (1.0 - theta) * sup_delta <= ctl.tol_newton):
            return w - (w[c] - u_prev[c]), it, res
        prev_full = sup_delta
    raise _StepFailure(f"Newton stalled after {ctl.newton_max_iter} iterations "
                       f"(residual {res:.3e})")


def _velocity(u: np.ndarray, grid: RhoGrid, n: int, floor: float) -> np.ndarray:
    """Explicit velocity at interior nodes, with u' and u'' clipped positive."""
    d1, d2 = _second_diffs(u, grid.h)
    d1 = np.maximum(d1, 1e-300)
    d2 = np.maximum(d2, max(floor, 1e-300))
    return np.log(d2) + (n - 1) * np.log(d1) - n * grid.nodes[1:-1]


def _predictor(u_prev: np.ndarray, dt: float, vel: np.ndarray) -> np.ndarray:
    w = u_prev.copy()
    w[1:-1] += dt * vel
    w[0] += dt * vel[0]
    w[-1] += dt * vel[-1]
    return w


def _attempt(u_prev: np.ndarray, t0: float, dt: float, params: FlowParams,
             grid: RhoGrid, ctl: StepControl) -> tuple[np.ndarray, int, float]:
    """One stage from t0 to t0 + dt, started from the explicit predictor."""
    vel = _velocity(u_prev, grid, params.n, ctl.floor_u2)
    return _solve_stage(u_prev, dt, grid, class_at(params, t0 + dt), params.n,
                        params.k, ctl, _predictor(u_prev, dt, vel))


def step(state: FlowState, ctl: StepControl, t_cap: float | None = None) -> FlowState:
    """Advance one accepted adaptive step (with internal retries).

    t_cap, when given, is an event time the step must not overshoot; the
    step lands on it exactly when the proposal reaches it.  The returned
    state builds its profile on first read.
    """
    params = state.params
    n, k = params.n, params.k
    u, t, grid = state.u, state.t, state.grid
    T = singular_time(params).T
    if t >= ctl.t_stop_fraction * T:
        raise FlowError(f"t={t} already beyond the stop time {ctl.t_stop_fraction * T}")

    dt = state.stats.dt_next if state.stats is not None else ctl.dt_init
    dt = min(dt, ctl.dt_max, 0.25 * (T - t))
    # the full step and the first half step start from the same velocity
    vel = _velocity(u, grid, n, ctl.floor_u2)
    rejected: list[str] = []
    while True:
        hit_cap = False
        if t_cap is not None and t + dt >= t_cap * (1.0 - 1e-14):
            dt = t_cap - t
            hit_cap = True
            if dt <= 0.0:
                raise FlowError(f"event time {t_cap} not ahead of t={t}")
        try:
            uA, iters_a, _ = _solve_stage(u, dt, grid, class_at(params, t + dt),
                                          n, k, ctl, _predictor(u, dt, vel))
            uh, iters_h, _ = _solve_stage(u, 0.5 * dt, grid,
                                          class_at(params, t + 0.5 * dt), n, k, ctl,
                                          _predictor(u, 0.5 * dt, vel))
            uB, iters, res = _attempt(uh, t + 0.5 * dt, 0.5 * dt, params, grid, ctl)
        except _StepFailure as exc:
            rejected.append(f"dt={dt:.6g} {exc}")
            dt *= 0.5
            if dt < ctl.dt_min:
                raise FlowError(
                    f"profile degenerate: step size underflow at t={t:.12g} ({exc})")
            continue

        err = float(np.max(np.abs(uA - uB)))
        if err <= ctl.tol_step or dt <= 2.0 * ctl.dt_min:
            break
        rejected.append(f"dt={dt:.6g} err={err:.6g} > tol")
        dt *= max(0.2, ctl.safety * math.sqrt(ctl.tol_step / err))
        if dt < ctl.dt_min:
            raise FlowError(f"profile degenerate: step size underflow at t={t:.12g}")

    t_new = t_cap if hit_cap else t + dt
    factor = ctl.max_growth if err == 0.0 else \
        min(ctl.max_growth, max(0.2, ctl.safety * math.sqrt(ctl.tol_step / err)))
    dt_next = min(max(dt * factor, ctl.dt_min), ctl.dt_max)

    _, d2c = _second_diffs(uB, grid.h)
    if float(np.min(d2c)) <= ctl.floor_u2:
        raise FlowError(f"profile degenerate: u'' at floor after step to t={t_new:.12g}")
    stats = StepStats(dt=dt, dt_next=dt_next, newton_iters=iters,
                      residual=res, error=err, retries=len(rejected),
                      rejected=tuple(rejected),
                      total_iters=iters_a + iters_h + iters)
    return FlowState._from_samples(uB, t_new, grid, params, stats)


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

    compute_ct(seed_profile)  # rejects a degenerate seed center
    state = FlowState(profile=seed_profile, params=params)
    trace = diagnostics.FlowTrace(params=params, T=T, regime=info.regime,
                                  rows=[], checkpoints=[],
                                  initial_profile=seed_profile)
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
            trace.newton_iters += st.total_iters
            t = state.t
            if log_fh is not None:
                for entry in st.rejected:
                    log_fh.write(f"reject {entry}\n")
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
        trace.error = str(exc)
        if log_fh is not None:
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
