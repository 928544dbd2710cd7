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
by the one helper that the error filter uses too; dgtsv comes from
scipy's compiled LAPACK module, loaded without the scipy.linalg package.
Updates are measured in the gauge-free sup norm sup|delta - delta[c]|,
and Newton stops once eta |delta_k| <= TOL_NEWTON, with eta =
theta/(1-theta) and theta = |delta_k|/|delta_(k-1)| after an undamped
delta_(k-1) (Hairer-Wanner, Solving ODEs II, IV.8).  The trapezoidal
stage judges its first update by the eta the previous BDF2 stage measured
(see _solve_stage), so it mostly ends after one solve; the BDF2 stage,
whose solution the monitors read, measures its own.
StepStats.residual is the eta |delta| that ended the BDF2 stage.  Each
stage starts from the Lagrange extrapolation of the last solution points
to its time (Hosea and Shampine, cited below): the previous step's start
and trapezoidal stage value and u_n for the trapezoidal stage, that stage
value, u_n and u_gamma for the BDF2 stage.  Without that history (a state
step() did not make) they start from u_n and from the line through u_n
and u_gamma; a prediction the rule refuses falls back to u_n.

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

Admissibility is one rule, _rule: finite samples with u' > 0 and
u'' > FLOOR_U2 by central differences at every interior node.  It runs
once per sample vector, and the vector is then used with the differences
it took: each damped Newton iterate, each predicted start, and the
accepted stage solution (rejected if its gauge shift rounds it off the
rule), whose differences serve the error filter and, carried by the
returned state, the next step's f_n and first Newton step.  A state that
step() did not make is checked when a step starts from it.  run() applies
the rule to the seed before sampling its row, and validate_profile
reports it node by node from u, the class and k alone.
Stepping reads only the samples u; the full CalabiProfile (ghost nodes and
four derivative arrays) of an accepted state is built on first read, so a
run builds it only for monitor rows, checkpoints and the final profile.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diagnostics
from .profile import (
    _STENCILS,
    CalabiProfile,
    FlowParams,
    KahlerClass,
    ProfileError,
    RhoGrid,
    build_canonical_profile,
    class_at,
    closure_rows,
    on_class_motion,
    profile_from_samples,
    save_checkpoint,
    singular_time,
)

_FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    """scipy's compiled LAPACK bindings, without running scipy/linalg/__init__.py.

    That package import costs more than a short flow and this module uses
    one routine of it.  The extension is registered under its own name, so
    a later `import scipy.linalg.lapack` reuses it, in either import order.
    """
    if _FLAPACK not in sys.modules:
        scipy = importlib.util.find_spec("scipy")  # locates, does not import
        dirs = [os.path.join(d, "linalg")
                for d in (scipy and scipy.submodule_search_locations) or ()]
        spec = importlib.machinery.PathFinder.find_spec(_FLAPACK, dirs)
        if spec is None:
            raise ImportError(f"calabiflow needs scipy's compiled LAPACK module "
                              f"{_FLAPACK}, which was not found; install scipy")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_FLAPACK] = module
    return sys.modules[_FLAPACK]


dgtsv = _load_flapack().dgtsv
# the ufunc reductions, without the Python wrapper of ndarray.min/.max
_amin, _amax = np.minimum.reduce, np.maximum.reduce


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
# Newton stop tolerance and iteration limit; the contraction factor eta an
# update is judged by when none has been measured; the floor on u'' of _rule
TOL_NEWTON = 1e-10
NEWTON_MAX_ITER = 12
ETA_START = 1.0
FLOOR_U2 = 1e-10
# the contraction (eta, update size) of a stage that measured none
_UNMEASURED = (ETA_START, math.inf)


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
    stages; residual is the estimate eta |delta| of the error left in the
    last (BDF2) stage that ended its Newton iteration."""

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
    on first read and kept.  A state step() returns also carries the
    differences of u, so the next step does not take them again, the
    solution points (t, u) of the step that made it, its start and its
    trapezoidal stage value, from which the next stages are predicted, and
    the Newton contraction that its BDF2 stage measured (see
    _solve_stage)."""

    def __init__(self, profile: CalabiProfile, params: FlowParams,
                 stats: StepStats | None = None):
        self._profile: CalabiProfile | None = profile
        self._diffs: tuple[np.ndarray, np.ndarray] | None = None
        self._past: tuple[tuple[float, np.ndarray], ...] = ()
        self._contraction = _UNMEASURED
        self.params = params
        self.stats = stats
        self.u, self.t, self.grid = profile.u, profile.t, profile.grid

    @classmethod
    def _from_samples(cls, u: np.ndarray, diffs: tuple[np.ndarray, np.ndarray],
                      t: float, grid: RhoGrid, params: FlowParams, stats: StepStats,
                      past: tuple[tuple[float, np.ndarray], ...],
                      contraction: tuple[float, float]) -> "FlowState":
        state = cls.__new__(cls)
        state._profile, state._diffs = None, diffs
        state._past, state._contraction = past, contraction
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
# admissibility: the one rule that step() and validate_profile() apply

def _second_diffs(w: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(d1, d2) at interior nodes 1..N-2 by central differences: d1 =
    (w[2:] - w[:-2]) / (2h) and d2 = (w[:-2] - 2 w[1:-1] + w[2:]) / h^2,
    evaluated in that order in place, so with one array allocated each."""
    d1 = np.subtract(w[2:], w[:-2])
    d1 /= 2.0 * h
    d2 = np.multiply(w[1:-1], 2.0)
    np.subtract(w[:-2], d2, out=d2)
    d2 += w[2:]
    d2 /= h**2
    return d1, d2


def _admissible(w: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> bool:
    """The verdict of the rule on w with differences (d1, d2).  A non-finite
    interior sample leaves a difference at its node or a neighbour nan or
    of the wrong sign, and min() of an array holding nan is nan, so the
    minima of the differences and the two end samples decide."""
    return (_amin(d1) > 0.0 and _amin(d2) > FLOOR_U2
            and math.isfinite(w.item(0)) and math.isfinite(w.item(-1)))


def _rule(w: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The admissibility rule: the differences (d1, d2) at interior nodes
    1..N-2, and the mask of the nodes it refuses, a non-finite sample or an
    interior node without u' > 0 and u'' > FLOOR_U2, or None if there are
    none.  The mask is formed only for a refused w."""
    with np.errstate(invalid="ignore"):
        d1, d2 = _second_diffs(w, h)
    if _admissible(w, d1, d2):
        return d1, d2, None
    bad = ~np.isfinite(w)
    bad[1:-1] |= ~((d1 > 0.0) & (d2 > FLOOR_U2))
    return d1, d2, bad


def _valid(w: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray] | None:
    """(d1, d2) of admissible samples, or None: the rule's verdict without
    its mask.  It leaves numpy's error state alone, so a caller that may
    pass non-finite samples holds np.errstate(invalid="ignore")."""
    d1, d2 = _second_diffs(w, h)
    return (d1, d2) if _admissible(w, d1, d2) else None


@dataclass(frozen=True)
class Violation:
    invariant: str
    nodes: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "profile admissible"
        lines = [f"{v.invariant}: {v.detail}" for v in self.violations]
        return "profile inadmissible\n" + "\n".join(lines)


def validate_profile(p: CalabiProfile, tol: float = 1e-8) -> ValidationReport:
    """The stepper's admissibility rule, the class range and the closures.

    Reads u, the class and k, never the profile's derivative arrays.
    `finite` flags the non-finite samples, `convexity` the nodes the rule
    refuses, so a profile passes it exactly when a step starts from it, and
    `class-range` the interior nodes whose u' leaves (a, b).  Violations
    name the offending nodes (first 16).  The closure rows are the flow's,
    exact on an affine-plus-exponential tail (a derivative form would
    amplify the tail's error by 1/h^2); their residuals, in slope units,
    are held to tol times the nearest class endpoint.  tol must be finite
    and > 0.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ProfileError(f"need a finite tol > 0, got {tol}")
    a, b, h = p.cls.a, p.cls.b, p.grid.h
    d1, _, refused = _rule(p.u, h)
    violations: list[Violation] = []
    for invariant, bad, what in (
            ("finite", ~np.isfinite(p.u), "non-finite u"),
            ("convexity", refused, "u' <= 0, u'' <= FLOOR_U2 or a non-finite sample"),
            ("class-range", np.pad((d1 <= a) | (d1 >= b), 1), f"u' outside ({a}, {b})")):
        if bad is not None and bad.any():
            nodes = tuple(int(i) for i in np.flatnonzero(bad)[:16])
            violations.append(Violation(invariant, nodes, f"{what} at {int(bad.sum())} "
                                        f"node(s), first at index {nodes[0]}"))

    efac = math.expm1(p.k * h)
    rows = closure_rows(p.u, h, efac, a, b)
    for side, node, row, end in (("left", 0, rows[0], a),
                                 ("right", p.grid.N - 1, rows[1], b)):
        res = abs(float(row)) / (efac * h)
        if res > tol * end:
            violations.append(Violation(
                f"closure-{side}", (node,),
                f"{side} closure residual {res:.3e} exceeds {tol * end:.3e}"))

    return ValidationReport(tuple(violations))


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


def _work(N: int) -> tuple[np.ndarray, ...]:
    """Buffers for _stage_matrix_solve on N nodes: the three diagonals and
    two interior arrays, overwritten by each call."""
    return np.empty(N - 1), np.empty(N), np.empty(N - 1), np.empty(N - 2), np.empty(N - 2)


def _stage_matrix_solve(d1: np.ndarray, d2: np.ndarray, ddt: float, h: float,
                        n: int, efac: float, b: np.ndarray, c: int,
                        work: tuple[np.ndarray, ...]) -> tuple[np.ndarray, float]:
    """Solve M x = b, M the stage Jacobian at differences (d1, d2), and
    return x with sup|x - x[c]|, its size with the gauge constant removed,
    which is finite exactly when x is.

    Interior rows of M are I - ddt df/dw, tridiagonal; each closure row's
    third entry is eliminated against its interior neighbour, in M and in
    b (which is overwritten), so the system is one dgtsv call.  M is
    written into the buffers work (see _work).
    """
    dl, diag, du, curv, drift = work
    np.divide(ddt / h**2, d2, out=curv)
    np.divide(ddt * (n - 1) / (2.0 * h), d1, out=drift)
    inner = diag[1:-1]
    np.multiply(curv, 2.0, out=inner)
    inner += 1.0
    np.subtract(drift, curv, out=dl[:-1])
    upper = du[1:]
    np.add(curv, drift, out=upper)
    np.negative(upper, out=upper)
    # entries as Python floats, which round as numpy scalars do at less cost;
    # the reciprocals stay numpy's, so a zero pivot gives inf, not an exception
    r = float(1.0 / du[1])
    diag[0] = 1.0 + efac - r * dl.item(0)
    du[0] = -2.0 - efac - r * diag.item(1)
    b[0] = b.item(0) - r * b.item(1)
    r = float(1.0 / dl[-2])
    diag[-1] = 1.0 + efac - r * du.item(-1)
    dl[-1] = -2.0 - efac - r * diag.item(-2)
    b[-1] = b.item(-1) - r * b.item(-2)
    _, _, _, x, info = dgtsv(dl, diag, du, b, overwrite_dl=True, overwrite_d=True,
                             overwrite_du=True, overwrite_b=True)
    if info != 0:
        raise _StepFailure(f"tridiagonal solve failed: info={info}")
    # sup|x - x[c]| from the extremes, with no temporary: rounding is
    # monotone and symmetric, so this is np.abs(x - x[c]).max() bit for bit,
    # and a non-finite entry leaves one of the two terms non-finite
    xc = x.item(c)
    size = max(float(_amax(x)) - xc, xc - float(_amin(x)))
    if not math.isfinite(size):
        raise _StepFailure("nonfinite tridiagonal solution")
    return x, size


def _solve_stage(
    w: np.ndarray,
    diffs: tuple[np.ndarray, np.ndarray],
    center: float,
    rhs: np.ndarray,
    ddt: float,
    grid: RhoGrid,
    cls_new: KahlerClass,
    n: int,
    k: int,
    contraction: tuple[float, float],
) -> tuple[np.ndarray, int, float, tuple[float, float]]:
    """Solve w - ddt f(w) = rhs on the interior rows, with the closure rows
    of cls_new, by damped Newton from the admissible start w, whose
    differences are diffs; f(w) = log w'' + (n-1) log w' - n rho.  Returns
    (w, iterations, error, contraction): error is the estimate
    eta |delta| of the error left that ended the iteration.

    Updates are measured as |delta| = sup|delta - delta[c]|: one Newton
    step removes a constant error exactly, and the gauge shift discards
    one anyway.  A contraction
    is the pair (eta, s) of the factor last measured and the size
    s = |delta_(k-1)| it was measured on, or _UNMEASURED.  An undamped
    update delta with no undamped predecessor is judged by the given
    contraction as eta max(1, |delta|/s): Newton's theta grows with the
    update it contracts.  After a damped update eta is ETA_START.

    The system is solved without the gauge constant, and the converged
    solution is shifted so that its center value is center.
    """
    h, c, N = grid.h, grid.center, grid.N
    efac = math.expm1(k * h)
    # interior rows: F = w - (rhs - ddt n rho) - ddt (log u'' + (n-1) log u')
    base = rhs - ddt * n * grid.nodes[1:-1]
    work = _work(N)
    log2, log1 = np.empty(N - 2), np.empty(N - 2)

    F = np.empty(N)
    res = math.inf
    prev = None  # |delta| of the previous update, if undamped
    eta, ref = contraction
    with np.errstate(invalid="ignore"):
        for it in range(1, NEWTON_MAX_ITER + 1):
            d1, d2 = diffs
            np.log(d2, out=log2)
            np.log(d1, out=log1)
            log1 *= n - 1
            log2 += log1
            log2 *= ddt
            interior = F[1:-1]
            np.subtract(w[1:-1], base, out=interior)
            interior -= log2
            F[0], F[-1] = closure_rows(w, h, efac, cls_new.a, cls_new.b)
            res = max(float(_amax(F)), -float(_amin(F)))  # sup|F|, nan if any entry is
            if not math.isfinite(res):
                raise _StepFailure("nonfinite residual")
            delta, size = _stage_matrix_solve(d1, d2, ddt, h, n, efac, F, c, work)
            lam = 1.0
            for _ in range(9):
                w_try = w - delta if lam == 1.0 else w - lam * delta
                diffs = _valid(w_try, h)
                if diffs is not None:
                    break
                lam *= 0.5
            else:
                raise _StepFailure("damping exhausted: iterate leaves admissible cone")
            w, F = w_try, delta  # dgtsv's output holds the next residual
            if lam < 1.0:
                prev, (eta, ref) = None, _UNMEASURED
                continue
            if prev is None:
                judge = eta * max(1.0, size / ref)
            else:
                theta = size / prev
                eta = judge = theta / (1.0 - theta) if theta < 1.0 else math.inf
            error = judge * size if size > 0.0 else 0.0
            if error <= TOL_NEWTON:
                measured = prev is not None and size > 0.0
                return w - (w[c] - center), it, error, (eta, prev) if measured else _UNMEASURED
            prev = size
    raise _StepFailure(f"Newton stalled after {NEWTON_MAX_ITER} iterations "
                       f"(residual {res:.3e})")


def _start(points: tuple[tuple[float, np.ndarray], ...], t: float, u: np.ndarray,
           diffs: tuple[np.ndarray, np.ndarray],
           h: float) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Start of a stage solve to time t, with its differences: the Lagrange
    extrapolation through the solution points (t_i, u_i) to t, or u_n with
    its differences diffs when there is one point or the rule refuses the
    extrapolation."""
    if len(points) > 1:
        w = term = None
        for i, (ti, ui) in enumerate(points):
            weight = 1.0
            for j, (tj, _) in enumerate(points):
                if j != i:
                    weight *= (t - tj) / (ti - tj)
            if w is None:
                w, term = np.multiply(ui, weight), np.empty_like(ui)
            else:
                w += np.multiply(ui, weight, out=term)
        w_diffs = _valid(w, h)
        if w_diffs is not None:
            return w, w_diffs
    return u, diffs


def _velocity(d1: np.ndarray, d2: np.ndarray, grid: RhoGrid, n: int) -> np.ndarray:
    """Explicit velocity f(u) at interior nodes from the differences of an
    admissible u."""
    return np.log(d2) + (n - 1) * np.log(d1) - n * grid.nodes[1:-1]


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

    h = grid.h
    diffs = state._diffs
    if diffs is None:
        d1, d2, bad = _rule(u, h)
        if bad is not None:
            bad = np.flatnonzero(bad)
            raise FlowError(f"profile inadmissible at t={t:.12g}: u' <= 0, u'' <= FLOOR_U2 "
                            f"or a non-finite sample at {bad.size} node(s), first at "
                            f"rho={grid.nodes[bad[0]]:.6g}")
        diffs = d1, d2

    dt = min(state.stats.dt_next if state.stats is not None else DT_INIT, 0.25 * (T - t))
    f_n = _velocity(*diffs, grid, n)
    u_in = u[1:-1]
    b_old = (_BDF2_SCALE * _BDF2_OLD) * u_in
    # solution points the stages are predicted from: the previous step's
    # start and trapezoidal stage value, if the state carries them, and u_n
    past = state._past + ((t, u),)
    contraction = state._contraction
    efac = math.expm1(k * h)
    rejected: list[str] = []
    while True:
        hit_cap = False
        if t_cap is not None and t + dt >= t_cap * (1.0 - 1e-14):
            dt = t_cap - t
            hit_cap = True
            if dt <= 0.0:
                raise FlowError(f"event time {t_cap} not ahead of t={t}")
        ddt = _D * dt
        t_g = t + _GAMMA * dt
        try:
            # TR stage to t + gamma dt, its first update judged by the
            # contraction the last BDF2 stage measured
            rhs = u_in + ddt * f_n
            u_g, iters_g, _, _ = _solve_stage(
                *_start(past, t_g, u, diffs, h), u[c], rhs, ddt, grid,
                class_at(params, t_g), n, k, contraction)
            f_g = (u_g[1:-1] - rhs) / ddt
            # BDF2 stage to t + dt.  Its solution is the step's result, which
            # the monitors read, so it measures the contraction of its own
            # updates
            rhs = _BDF2_SCALE * u_g[1:-1] - b_old
            u1, iters, res, contraction = _solve_stage(
                *_start(past[-2:] + ((t_g, u_g),), t + dt, u, diffs, h), u[c], rhs, ddt,
                grid, class_at(params, t + dt), n, k, _UNMEASURED)
            f_1 = (u1[1:-1] - rhs) / ddt
            # embedded estimate, filtered through the stage matrix at u1
            est = np.zeros(grid.N)
            est[1:-1] = dt * (_E_N * f_n + _E_G * f_g + _E_1 * f_1)
            diffs1 = _valid(u1, h)
            if diffs1 is None:  # only the rounding of the gauge shift can do this
                raise _StepFailure("stage solution inadmissible after the gauge shift")
            # the gauge constant is invisible: the size has the center pinned
            _, err = _stage_matrix_solve(*diffs1, ddt, h, n, efac, est, c, _work(grid.N))
        except _StepFailure as exc:
            reason, factor, contraction = str(exc), 0.5, _UNMEASURED
        else:
            factor = MAX_GROWTH if err == 0.0 else min(
                MAX_GROWTH, max(0.2, SAFETY * (ctl.tol_step / err) ** (1.0 / 3.0)))
            if err <= ctl.tol_step:
                break
            reason = f"err={err:.6g} > tol"
        rejected.append(f"dt={dt:.6g} {reason}")
        dt *= factor
        if dt < DT_MIN:
            raise FlowError(f"profile degenerate: step size underflow at t={t:.12g} "
                            f"({reason})", rejected=tuple(rejected))

    t_new = t_cap if hit_cap else t + dt
    dt_next = max(dt * factor, DT_MIN)
    stats = StepStats(dt=dt, dt_next=dt_next, newton_iters=iters_g + iters,
                      residual=res, error=err, retries=len(rejected),
                      rejected=tuple(rejected))
    return FlowState._from_samples(u1, diffs1, t_new, grid, params, stats,
                                   ((t, u), (t_g, u_g)), contraction)


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

    The grid defaults to (L, N) = (12, 2049), or to the seed's grid; a grid
    other than the seed's is refused.  Rows are sampled at t=0, at every
    cadence-th accepted step, at each dyadic checkpoint time, and at the
    stop time.  With out_dir set, the trace table, a JSON summary, per-step
    log lines and the checkpoint profiles are written there.  A run that
    fails with FlowError still writes the trace and summary of the rows
    sampled so far; the summary then carries the error text under "error".
    trace.elapsed runs from the first row to the written trace.csv, and
    trace.phase_seconds splits it.
    """
    ctl = ctl or StepControl()
    monitors = monitors or diagnostics.MonitorSet()
    info = singular_time(params)
    T = info.T
    t_stop = ctl.t_stop_fraction * T

    if seed_profile is None:
        seed_profile = build_canonical_profile(class_at(params, 0.0),
                                               grid or RhoGrid(12.0, 2049), params.n, params.k)
    elif grid is not None and grid != seed_profile.grid:
        raise ProfileError(f"grid {grid} differs from the seed's grid {seed_profile.grid}")
    elif not on_class_motion(params, seed_profile):
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

    state = FlowState(profile=seed_profile, params=params)
    trace = diagnostics.FlowTrace(params=params, T=T, regime=info.regime)
    # one clock pair per call site; a failing step is timed in the handler
    clock, phases = time.perf_counter, trace.phase_seconds
    # a seed the rule refuses may have u'' = 0, where the monitors are
    # undefined: its row is sampled quietly, and the first step refuses it
    refused = _rule(seed_profile.u, seed_profile.grid.h)[2] is not None
    started = clock()
    with np.errstate(all="ignore" if refused else None):
        trace.rows.append(diagnostics.sample_row(seed_profile, T, info.regime,
                                                 dt=0.0, iters=0))
    phases["monitors"] += clock() - started
    log_fh = (out / "run.log").open("w") if out is not None else None
    failure: FlowError | None = None
    try:
        for t_cap, j in events:
            while state.t < t_cap:
                t_step = clock()
                state = step(state, ctl, t_cap=t_cap)
                phases["step"] += clock() - t_step
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
                # a step that reaches t_cap lands on it exactly
                landed = t >= t_cap
                if landed and j > 0:
                    t0 = clock()
                    trace.checkpoints.append(
                        diagnostics.CheckpointRecord(j=j, t=t, profile=state.profile))
                    if out is not None:
                        save_checkpoint(state.profile, out / f"checkpoint_j{j:02d}.json")
                    phases["checkpoints"] += clock() - t0
                if landed or trace.steps % monitors.cadence == 0:
                    t0 = clock()
                    trace.rows.append(diagnostics.sample_row(
                        state.profile, T, info.regime, dt=st.dt, iters=st.newton_iters))
                    phases["monitors"] += clock() - t0
    except FlowError as exc:
        phases["step"] += clock() - t_step
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
    if out is not None:
        t0 = clock()
        diagnostics.export_trace(trace, out / "trace.csv")
        phases["export"] += clock() - t0
    trace.elapsed = clock() - started
    if out is not None:
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
    for the u''' law is obtained by differencing d4u.  The profiles must
    share grid, n and k, and dt must be finite and > 0.
    """
    if (p_prev.grid, p_prev.n, p_prev.k) != (p_next.grid, p_next.n, p_next.k):
        raise ValueError(f"profiles on different grids or of different (n, k): {p_prev.grid}, "
                         f"{(p_prev.n, p_prev.k)} and {p_next.grid}, {(p_next.n, p_next.k)}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"need a finite dt > 0, got {dt}")
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
