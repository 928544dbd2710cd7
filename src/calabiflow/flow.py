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
by the one helper that the error filter uses too, and dgtsv takes several
right-hand sides in one call; dgtsv comes from scipy's compiled LAPACK
module, loaded without the scipy.linalg package.  Every step of a run
writes into one workspace of buffers (_Workspace), which each returned
state carries to the next step and whose memory no state's array shares.
Updates are measured in the gauge-free sup norm sup|delta - delta[c]|,
and Newton stops once eta |delta_k| <= TOL_NEWTON, with eta =
theta/(1-theta) and theta = |delta_k|/|delta_(k-1)| after an undamped
delta_(k-1) (Hairer-Wanner, Solving ODEs II, IV.8).  The trapezoidal
stage judges its first update by the eta the previous BDF2 stage measured
(see _solve_stage), so it mostly ends after one solve; the BDF2 stage,
whose solution the monitors read, measures its own.
StepStats.residual is the eta |delta| that ended the BDF2 stage; the
residual's own sup norm is formed only for a stalled stage's message.  Each
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
estimate is filtered by a solve with the Newton iteration matrix, as
Hosea and Shampine do, which damps the stiff components a raw estimate
would overstate, and its center value is subtracted, since the gauge
constant shifts the stage values of f.  The filter rides on the BDF2
stage's last Newton solve: each BDF2 update with an undamped predecessor
solves the estimate at the current iterate as a second column beside the
residual, and only such an update ends the stage, so the second column of
the last one is the filtered estimate, taken with the matrix and f_1 of
the iterate before u_1, within O(|delta|) of u_1's.  Its sup norm is held
to tol_step, and the dt proposal follows the cube-root rule of a
second-order integrator.  The first step from a state step() did not
make tries DT_INIT (T - t): the flow is invariant under
(u, t) -> (lambda u, lambda t), so T - t is its time scale, from the seed
and from a late checkpoint alike.  A proposal is clipped only by the next
event time, which is the stop time t_stop_fraction T unless an earlier
one is given, so no step reaches T: one that reaches the event lands on
it, and one that reaches past half the way to it is cut to half the way,
so the event is reached by two equal steps, not by a full step and a
fragment whose error estimate is far below tol_step.  A rejected attempt,
a failed Newton solve or a missed estimate, shrinks dt through one retry
path; below DT_MIN the step fails, and its FlowError carries the rejected
attempts for the run log.

Admissibility is one rule, _rule: finite samples with u' > 0 and
u'' > FLOOR_U2 by central differences at every interior node.  The
stepper works with the unscaled differences d1 = w[2:] - w[:-2] = 2h u'
and d2 = w[:-2] - 2 w[1:-1] + w[2:] = h^2 u'', the rows of one (2, N-2)
array, so one numpy call serves both: the rule compares their row minima
with 0 and FLOOR_U2 h^2, the stage matrix divides (ddt (n-1), -ddt) by
them, and a Newton iterate takes their logs; the velocity is log d2 +
(n-1) log d1 less one offset array, n rho plus the log h terms.  The rule
runs once per sample vector, and the vector is then used with the
differences it took: each Newton iterate that does not end its stage,
each damped one, each predicted start, and each stage value, judged once
after its gauge shift (rejected if the shift rounds it off the rule).
The BDF2 stage value's differences, carried by the returned state, serve
the next step's f_n and first Newton step.  A state that step() did not
make is checked when a step starts from it, and a refusal counts the
nodes of each cause.  run() applies the rule to the seed before sampling
its row, and validate_profile reports it node by node from u, the class
and k alone.
Stepping reads only the samples u, and so does a monitor row
(diagnostics.row_from_samples).  run() builds the full CalabiProfile (ghost
nodes and four derivative arrays) only for the states it keeps, the
checkpoints and the final state, and the rows landing on them read it.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import diagnostics
from .profile import (
    CalabiProfile,
    FlowParams,
    ProfileError,
    RhoGrid,
    _CHECKPOINT_PREFIX,
    _class_law,
    _number,
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


# step-size rule: a run's first step tries DT_INIT (T - t), a step fails
# below DT_MIN, and dt changes by the factor SAFETY (tol_step / err)^(1/3),
# clipped to [0.2, MAX_GROWTH]
DT_INIT = 1e-2
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
        for name in ("tol_step", "t_stop_fraction"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        if not (math.isfinite(self.tol_step) and self.tol_step > 0.0):
            raise ProfileError(f"need a finite tol_step > 0, got {self.tol_step}")
        if not 0.0 < self.t_stop_fraction < 1.0:
            raise ProfileError("need 0 < t_stop_fraction < 1")


class StepStats(NamedTuple):
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


@dataclass(eq=False, repr=False)
class FlowState:
    """Samples u at time t on grid, with the stats of the step that made
    them; FlowState(u, t, grid, params) starts a flow from any samples.
    Stepping reads only u, t and grid; `profile` is built from them on first
    read and kept.  A state step() returns also carries the differences of
    u, so the next step does not take them again, the solution points
    (t, u) of the step that made it, its start and its trapezoidal stage
    value, from which the next stages are predicted, the Newton contraction
    that its BDF2 stage measured (see _solve_stage), and the workspace it
    wrote, which the next step reuses."""

    u: np.ndarray
    t: float
    grid: RhoGrid
    params: FlowParams
    stats: StepStats | None = None
    _diffs: np.ndarray | None = None
    _past: tuple[tuple[float, np.ndarray], ...] = ()
    _contraction: tuple[float, float] = _UNMEASURED
    _ws: _Workspace | None = None

    @functools.cached_property
    def profile(self) -> CalabiProfile:
        p = self.params
        return profile_from_samples(self.u, self.grid, class_at(p, self.t), self.t, p.n, p.k)


# ---------------------------------------------------------------------------
# admissibility: the one rule that step() and validate_profile() apply

def _second_diffs(w: np.ndarray) -> np.ndarray:
    """The unscaled differences at interior nodes 1..N-2 as the rows of one
    (2, N-2) array: d1 = w[2:] - w[:-2] and d2 = w[:-2] - 2 w[1:-1] + w[2:],
    which are 2h u' and h^2 u'' by central differences, evaluated in that
    order in place."""
    left, right = w[:-2], w[2:]
    d1, d2 = diffs = np.empty((2, left.size))
    np.subtract(right, left, out=d1)
    np.multiply(w[1:-1], 2.0, out=d2)
    np.subtract(left, d2, out=d2)
    d2 += right
    return diffs


def _admissible(w: np.ndarray, diffs: np.ndarray, h: float) -> bool:
    """The verdict of the rule on w with differences diffs.  A non-finite
    interior sample leaves a difference at its node or a neighbour nan or
    of the wrong sign, and the minimum of a row holding nan is nan, so the
    row minima of diffs, one reduction, and the two end samples decide."""
    min1, min2 = _amin(diffs, axis=1).tolist()
    return (min1 > 0.0 and min2 > FLOOR_U2 * h**2
            and math.isfinite(w.item(0)) and math.isfinite(w.item(-1)))


def _rule(w: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray | None]:
    """The admissibility rule: the differences (d1, d2) at interior nodes
    1..N-2, and the mask of the nodes it refuses, a non-finite sample or an
    interior node without u' > 0 and u'' > FLOOR_U2, that is d1 > 0 and
    d2 > FLOOR_U2 h^2, or None if there are none.  The mask is formed only
    for a refused w."""
    with np.errstate(invalid="ignore"):
        diffs = _second_diffs(w)
    if _admissible(w, diffs, h):
        return diffs, None
    bad = ~np.isfinite(w)
    bad[1:-1] |= ~((diffs[0] > 0.0) & (diffs[1] > FLOOR_U2 * h**2))
    return diffs, bad


def _causes(w: np.ndarray, diffs: np.ndarray, h: float) -> str:
    """Why the rule refuses w: the nodes of each cause, which may overlap (a
    nan difference is non-finite), and the least u'' = d2/h^2, on one line."""
    nonfinite = ~np.isfinite(w)
    nonfinite[1:-1] |= np.isnan(diffs).any(axis=0)
    low1, low2 = (diffs <= [[0.0], [FLOOR_U2 * h**2]]).sum(axis=1).tolist()
    return (f"(u' <= 0 at {low1}, u'' <= FLOOR_U2 at {low2}, non-finite at {nonfinite.sum()}; "
            f"min u'' {np.fmin.reduce(diffs[1]) / h**2:.3g} vs FLOOR_U2 {FLOOR_U2:g})")


def _valid(w: np.ndarray, h: float) -> np.ndarray | None:
    """The differences of admissible samples, or None: the rule's verdict
    without its mask.  It leaves numpy's error state alone, so a caller that
    may pass non-finite samples holds np.errstate(invalid="ignore")."""
    diffs = _second_diffs(w)
    return diffs if _admissible(w, diffs, h) else None


class Violation(NamedTuple):
    invariant: str
    nodes: tuple[int, ...]
    detail: str


class ValidationReport(NamedTuple):
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
    tol = _number("tol", tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ProfileError(f"need a finite tol > 0, got {tol}")
    a, b, h = p.cls.a, p.cls.b, p.grid.h
    diffs, refused = _rule(p.u, h)
    du = diffs[0] / (2.0 * h)
    violations: list[Violation] = []
    for invariant, bad, what in (
            ("finite", ~np.isfinite(p.u), "non-finite u"),
            ("convexity", refused, "u' <= 0, u'' <= FLOOR_U2 or a non-finite sample"),
            ("class-range", np.pad((du <= a) | (du >= b), 1), f"u' outside ({a}, {b})")):
        if bad is not None and bad.any():
            nodes = tuple(int(i) for i in np.flatnonzero(bad)[:16])
            why = f" {_causes(p.u, diffs, h)}" if bad is refused else ""
            violations.append(Violation(invariant, nodes, f"{what} at {int(bad.sum())} "
                                        f"node(s), first at index {nodes[0]}{why}"))

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


class _Workspace:
    """What the steps of one run share, carried from state to state: the
    grid constants of the stage equations and the buffers each stage, solve
    and attempt overwrites, whose memory no state's array shares.  Rows as
    in diffs: ratios = coef / diffs = (ddt (n-1)/d1, -ddt/d2), logs = log diffs."""

    __slots__ = ("h", "c", "n", "efac", "offset", "dl", "diag", "du", "inner", "upper",
                 "lower", "coef", "ratios", "drift", "ncurv", "logs", "log1", "log2", "both",
                 "F", "interior", "est", "rhs", "base", "fixed", "doff")

    def __init__(self, grid: RhoGrid, n: int, k: int):
        N, self.h, self.c, self.n = grid.N, grid.h, grid.center, n
        self.efac = math.expm1(k * grid.h)
        # f = log d2 + (n-1) log d1 - offset at the interior nodes, from the
        # unscaled differences d1 = 2h u' and d2 = h^2 u''
        self.offset = n * grid.nodes[1:-1] + (2.0 * math.log(grid.h)
                                              + (n - 1) * math.log(2.0 * grid.h))
        self.dl, self.diag, self.du = np.empty(N - 1), np.empty(N), np.empty(N - 1)
        self.lower, self.inner, self.upper = self.dl[:-1], self.diag[1:-1], self.du[1:]
        self.ratios, self.logs, rest = np.split(np.empty((8, N - 2)), (2, 4))
        (self.drift, self.ncurv), (self.log1, self.log2) = self.ratios, self.logs
        self.rhs, self.base, self.fixed, self.doff = rest
        self.coef = np.empty((2, 1))
        self.both = np.empty((N, 2), order="F")
        self.F, self.est = self.both[:, 0], self.both[:, 1]
        self.interior = self.F[1:-1]


def _stage_matrix_solve(diffs: np.ndarray, ddt: float, b: np.ndarray,
                        ws: _Workspace) -> tuple[np.ndarray, list[float]]:
    """Solve M X = b, M the stage Jacobian at differences diffs, for one
    right-hand side b of shape (N,) or several, the columns of a Fortran-
    ordered b of shape (N, m), in one dgtsv call.  Returns X with
    sup|x - x[c]| of each column x, its size with the gauge constant
    removed, which is finite exactly when x is (one reduction per extreme).

    Interior rows of M are I - ddt df/dw, tridiagonal; each closure row's
    third entry is eliminated against its interior neighbour, in M and in
    every column of b (which is overwritten), so the system is one dgtsv
    call.  M is written into the diagonals of ws.
    """
    dl, diag, du, ncurv, drift, coef = ws.dl, ws.diag, ws.du, ws.ncurv, ws.drift, ws.coef
    efac = ws.efac
    # with ncurv = -ddt/d2 the entries are 1 + 2 ddt/d2, drift - ddt/d2 and
    # -(ddt/d2 + drift), bit for bit: negation is exact
    coef[0, 0], coef[1, 0] = ddt * (ws.n - 1), -ddt
    np.divide(coef, diffs, out=ws.ratios)
    inner = ws.inner
    np.multiply(ncurv, -2.0, out=inner)
    inner += 1.0
    np.add(drift, ncurv, out=ws.lower)
    np.subtract(ncurv, drift, out=ws.upper)
    # entries as Python floats, which round as numpy scalars do at less cost;
    # the reciprocals stay numpy's, so a zero pivot gives inf, not an exception
    cols = (b,) if b.ndim == 1 else b.T
    r = float(1.0 / du[1])
    diag[0] = 1.0 + efac - r * dl.item(0)
    du[0] = -2.0 - efac - r * diag.item(1)
    for col in cols:
        col[0] = col.item(0) - r * col.item(1)
    r = float(1.0 / dl[-2])
    diag[-1] = 1.0 + efac - r * du.item(-1)
    dl[-1] = -2.0 - efac - r * diag.item(-2)
    for col in cols:
        col[-1] = col.item(-1) - r * col.item(-2)
    # the flags overwrite_dl, overwrite_d, overwrite_du and overwrite_b
    _, _, _, x, info = dgtsv(dl, diag, du, b, 1, 1, 1, 1)
    if info != 0:
        raise _StepFailure(f"tridiagonal solve failed: info={info}")
    # sup|x - x[c]| from the extremes, with no temporary: rounding is
    # monotone and symmetric, so this is np.abs(x - x[c]).max() bit for bit,
    # and a non-finite entry leaves one of the two terms non-finite
    if x.ndim == 1:
        xc = x.item(ws.c)
        sizes = [max(float(_amax(x)) - xc, xc - float(_amin(x)))]
    else:
        sizes = [max(hi - xc, xc - lo) for hi, lo, xc in zip(
            _amax(x, axis=0).tolist(), _amin(x, axis=0).tolist(), x[ws.c].tolist())]
    if not all(map(math.isfinite, sizes)):
        raise _StepFailure("nonfinite tridiagonal solution")
    return x, sizes


def _solve_stage(
    w: np.ndarray,
    diffs: np.ndarray,
    center: float,
    rhs: np.ndarray,
    base: np.ndarray,
    ddt: float,
    a: float,
    b: float,
    contraction: tuple[float, float],
    ws: _Workspace,
    fixed: np.ndarray | None = None,
) -> tuple[np.ndarray, int, float, tuple[float, float],
           np.ndarray, float | None]:
    """Solve w - ddt f(w) = rhs on the interior rows, with the closure rows
    of the class (a, b), by damped Newton from the admissible start w,
    whose differences are diffs; f(w) = log d2 + (n-1) log d1 - offset
    (see _Workspace), and base = rhs - ddt offset.  Returns (w, iterations,
    error, contraction, diffs, err): error is the estimate eta |delta| of
    the error left that ended the iteration, diffs are the differences of
    the returned w, and err is the filtered error estimate of the BDF2 stage
    (see below).  The residual and the stage matrix are written into ws; rhs,
    base and fixed are read.  An admissible iterate's interior residual is
    finite, so only the closure entries are checked, and sup|F| is formed
    only for the message of a stall, on the last permitted iteration.

    Updates are measured as |delta| = sup|delta - delta[c]|: one Newton
    step removes a constant error exactly, and the gauge shift discards
    one anyway.  A contraction
    is the pair (eta, s) of the factor last measured and the size
    s = |delta_(k-1)| it was measured on, or _UNMEASURED.  An undamped
    update delta with no undamped predecessor is judged by the given
    contraction as eta max(1, |delta|/s): Newton's theta grows with the
    update it contracts.  After a damped update eta is ETA_START.

    The system is solved without the gauge constant.  An undamped update
    that passes the stop test is shifted so that its center value is
    center, and the rule judges the shifted value once; the rule refuses
    it after passing the unshifted iterate only through the rounding of
    the shift, which fails the stage.

    The BDF2 stage passes fixed = dt (E_N f_n + E_G f_gamma) on the
    interior rows.  Each of its updates with an undamped predecessor then
    solves the embedded estimate at the current iterate w, fixed + dt E_1 f_1
    with f_1 = (w - rhs)/ddt from the stage equation on the interior rows
    and 0 on the closure rows, as the second column of its dgtsv call.
    Only such an update ends the stage: one that passes the stop test
    without that column becomes the next iterate, and theta after an update
    of size 0 is 0.  err is the size of the filtered column of the update
    that ended the stage, and None for the TR stage.  The caller holds
    np.errstate(invalid="ignore").
    """
    h, c, efac, n = ws.h, ws.c, ws.efac, ws.n
    logs, log1, log2, both, F, interior = ws.logs, ws.log1, ws.log2, ws.both, ws.F, ws.interior
    res, err = math.inf, None
    prev = None  # |delta| of the previous update, if undamped
    eta, ref = contraction
    for it in range(1, NEWTON_MAX_ITER + 1):
        # interior rows: F = w - base - ddt (log d2 + (n-1) log d1)
        np.log(diffs, out=logs)
        if n != 2:
            log1 *= n - 1
        log2 += log1
        log2 *= ddt
        np.subtract(w[1:-1], base, out=interior)
        interior -= log2
        F[0], F[-1] = left, right = closure_rows(w, h, efac, a, b)
        if not (math.isfinite(left) and math.isfinite(right)):
            raise _StepFailure("nonfinite residual")
        if it == NEWTON_MAX_ITER:
            res = max(float(_amax(F)), -float(_amin(F)))  # sup|F|, before dgtsv overwrites F
        filters = fixed is not None and prev is not None
        if filters:
            # the estimate at w: fixed + dt E_1 f_1, f_1 = (w - rhs)/ddt
            est = ws.est[1:-1]
            np.subtract(w[1:-1], rhs, out=est)
            est *= _E_1 / _D
            est += fixed
            ws.est[0] = ws.est[-1] = 0.0
            x, (size, err) = _stage_matrix_solve(diffs, ddt, both, ws)
            delta = x[:, 0]
        else:
            delta, (size,) = _stage_matrix_solve(diffs, ddt, F, ws)
        if prev is None:
            judge = eta * max(1.0, size / ref)
        else:
            theta = size / prev if prev > 0.0 else 0.0
            eta = judge = theta / (1.0 - theta) if theta < 1.0 else math.inf
        error = judge * size if size > 0.0 else 0.0
        w_try = w - delta
        if error <= TOL_NEWTON and (filters or fixed is None):
            w_try -= w_try.item(c) - center  # the stage value, gauge-shifted
            diffs = _valid(w_try, h)
            if diffs is not None:
                measured = prev is not None and prev > 0.0 and size > 0.0
                return (w_try, it, error, (eta, prev) if measured else _UNMEASURED,
                        diffs, err)
            if _valid(w - delta, h) is not None:
                raise _StepFailure("stage solution inadmissible after the gauge shift")
        else:
            diffs = _valid(w_try, h)
        lam = 1.0
        if diffs is None:
            for _ in range(8):
                lam *= 0.5
                w_try = w - lam * delta
                diffs = _valid(w_try, h)
                if diffs is not None:
                    break
            else:
                raise _StepFailure("damping exhausted: iterate leaves admissible cone")
        w = w_try
        if lam < 1.0:
            prev, (eta, ref) = None, _UNMEASURED
            continue
        prev = size
    raise _StepFailure(f"Newton stalled after {NEWTON_MAX_ITER} iterations "
                       f"(residual {res:.3e})")


def _start(points: tuple[tuple[float, np.ndarray], ...], t: float, u: np.ndarray,
           diffs: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Start of a stage solve to time t, with its differences: the Lagrange
    extrapolation through the two or three solution points (t_i, u_i) to t,
    or u_n with its differences diffs when there is one point or the rule
    refuses the extrapolation."""
    if len(points) == 1:
        return u, diffs
    if len(points) == 2:
        (t0, u0), (t1, u1) = points
        w = np.multiply(u0, (t - t1) / (t0 - t1))
        w += np.multiply(u1, (t - t0) / (t1 - t0))
    else:
        (t0, u0), (t1, u1), (t2, u2) = points
        w = np.multiply(u0, (t - t1) / (t0 - t1) * ((t - t2) / (t0 - t2)))
        term = np.multiply(u1, (t - t0) / (t1 - t0) * ((t - t2) / (t1 - t2)))
        w += term
        w += np.multiply(u2, (t - t0) / (t2 - t0) * ((t - t1) / (t2 - t1)), out=term)
    w_diffs = _valid(w, h)
    return (w, w_diffs) if w_diffs is not None else (u, diffs)


def _velocity(diffs: np.ndarray, n: int, offset: np.ndarray) -> np.ndarray:
    """Explicit velocity f(u) = log d2 + (n-1) log d1 - offset, that is
    log u'' + (n-1) log u' - n rho, at interior nodes from the unscaled
    differences (d1, d2) of an admissible u (see _Workspace)."""
    return np.log(diffs[1]) + (n - 1) * np.log(diffs[0]) - offset


def step(state: FlowState, ctl: StepControl, t_cap: float | None = None) -> FlowState:
    """Advance one accepted adaptive TR-BDF2 step (with internal retries).

    t_cap is an event time the step must not overshoot, taken as a Python
    float (a numpy scalar passes, a string or NaN is refused); the step
    lands on it exactly when the proposal reaches it, and takes half the way
    to it when the proposal reaches past half the way, so that a next
    proposal no shorter lands with the same dt.  It is the stop time
    ctl.t_stop_fraction T when not given, and no later than it when given,
    so no step passes the stop time.  The returned
    state builds its profile on first read.  An inadmissible u fails before
    any attempt; a failure after attempts carries them in FlowError.rejected.
    """
    params = state.params
    n, k = params.n, params.k
    u, t, grid = state.u, state.t, state.grid
    c = grid.center
    T = singular_time(params).T
    t_stop = ctl.t_stop_fraction * T
    if t >= t_stop:
        raise FlowError(f"t={t} already beyond the stop time {t_stop}")
    t_cap = t_stop if t_cap is None else _number("t_cap", t_cap)
    if math.isnan(t_cap):  # min(nan, t_stop) is nan, which no landing test matches
        raise ProfileError(f"need a t_cap that is not NaN, got t_cap={t_cap}")
    t_cap = min(t_cap, t_stop)

    h = grid.h
    diffs = state._diffs
    if diffs is None:
        diffs, bad = _rule(u, h)
        if bad is not None:
            bad = np.flatnonzero(bad)
            raise FlowError(f"profile inadmissible at t={t:.12g}: u' <= 0, u'' <= FLOOR_U2 "
                            f"or a non-finite sample at {bad.size} node(s), first at "
                            f"rho={grid.nodes[bad[0]]:.6g} {_causes(u, diffs, h)}")

    dt = state.stats.dt_next if state.stats is not None else DT_INIT * (T - t)
    ws = state._ws or _Workspace(grid, n, k)
    f_n = _velocity(diffs, n, ws.offset)
    u_in = u[1:-1]
    b_old = (_BDF2_SCALE * _BDF2_OLD) * u_in
    center = u[c]
    # solution points the stages are predicted from: the previous step's
    # start and trapezoidal stage value, if the state carries them, and u_n
    past = state._past + ((t, u),)
    contraction = state._contraction
    rhs, base, fixed = ws.rhs, ws.base, ws.fixed
    rejected: list[str] = []
    with np.errstate(invalid="ignore"):
        while True:
            hit_cap = t + dt >= t_cap * (1.0 - 1e-14)
            if hit_cap:
                dt = t_cap - t
                if dt <= 0.0:
                    raise FlowError(f"event time {t_cap} not ahead of t={t}")
            elif t + 2.0 * dt >= t_cap * (1.0 - 1e-14):
                dt = 0.5 * (t_cap - t)
            ddt = _D * dt
            t_g, t_1 = t + _GAMMA * dt, t + dt
            # base = rhs - ddt offset in both stages
            doff = np.multiply(ws.offset, ddt, out=ws.doff)
            try:
                # TR stage to t + gamma dt, its first update judged by the
                # contraction the last BDF2 stage measured
                np.multiply(f_n, ddt, out=rhs)
                rhs += u_in
                np.subtract(rhs, doff, out=base)
                u_g, iters_g = _solve_stage(
                    *_start(past, t_g, u, diffs, h), center, rhs, base, ddt,
                    *_class_law(n, k, params.a0, params.b0, t_g), contraction, ws)[:2]
                # the part of the embedded estimate the BDF2 stage does not change
                np.multiply(f_n, dt * _E_N, out=fixed)
                np.subtract(u_g[1:-1], rhs, out=base)
                base *= _E_G / _D
                fixed += base
                # BDF2 stage to t + dt.  Its solution is the step's result, which
                # the monitors read, so it measures the contraction of its own
                # updates
                np.multiply(u_g[1:-1], _BDF2_SCALE, out=rhs)
                rhs -= b_old
                np.subtract(rhs, doff, out=base)
                u1, iters, res, contraction, diffs1, err = _solve_stage(
                    *_start(past[-2:] + ((t_g, u_g),), t_1, u, diffs, h), center, rhs, base,
                    ddt, *_class_law(n, k, params.a0, params.b0, t_1), _UNMEASURED, ws, fixed)
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

    t_new = t_cap if hit_cap else t_1
    dt_next = max(dt * factor, DT_MIN)
    stats = StepStats(dt=dt, dt_next=dt_next, newton_iters=iters_g + iters,
                      residual=res, error=err, retries=len(rejected),
                      rejected=tuple(rejected))
    return FlowState(u1, t_new, grid, params, stats, diffs1, ((t, u), (t_g, u_g)),
                     contraction, ws)


# ---------------------------------------------------------------------------
# full runs

def checkpoint_times(T: float, t_stop: float, count: int) -> list[tuple[float, int]]:
    """Dyadic approach times T*(1 - 2^-j), j <= count, that fall inside the
    run; the times increase with j, so the first one past t_stop ends them."""
    out = []
    for j in range(1, count + 1):
        tj = T * (1.0 - 0.5**j)
        if tj > t_stop * (1.0 + 1e-12):
            break
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

    The flow starts from the canonical seed on grid, by default RhoGrid(), or
    from the samples, time and grid of seed_profile; a seed off the flow
    (another n, k or class) or off grid is refused.  Rows are sampled at t=0,
    at every cadence-th accepted step, at each dyadic checkpoint time (levels
    1 ... checkpoints_j, a count >= 0), and at the stop time.  With out_dir set,
    the trace table, a JSON summary, per-step log lines and the checkpoint
    profiles are written there.  A run that fails with FlowError, or whose
    checkpoint write fails with ProfileError, still writes the trace and
    summary of the rows sampled so far; run.log ends on an "error:" line and
    the summary carries the text under "error".  trace.elapsed runs from the
    first row to the written trace.csv, and trace.phase_seconds splits it.
    """
    checkpoints_j = _number("checkpoints_j", checkpoints_j, integer=True)
    if checkpoints_j < 0:
        raise ProfileError(f"need checkpoints_j >= 0, got checkpoints_j={checkpoints_j}")
    ctl = ctl or StepControl()
    monitors = monitors or diagnostics.MonitorSet()
    info = singular_time(params)
    T = info.T
    t_stop = ctl.t_stop_fraction * T

    if seed_profile is None:
        seed_profile = build_canonical_profile(class_at(params, 0.0), grid or RhoGrid(),
                                               params.n, params.k)
    elif grid is not None and grid != seed_profile.grid:
        raise ProfileError(f"grid {grid} differs from the seed's grid {seed_profile.grid}")
    elif not on_class_motion(params, seed_profile):
        raise FlowError(f"seed n={seed_profile.n}, k={seed_profile.k}, class "
                        f"({seed_profile.cls.a:.9g}, {seed_profile.cls.b:.9g}) at "
                        f"t={seed_profile.t:.9g} is off the flow n={params.n}, k={params.k}")
    if seed_profile.t >= t_stop:
        raise FlowError(f"seed time {seed_profile.t} is past the stop time {t_stop}")

    events = [(tj, j) for tj, j in checkpoint_times(T, t_stop, checkpoints_j)
              if tj > seed_profile.t]
    if not events or t_stop - events[-1][0] > 1e-12 * T:
        events.append((t_stop, 0))

    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    state = FlowState(seed_profile.u, seed_profile.t, seed_profile.grid, params)
    trace = diagnostics.FlowTrace(params=params, T=T, regime=info.regime)
    # one clock pair per call site; a failing step is timed in the handler
    clock, phases = time.perf_counter, trace.phase_seconds
    # a seed the rule refuses may have u'' = 0, where the monitors are
    # undefined: its row is sampled quietly, and the first step refuses it
    refused = _rule(seed_profile.u, seed_profile.grid.h)[1] is not None
    started = clock()
    with np.errstate(all="ignore" if refused else None):
        trace.rows.append(diagnostics.profile_row(seed_profile, T))
    phases["monitors"] += clock() - started
    log_fh = (out / "run.log").open("w") if out is not None else None
    failure: FlowError | ProfileError | None = None
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
                    try:
                        if out is not None:
                            save_checkpoint(state.profile,
                                            out / f"{_CHECKPOINT_PREFIX}{j:02d}.json")
                    finally:
                        phases["checkpoints"] += clock() - t0
                    trace.checkpoints.append(
                        diagnostics.CheckpointRecord(j=j, t=t, profile=state.profile))
                if landed or trace.steps % monitors.cadence == 0:
                    t0 = clock()
                    trace.rows.append(
                        diagnostics.profile_row(state.profile, T, dt=st.dt, iters=st.newton_iters)
                        if landed else diagnostics.row_from_samples(
                            state.u, state.grid.h, params, t, T, dt=st.dt, iters=st.newton_iters))
                    phases["monitors"] += clock() - t0
    except (FlowError, ProfileError) as exc:  # a step failed, or a checkpoint write
        failure = exc
        if isinstance(exc, FlowError):
            phases["step"] += clock() - t_step
            trace.retries += len(exc.rejected)
            if log_fh is not None:
                log_fh.writelines(f"reject {entry}\n" for entry in exc.rejected)
        trace.error = str(exc)
        if log_fh is not None:
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

