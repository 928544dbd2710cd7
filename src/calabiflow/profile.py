"""Rotationally symmetric Kahler potentials on the one-point blow-up of CP^n.

A metric in the symmetric ansatz is a convex potential u(rho) of the log
fiber radius rho with u' increasing from a to b, the endpoints of the Kahler
class.  Everything downstream (flow, curvature, blow-up analysis) consumes
the sampled potential together with its first four derivatives on a uniform
truncated grid rho in [-L, L].

Boundary handling: beyond the grid the potential follows its asymptotic
model u = a*rho + D + E*e^(k*rho) + F*e^(2*k*rho) (mirrored on the right),
which encodes smoothness of the metric across the zero and infinity
divisors.  Ghost nodes for the high-order stencils come from that model,
and so do the guarded u'''/u'' and c4 where the model matches the raw
differences to within their rounding noise; c4_trust_mask marks the nodes
where fourth-difference output is credible at all.  What fits, ghosts and
guards need of the grid and k alone is formed once per (grid, k) by the
cache _geometry, as read-only arrays.
"""

from __future__ import annotations

import base64
import functools
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

# version 2 stores u as base64 of its little-endian float64 bytes
CHECKPOINT_VERSION = 2

# The boundary model is fitted on a band of fixed rho-width next to each
# edge (per unit k, capped by a third of the half-width).
TAIL_BAND_WIDTH = 3.0
MIN_FIT_NODES = 8

# A node is trusted when the rounding noise of the fourth difference,
# carried through the fourth-order combination, stays below this fraction
# of the local magnitude.
C4_TRUST_REL = 0.05


class ProfileError(ValueError):
    """Raised for inconsistent construction input or a malformed checkpoint.
    Admissibility is judged by flow.validate_profile, which reports it."""


class Regime(str, Enum):
    CONTRACT = "Contract"
    COLLAPSE = "Collapse"
    SHRINK = "Shrink"


@dataclass(frozen=True)
class FlowParams:
    """Dimension n, divisor twist k, and the initial class endpoints."""

    n: int
    k: int
    a0: float
    b0: float

    def __post_init__(self):
        if self.n < 2:
            raise ProfileError(f"need n >= 2, got n={self.n}")
        if not 1 <= self.k < self.n:
            raise ProfileError(f"need 1 <= k < n, got k={self.k} with n={self.n}")
        if not (0.0 < self.a0 < self.b0 and math.isfinite(self.b0)):
            raise ProfileError(f"need finite 0 < a0 < b0, got a0={self.a0}, b0={self.b0}")


@dataclass(frozen=True)
class KahlerClass:
    """Open interval (a, b) swept by u'; the cohomology class of the metric."""

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 < self.a < self.b and math.isfinite(self.b)):
            raise ProfileError(f"need finite 0 < a < b, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class RhoGrid:
    """Uniform grid on [-L, L] with an odd node count, so rho=0 is a node."""

    L: float
    N: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # L < 1 misses the tails the closure rows assume; beyond L ~ 733 no
        # seed passes the flow's u'' floor at the ends; N is bounded before allocation
        if not 1.0 <= self.L <= 1000.0:
            raise ProfileError(f"need finite 1 <= L <= 1000, got L={self.L}")
        if not 257 <= self.N <= 2**20 + 1 or self.N % 2 == 0:
            raise ProfileError(f"need odd 257 <= N <= 2**20 + 1, got N={self.N}")
        object.__setattr__(self, "nodes", np.linspace(-self.L, self.L, self.N))

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.N - 1)

    @property
    def center(self) -> int:
        return (self.N - 1) // 2


@dataclass(frozen=True)
class SingularTimeInfo:
    T: float
    regime: Regime
    Ta: float
    Tb: float


@dataclass(frozen=True)
class TailFit:
    """Coefficients (D, E, F) of the boundary model D + E*w + F*w^2.

    w = e^(k*rho) at the left end, w = e^(-k*rho) at the right end, after
    the affine part (a*rho, resp. b*rho) has been removed.
    """

    base: float
    amp: float
    amp2: float


@dataclass(frozen=True)
class CalabiProfile:
    """Potential samples and derivative arrays at one flow time.

    The arrays are treated as immutable after construction.  d3u and d4u
    are raw centered differences; tail-sensitive combinations should go
    through ratio_g / c4_combination below, which switch to the boundary
    model where it describes the samples.  One pass forms those two
    together with c4_trust_mask, the first time any of them is read, and
    the profile keeps its read-only result.
    """

    grid: RhoGrid
    cls: KahlerClass
    t: float
    n: int
    k: int
    u: np.ndarray
    du: np.ndarray
    d2u: np.ndarray
    d3u: np.ndarray
    d4u: np.ndarray
    tail_left: TailFit
    tail_right: TailFit

    def __post_init__(self):
        for name in ("u", "du", "d2u", "d3u", "d4u"):
            arr = getattr(self, name)
            if arr.shape != (self.grid.N,):
                raise ProfileError(f"{name} has shape {arr.shape}, expected ({self.grid.N},)")

    @functools.cached_property
    def _guarded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _guard_tails(self)


def class_at(params: FlowParams, t: float) -> KahlerClass:
    """Kahler class at time t; endpoints shrink at rates (n-k) and (n+k)."""
    info = singular_time(params)
    if t < 0.0 or t >= info.T:
        raise ProfileError(f"t={t} outside [0, T) with T={info.T}")
    return KahlerClass(params.a0 - (params.n - params.k) * t,
                       params.b0 - (params.n + params.k) * t)


def on_class_motion(params: FlowParams, p: CalabiProfile) -> bool:
    """Whether p's class is class_at(params, p.t) up to rounding,
    1e-9 max(b0, 1) in either endpoint."""
    expect = class_at(params, p.t)
    drift = max(abs(p.cls.a - expect.a), abs(p.cls.b - expect.b))
    return drift <= 1e-9 * max(params.b0, 1.0)


@functools.lru_cache(maxsize=64)
def singular_time(params: FlowParams) -> SingularTimeInfo:
    """First time the class degenerates, and which endpoint gets there.
    Cached per (frozen) params: the stepper asks on every attempt."""
    Ta = params.a0 / (params.n - params.k)
    Tb = (params.b0 - params.a0) / (2.0 * params.k)
    T = min(Ta, Tb)
    if abs(Ta - Tb) <= 1e-12 * max(Ta, Tb):
        regime = Regime.SHRINK
    elif Ta < Tb:
        regime = Regime.CONTRACT
    else:
        regime = Regime.COLLAPSE
    return SingularTimeInfo(T=T, regime=regime, Ta=Ta, Tb=Tb)


# ---------------------------------------------------------------------------
# differentiation

_STENCILS = {
    1: (2, np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0),
    2: (2, np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0),
    3: (3, np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0),
    4: (3, np.array([-1.0, 12.0, -39.0, 56.0, -39.0, 12.0, -1.0]) / 6.0),
}
# rounding noise of the order-3 and order-4 differences, per eps sup|u| / h^order
_NOISE_SUM = {order: float(np.abs(_STENCILS[order][1]).sum()) for order in (3, 4)}


def _apply_stencil(padded: np.ndarray, order: int, h: float) -> np.ndarray:
    radius, coeffs = _STENCILS[order]
    trim = 3 - radius
    arr = padded[trim: len(padded) - trim] if trim else padded
    return np.convolve(arr, coeffs[::-1], mode="valid") / h**order


_Geometry = namedtuple("_Geometry", "fits ghosts halves h3 h4")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=16)
def _geometry(grid: RhoGrid, k: int) -> _Geometry:
    """Per end, s = +k (left) or -k (right): the fit band's w, outermost node
    first, with its _design; the ghost rho with e^(s k rho) and e^(2 s k rho);
    the guard's s, half slice, slice of the half's three ghost-read end
    nodes, and w = e^(s rho), w^2, w^3 on the half.  Read-only."""
    rho, h, N, c = grid.nodes, grid.h, grid.N, grid.center
    width = min(TAIL_BAND_WIDTH / k, grid.L / 3.0)
    m = min(max(int(round(width / h)) + 1, MIN_FIT_NODES), N // 3)
    fits, ghosts, halves = [], [], []
    for s, band, g, half, edge in (
            (k, rho[:m], rho[0] + h * np.array([-3.0, -2.0, -1.0]), slice(0, c), slice(0, 3)),
            (-k, rho[-m:], rho[-1] + h * np.array([1.0, 2.0, 3.0]), slice(c + 1, N),
             slice(c - 3, c))):
        # reversed after exp: numpy's exp may round a reversed view differently
        w = _read_only(np.exp(s * band)[::1 if s > 0 else -1])
        fits.append((w, _design(w)))
        ghosts.append(tuple(map(_read_only, (g, np.exp(s * g), np.exp(2 * s * g)))))
        w = np.exp(s * rho[half])
        halves.append((s, half, edge, *map(_read_only, (w, w**2, w**3))))
    return _Geometry(tuple(fits), tuple(ghosts), tuple(halves), h**3, h**4)


def _design(w: np.ndarray) -> tuple[float, np.ndarray | None]:
    """(wr, [1, w/wr, (w/wr)^2]) for wr = max w; no matrix unless wr > 0 is finite."""
    wr = float(np.max(w))
    if wr <= 0.0 or not math.isfinite(wr):
        return wr, None
    ws = w / wr
    return wr, _read_only(np.stack([np.ones_like(ws), ws, ws * ws], axis=1))


def _fit_tail(z: np.ndarray, w: np.ndarray, first: tuple | None = None) -> TailFit:
    """Least-squares fit of z = base + amp*w + amp2*w^2, shrinking the band
    from the inside until the fit is self-consistent.

    z and w are ordered outermost node first; first, if given, is
    _design(w).  The two-mode model holds only where |4*amp2*w|/amp, taken
    at the innermost (largest-w) node, is small; the ratio blows up when
    transition structure leaks into the band (late in a divisor contraction)
    or when the leading amplitude is not positive.  Dropping the innermost
    quarter repeatedly finds the stretch where the model actually holds.
    """
    m = len(z)
    while True:
        wr, A = first if first is not None and m == len(z) else _design(w[:m])
        if A is None:
            fit, ratio = TailFit(float(z[0]), 0.0, 0.0), math.inf
        else:
            coef, *_ = np.linalg.lstsq(A, z[:m], rcond=None)
            fit = TailFit(float(coef[0]), float(coef[1] / wr), float(coef[2] / wr**2))
            ratio = abs(4.0 * fit.amp2 * wr) / fit.amp if fit.amp > 0.0 else math.inf
        if ratio <= 0.5 or m <= MIN_FIT_NODES:
            return fit
        m = max(MIN_FIT_NODES, (3 * m) // 4)


def fit_boundary_tails(
    u: np.ndarray, grid: RhoGrid, cls: KahlerClass, k: int
) -> tuple[TailFit, TailFit]:
    """Least-squares fit of the two-mode boundary model at each end.

    The nominal fit band is the outermost stretch of nodes of rho-width
    3/k (capped at L/3); each side is trimmed toward the boundary until
    the fitted second mode stays subordinate across the band.
    """
    rho = grid.nodes
    (w_left, first_left), (w_right, first_right) = _geometry(grid, k).fits
    m = len(w_left)
    left = _fit_tail(u[:m] - cls.a * rho[:m], w_left, first_left)
    right = _fit_tail((u[-m:] - cls.b * rho[-m:])[::-1], w_right, first_right)
    return left, right


def profile_from_samples(
    u: np.ndarray,
    grid: RhoGrid,
    cls: KahlerClass,
    t: float,
    n: int,
    k: int,
) -> CalabiProfile:
    """Profile with fourth-order centered derivatives and tail fits.

    Ghost nodes extend the samples by the boundary model fitted to each
    tail; this keeps the stencils fourth-order right up to the ends for
    admissible profiles.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.N,):
        raise ProfileError(f"sample array has shape {u.shape}, expected ({grid.N},)")
    h = grid.h
    left, right = fit_boundary_tails(u, grid, cls, k)
    ghosts = [end * g_rho + tail.base + tail.amp * e1 + tail.amp2 * e2 for end, tail,
              (g_rho, e1, e2) in zip((cls.a, cls.b), (left, right), _geometry(grid, k).ghosts)]
    padded = np.concatenate([ghosts[0], u, ghosts[1]])
    return CalabiProfile(grid=grid, cls=cls, t=t, n=n, k=k, u=u,
                         du=_apply_stencil(padded, 1, h), d2u=_apply_stencil(padded, 2, h),
                         d3u=_apply_stencil(padded, 3, h), d4u=_apply_stencil(padded, 4, h),
                         tail_left=left, tail_right=right)


# ---------------------------------------------------------------------------
# canonical seed

def build_canonical_profile(
    cls: KahlerClass,
    grid: RhoGrid,
    n: int,
    k: int,
) -> CalabiProfile:
    """Logistic transition seed u = a*rho + ((b-a)/k) * log(1 + e^(k*rho)).

    All derivatives are evaluated in closed form (sig = logistic(k*rho)):
        u'   = a + (b-a)*sig
        u''  = k (b-a) sig (1-sig)
        u''' = k^2 (b-a) sig (1-sig) (1-2 sig)
        u'''' = k^3 (b-a) sig (1-sig) (1 - 6 sig + 6 sig^2)
    The tail fits are the exact series coefficients of the seed.
    """
    rho = grid.nodes
    ba = cls.b - cls.a
    # two-branch logistic: exp(-|k rho|) cannot overflow, and the left
    # branch keeps full relative accuracy in the tail where sig ~ e^(k rho)
    e = np.exp(-np.abs(k * rho))
    sig = np.where(rho >= 0.0, 1.0, e) / (1.0 + e)
    u = cls.a * rho + (ba / k) * np.logaddexp(0.0, k * rho)
    sp = sig * (1.0 - sig)
    du = cls.a + ba * sig
    d2u = k * ba * sp
    d3u = k**2 * ba * sp * (1.0 - 2.0 * sig)
    d4u = k**3 * ba * sp * (1.0 - 6.0 * sig + 6.0 * sig**2)
    tail = TailFit(0.0, ba / k, -ba / (2.0 * k))
    return CalabiProfile(grid=grid, cls=cls, t=0.0, n=n, k=k,
                         u=u, du=du, d2u=d2u, d3u=d3u, d4u=d4u,
                         tail_left=tail, tail_right=tail)


# ---------------------------------------------------------------------------
# boundary closure

def closure_rows(u: np.ndarray, h: float, efac: float,
                 a: float, b: float) -> tuple[float, float]:
    """Residuals (left, right) of the exponentially fitted boundary rows,
    with efac = expm1(k h): exact on the tails a*rho + D + E*e^(k*rho) and
    b*rho + D + E*e^(-k*rho).  The flow solves them; flow.validate_profile
    measures them."""
    (u0, u1, u2), (v2, v1, v0) = u[:3].tolist(), u[-3:].tolist()  # cheaper than numpy scalars
    left = (u0 - 2.0 * u1 + u2) - efac * ((u1 - u0) - a * h)
    right = (v2 - 2.0 * v1 + v0) + efac * ((v0 - v1) - b * h)
    return left, right


# ---------------------------------------------------------------------------
# guarded tail evaluation

def _guard_tails(p: CalabiProfile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tail-guarded (G, c4, trust) of a profile, as read-only arrays.

    G = u'''/u'' and c4 = -u''''/u''^2 + u'''^2/u''^3 start as raw
    differences, with rounding noise S3 eps sup|u| / (h^3 |u''|) and
    S4 eps sup|u| / (h^4 u''^2), S3 and S4 the stencils' absolute
    coefficient sums.  Left of the center (s = +k) and right of it
    (s = -k), that end's boundary model with w = e^(s*rho),
    G = s (E + 8 F w) / (E + 4 F w) and c4 = -4 E F w^3 / (E w + 4 F w^2)^3,
    replaces a raw value where it is finite and within that noise of it,
    or at the three end nodes whose stencils read the ghosts.  Elsewhere
    the raw value stands: the model does not describe the solution there.

    trust marks the nodes where c4 is numerically credible: the model's,
    and those where the raw noise stays below C4_TRUST_REL times the local
    magnitude (referenced to the center value, so near-zero stretches of
    an otherwise active profile are not spuriously trusted).  Between the
    two there can be a genuine gap when a class endpoint degenerates.
    """
    geo = _geometry(p.grid, p.k)
    d2u, d3u = p.d2u, p.d3u
    scale = np.finfo(float).eps * float(np.max(np.abs(p.u)))
    modelled = np.zeros(p.grid.N, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        G = d3u / d2u
        c4 = (d3u * d3u - p.d4u * d2u) / (d2u * d2u * d2u)
        noises = (_NOISE_SUM[3] * scale / geo.h3 / np.abs(d2u),
                  _NOISE_SUM[4] * scale / geo.h4 / (d2u * d2u))
        for tail, (s, half, edge, w, w2, w3) in zip((p.tail_left, p.tail_right), geo.halves):
            E, F = tail.amp, tail.amp2
            models = (s * (E + 8.0 * F * w) / (E + 4.0 * F * w),
                      -4.0 * E * F * w3 / (E * w + 4.0 * F * w2) ** 3)
            for out, model, noise in zip((G, c4), models, noises):
                raw = out[half]
                use = np.abs(model - raw) <= noise[half]
                use[edge] = True
                use &= np.isfinite(model)
                np.copyto(raw, model, where=use)
            modelled[half] = use  # c4's, the last pass
        ref = abs(float(c4[p.grid.center]))
        trust = modelled | (noises[1] <= C4_TRUST_REL * (np.abs(c4) + ref))
    return _read_only(G), _read_only(c4), _read_only(trust)


def ratio_h(p: CalabiProfile) -> np.ndarray:
    """u''/u', the fiber-to-base metric ratio."""
    return p.d2u / p.du


def ratio_g(p: CalabiProfile) -> np.ndarray:
    """u'''/u'', switching to the boundary model where it describes the samples."""
    return p._guarded[0]


def c4_combination(p: CalabiProfile) -> np.ndarray:
    """The combination -u''''/u''^2 + u'''^2/u''^3, tail-guarded."""
    return p._guarded[1]


def c4_trust_mask(p: CalabiProfile) -> np.ndarray:
    """Nodes where the fourth-order combination is numerically credible;
    minima and suprema of fourth-difference quantities restrict to them."""
    return p._guarded[2]


# ---------------------------------------------------------------------------
# checkpoints

def write_atomic(path: str | Path, text: str) -> None:
    """Write text to path whole or not at all: it goes to a sibling
    temporary file first, which then replaces path in one rename."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(p: CalabiProfile, path: str | Path) -> None:
    """Write the identifying data as JSON, with the potential samples as
    base64 of their exact little-endian float64 bytes.  A profile with a
    non-finite sample or header value is refused before anything is written."""
    bad = int(np.count_nonzero(~np.isfinite(p.u)))
    if bad:
        raise ProfileError(f"cannot write checkpoint {path}: "
                           f"u has {bad} non-finite sample(s)")
    payload = {
        "version": CHECKPOINT_VERSION,
        "n": p.n,
        "k": p.k,
        "t": p.t,
        "a": p.cls.a,
        "b": p.cls.b,
        "L": p.grid.L,
        "N": p.grid.N,
        "u": base64.b64encode(np.asarray(p.u, dtype="<f8").tobytes()).decode("ascii"),
    }
    try:  # json refuses a non-finite header value before the file is opened
        write_atomic(path, json.dumps(payload, allow_nan=False) + "\n")
    except (OSError, ValueError) as exc:
        raise ProfileError(f"cannot write checkpoint {path}: {exc}") from exc


def load_checkpoint(path: str | Path) -> CalabiProfile:
    """Rebuild a profile from a checkpoint file; derivatives are always
    recomputed."""
    path = Path(path)
    try:
        with path.open() as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ProfileError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProfileError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProfileError(f"checkpoint {path} holds {type(payload).__name__}, not an object")

    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ProfileError(
            f"checkpoint {path} has version {version!r}, expected {CHECKPOINT_VERSION}")
    try:
        fields = {key: payload[key] for key in ("N", "n", "k", "L", "a", "b", "t")}
        raw = base64.b64decode(payload["u"], validate=True)  # base64 alphabet only
        u = np.frombuffer(raw, "<f8").astype(float)  # writable, native byte order
    except (KeyError, TypeError, ValueError) as exc:
        raise ProfileError(f"checkpoint {path} missing or malformed field: {exc}") from exc
    # a count is a JSON integer and a header value a JSON number in the float
    # range: 2.9 as n, true or "513" is refused, not truncated or parsed
    bad_fields = [f"{key}={val!r}" for key, val in fields.items()
                  if not (type(val) is int if key in ("N", "n", "k") else type(val) is float
                          or type(val) is int and abs(val) <= sys.float_info.max)]
    if bad_fields:
        raise ProfileError(f"checkpoint {path}: malformed field(s) {', '.join(bad_fields)}, "
                           "need integers N, n, k and numbers L, a, b, t")
    N, n, k = fields["N"], fields["n"], fields["k"]
    header = {key: float(fields[key]) for key in ("L", "a", "b", "t")}
    bad_keys = [key for key, val in header.items() if not math.isfinite(val)]
    if bad_keys:
        raise ProfileError(
            f"checkpoint {path}: non-finite header field(s) {', '.join(bad_keys)}")
    if header["t"] < 0.0:
        raise ProfileError(f"checkpoint {path}: negative time t={header['t']}")
    # before the grid, which allocates N nodes
    if u.shape != (N,):
        raise ProfileError(f"checkpoint {path}: u has {u.size} samples, header says {N}")
    grid = RhoGrid(L=header["L"], N=N)
    cls = KahlerClass(a=header["a"], b=header["b"])
    FlowParams(n, k, cls.a, cls.b)  # rejects n < 2 and k outside [1, n)
    bad = ~np.isfinite(u)
    if bad.any():
        raise ProfileError(
            f"checkpoint {path}: u has {int(bad.sum())} non-finite sample(s), "
            f"first at index {int(np.flatnonzero(bad)[0])}")
    return profile_from_samples(u, grid, cls, header["t"], n, k)
