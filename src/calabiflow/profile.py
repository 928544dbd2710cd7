"""Rotationally symmetric Kahler potentials on the one-point blow-up of CP^n.

A metric in the symmetric ansatz is a convex potential u(rho) of the log
fiber radius rho with u' increasing from a to b, the endpoints of the Kahler
class.  Everything downstream (flow, curvature, blow-up analysis) consumes
the sampled potential together with its first four derivatives on a uniform
truncated grid rho in [-L, L].

Boundary handling: beyond the grid the potential follows its asymptotic
model u = a*rho + D + E*e^(k*rho) (mirrored on the right), which encodes
smoothness of the metric across the zero and infinity divisors.  The
flow's closure rows hold each end on that model, and the ghost nodes for
the high-order stencils continue it through the two end samples; nothing
is fitted.  The guarded u'''/u'' takes the model's limit +-k only where
the raw difference is within rounding noise of it, c4 stays the raw
difference, and c4_trust_mask marks the nodes where that fourth-difference
output is credible at all.
"""

from __future__ import annotations

import base64
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

# version 2 stores u as base64 of its little-endian float64 bytes
CHECKPOINT_VERSION = 2

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
class CalabiProfile:
    """Potential samples and derivative arrays at one flow time.

    The arrays are treated as immutable after construction.  d3u and d4u
    are raw centered differences; tail-sensitive combinations should go
    through ratio_g / c4_combination below, whose u'''/u'' takes the
    boundary tail's limit where the samples cannot tell them apart.  One
    pass forms those two together with c4_trust_mask, the first time any
    of them is read, and the profile keeps its read-only result.
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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _ghosts(u: np.ndarray, h: float, k: int, a: float,
            b: float) -> tuple[np.ndarray, np.ndarray]:
    """Three ghost samples beyond each end, in grid order: the one-mode tail
    a*rho + D + E*e^(k*rho) (b and e^(-k*rho) on the right) through the two
    end samples, g_-m = u_0 - a m h + (u_1 - u_0 - a h) expm1(-m k h) /
    expm1(k h) for m = 1, 2, 3.  Every triple of consecutive samples that
    reaches a ghost satisfies closure_rows, so on a flow state, whose end
    triples satisfy them too, the ghosts continue the tail the stepper holds."""
    m = np.array([3.0, 2.0, 1.0])
    q = np.expm1(-k * h * m) / math.expm1(k * h)
    (u0, u1), (v1, v0) = u[:2].tolist(), u[-2:].tolist()
    return (u0 - a * h * m + (u1 - u0 - a * h) * q,
            (v0 + b * h * m + (v1 - v0 + b * h) * q)[::-1])


def profile_from_samples(
    u: np.ndarray,
    grid: RhoGrid,
    cls: KahlerClass,
    t: float,
    n: int,
    k: int,
) -> CalabiProfile:
    """Profile with fourth-order centered derivatives.

    Ghost nodes extend the samples along the boundary tail that the
    closure rows impose (_ghosts); this keeps the stencils fourth-order
    right up to the ends for admissible profiles.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.N,):
        raise ProfileError(f"sample array has shape {u.shape}, expected ({grid.N},)")
    h = grid.h
    left, right = _ghosts(u, h, k, cls.a, cls.b)
    padded = np.concatenate([left, u, right])
    return CalabiProfile(grid=grid, cls=cls, t=t, n=n, k=k, u=u,
                         du=_apply_stencil(padded, 1, h), d2u=_apply_stencil(padded, 2, h),
                         d3u=_apply_stencil(padded, 3, h), d4u=_apply_stencil(padded, 4, h))


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
    return CalabiProfile(grid=grid, cls=cls, t=0.0, n=n, k=k,
                         u=u, du=du, d2u=d2u, d3u=d3u, d4u=d4u)


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

    G = u'''/u'' and c4 = -u''''/u''^2 + u'''^2/u''^3 are raw differences,
    with rounding noise S3 eps sup|u| / (h^3 |u''|) and
    S4 eps sup|u| / (h^4 u''^2), S3 and S4 the stencils' absolute
    coefficient sums.  Left of the center G takes the boundary tail's
    limit s = +k, and right of it s = -k, where the raw value is within
    that noise of s: there the samples cannot tell the two apart.  c4
    stays raw, since the one-mode tail gives it no value to take.

    trust marks the nodes where c4 is numerically credible: its noise stays
    below C4_TRUST_REL times the local magnitude (referenced to the center
    value, so near-zero stretches of an otherwise active profile are not
    spuriously trusted), and its stencil reads no ghost.  Late in a
    contraction an untrusted gap opens on the degenerating side.
    """
    d2u, d3u = p.d2u, p.d3u
    N, c, k, h = p.grid.N, p.grid.center, p.k, p.grid.h
    scale = np.finfo(float).eps * float(np.max(np.abs(p.u)))
    with np.errstate(divide="ignore", invalid="ignore"):
        G = d3u / d2u
        c4 = (d3u * d3u - p.d4u * d2u) / (d2u * d2u * d2u)
        noise_g = _NOISE_SUM[3] * scale / h**3 / np.abs(d2u)
        for s, half in ((k, slice(0, c)), (-k, slice(c + 1, N))):
            np.copyto(G[half], s, where=np.abs(G[half] - s) <= noise_g[half])
        ref = abs(float(c4[c]))
        trust = _NOISE_SUM[4] * scale / h**4 / (d2u * d2u) <= C4_TRUST_REL * (np.abs(c4) + ref)
    trust[:3] = trust[-3:] = False
    return _read_only(G), _read_only(c4), _read_only(trust)


def ratio_h(p: CalabiProfile) -> np.ndarray:
    """u''/u', the fiber-to-base metric ratio."""
    return p.d2u / p.du


def ratio_g(p: CalabiProfile) -> np.ndarray:
    """u'''/u'', taking the boundary tail's limit where the samples match it."""
    return p._guarded[0]


def c4_combination(p: CalabiProfile) -> np.ndarray:
    """The combination -u''''/u''^2 + u'''^2/u''^3 of raw differences."""
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
