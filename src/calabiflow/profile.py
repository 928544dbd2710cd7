"""Rotationally symmetric Kahler potentials on the one-point blow-up of CP^n.

A metric in the symmetric ansatz is a convex potential u(rho) of the log
fiber radius rho with u' increasing from a to b, the endpoints of the Kahler
class.  Everything downstream (flow, monitors, blow-up analysis) consumes
the sampled potential together with its first four derivatives on a uniform
truncated grid rho in [-L, L].

Boundary handling: beyond the grid the potential follows its asymptotic
model u = a*rho + D + E*e^(k*rho) (mirrored on the right), which encodes
smoothness of the metric across the zero and infinity divisors.  The
flow's closure rows hold each end on that model, and the ghost nodes for
the high-order stencils continue it through the two end samples; nothing
is fitted.  The guarded u'''/u'' takes the model's limit +-k only where
the raw difference is within rounding noise of it, c4 stays the raw
difference, and a trust mask marks the nodes where that fourth-difference
output is credible.  A profile keeps the three as CalabiProfile.guarded,
which diagnostics.moment_arrays reads for the monitors and blow-up report.
"""

from __future__ import annotations

import base64
import functools
import json
import math
import numbers
import operator
import os
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

# version 2 stores u as base64 of its little-endian float64 bytes
CHECKPOINT_VERSION = 2

# A node is trusted when the rounding noise of the fourth difference,
# carried through the fourth-order combination, stays below this fraction
# of the local magnitude.  At 0.05 the trusted nodes at the mask's edge
# carry about 1 % of node-to-node noise, which a Type I constant read as a
# sup over them inherits; at 0.01 the seed's core is untrusted.
C4_TRUST_REL = 0.02


class ProfileError(ValueError):
    """Raised for inconsistent construction input or a malformed checkpoint.
    Admissibility is judged by flow.validate_profile, which reports it."""


def _number(name: str, value, integer: bool = False) -> int | float:
    """value as the Python int (integer=True) or float that JSON can hold: numpy
    scalars pass, and 2.5 as a count or "1" as a number is refused by name."""
    try:
        if integer:
            return operator.index(value)
        if isinstance(value, numbers.Real):
            return float(value)
    except (TypeError, OverflowError):
        pass
    kind = "an integer" if integer else "a number"
    raise ProfileError(f"need {kind} {name}, got {name}={value!r}")


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
        for name in ("n", "k", "a0", "b0"):
            object.__setattr__(self, name, _number(name, getattr(self, name), name in ("n", "k")))
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
        for name in ("a", "b"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        if not (0.0 < self.a < self.b and math.isfinite(self.b)):
            raise ProfileError(f"need finite 0 < a < b, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class RhoGrid:
    """Uniform grid on [-L, L] with an odd node count, so rho=0 is a node."""

    L: float = 12.0
    N: int = 2049
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("L", "N"):
            object.__setattr__(self, name, _number(name, getattr(self, name), name == "N"))
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


class SingularTimeInfo(NamedTuple):
    T: float
    regime: Regime
    Ta: float
    Tb: float


@dataclass(frozen=True)
class CalabiProfile:
    """Potential samples and derivative arrays at one flow time.

    The arrays are treated as immutable after construction.  d3u and d4u
    are raw centered differences; tail-sensitive combinations are read
    from guarded, whose u'''/u'' takes the boundary tail's limit where the
    samples cannot tell them apart.
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
    def guarded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """guard_tails' read-only (G, c4, trust), formed on the first read."""
        return guard_tails(self.u, self.d2u, self.d3u, self.d4u, self.grid.h, self.k)


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
# ghost nodes beyond each end: the widest stencil's radius
_GHOST = max(r for r, _ in _STENCILS.values())
# rounding noise of the order-3 and order-4 differences, per eps sup|u| / h^order
_NOISE_SUM = {order: float(np.abs(_STENCILS[order][1]).sum()) for order in (3, 4)}


@functools.lru_cache(maxsize=64)
def _ghost_weights(k: int, h: float) -> tuple[tuple[float, float], ...]:
    m = np.arange(_GHOST, 0, -1, dtype=float)
    return tuple(zip(m.tolist(), (np.expm1(-k * h * m) / math.expm1(k * h)).tolist()))


def _ghosts(u: np.ndarray, h: float, k: int, a: float,
            b: float) -> tuple[list[float], list[float]]:
    """_GHOST ghost samples beyond each end, in grid order: the one-mode tail
    a*rho + D + E*e^(k*rho) (b and e^(-k*rho) on the right) through the two
    end samples, g_-m = u_0 - a m h + (u_1 - u_0 - a h) expm1(-m k h) /
    expm1(k h) for m = 1, ..., _GHOST.  Every triple of consecutive samples that
    reaches a ghost satisfies closure_rows, so on a flow state, whose end
    triples satisfy them too, the ghosts continue the tail the stepper holds."""
    (u0, u1), (v1, v0), mq = u[:2].tolist(), u[-2:].tolist(), _ghost_weights(k, h)
    return ([u0 - a * h * m + (u1 - u0 - a * h) * q for m, q in mq],
            [v0 + b * h * m + (v1 - v0 + b * h) * q for m, q in mq][::-1])


def stencil_derivatives(u: np.ndarray, h: float, k: int, a: float,
                        b: float) -> tuple[np.ndarray, ...]:
    """u', u'', u''' and u'''' of samples u of the class (a, b), by centered
    stencils.  Ghost nodes extend u along the boundary tail that the
    closure rows impose (_ghosts); this keeps the stencils fourth-order
    right up to the ends for admissible profiles."""
    left, right = _ghosts(u, h, k, a, b)
    padded = np.concatenate([left, u, right])
    return tuple(np.correlate(padded[_GHOST - r: len(padded) - _GHOST + r], c, "valid") / h**order
                 for order, (r, c) in _STENCILS.items())


def profile_from_samples(
    u: np.ndarray,
    grid: RhoGrid,
    cls: KahlerClass,
    t: float,
    n: int,
    k: int,
) -> CalabiProfile:
    """Profile with the fourth-order derivatives of stencil_derivatives."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.N,):
        raise ProfileError(f"sample array has shape {u.shape}, expected ({grid.N},)")
    du, d2u, d3u, d4u = stencil_derivatives(u, grid.h, k, cls.a, cls.b)
    return CalabiProfile(grid=grid, cls=cls, t=t, n=n, k=k, u=u,
                         du=du, d2u=d2u, d3u=d3u, d4u=d4u)


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

@functools.lru_cache(maxsize=64)
def _tail_limits(N: int, k: int) -> np.ndarray:
    """Limits of u'''/u'' in the tails: +k left of the center, -k right, NaN at it."""
    s = np.repeat([float(k), math.nan, -float(k)], [N // 2, 1, N // 2])
    s.flags.writeable = False
    return s


def guard_tails(u: np.ndarray, d2u: np.ndarray, d3u: np.ndarray, d4u: np.ndarray,
                h: float, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tail-guarded, read-only (G, c4, trust) of samples u and derivatives.

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
    scale = sys.float_info.epsilon * float(np.maximum.reduce(np.abs(u)))
    sq = d2u * d2u
    with np.errstate(divide="ignore", invalid="ignore"):
        G = d3u / d2u
        c4 = (d3u * d3u - d4u * d2u) / (sq * d2u)
        s = _tail_limits(len(u), k)
        G = np.where(np.abs(G - s) <= _NOISE_SUM[3] * scale / h**3 / np.abs(d2u), s, G)
        ref = abs(float(c4[len(u) // 2]))
        trust = _NOISE_SUM[4] * scale / h**4 / sq <= C4_TRUST_REL * (np.abs(c4) + ref)
    trust[:_GHOST] = trust[-_GHOST:] = False
    G.flags.writeable = c4.flags.writeable = trust.flags.writeable = False
    return G, c4, trust


def c4_trust_mask(p: CalabiProfile) -> np.ndarray:
    """Nodes where the fourth-order combination is numerically credible;
    minima and suprema of fourth-difference quantities restrict to them."""
    return p.guarded[2]


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
    header = {"version": CHECKPOINT_VERSION, "n": p.n, "k": p.k, "t": p.t,
              "a": p.cls.a, "b": p.cls.b, "L": p.grid.L, "N": p.grid.N}
    b64 = base64.b64encode(np.asarray(p.u, dtype="<f8").tobytes()).decode("ascii")
    try:  # json refuses a non-finite header value before the file is opened;
        # base64 needs no escaping, so the samples skip json's escape scan
        text = json.dumps(header, allow_nan=False)[:-1] + ', "u": "' + b64 + '"}\n'
        write_atomic(path, text)
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
