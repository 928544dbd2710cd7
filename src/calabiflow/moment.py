"""Profiles in moment coordinates.

A moment profile is the metric written as a function of the moment variable
x = u'(rho): phi(x) = u''(rho(x)).  The change of variables makes profiles at
different times and scales directly comparable, which is what the blow-up
analysis needs.  Slopes transform by the chain rule, phi'(x) = u'''/u''.

moment_profile is the one conversion from a sampled potential.  It also
magnifies: the metric of K*u has x = K u' and phi = K u'', while the slope
u'''/u'' is unchanged, so magnifying a profile needs no rescaled copy of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .profile import CalabiProfile, ratio_g

# evaluation points per window for C^1 distances and soliton fits
WINDOW_SAMPLES = 801


class MomentDomainError(ValueError):
    """The sampled moment domain is unusable, or a window leaves it."""


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, limited to keep the data's shape."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class _MonotoneCubic:
    """Fritsch-Carlson monotone cubic Hermite (PCHIP) through (x, y).

    Interior slopes are the weighted harmonic mean of the neighbouring
    secants, and zero where those differ in sign or one vanishes; end
    slopes are the shape-preserving three-point estimates.  Each interval
    holds its cubic in powers of (x - x_i), and queries outside
    [x_0, x_N] evaluate to NaN.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        h = np.diff(x)
        m = np.diff(y) / h
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        inner = np.sign(m[1:]) * np.sign(m[:-1]) > 0.0
        d = np.zeros_like(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1][inner] = 1.0 / whmean[inner]
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self.x = x
        self.coef = (y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h)

    def __call__(self, xq) -> np.ndarray:
        xq = np.asarray(xq, dtype=float)
        i = np.clip(np.searchsorted(self.x, xq, side="right") - 1, 0, self.x.size - 2)
        s = xq - self.x[i]
        c0, c1, c2, c3 = (c[i] for c in self.coef)
        out = c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)
        return np.where((xq < self.x[0]) | (xq > self.x[-1]), np.nan, out)


@dataclass(eq=False)
class MomentProfile:
    """Sampled moment-coordinate profile with monotone-cubic interpolation.

    x:      strictly increasing sample locations
    phi:    positive profile values at the samples
    dphi:   slope samples phi'(x), supplied rather than differenced so that
            chain-rule values (u'''/u'') can be used when available

    phi and phi' are each interpolated by their own monotone cubic (the
    module's numpy PCHIP, which reproduces scipy's PchipInterpolator with
    extrapolate=False); eval and eval_slope are NaN outside
    [x_min, x_max].
    """

    x: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        self.dphi = np.asarray(self.dphi, dtype=float)
        if self.x.ndim != 1 or self.x.size < 4:
            raise ValueError("moment profile needs at least 4 samples")
        if self.x.shape != self.phi.shape or self.x.shape != self.dphi.shape:
            raise ValueError("moment sample arrays must share one shape")
        if np.any(np.diff(self.x) <= 0.0):
            raise ValueError("moment samples must be strictly increasing in x")
        self._interp = _MonotoneCubic(self.x, self.phi)
        self._interp_slope = _MonotoneCubic(self.x, self.dphi)

    @property
    def x_min(self) -> float:
        return float(self.x[0])

    @property
    def x_max(self) -> float:
        return float(self.x[-1])

    def check_window(self, window: tuple[float, float]) -> None:
        lo, hi = window
        if not lo < hi:
            raise MomentDomainError(f"empty window ({lo}, {hi})")
        if lo < self.x_min or hi > self.x_max:
            raise MomentDomainError(
                f"window ({lo}, {hi}) outside sampled domain "
                f"({self.x_min}, {self.x_max})"
            )

    def eval(self, xq: np.ndarray) -> np.ndarray:
        return self._interp(xq)

    def eval_slope(self, xq: np.ndarray) -> np.ndarray:
        return self._interp_slope(xq)


def moment_profile(p: CalabiProfile, K: float = 1.0) -> MomentProfile:
    """The profile of the metric K*u in moment coordinates.

    Close to the singular time the outermost node or two can lose strict
    monotonicity of u' while the interior stays healthy.  Those nodes map
    to the extreme ends of the moment domain, far outside any comparison
    window, so the conversion keeps the longest strictly increasing run
    of u' containing the center and drops the rest.

    Slopes are ``ratio_g``, the u'''/u'' the monitors read, at the nodes of
    that run where it is finite.
    """
    # steps where u' does not rise, NaN included, between sentinels at both ends
    stops = np.r_[-1, np.flatnonzero(~(np.diff(p.du) > 0.0)), p.grid.N - 1]
    i = np.searchsorted(stops, p.grid.center)
    core = slice(stops[i - 1] + 1, stops[i] + 1)
    dphi = ratio_g(p)[core]
    keep = np.isfinite(dphi)
    if int(keep.sum()) < 4:
        raise MomentDomainError(
            f"u' at t={p.t:.6g} has no usable increasing run around the center")
    return MomentProfile(x=K * p.du[core][keep], phi=K * p.d2u[core][keep],
                         dphi=dphi[keep])


def c1_distance(m1: MomentProfile, m2: MomentProfile,
                window: tuple[float, float]) -> float:
    """sup |phi1 - phi2| + sup |phi1' - phi2'| over a shared window."""
    m1.check_window(window)
    m2.check_window(window)
    xq = np.linspace(window[0], window[1], WINDOW_SAMPLES)
    d0 = np.max(np.abs(m1.eval(xq) - m2.eval(xq)))
    d1 = np.max(np.abs(m1.eval_slope(xq) - m2.eval_slope(xq)))
    return float(d0 + d1)
