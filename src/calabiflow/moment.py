"""Profiles in moment coordinates.

A moment profile is the metric written as a function of the moment variable
x = u'(rho): phi(x) = u''(rho(x)).  The change of variables makes profiles at
different times and scales directly comparable, which is what the blow-up
analysis needs.  Slopes transform by the chain rule, phi'(x) = u'''/u''.

moment_profile is the one conversion, from moment arrays (x, phi, phi') on a
solver's nodes; diagnostics.moment_arrays reads them off a rho profile.  It
also magnifies: the metric of K*u has x = K u' and phi = K u'', while the
slope u'''/u'' is unchanged, so magnifying needs no rescaled copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# evaluation points per window for C^1 distances and soliton fits
WINDOW_SAMPLES = 801


class MomentDomainError(ValueError):
    """The sampled moment domain is unusable, or a window leaves it."""


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slopes, limited to keep the data's shape."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    d = np.where(np.sign(d) != np.sign(m0), 0.0, d)
    return np.where((np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0)), 3.0 * m0, d)


class _MonotoneCubic:
    """Fritsch-Carlson monotone cubic Hermite (PCHIP) through each row of y,
    bit for bit as if that row were alone.

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
        inner = np.sign(m[..., 1:]) * np.sign(m[..., :-1]) > 0.0
        d = np.zeros_like(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[..., :-1] + w2 / m[..., 1:]) / (w1 + w2)
        d[..., 1:-1][inner] = 1.0 / whmean[inner]
        ends = [0, -1]  # both ends at once, each with its inward neighbour
        d[..., ends] = _pchip_end_slope(h[ends], h[[1, -2]], m[..., ends], m[..., [1, -2]])
        t = (d[..., :-1] + d[..., 1:] - 2.0 * m) / h
        self.x = x
        self.coef = np.stack((y[..., :-1], d[..., :-1], (m - d[..., :-1]) / h - t, t / h))

    def __call__(self, xq) -> np.ndarray:
        xq = np.asarray(xq, dtype=float)
        i = np.clip(np.searchsorted(self.x, xq, side="right") - 1, 0, self.x.size - 2)
        s = xq - self.x[i]
        s2 = s * s
        c0, c1, c2, c3 = self.coef.take(i, axis=-1)
        out = c0 + c1 * s + c2 * s2 + c3 * (s2 * s)
        out[..., (xq < self.x[0]) | (xq > self.x[-1])] = np.nan
        return out


@dataclass(eq=False)
class MomentProfile:
    """Sampled moment-coordinate profile with monotone-cubic interpolation.

    x:      strictly increasing sample locations
    phi:    positive profile values at the samples
    dphi:   slope samples phi'(x), supplied rather than differenced so that
            chain-rule values (u'''/u'') can be used when available

    All are finite.  One monotone cubic (the module's numpy PCHIP, which
    reproduces scipy's PchipInterpolator with extrapolate=False) interpolates
    the rows (phi, phi'); sample is NaN outside [x_min, x_max].
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
        if not np.all(np.diff(self.x) > 0.0):
            raise ValueError("moment samples must be strictly increasing in x")
        rows = np.stack([self.phi, self.dphi])
        if not (np.isfinite(rows).all() and np.isfinite(self.x).all()):
            raise ValueError("moment samples must be finite")
        self._interp = _MonotoneCubic(self.x, rows)

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

    def sample(self, xq: np.ndarray) -> np.ndarray:
        """The rows (phi, phi') at the points xq."""
        return self._interp(xq)


def moment_profile(x: np.ndarray, phi: np.ndarray, dphi: np.ndarray,
                   K: float = 1.0) -> MomentProfile:
    """The profile of the metric K*u from u's moment arrays on its nodes:
    x = u', phi = u'' and the slope dphi = u'''/u''.

    Close to the singular time the outermost node or two can lose strict
    monotonicity of u' while the interior stays healthy.  Those nodes map
    to the extreme ends of the moment domain, far outside any comparison
    window, so the conversion keeps the longest strictly increasing run
    of x containing the middle sample (a rho grid's center), drops the
    rest, and then drops the nodes of that run whose slope is not finite.
    """
    # steps where x does not rise, NaN included, between sentinels at both ends
    stops = np.r_[-1, np.flatnonzero(~(np.diff(x) > 0.0)), len(x) - 1]
    i = np.searchsorted(stops, len(x) // 2)
    core = slice(stops[i - 1] + 1, stops[i] + 1)
    keep = np.isfinite(dphi[core])
    if int(keep.sum()) < 4:
        raise MomentDomainError("x has no usable increasing run around its middle sample")
    return MomentProfile(x=K * x[core][keep], phi=K * phi[core][keep],
                         dphi=dphi[core][keep])


def c1_distance(m1: MomentProfile, m2: MomentProfile,
                window: tuple[float, float]) -> float:
    """sup |phi1 - phi2| + sup |phi1' - phi2'| over a shared window."""
    m1.check_window(window)
    m2.check_window(window)
    xq = np.linspace(window[0], window[1], WINDOW_SAMPLES)
    d0, d1 = np.max(np.abs(m1.sample(xq) - m2.sample(xq)), axis=1)
    return float(d0 + d1)
