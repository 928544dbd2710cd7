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

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .profile import CalabiProfile

# evaluation points per window for C^1 distances and soliton fits
WINDOW_SAMPLES = 801


class MomentDomainError(ValueError):
    """The sampled moment domain is unusable, or a window leaves it."""


@dataclass(eq=False)
class MomentProfile:
    """Sampled moment-coordinate profile with monotone-cubic interpolation.

    x:      strictly increasing sample locations
    phi:    positive profile values at the samples
    dphi:   slope samples phi'(x), supplied rather than differenced so that
            chain-rule values (u'''/u'') can be used when available
    """

    x: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    _interp: PchipInterpolator | None = field(default=None, repr=False)
    _interp_slope: PchipInterpolator | None = field(default=None, repr=False)

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

    @property
    def x_min(self) -> float:
        return float(self.x[0])

    @property
    def x_max(self) -> float:
        return float(self.x[-1])

    def _interpolants(self):
        if self._interp is None:
            self._interp = PchipInterpolator(self.x, self.phi, extrapolate=False)
            self._interp_slope = PchipInterpolator(self.x, self.dphi, extrapolate=False)
        return self._interp, self._interp_slope

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
        interp, _ = self._interpolants()
        return interp(xq)

    def eval_slope(self, xq: np.ndarray) -> np.ndarray:
        _, slope = self._interpolants()
        return slope(xq)


def moment_profile(p: CalabiProfile, K: float = 1.0) -> MomentProfile:
    """The profile of the metric K*u in moment coordinates.

    Close to the singular time the outermost node or two can lose strict
    monotonicity of u' while the interior stays healthy.  Those nodes map
    to the extreme ends of the moment domain, far outside any comparison
    window, so the conversion keeps the longest strictly increasing run
    of u' containing the center and drops the rest.

    Slopes are the raw ratio u'''/u'' at the nodes of that run where it is
    finite, not the tail-guarded ``ratio_g``: after magnification a
    comparison window reaches into ratio_g's pure-model zone, where the
    two-mode tail fit would stand in for the solution.
    """
    increasing = np.diff(p.du) > 0.0
    c = p.grid.center
    lo = c
    while lo > 0 and increasing[lo - 1]:
        lo -= 1
    hi = c
    while hi < increasing.size and increasing[hi]:
        hi += 1
    core = slice(lo, hi + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        dphi = p.d3u[core] / p.d2u[core]
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
