"""Curvature quantities of the symmetric metrics.

For a potential u(rho) in dimension n the Ricci potential is

    v = n*rho - (n-1)*log u' - log u''

and the Ricci tensor has two distinct eigenvalues: lambda1 = v''/u'' along
the fiber direction and lambda2 = v'/u' on the base directions (multiplicity
n-1), so the scalar curvature is R = lambda1 + (n-1)*lambda2.

The curvature operator in a unitary frame is determined by four component
functions (fiber-fiber, fiber-base, base-base diagonal and off-diagonal);
their sup is a faithful proxy for |Rm| up to dimensional constants, which is
what the type-I monitors need.  curvature_sample is the one place that forms
the elementary symmetric functions sigma_j of the Ricci eigenvalues and that
proxy; the trace monitors reduce its arrays.

Derivative ratios entering these formulas go through the tail-guarded
evaluators in profile.py, which run once per profile however many of the
functions below read them; the one deliberate exception is the explicit
scalar-curvature route, kept in raw finite differences so that agreement
between the two routes cross-checks the stencils on interior nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .profile import CalabiProfile, c4_combination, ratio_g, ratio_h


@dataclass(frozen=True)
class RicciPotentialSample:
    """Ricci potential and its first two rho-derivatives on the grid."""

    v: np.ndarray
    dv: np.ndarray
    d2v: np.ndarray


@dataclass(frozen=True)
class CurvatureSample:
    lambda1: np.ndarray
    lambda2: np.ndarray
    R: np.ndarray
    r1111: np.ndarray
    r11kk: np.ndarray
    rkkkk: np.ndarray
    rkkll: np.ndarray | None
    sigma: dict[int, np.ndarray]
    rm_proxy: np.ndarray


def ricci_potential(p: CalabiProfile) -> RicciPotentialSample:
    """v and its derivatives, with guarded ratios for dv and d2v.

    dv = n - (n-1) u''/u' - u'''/u''.  The second derivative is assembled
    as d2v = -(n-1) H (G - H) + u'' * c4 with H = u''/u', G = u'''/u'' and
    c4 the fourth-order combination; written this way every factor stays
    finite into the tails.
    """
    n = p.n
    rho = p.grid.nodes
    with np.errstate(invalid="ignore", divide="ignore"):
        # v is NaN wherever discrete convexity has degraded (boundary ghost
        # nodes on coarse grids late in a run); downstream reductions skip
        # those nodes rather than patching them.
        v = n * rho - (n - 1) * np.log(p.du) - np.log(p.d2u)
    H = ratio_h(p)
    G = ratio_g(p)
    dv = n - (n - 1) * H - G
    d2v = -(n - 1) * H * (G - H) + p.d2u * c4_combination(p)
    return RicciPotentialSample(v=v, dv=dv, d2v=d2v)


def ricci_eigenvalues(p: CalabiProfile) -> tuple[np.ndarray, np.ndarray]:
    """(lambda1, lambda2) = (v''/u'', v'/u'): fiber and base Ricci eigenvalues."""
    pot = ricci_potential(p)
    return pot.d2v / p.d2u, pot.dv / p.du


def scalar_curvature(p: CalabiProfile, route: str = "eigen") -> np.ndarray:
    """Scalar curvature by either of two independent routes.

    route="eigen" combines the Ricci eigenvalues (tail-guarded).
    route="explicit" expands everything in raw derivatives of u:

        R = -u''''/u''^2 + u'''^2/u''^3 - 2(n-1) u'''/(u' u'')
            - (n-1)(n-2) u''/u'^2 + n(n-1)/u'

    The explicit route deliberately bypasses the tail guard; compare the
    two on interior nodes only.
    """
    n = p.n
    if route == "eigen":
        lam1, lam2 = ricci_eigenvalues(p)
        return lam1 + (n - 1) * lam2
    if route == "explicit":
        du, d2u, d3u, d4u = p.du, p.d2u, p.d3u, p.d4u
        with np.errstate(invalid="ignore", divide="ignore"):
            return (-d4u / d2u**2 + d3u**2 / d2u**3
                    - 2.0 * (n - 1) * d3u / (du * d2u)
                    - (n - 1) * (n - 2) * d2u / du**2
                    + n * (n - 1) / du)
    raise ValueError(f"unknown route {route!r}")


def bisectional_components(
    p: CalabiProfile,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Holomorphic-frame curvature components (r1111, r11kk, rkkkk, rkkll).

    Index 1 is the fiber direction, k != l are base directions.  In this
    ansatz rkkll coincides with rkkkk; it is only a separate component for
    n >= 3 and is returned as None otherwise.
    """
    H = ratio_h(p)
    G = ratio_g(p)
    r1111 = 0.5 * c4_combination(p)
    r11kk = (H - G) / p.du
    rkkkk = (p.du - p.d2u) / p.du**2
    rkkll = rkkkk.copy() if p.n >= 3 else None
    return r1111, r11kk, rkkkk, rkkll


def curvature_sample(p: CalabiProfile) -> CurvatureSample:
    """All curvature monitors in one pass (shared eigenvalue computation).

    With eigenvalues (lambda1, lambda2 x (n-1)) the j-th elementary
    symmetric function is C(n-1, j) lambda2^j + C(n-1, j-1) lambda1
    lambda2^(j-1); sigma[1] is the scalar curvature.  rm_proxy is the
    pointwise max of |components| and |eigenvalues|, comparable to |Rm|.
    """
    lam1, lam2 = ricci_eigenvalues(p)
    r1111, r11kk, rkkkk, rkkll = bisectional_components(p)
    sigma = {}
    for j in range(1, p.n + 1):
        sigma[j] = (comb(p.n - 1, j) * lam2**j
                    + comb(p.n - 1, j - 1) * lam1 * lam2 ** (j - 1))
    pieces = [np.abs(r1111), np.abs(r11kk), np.abs(rkkkk),
              np.abs(lam1), np.abs(lam2)]
    if rkkll is not None:
        pieces.append(np.abs(rkkll))
    proxy = np.max(np.stack(pieces), axis=0)
    return CurvatureSample(
        lambda1=lam1, lambda2=lam2, R=lam1 + (p.n - 1) * lam2,
        r1111=r1111, r11kk=r11kk, rkkkk=rkkkk, rkkll=rkkll,
        sigma=sigma, rm_proxy=proxy,
    )
