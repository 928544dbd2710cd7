"""Curvature quantities of the symmetric metrics.

For a potential u(rho) in dimension n the Ricci potential is

    v = n*rho - (n-1)*log u' - log u''

and the Ricci tensor has two distinct eigenvalues: lambda1 = v''/u'' along
the fiber direction and lambda2 = v'/u' on the base directions (multiplicity
n-1), so the scalar curvature is R = lambda1 + (n-1)*lambda2.

The curvature operator in a unitary frame is determined by the
fiber-fiber, fiber-base and base-base components (the off-diagonal
base-base component equals the diagonal one in this ansatz); their sup is
a faithful proxy for |Rm| up to dimensional constants, which is what the
type-I monitors need.  curvature_sample is the one place that gathers the
derivative ratios H, G and c4 and forms the eigenvalues, the components,
the elementary symmetric functions sigma_j of the eigenvalues and that
proxy; the trace monitors reduce its arrays.

The ratios entering curvature_sample are those of profile.py, formed
once per profile: raw differences, except that u'''/u'' takes the
boundary tail's limit +-k where it lies within rounding noise of it.  The
proxy counts the fourth-difference pieces only where profile.py's trust
mask credits them.  scalar_curvature is the deliberate exception: it expands R in raw
finite differences, so that its agreement with sigma_1 cross-checks the
stencils on interior nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .profile import CalabiProfile, c4_combination, c4_trust_mask, ratio_g, ratio_h


@dataclass(frozen=True)
class CurvatureSample:
    H: np.ndarray
    G: np.ndarray
    c4: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    r1111: np.ndarray
    r11kk: np.ndarray
    rkkkk: np.ndarray
    sigma: dict[int, np.ndarray]
    rm_proxy: np.ndarray


def scalar_curvature(p: CalabiProfile) -> np.ndarray:
    """Scalar curvature expanded in raw derivatives of u:

        R = -u''''/u''^2 + u'''^2/u''^3 - 2(n-1) u'''/(u' u'')
            - (n-1)(n-2) u''/u'^2 + n(n-1)/u'

    This bypasses the tail guard; compare it with curvature_sample's
    sigma[1] on interior nodes only.
    """
    n = p.n
    du, d2u, d3u, d4u = p.du, p.d2u, p.d3u, p.d4u
    with np.errstate(invalid="ignore", divide="ignore"):
        return (-d4u / d2u**2 + d3u**2 / d2u**3
                - 2.0 * (n - 1) * d3u / (du * d2u)
                - (n - 1) * (n - 2) * d2u / du**2
                + n * (n - 1) / du)


def curvature_sample(p: CalabiProfile) -> CurvatureSample:
    """All curvature monitors in one pass.

    With H = u''/u', G = u'''/u'' and c4 the fourth-order combination, the
    Ricci potential has v' = n - (n-1) H - G and
    v'' = -(n-1) H (G - H) + u'' c4, written so that every factor stays
    finite into the tails.  The eigenvalues are lambda1 = v''/u'' and
    lambda2 = v'/u', and the holomorphic-frame components (index 1 the
    fiber, k a base direction) are r1111 = c4/2, r11kk = (H - G)/u' and
    rkkkk = (u' - u'')/u'^2.

    With eigenvalues (lambda1, lambda2 x (n-1)) the j-th elementary
    symmetric function is C(n-1, j) lambda2^j + C(n-1, j-1) lambda1
    lambda2^(j-1); sigma[1] is the scalar curvature.  rm_proxy is the
    pointwise max of |components| and |eigenvalues|, comparable to |Rm|;
    its fourth-difference pieces lambda1 and r1111 count only on the nodes
    of c4_trust_mask.
    """
    n = p.n
    H = ratio_h(p)
    G = ratio_g(p)
    c4 = c4_combination(p)
    dv = n - (n - 1) * H - G
    d2v = -(n - 1) * H * (G - H) + p.d2u * c4
    lam1, lam2 = d2v / p.d2u, dv / p.du
    r1111 = 0.5 * c4
    r11kk = (H - G) / p.du
    rkkkk = (p.du - p.d2u) / p.du**2
    # sigma[1] without the exact no-ops of the general term (x**1, 1 * x,
    # x * x**0): the same values at a fraction of the cost
    sigma = {1: (lam2 if n == 2 else (n - 1) * lam2) + lam1}
    sigma.update((j, comb(n - 1, j) * lam2**j + comb(n - 1, j - 1) * lam1 * lam2 ** (j - 1))
                 for j in range(2, n + 1))
    fourth = np.where(c4_trust_mask(p), np.maximum(np.abs(r1111), np.abs(lam1)), 0.0)
    proxy = np.maximum(np.maximum(np.maximum(np.abs(r11kk), np.abs(rkkkk)), np.abs(lam2)),
                       fourth)
    return CurvatureSample(H=H, G=G, c4=c4, lambda1=lam1, lambda2=lam2, r1111=r1111,
                           r11kk=r11kk, rkkkk=rkkkk, sigma=sigma, rm_proxy=proxy)
