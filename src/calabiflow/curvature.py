"""Curvature quantities of the symmetric metrics, read in moment coordinates.

For a potential u(rho) in dimension n the Ricci potential is
v = n*rho - (n-1)*log u' - log u'', and the Ricci tensor has two distinct
eigenvalues: lambda1 = v''/u'' along the fiber direction and lambda2 = v'/u'
on the base directions (multiplicity n-1), so the scalar curvature is
R = lambda1 + (n-1)*lambda2.  The curvature operator in a unitary frame is
determined by the fiber-fiber, fiber-base and base-base components (the
off-diagonal base-base component equals the diagonal one in this ansatz);
their sup is a faithful proxy for |Rm| up to dimensional constants, which
is what the type-I monitors need.

curvature_sample reads the metric in moment coordinates (Hwang-Singer),
x = u' and phi(x) = u'': then u''/u' = phi/x, u'''/u'' = phi' and the
fourth-order combination (u'''^2 - u''''u'')/u''^3 is -phi''.  It takes
those arrays and a trust mask from any solver, and it is the one place
that forms the eigenvalues, the components, the elementary symmetric
functions sigma_j and the proxy, whose fourth-order pieces count only
where the mask holds; diagnostics.moment_arrays reads a rho profile into
those arrays.  scalar_curvature is the rho-only cross-check of sigma_1:
it expands R in raw finite differences of u.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

import numpy as np

from .profile import CalabiProfile


class CurvatureSample(NamedTuple):
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


def _times(c: int, x):
    """c * x, skipping the exact no-op c = 1; arrays or scalars."""
    return x if c == 1 else c * x


def base_eigenvalue(x, H, G, n: int):
    """lambda2 = v'/x, with v' = n - (n-1) H - G; arrays or scalars."""
    return (n - _times(n - 1, H) - G) / x


def curvature_sample(x: np.ndarray, phi: np.ndarray, dphi: np.ndarray, d2phi: np.ndarray,
                     trust: np.ndarray, n: int) -> CurvatureSample:
    """All curvature monitors in one pass, from moment arrays.

    With H = phi/x, G = phi' and c4 = -phi'', the Ricci potential has
    v' = n - (n-1) H - G and v'' = -(n-1) H (G - H) + phi c4, written so
    that every factor stays finite into the tails.  The eigenvalues are
    lambda1 = v''/phi and lambda2 = v'/x, and the holomorphic-frame
    components (index 1 the fiber, k a base direction) are r1111 = c4/2,
    r11kk = (H - G)/x and rkkkk = (x - phi)/x^2.

    With eigenvalues (lambda1, lambda2 x (n-1)) the j-th elementary
    symmetric function is C(n-1, j) lambda2^j + C(n-1, j-1) lambda1
    lambda2^(j-1); sigma[1] is the scalar curvature.  rm_proxy is the
    pointwise max of |components| and |eigenvalues|, comparable to |Rm|;
    its fourth-order pieces lambda1 and r1111 count only where trust holds.
    """
    H, G, c4 = phi / x, dphi, -d2phi
    hg = H - G
    # v'' as (n-1) H (H - G) + phi c4, exactly the form above: IEEE negation is exact
    lam1, lam2 = (_times(n - 1, H) * hg + phi * c4) / phi, base_eigenvalue(x, H, G, n)
    r1111, r11kk, rkkkk = 0.5 * c4, hg / x, (x - phi) / x**2
    # the general terms less their exact no-ops (1 * x, x**1): same values, less cost
    sigma = {1: _times(n - 1, lam2) + lam1}
    sigma.update((j, _times(comb(n - 1, j), lam2**j)
                  + _times(comb(n - 1, j - 1), lam1) * (lam2 if j == 2 else lam2 ** (j - 1)))
                 for j in range(2, n + 1))
    fourth = np.where(trust, np.maximum(np.abs(r1111), np.abs(lam1)), 0.0)
    proxy = np.maximum(np.maximum(np.maximum(np.abs(r11kk), np.abs(rkkkk)), np.abs(lam2)),
                       fourth)
    return CurvatureSample(H=H, G=G, c4=c4, lambda1=lam1, lambda2=lam2, r1111=r1111,
                           r11kk=r11kk, rkkkk=rkkkk, sigma=sigma, rm_proxy=proxy)
