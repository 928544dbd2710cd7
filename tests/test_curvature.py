"""Curvature operators: frozen center values, route agreement, scaling."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import calabiflow as cf
from calabiflow import diagnostics

# center values for the (a, b) = (1, 4), n = 2, k = 1 seed, where
# u' = 5/2, u'' = 3/4, u''' = 0 and u'''' = -3/8
LAMBDA1 = 59.0 / 75.0
LAMBDA2 = 0.68
SCALAR_R = 22.0 / 15.0
SIGMA2 = LAMBDA1 * LAMBDA2


def _sample(p):
    """curvature_sample of a rho profile, read through the monitors' adapter."""
    return cf.curvature_sample(*diagnostics.moment_arrays(p), p.n)


def _flat_class(grid):
    """A class whose interval contains u' = e^rho on the whole grid."""
    return cf.KahlerClass(0.9 * math.exp(-grid.L), 1.1 * math.exp(grid.L))


def _flat_profile(grid):
    """u = e^rho with exact derivative arrays; curvature vanishes identically."""
    u = np.exp(grid.nodes)
    cls = _flat_class(grid)
    return cf.CalabiProfile(grid=grid, cls=cls, t=0.0, n=2, k=1, u=u,
                            du=u.copy(), d2u=u.copy(), d3u=u.copy(), d4u=u.copy())


def test_eigenvalues_and_scalar_center(contract_seed):
    """lambda2 = v'/u' and lambda1 = v''/u'' with v' = 1.7 and v'' = 0.59
    at the center; both scalar-curvature routes give 22/15 there."""
    cs = _sample(contract_seed)
    c = contract_seed.grid.center
    assert_allclose(cs.lambda1[c], LAMBDA1, rtol=1e-9)
    assert_allclose(cs.lambda2[c], LAMBDA2, rtol=1e-10)
    assert_allclose(cs.sigma[1][c], SCALAR_R, rtol=1e-9)
    assert_allclose(cf.scalar_curvature(contract_seed)[c], SCALAR_R, rtol=1e-9)


def test_bisectional_components_center(contract_seed):
    cs = _sample(contract_seed)
    c = contract_seed.grid.center
    assert_allclose(cs.r1111[c], 1.0 / 3.0, rtol=1e-9)
    assert_allclose(cs.r11kk[c], 0.12, rtol=1e-10)
    assert_allclose(cs.rkkkk[c], 0.28, rtol=1e-10)


def test_sigma2_center(contract_seed):
    cs = _sample(contract_seed)
    c = contract_seed.grid.center
    assert set(cs.sigma) == {1, 2}
    assert np.array_equal(cs.sigma[1], cs.lambda1 + cs.lambda2, equal_nan=True)
    assert_allclose(cs.sigma[2][c], SIGMA2, rtol=1e-9)


def test_sigma_definition_matches_eigenvalues():
    p = cf.build_canonical_profile(cf.KahlerClass(1.0, 7.0), cf.RhoGrid(12.0, 513),
                                   n=3, k=2)
    cs = _sample(p)
    lam1, lam2, sigma = cs.lambda1, cs.lambda2, cs.sigma
    c = p.grid.center
    s2, s3 = sigma[2], sigma[3]
    # eigenvalues (lam1, lam2, lam2): sigma2 = 2 lam1 lam2 + lam2^2,
    # sigma3 = lam1 lam2^2
    assert_allclose(s2[c], 2.0 * lam1[c] * lam2[c] + lam2[c] ** 2, rtol=1e-12)
    assert_allclose(s3[c], lam1[c] * lam2[c] ** 2, rtol=1e-12)


@pytest.mark.parametrize("n, k, b", [(2, 1, 4.0), (3, 1, 6.0), (4, 1, 4.0)])
def test_sigma_is_the_general_term_bit_for_bit(n, k, b):
    """sigma[1], formed as (n-1) lambda2 + lambda1, equals the general term
    C(n-1, j) lambda2^j + C(n-1, j-1) lambda1 lambda2^(j-1) at j = 1 bit
    for bit, and so does every other sigma[j]."""
    p = cf.build_canonical_profile(cf.KahlerClass(1.0, b), cf.RhoGrid(12.0, 513), n=n, k=k)
    cs = _sample(p)
    lam1, lam2 = cs.lambda1, cs.lambda2
    assert list(cs.sigma) == list(range(1, n + 1))
    for j, sigma in cs.sigma.items():
        general = math.comb(n - 1, j) * lam2**j + math.comb(n - 1, j - 1) * lam1 * lam2 ** (j - 1)
        assert np.array_equal(sigma, general, equal_nan=True), j


def test_scalar_routes_agree_on_moment_interior(contract_seed, contract_default):
    """The eigenvalue sum sigma_1 and the explicit expansion are
    independent algebraic routes; on nodes at least 10% of the class width
    away from both endpoints they agree to rounding."""
    trace, _ = contract_default
    profiles = [contract_seed]
    profiles += [c.profile for c in trace.checkpoints if c.j in (1, 5, 9)]
    for p in profiles:
        Re = _sample(p).sigma[1]
        Rx = cf.scalar_curvature(p)
        a, b = p.cls.a, p.cls.b
        lo, hi = a + 0.1 * (b - a), b - 0.1 * (b - a)
        m = (p.du >= lo) & (p.du <= hi)
        assert m.sum() > 100
        rel = np.max(np.abs(Re[m] - Rx[m]) / np.maximum(np.abs(Rx[m]), 1.0))
        assert rel < 1e-6


def test_curvature_homogeneity(contract_seed):
    """u -> K u is a homothety: eigenvalues, scalar and fourth-order
    combinations scale by 1/K; the slope ratios H and G are unchanged.  The
    canonical seed of the class (K a, K b) is K times the seed of (a, b)."""
    K = math.e
    p = contract_seed
    q = cf.build_canonical_profile(cf.KahlerClass(K * p.cls.a, K * p.cls.b), p.grid, 2, 1)
    cp, cq = _sample(p), _sample(q)
    for name in ("lambda1", "lambda2", "r1111", "r11kk", "rkkkk", "rm_proxy"):
        assert_allclose(K * getattr(cq, name), getattr(cp, name), rtol=1e-10,
                        err_msg=name)
    assert_allclose(K * cq.sigma[1], cp.sigma[1], rtol=1e-10)
    assert_allclose(K * cf.scalar_curvature(q), cf.scalar_curvature(p), rtol=1e-10)
    # moment arrays (x, phi, G, -c4, trust)
    ap, aq = diagnostics.moment_arrays(p), diagnostics.moment_arrays(q)
    assert_allclose(K * aq[3], ap[3], rtol=1e-10)
    assert_allclose(cq.H, cp.H, rtol=1e-12)
    assert_allclose(aq[2], ap[2], rtol=1e-10)
    assert np.array_equal(aq[4], ap[4])


def test_flat_model_annihilation_exact():
    p = _flat_profile(cf.RhoGrid(12.0, 1025))
    cs = _sample(p)
    assert np.max(np.abs(cf.scalar_curvature(p))) < 1e-9
    assert np.max(np.abs(diagnostics.moment_arrays(p)[3])) == 0.0  # c4
    for name in ("lambda1", "lambda2", "r1111", "r11kk", "rkkkk", "rm_proxy"):
        assert np.max(np.abs(getattr(cs, name))) == 0.0, name
    assert np.max(np.abs(cs.sigma[1])) == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_flat_moment_arrays_have_no_curvature(n):
    """Flat C^n in moment coordinates, phi = x, phi' = 1 and phi'' = 0 with
    every node trusted, fed to the array interface with no rho profile:
    every curvature component, eigenvalue, sigma_j and rm_proxy is exactly
    0, and so is every curvature column of the row made from the arrays."""
    x = np.linspace(0.5, 4.0, 64)
    ones, trust = np.ones_like(x), np.ones_like(x, dtype=bool)
    cs = cf.curvature_sample(x, x, ones, np.zeros_like(x), trust, n)
    for name in ("lambda1", "lambda2", "r1111", "r11kk", "rkkkk", "rm_proxy"):
        assert np.max(np.abs(getattr(cs, name))) == 0.0, name
    assert list(cs.sigma) == list(range(1, n + 1))
    assert all(np.max(np.abs(sigma)) == 0.0 for sigma in cs.sigma.values())

    row = cf.sample_row(x, x, ones, np.zeros_like(x), trust, n, t=0.0, T=1.0,
                        ends=(0.5, 4.0), volume=(1.0, 1.0), diam=1.0, lam_edge=0.0)
    assert row.H_sup == row.G_sup == row.G_inf == 1.0
    assert row.supRm == row.typeI == row.bisec_min == row.c4_min_scaled == 0.0
    assert row.sigma == (0.0,) * (n - 1)


def test_flat_model_annihilation_finite_differences():
    """Same model with derivatives taken numerically: curvature vanishes to
    stencil accuracy on the window where e^rho is resolvable."""
    grid = cf.RhoGrid(12.0, 1025)
    p = cf.profile_from_samples(np.exp(grid.nodes), grid, _flat_class(grid), t=0.0, n=2,
                                k=1)
    du, d2u, d3u, d4u = p.du, p.d2u, p.d3u, p.d4u
    n = 2
    with np.errstate(divide="ignore", invalid="ignore"):
        R = (-d4u / d2u**2 + d3u**2 / d2u**3 - 2.0 * (n - 1) * d3u / (du * d2u)
             - (n - 1) * (n - 2) * d2u / du**2 + n * (n - 1) / du)
        c4 = (-d4u * d2u + d3u**2) / d2u**3
    m = np.abs(grid.nodes) <= 6.0
    assert np.max(np.abs(R[m])) < 1e-4
    assert np.max(np.abs(c4[m])) < 1e-4
    assert np.max(np.abs(d2u[m] / du[m] - 1.0)) < 1e-6
    assert np.max(np.abs(d3u[m] / d2u[m] - 1.0)) < 1e-6


def test_trust_mask_healthy_seed_and_late_gap(contract_seed, contract_default):
    """On the seed every node of the core |rho| <= 6 is trusted, and the
    three end nodes at each end, whose stencils read ghosts, are not.  Late
    in a contraction the center stays trusted while a gap of untrusted
    inner nodes lies between it and the degenerating end."""
    mask = diagnostics.moment_arrays(contract_seed)[4]
    assert mask.dtype == bool
    assert mask[np.abs(contract_seed.grid.nodes) <= 6.0].all()
    assert not mask[:3].any() and not mask[-3:].any()

    trace, _ = contract_default
    late = next(c.profile for c in trace.checkpoints if c.j == 9)
    late_mask = diagnostics.moment_arrays(late)[4]
    c = late.grid.center
    assert late_mask[c]
    assert not late_mask[3:c].all()


def test_norm_proxy_bounds_components(contract_seed):
    cs = _sample(contract_seed)
    c = contract_seed.grid.center
    assert_allclose(cs.rm_proxy[c],
                    max(abs(cs.r1111[c]), abs(cs.r11kk[c]), abs(cs.rkkkk[c]),
                        abs(cs.lambda1[c]), abs(cs.lambda2[c])), rtol=1e-12)
    assert np.all(cs.rm_proxy >= 0.0)
