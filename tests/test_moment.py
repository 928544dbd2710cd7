"""Moment-coordinate profiles phi(x) = u'' as a function of x = u'."""
import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.interpolate import PchipInterpolator

import calabiflow as cf
from calabiflow.diagnostics import moment_arrays
from calabiflow.moment import MomentProfile, _MonotoneCubic


@pytest.fixture(scope="module")
def seed_moment(contract_seed):
    return cf.moment_profile(*moment_arrays(contract_seed)[:3])


def test_moment_domain_matches_class(seed_moment, contract_seed):
    """u' of the seed increases strictly on the whole grid, so every node
    is a sample, and the samples lie inside the class (1, 4)."""
    m = seed_moment
    assert np.array_equal(m.x, contract_seed.du)
    assert np.array_equal(m.phi, contract_seed.d2u)
    assert 1.0 < m.x[0] < m.x[-1] < 4.0
    assert m.x_min == m.x[0] and m.x_max == m.x[-1]
    assert np.all(np.diff(m.x) > 0.0)


@pytest.mark.parametrize("stop, lo", [(0.0, 2), (np.nan, 3)], ids=["flat", "nan"])
def test_moment_profile_keeps_the_increasing_run_around_the_center(contract_seed, stop, lo):
    """A step where u' does not rise, near either end, bounds the kept run;
    a NaN u' makes both of its differences stops."""
    du = contract_seed.du.copy()
    N = du.size
    du[2] = du[1] + stop
    du[N - 3] = du[N - 4] + stop
    m = cf.moment_profile(*moment_arrays(dataclasses.replace(contract_seed, du=du))[:3])
    assert np.array_equal(m.x, du[lo:N - 3])
    assert np.array_equal(m.phi, contract_seed.d2u[lo:N - 3])


def test_magnified_moment_profile(contract_seed, seed_moment):
    """The metric K u has x = K u' and phi = K u'', with unchanged slopes."""
    K = 8.0
    big = cf.moment_profile(*moment_arrays(contract_seed)[:3], K)
    assert np.array_equal(big.x, K * seed_moment.x)
    assert np.array_equal(big.phi, K * seed_moment.phi)
    assert np.array_equal(big.dphi, seed_moment.dphi)


def test_moment_center_value(seed_moment):
    assert_allclose(seed_moment.sample(np.array([2.5]))[0, 0], 0.75, rtol=1e-9)


def test_moment_profile_symmetry(seed_moment):
    """phi(x) = k (x - a)(b - x)/(b - a) for the logistic seed, so phi is
    symmetric about the midpoint of the class interval.  The interpolant
    reproduces the parabola to its own O(h^3) accuracy."""
    xs = np.linspace(1.5, 3.5, 101)
    phi = seed_moment.sample(xs)[0]
    assert_allclose(phi, phi[::-1], rtol=0.0, atol=1e-12)
    assert_allclose(phi, (xs - 1.0) * (4.0 - xs) / 3.0, rtol=1e-4)


def test_moment_end_slopes(seed_moment):
    """phi' tends to +k at the left end of the class and -k at the right."""
    assert abs(seed_moment.dphi[0] - 1.0) < 5e-5
    assert abs(seed_moment.dphi[-1] + 1.0) < 5e-5


def test_eval_outside_domain_is_nan(seed_moment):
    """No extrapolation: queries beyond the sampled slopes come back NaN."""
    assert np.isnan(seed_moment.sample(np.array([0.5, 4.5]))).all()


def test_check_window(seed_moment):
    seed_moment.check_window((1.5, 3.5))
    with pytest.raises(cf.MomentDomainError):
        seed_moment.check_window((0.1, 3.5))


def test_slope_channel_is_exact_for_seed(seed_moment):
    """dphi is carried as its own channel (u'''/u'' mapped to x), so for the
    logistic seed it matches phi' = (5 - 2x)/3 to rounding, not merely to
    the interpolation accuracy of the phi channel."""
    xs = np.linspace(1.5, 3.5, 201)
    assert_allclose(seed_moment.sample(xs)[1], (5.0 - 2.0 * xs) / 3.0,
                    rtol=0.0, atol=1e-9)


def test_c1_distance_identity_and_separation(seed_moment):
    window = (1.5, 3.5)
    assert cf.c1_distance(seed_moment, seed_moment, window) == 0.0
    other = cf.fik_reference(2, 1)
    d = cf.c1_distance(seed_moment, other, window)
    assert d > 0.1


def _pchip_data(rng, kind, size):
    x = np.cumsum(rng.uniform(0.01, 1.0, size)) - 3.0
    if kind == "monotone":
        y = np.cumsum(rng.exponential(1.0, size))
    elif kind == "flat_runs":
        y = np.cumsum(rng.exponential(1.0, size) * (rng.uniform(size=size) < 0.5))
    else:
        y = rng.normal(size=size)
        y[rng.integers(0, size, 3)] = 0.0
        y[size // 2: size // 2 + 3] = y[size // 2]
    return x, y


@pytest.mark.parametrize("kind", ["monotone", "flat_runs", "signed"])
def test_monotone_cubic_matches_pchip(kind):
    """MomentProfile's numpy PCHIP reproduces scipy's PchipInterpolator with
    extrapolate=False on both channels: monotone data, data with flat runs
    (zero secants, so zero node slopes), and data whose secants change sign,
    at the nodes, between them, and NaN beyond the samples.  Each stacked
    row is, bit for bit, the row interpolated alone."""
    rng = np.random.default_rng(20)
    for size in (4, 5, 17, 400):
        x, phi = _pchip_data(rng, kind, size)
        _, dphi = _pchip_data(rng, "signed", size)
        m = MomentProfile(x=x, phi=phi, dphi=dphi)
        xq = np.concatenate([np.linspace(x[0] - 0.5, x[-1] + 0.5, 1001), x,
                             [np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf)]])
        outside = (xq < x[0]) | (xq > x[-1])
        for ours, y in zip(m.sample(xq), (phi, dphi)):
            assert np.array_equal(ours, _MonotoneCubic(x, y)(xq), equal_nan=True)
            ref = PchipInterpolator(x, y, extrapolate=False)(xq)
            assert np.array_equal(np.isnan(ours), outside)
            assert np.array_equal(np.isnan(ref), outside)
            assert_allclose(ours, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(y)))


@pytest.mark.parametrize("x, phi, dphi, match", [
    ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], None, "at least 4 samples"),
    ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0], None, "share one shape"),
    ([0.0, 1.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0], None, "strictly increasing"),
    ([0.0, 1.0, np.nan, 3.0, 4.0], [1.0] * 5, None, "strictly increasing"),
    ([0.0, 1.0, 2.0, 3.0, np.inf], [1.0] * 5, None, "finite"),
    ([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 1.0, np.inf, 1.0, 1.0], None, "finite"),
    ([0.0, 1.0, 2.0, 3.0, 4.0], [1.0] * 5, [0.0, np.nan, 0.0, 0.0, 0.0], "finite"),
], ids=["short", "shapes", "repeated-x", "nan-x", "inf-x", "inf-phi", "nan-dphi"])
def test_moment_profile_rejects_bad_samples(x, phi, dphi, match):
    """A NaN in x is no increasing step, and a non-finite x, phi or phi' is
    refused, not read as 1.0 across the hole or as NaN inside the domain."""
    dphi = np.ones(len(x)) if dphi is None else np.array(dphi)
    with pytest.raises(ValueError, match=match):
        MomentProfile(x=np.array(x), phi=np.array(phi), dphi=dphi)
