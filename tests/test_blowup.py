"""Parabolic rescaling, the reference shrinker and the blow-up report."""
import csv
import dataclasses
import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scipy.integrate import solve_ivp

import calabiflow as cf
from calabiflow import diagnostics
from calabiflow.moment import MomentProfile

BLOWUP_CSV_HEADER = ["j", "t", "K", "a_hat", "selfsim_prev", "soliton_rms",
                     "fik_dist"]


# ---------------------------------------------------------------------------
# rescaling

def test_rescale_magnification(contract_default):
    """Magnifying by K = 1/(T - t) sends the left class endpoint to 1 and
    scales moment coordinate and moment profile by K, slopes unchanged."""
    trace, _ = contract_default
    p = next(c.profile for c in trace.checkpoints if c.j == 6)
    K = 1.0 / (1.0 - p.t)
    assert K == 2.0**6
    assert K * p.cls.a == pytest.approx(1.0, abs=1e-12)
    m1 = cf.moment_profile(*diagnostics.moment_arrays(p)[:3])
    mK = cf.moment_profile(*diagnostics.moment_arrays(p)[:3], K)
    assert_allclose(mK.x, K * m1.x, rtol=1e-15)
    assert_allclose(mK.phi, K * m1.phi, rtol=1e-15)
    assert np.array_equal(mK.dphi, m1.dphi)


# ---------------------------------------------------------------------------
# comparison window

def test_blowup_window_tracks_rescaled_class(contract_default):
    """The window follows the magnified class, and it is refused, never
    clipped, when it leaves the moment samples."""
    trace, _ = contract_default
    for j, hi_expected in ((1, 2.5), (6, 10.0)):   # half of b_hat = 5; capped
        p = next(c.profile for c in trace.checkpoints if c.j == j)
        K = 1.0 / (1.0 - p.t)
        m = cf.moment_profile(*diagnostics.moment_arrays(p)[:3], K)
        lo, hi = cf.blowup_window(m, K * p.cls.a, K * p.cls.b)
        assert lo == pytest.approx(1.1, abs=1e-9)
        assert hi == pytest.approx(hi_expected, abs=1e-9)
    with pytest.raises(cf.BlowupError, match="outside sampled domain"):
        cf.blowup_window(m, m.x_min - 0.15, 6.0)
    with pytest.raises(cf.BlowupError, match="empty window"):
        cf.blowup_window(m, 2.0, 3.0)


# ---------------------------------------------------------------------------
# the shrinker relation and the reference shrinker

def test_soliton_residual_recovers_shrinker_relation():
    """A profile solving phi' = n - (n-1) phi/x - x + mu phi - alpha is
    fitted back to its own (mu, alpha); a fit affine in x cannot absorb
    the mu phi term."""
    n, mu, alpha = 2, 1.3, 0.2

    def rhs(x, phi):
        return n - (n - 1) * phi / x - x + mu * phi - alpha

    xs = np.linspace(1.0, 6.0, 1001)
    sol = solve_ivp(rhs, (xs[0], xs[-1]), [0.5], t_eval=xs, method="DOP853",
                    rtol=1e-12, atol=1e-12)
    phi = sol.y[0]
    assert sol.success and np.all(phi > 0.0)
    dphi = rhs(xs, phi)
    m = MomentProfile(x=xs, phi=phi, dphi=dphi)
    fit = cf.soliton_residual(m, n=n)
    assert fit.rms < 1e-6
    assert_allclose(fit.mu, mu, atol=1e-6)
    assert_allclose(fit.c, alpha, atol=1e-6)


def _exp_sum(m, z):
    """e_m(z) = sum_{j <= m} z^j / j!."""
    return sum(z**j / math.factorial(j) for j in range(m + 1))


def _fik_mu(n, k):
    """mu solving mu e_(n-1)(mu a) = e_n(mu a), a = n - k, by bisection on
    the unscaled sums in 60-digit decimals, which resolve mu - 1 far below
    the rounding of 1."""
    a = n - k
    with localcontext() as ctx:
        ctx.prec = 60
        lo, hi = Decimal(1), Decimal(50)
        for _ in range(200):
            mid = (lo + hi) / 2
            if mid * _exp_sum(n - 1, mid * a) < _exp_sum(n, mid * a):
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def _fik_closed_form(n, mu, x):
    """phi = (n!/mu^(n+1)) x^(1-n) [e_n(mu x) - mu e_(n-1)(mu x)] and its
    derivative phi' = (1-n) phi/x + (n!/mu^n) x^(1-n) [e_(n-1)(mu x) -
    mu e_(n-2)(mu x)] at one x, in 60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(float(x))
        z = mu * x
        phi = (math.factorial(n) / mu ** (n + 1) * x ** (1 - n)
               * (_exp_sum(n, z) - mu * _exp_sum(n - 1, z)))
        dphi = ((1 - n) * phi / x + math.factorial(n) / mu**n * x ** (1 - n)
                * (_exp_sum(n - 1, z) - mu * _exp_sum(n - 2, z)))
        return float(phi), float(dphi)


FIK_MU = [(2, 1, math.sqrt(2.0)), (3, 1, 1.567468), (3, 2, 1.078617),
          (4, 1, 1.653396), (5, 2, 1.191703)]


@pytest.mark.parametrize("n, k, mu", FIK_MU, ids=[f"{n}-{k}" for n, k, _ in FIK_MU])
def test_fik_reference_mu_table(n, k, mu):
    """Completeness fixes mu; the fit on the reference returns that mu with
    alpha = 0."""
    mu_fik = float(_fik_mu(n, k))
    assert mu_fik == pytest.approx(mu, abs=5e-7)
    fit = cf.soliton_residual(cf.fik_reference(n, k), n=n)
    assert fit.rms < 1e-10
    assert_allclose(fit.mu, mu_fik, atol=1e-9)
    assert abs(fit.c) < 1e-10


@pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (3, 2), (4, 1), (5, 2), (20, 19)])
def test_fik_reference_is_the_closed_form(n, k):
    """phi and phi' equal the unscaled closed form on every 50th sample, with
    mu from a bisection of their own.  At (20, 19) mu - 1 = 1.5e-19 is below
    the rounding of 1, and a mu - 1 rounded to 2.2e-16 gives phi(a) = -1452."""
    mu = _fik_mu(n, k)
    if (n, k) == (20, 19):
        assert float(mu - 1) == pytest.approx(1.5121e-19, rel=1e-4)
    m = cf.fik_reference(n, k)
    for x, phi, dphi in zip(m.x[::50], m.phi[::50], m.dphi[::50]):
        phi_c, dphi_c = _fik_closed_form(n, mu, x)
        assert phi == pytest.approx(phi_c, rel=1e-12, abs=1e-13)
        assert dphi == pytest.approx(dphi_c, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("n, k", [(2, 1), (3, 2), (5, 1), (5, 2), (7, 5)])
def test_fik_reference_vanishes_with_slope_k(n, k):
    """The shrinker starts at a = n - k, where it vanishes with slope k, on
    [a, max(12, 4a)]."""
    m = cf.fik_reference(n, k)
    assert m.x[0] == n - k and m.x[-1] == max(12.0, 4.0 * (n - k))
    assert abs(m.phi[0]) < 1e-12
    assert_allclose(m.dphi[0], k, rtol=1e-12)
    assert np.all(m.phi[1:] > 0.0)


@pytest.mark.parametrize("n, k, error, match", [
    (2, 2, cf.BlowupError, "0 < k < n"),
    (3, 0, cf.BlowupError, "0 < k < n"),
    (10**6 + 2, 1, cf.BlowupError, "n - k <= 1e6"),
    (171, 170, cf.BlowupError, r"mu - 1 >= 2\.2e-308, got less for n=171, k=170"),
    (200, 199, cf.BlowupError, r"mu - 1 >= 2\.2e-308, got less for n=200, k=199"),
    (10**6, 10**6 - 1, cf.BlowupError, r"mu - 1 >= 2\.2e-308, got less for n=1000000"),
    (3, True, cf.ProfileError, "need an integer k, got k=True"),
    (2.0, 1, cf.ProfileError, r"need an integer n, got n=2\.0"),
], ids=["k=n", "k=0", "n-k=1000001", "mu-1<tiny-171", "mu-1<tiny-200",
        "mu-1<tiny-1000000", "k=True", "n=2.0"])
def test_fik_reference_rejects_bad_arguments(n, k, error, match):
    with pytest.raises(error, match=match):
        cf.fik_reference(n, k)


def test_fik_reference_needs_a_sign_change_for_mu(monkeypatch):
    """mu is bracketed before it is bisected: with the sums forced to zero
    the completeness gap has no root in (1, 50], and no profile is built."""
    monkeypatch.setattr(cf.blowup, "_scaled_exp_sum", lambda m, z: 0.0)
    with pytest.raises(cf.BlowupError, match=r"no shrinker with mu in \(1, 50\] for n=2, k=1"):
        cf.fik_reference(2, 1)


@pytest.mark.parametrize("n, a_hat", [(20, 1.0), (300, 299.0), (10**6 + 1, 1e6)])
def test_fik_reference_is_finite_at_extremes(n, a_hat):
    """The exponential sums are scaled by their last terms and mu - 1 is
    bisected in itself, so neither a large k nor a large n = k + a_hat loses
    the shrinker: it is complete, phi(a) = 0, with slope k at a = n - k."""
    k = n - int(a_hat)
    m = cf.fik_reference(n, k)
    assert np.all(np.isfinite(m.phi)) and np.all(np.isfinite(m.dphi))
    assert m.x[0] == a_hat
    assert abs(m.phi[0]) <= 1e-9 * a_hat
    assert abs(m.dphi[0] - k) <= 1e-9


def test_soliton_residual_rejects_bad_window():
    m = cf.fik_reference(2, 1)
    with pytest.raises(cf.MomentDomainError):
        cf.soliton_residual(m, n=2, window=(9.0, 13.0))


# ---------------------------------------------------------------------------
# report assembly

def test_blowup_report_rows(contract_default, tmp_path):
    trace, _ = contract_default
    report = cf.blowup_report(list(trace.checkpoints), T=1.0, n=2, k=1,
                              out_dir=tmp_path)
    assert report.n == 2 and report.k == 1 and report.T == 1.0
    assert [r.j for r in report.rows] == [4, 5, 6, 7, 8, 9]
    for r in report.rows:
        assert r.K == 2.0**r.j
        assert r.K == 1.0 / (1.0 - r.t)
        assert r.a_hat == pytest.approx(1.0, abs=1e-12)
        assert math.isfinite(r.soliton_rms)
    assert math.isnan(report.rows[0].selfsim_prev)
    assert all(math.isfinite(r.selfsim_prev) for r in report.rows[1:])

    with open(tmp_path / "blowup.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == BLOWUP_CSV_HEADER
    assert len(rows) == 1 + len(report.rows)

    with open(tmp_path / "blowup.json") as fh:
        payload = json.load(fh)
    assert payload["n"] == 2 and payload["lambda"] == 1.0
    assert payload["rows"][0]["selfsim_prev"] is None
    assert payload["rows"][1]["selfsim_prev"] == pytest.approx(
        report.rows[1].selfsim_prev)
    assert "mu" in payload["rows"][0] and "c" in payload["rows"][0]


def test_blowup_report_independent_of_grid_half_width(contract_default,
                                                     wide_report):
    """The magnified window reaches rho far into the tails, where slopes
    from a boundary tail model would depend on the half-width L; slopes
    taken from the solution give the same report at L = 12 and L = 16."""
    trace, _ = contract_default
    narrow = cf.blowup_report(list(trace.checkpoints), T=1.0, n=2, k=1)
    assert [r.j for r in narrow.rows] == [r.j for r in wide_report.rows]
    for a, b in zip(narrow.rows[1:], wide_report.rows[1:]):
        assert_allclose(a.selfsim_prev, b.selfsim_prev, rtol=1e-3)
    for a, b in zip(narrow.rows, wide_report.rows):
        assert abs(a.mu - b.mu) <= 5e-3
        assert abs(a.c - b.c) <= 5e-3


def test_blowup_report_needs_enough_checkpoints(contract_default):
    trace, _ = contract_default
    early = [c for c in trace.checkpoints if c.j <= 3]
    with pytest.raises(cf.BlowupError):
        cf.blowup_report(early, T=1.0, n=2, k=1)


def test_blowup_report_names_the_failing_level(contract_default):
    """A level with no usable moment samples fails as a BlowupError that
    names the level."""
    trace, _ = contract_default
    records = []
    for c in trace.checkpoints:
        p = c.profile
        if c.j == 5:
            p = dataclasses.replace(p, du=p.du[::-1].copy())
        records.append(cf.CheckpointRecord(j=c.j, t=c.t, profile=p))
    with pytest.raises(cf.BlowupError, match="level j=5: .*no usable increasing run"):
        cf.blowup_report(records, T=1.0, n=2, k=1)


@pytest.mark.parametrize("change", ["class", "dimension"])
def test_blowup_report_refuses_a_level_of_another_flow(contract_default, change):
    """A level whose class or n is not that of the first level's flow is
    refused by name; b + 0.5 at j = 7 keeps T and the grid."""
    trace, _ = contract_default
    records = []
    for c in trace.checkpoints:
        p = c.profile
        if c.j == 7 and change == "class":
            p = cf.profile_from_samples(p.u, p.grid, cf.KahlerClass(p.cls.a, p.cls.b + 0.5),
                                        p.t, p.n, p.k)
        elif c.j == 7:
            p = dataclasses.replace(p, n=3)
        records.append(cf.CheckpointRecord(j=c.j, t=c.t, profile=p))
    with pytest.raises(cf.BlowupError, match="level j=7: .* is off the flow of level j=1"):
        cf.blowup_report(records, T=1.0, n=2, k=1)


@pytest.mark.parametrize("records, match", [
    (lambda recs: [], "no checkpoints given"),
    (lambda recs: [*recs[:-1], recs[-1]._replace(
        profile=dataclasses.replace(recs[-1].profile, t=1.0))],
     "profile time 1.0 is not before T=1.0"),
    (lambda recs: [*recs, recs[4]], "two checkpoints of level j=5"),
], ids=["empty", "at-T", "repeated"])
def test_blowup_report_refuses_bad_levels(contract_default, records, match):
    trace, _ = contract_default
    with pytest.raises(cf.BlowupError, match=match):
        cf.blowup_report(records(list(trace.checkpoints)), T=1.0, n=2, k=1)


def test_blowup_report_refuses_disjoint_windows(contract_default, monkeypatch):
    """Consecutive levels are compared on the overlap of their windows; a
    window that misses the previous level's, forced here at j = 5, stops
    the report."""
    trace, _ = contract_default
    window, levels = cf.blowup.blowup_window, []

    def disjoint_window(m, a_hat, b_hat):
        lo, hi = window(m, a_hat, b_hat)
        levels.append(lo)
        return (lo, lo + 0.5) if len(levels) == 1 else (lo + 1.0, hi)

    monkeypatch.setattr(cf.blowup, "blowup_window", disjoint_window)
    with pytest.raises(cf.BlowupError, match="windows of j=5 and previous do not overlap"):
        cf.blowup_report(list(trace.checkpoints), T=1.0, n=2, k=1)
    assert len(levels) == 2


def test_blowup_report_checks_singular_time(contract_default):
    """A stated T off the class's singular time, NaN and infinity included,
    is inconsistent; a bool or a string is not a number."""
    trace, _ = contract_default
    for T in (2.0, math.nan, math.inf):
        with pytest.raises(cf.BlowupError, match=f"stated T={T} inconsistent"):
            cf.blowup_report(list(trace.checkpoints), T=T, n=2, k=1)
    for T in (True, "1.0"):
        with pytest.raises(cf.ProfileError, match=f"need a number T, got T={T!r}"):
            cf.blowup_report(list(trace.checkpoints), T=T, n=2, k=1)


def test_blowup_report_rejects_other_regimes(collapse_run):
    with pytest.raises(cf.RegimeMismatchError):
        cf.blowup_report(list(collapse_run.checkpoints), T=0.5, n=2, k=1)


# ---------------------------------------------------------------------------
# Type I constant against exact solitons

def _moment_rm_proxy(x, phi, n):
    """The curvature proxy of curvature_sample for a profile phi(x) in
    moment coordinates: H = phi/x, G = phi', c4 = -phi''."""
    G = np.gradient(phi, x, edge_order=2)
    c4 = -np.gradient(G, x, edge_order=2)
    H = phi / x
    parts = (0.5 * c4, c4 - (n - 1) * H * (G - H) / phi, (n - (n - 1) * H - G) / x,
             (H - G) / x, (1.0 - H) / x)
    return np.max(np.abs(np.stack(parts)), axis=0)


def _koiso_cao(n, k):
    """Phi_KC(X) = X^(1-n) e^(mu X) [F(X) - F(a)] on (a, b) = (n - k, n + k),
    F(y) = (n!/mu^(n+1)) e^(-mu y) [e_n(mu y) - mu e_(n-1)(mu y)], with mu
    found by bisection on F(b) = F(a)."""
    a, b = n - k, n + k

    def F(y, mu):
        return (math.factorial(n) / mu ** (n + 1) * np.exp(-mu * y)
                * (_exp_sum(n, mu * y) - mu * _exp_sum(n - 1, mu * y)))

    def gap(mu):
        return F(b, mu) - F(a, mu)

    lo, hi = 0.1, 1.0
    assert gap(lo) * gap(hi) < 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gap(mid) * gap(lo) > 0.0 else (lo, mid)
    mu = 0.5 * (lo + hi)
    return lambda X: X ** (1 - n) * np.exp(mu * X) * (F(X, mu) - F(a, mu))


@pytest.mark.parametrize("tol_newton", [1e-10, 1e-13])
def test_type_one_monitor_is_flat_on_the_exact_koiso_cao_flow(tol_newton, monkeypatch):
    """Seeded with the Koiso-Cao soliton of the class (1, 3) = T (n - k, n + k),
    the flow is that soliton magnified by 1/(T - t) at every t, so every row
    after the seed reads one Type I constant (T - t) sup|Rm|, to 1 %, at the
    default Newton tolerance and a tighter one: the sup over trusted nodes
    does not ride on the Newton error.  The seed solves dx/drho = Phi_KC(x),
    u' = x from x(0) = n."""
    monkeypatch.setattr(cf.flow, "TOL_NEWTON", tol_newton)
    n, k = 2, 1
    phi = _koiso_cao(n, k)
    grid = cf.RhoGrid(12.0, 1025)
    rho, c = grid.nodes, grid.center

    def rhs(_, y):
        return [phi(y[0]), y[0]]

    left, right = (solve_ivp(rhs, (0.0, nodes[-1]), [float(n), 0.0], t_eval=nodes,
                             method="DOP853", rtol=1e-13, atol=1e-15)
                   for nodes in (rho[c::-1], rho[c:]))
    assert left.success and right.success
    u = np.concatenate([left.y[1][::-1], right.y[1][1:]])
    params = cf.FlowParams(n, k, 1.0, 3.0)
    seed = cf.profile_from_samples(u, grid, cf.class_at(params, 0.0), 0.0, n, k)
    trace = cf.run(params, grid=grid, seed_profile=seed)
    assert trace.rows[-1].t == 0.999
    values = [row.typeI for row in trace.rows[1:]]
    assert max(values) / min(values) - 1.0 <= 0.01


def test_type_one_constant_matches_the_fik_shrinker(contract_wide):
    """On the magnified window u'/(T - t) in [1.05, 8], (T - t) times the sup
    of the curvature proxy over inner nodes is within 1 % of the
    Feldman-Ilmanen-Knopf shrinker's at every checkpoint j >= 4.  The
    shrinker is phi(x) = (2/mu^3) x^-1 [e_2(mu x) - mu e_1(mu x)],
    mu = sqrt(2); its proxy, by differences on 2e5 points, reads 0.9336
    there."""
    mu = math.sqrt(2.0)
    x = np.linspace(1.0001, 9.0, 200_001)
    shrinker = 2.0 / mu**3 / x * (_exp_sum(2, mu * x) - mu * _exp_sum(1, mu * x))
    window = (x >= 1.05) & (x <= 8.0)
    exact = float(np.max(_moment_rm_proxy(x, shrinker, 2)[window]))
    late = [ck for ck in contract_wide.checkpoints if ck.j >= 4]
    assert len(late) == 6
    for ck in late:
        p = ck.profile
        tau = contract_wide.T - p.t
        inner = slice(3, p.grid.N - 3)
        X = p.du[inner] / tau
        proxy = cf.curvature_sample(*diagnostics.moment_arrays(p), p.n).rm_proxy[inner]
        proxy = proxy[(X >= 1.05) & (X <= 8.0)]
        assert abs(tau * float(np.max(proxy)) / exact - 1.0) <= 0.01, ck.j
