"""Parabolic rescaling, soliton references and the blow-up report."""
import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scipy.integrate import solve_ivp

import calabiflow as cf
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
    m1 = cf.moment_profile(p)
    mK = cf.moment_profile(p, K)
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
        m = cf.moment_profile(p, K)
        lo, hi = cf.blowup_window(m, K * p.cls.a, K * p.cls.b)
        assert lo == pytest.approx(1.1, abs=1e-9)
        assert hi == pytest.approx(hi_expected, abs=1e-9)
    with pytest.raises(cf.BlowupError, match="outside sampled domain"):
        cf.blowup_window(m, m.x_min - 0.15, 6.0)
    with pytest.raises(cf.BlowupError, match="empty window"):
        cf.blowup_window(m, 2.0, 3.0)


# ---------------------------------------------------------------------------
# reference solitons

def test_gaussian_reference_oracle():
    m = cf.gaussian_reference()
    assert np.array_equal(m.phi, m.x)
    fit = cf.soliton_residual(m, n=2)
    assert fit.rms < 1e-12
    assert fit.lam == 1.0
    assert_allclose(fit.mu, fit.lam, rtol=1e-9)
    assert abs(fit.c) < 1e-12


def test_cone_reference_oracle():
    # Ricci-flat: the relation holds at lambda = mu = 0 with alpha = n - k.
    m = cf.fik_reference(2, 1, a_hat=1.0)
    fit = cf.soliton_residual(m, n=2, lam=0.0)
    assert fit.rms < 1e-10
    assert abs(fit.mu) < 1e-6
    assert_allclose(fit.c, 2 - 1, rtol=1e-6)


def test_cone_reference_higher_dimension():
    m = cf.fik_reference(3, 2, a_hat=1.0)
    fit = cf.soliton_residual(m, n=3, lam=0.0)
    assert fit.rms < 1e-10
    assert abs(fit.mu) < 1e-6
    assert_allclose(fit.c, 3 - 2, rtol=1e-6)


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
    fit = cf.soliton_residual(m, n=n, lam=1.0)
    assert fit.rms < 1e-6
    assert_allclose(fit.mu, mu, atol=1e-6)
    assert_allclose(fit.c, alpha, atol=1e-6)


def test_cone_reference_shape():
    m = cf.fik_reference(2, 1, a_hat=1.0, x_max=8.0)
    assert m.x[0] == 1.0
    assert abs(m.eval(np.array([1.0]))[0]) < 1e-12
    # phi(x) = (x - 1/x)/2 for n = 2, k = 1, a_hat = 1
    xs = np.linspace(1.5, 7.5, 25)
    assert_allclose(m.eval(xs), 0.5 * (xs - 1.0 / xs), rtol=1e-6)
    assert_allclose(m.dphi[0], 1.0, rtol=1e-9)


@pytest.mark.parametrize("a_hat", [math.nan, math.inf, -1.0, 0.0])
def test_cone_reference_rejects_bad_endpoint(a_hat):
    with pytest.raises(cf.BlowupError, match="finite a_hat > 0"):
        cf.fik_reference(2, 1, a_hat=a_hat)


@pytest.mark.parametrize("n, k, a_hat, match", [
    (2, 2, 1.0, "0 < k < n"),
    (3, 0, 1.0, "0 < k < n"),
    (2, 1, 1.1e6, "a_hat > 0 and <= 1e6"),
    (2, 1, 1e300, "a_hat > 0 and <= 1e6"),
], ids=["k=n", "k=0", "a_hat=1.1e6", "a_hat=1e300"])
def test_cone_reference_rejects_bad_arguments(n, k, a_hat, match):
    with pytest.raises(cf.BlowupError, match=match):
        cf.fik_reference(n, k, a_hat=a_hat)


@pytest.mark.parametrize("n, a_hat", [(300, 299.0), (2, 1e-320), (2, 1e6)])
def test_cone_reference_is_finite_at_extremes(n, a_hat):
    """The reference is evaluated through a_hat/x <= 1, so neither a large
    n nor a subnormal or large a_hat overflows; it keeps phi(a_hat) = 0
    and slope k there."""
    m = cf.fik_reference(n, 1, a_hat=a_hat)
    assert np.all(np.isfinite(m.phi)) and np.all(np.isfinite(m.dphi))
    assert m.phi[0] == 0.0
    assert_allclose(m.dphi[0], 1.0, rtol=1e-12)


def test_soliton_residual_rejects_bad_window():
    m = cf.fik_reference(2, 1, a_hat=1.0, x_max=8.0)
    with pytest.raises(cf.MomentDomainError):
        cf.soliton_residual(m, n=2, window=(9.0, 12.0))


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
    (lambda recs: [*recs[:-1], dataclasses.replace(
        recs[-1], profile=dataclasses.replace(recs[-1].profile, t=1.0))],
     "profile time 1.0 is not before T=1.0"),
], ids=["empty", "at-T"])
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
    trace, _ = contract_default
    with pytest.raises(cf.BlowupError):
        cf.blowup_report(list(trace.checkpoints), T=2.0, n=2, k=1)


def test_blowup_report_rejects_other_regimes(collapse_run):
    with pytest.raises(cf.RegimeMismatchError):
        cf.blowup_report(list(collapse_run.checkpoints), T=0.5, n=2, k=1)
