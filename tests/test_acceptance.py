"""Acceptance gates: quantitative end-to-end checks of the solver, the
monitors and the rescaling analysis.

Each test prints exactly one verdict line before asserting, so running
this module yields a readable scorecard even when a gate misses.
"""
import math

import numpy as np
import pytest

import calabiflow as cf
from calabiflow import diagnostics


def _sample(p):
    """curvature_sample of a rho profile, read through the monitors' adapter."""
    return cf.curvature_sample(*diagnostics.moment_arrays(p), p.n)


def _gate(capfd, num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"criterion {num:2d} ({name}): {verdict} - {detail}")
    assert ok, f"{name}: {detail}"


def _held(x, resolution):
    """x at the precision it holds under TOL_NEWTON refinement: a value
    below the resolution, where Newton roundoff sets the digits, prints as
    that bound."""
    return f"< {resolution:.0e}" if x < resolution else f"{x:.1e}"


def _finite(rows, attr, lo=0.0):
    return [getattr(r, attr) for r in rows
            if r.t >= lo and math.isfinite(getattr(r, attr))]


def test_criterion_01_singular_time_and_class_law(contract_default, capfd):
    trace, _ = contract_default
    worst = max(abs(r.a - (1.0 - r.t)) for r in trace.rows)
    fast = trace.elapsed < 300.0
    ok = trace.T == 1.0 and worst <= 1e-3 and fast
    # the wall time is printed only when it fails the gate: the line of
    # unchanged code then reads the same on every run
    _gate(capfd, 1, "singular time and class law", ok,
          f"T={trace.T:g}, max|u'(-L)-a_t|={worst:.2e} (tol 1e-3)"
          + ("" if fast else f", elapsed {trace.elapsed:.1f}s (limit 300s)"))


def test_criterion_02_divisor_eigenvalue_law(contract_wide, capfd):
    rows = [r for r in contract_wide.rows if 0.99 <= r.t <= 0.999]
    vals = _finite(rows, "lambda_div_scaled")
    ok = bool(vals) and min(vals) >= 0.98 and max(vals) <= 1.02
    detail = ("no curvature samples with t in [0.99, 0.999]" if not vals else
              f"(T-t)*lambda2(-L) in [{min(vals):.4f}, {max(vals):.4f}] "
              f"over {len(vals)} samples (band [0.98, 1.02])")
    _gate(capfd, 2, "divisor eigenvalue law", ok, detail)


def test_criterion_03_type_one_band(contract_default, contract_1025, capfd):
    trace, _ = contract_default
    fine = _finite(trace.rows, "typeI", lo=0.5)
    coarse = _finite(contract_1025.rows, "typeI", lo=0.5)
    drift = max(abs(min(fine) / min(coarse) - 1.0),
                abs(max(fine) / max(coarse) - 1.0))
    settled = fine[-1] < 0.9 * max(fine)
    ok = drift < 0.10 and settled
    _gate(capfd, 3, "type one band", ok,
          f"(T-t)*supRm in [{min(fine):.3f}, {max(fine):.3f}], final "
          f"{fine[-1]:.3f} vs 0.9*max {0.9 * max(fine):.3f}, band drift "
          f"{drift:.2e} between grids (tol 0.10)")


def test_criterion_04_maximum_principle_bounds(contract_wide, collapse_run,
                                               shrink_run, capfd):
    """sup H never exceeds max(sup H(0), 1); inf G never drops below
    min(inf G(0), -1).

    The H barrier, from the flow in moment coordinates
    d phi/dt = phi phi'' - phi'^2 + n phi' - (n-1) phi^2/x^2 with
    H = u''/u' = phi/x: at an interior maximum of H (H' = 0, H'' <= 0)
    phi' = H and phi phi'' = x^2 H H'' <= 0, so x dH/dt <= n H (1 - H).
    H vanishes at both class endpoints, so a maximum above 1 cannot grow.
    The barrier is sharp: the flat model phi = x has H = 1.
    """
    bad = []
    parts = []
    for name, trace in (("contract", contract_wide), ("collapse", collapse_run),
                        ("shrink", shrink_run)):
        h0 = trace.rows[0].H_sup
        g0 = trace.rows[0].G_inf
        h_bound = max(h0, 1.0) * (1.0 + 1e-6)
        g_bound = min(g0, -1.0) - 1e-6
        h_max = max(_finite(trace.rows, "H_sup"))
        g_min = min(_finite(trace.rows, "G_inf"))
        parts.append(f"{name} sup H={h_max:.4f}/{h_bound:.4f}")
        if h_max > h_bound or g_min < g_bound:
            bad.append(name)
    _gate(capfd, 4, "maximum principle bounds", not bad,
          ("all presets within H and G bounds" if not bad else
           f"exceeded on {', '.join(bad)}") + "; " + ", ".join(parts))


def test_criterion_05_volume_identity(contract_default, collapse_run,
                                      shrink_run, capfd):
    worst = 0.0
    for trace in (contract_default[0], collapse_run, shrink_run):
        for r in trace.rows:
            if math.isfinite(r.vol_quad):
                worst = max(worst, abs(r.vol_quad - r.vol_class) / r.vol_class)
    ok = worst <= 1e-6
    _gate(capfd, 5, "volume identity", ok,
          f"max |vol_quad/vol_class - 1| = {worst:.1e} over all presets "
          f"(tol 1e-6)")


def test_criterion_06_regime_trichotomy(contract_default, collapse_run,
                                        shrink_run, capfd):
    measured = {
        "contract": cf.regime_indicator(contract_default[0]),
        "collapse": cf.regime_indicator(collapse_run),
        "shrink": cf.regime_indicator(shrink_run),
    }
    expected = {"contract": cf.Regime.CONTRACT, "collapse": cf.Regime.COLLAPSE,
                "shrink": cf.Regime.SHRINK}
    ok = measured == expected
    _gate(capfd, 6, "regime trichotomy", ok,
          ", ".join(f"{k}={v.value}" for k, v in measured.items()))


def _homogeneity(seed, trusted=True):
    """Relative defect of curvature homogeneity between seed and the seed of
    the class scaled by K = e: the curvatures scale by 1/K, H and G stay.
    The fourth-difference pieces (lambda1, sigma1, c4, r1111) are read on
    the nodes trusted in both profiles, or on every node with
    trusted=False; elsewhere they are rounding noise."""
    K = math.e
    q = cf.build_canonical_profile(cf.KahlerClass(K * seed.cls.a, K * seed.cls.b), seed.grid,
                                   seed.n, seed.k)
    cp, cq = _sample(seed), _sample(q)
    # (x, phi, G, -c4, trust): the defect of -c4 is that of c4
    ap, aq = diagnostics.moment_arrays(seed), diagnostics.moment_arrays(q)
    m = ap[4] & aq[4] if trusted else slice(None)
    pairs = [(np.concatenate((cp.lambda1[m], cp.lambda2)),
              np.concatenate((cq.lambda1[m], cq.lambda2))),
             (cp.sigma[1][m], cq.sigma[1][m]), (ap[3][m], aq[3][m]),
             (cp.r1111[m], cq.r1111[m]), (cp.r11kk, cq.r11kk), (cp.rkkkk, cq.rkkkk)]
    invariant = [(cp.H, cq.H), (ap[2], aq[2])]
    return max([float(np.max(np.abs(K * scaled - base)) / np.max(np.abs(base)))
                for base, scaled in pairs]
               + [float(np.max(np.abs(scaled - base)) / np.max(np.abs(base)))
                  for base, scaled in invariant])


def test_criterion_07_curvature_identity_suite(contract_seed, contract_default,
                                               capfd):
    trace, _ = contract_default
    ck5 = next(c.profile for c in trace.checkpoints if c.j == 5)
    route_rel = 0.0
    for p in (contract_seed, ck5):
        re_ = _sample(p).sigma[1]
        rx = cf.scalar_curvature(p)
        a, b = p.cls.a, p.cls.b
        m = (p.du >= a + 0.1 * (b - a)) & (p.du <= b - 0.1 * (b - a))
        route_rel = max(route_rel, float(np.max(
            np.abs(re_[m] - rx[m]) / np.maximum(np.abs(rx[m]), 1.0))))

    hom = _homogeneity(contract_seed)

    grid = cf.RhoGrid(12.0, 1025)
    flat_cls = cf.KahlerClass(0.9 * math.exp(-grid.L), 1.1 * math.exp(grid.L))
    p = cf.profile_from_samples(np.exp(grid.nodes), grid, flat_cls, t=0.0, n=2, k=1)
    du, d2u, d3u, d4u = p.du, p.d2u, p.d3u, p.d4u
    with np.errstate(divide="ignore", invalid="ignore"):
        flat_r = (-d4u / d2u**2 + d3u**2 / d2u**3 - 2.0 * d3u / (du * d2u)
                  + 2.0 / du)
    m = np.abs(grid.nodes) <= 6.0
    flat = float(np.max(np.abs(flat_r[m])))

    ok = route_rel <= 1e-6 and hom <= 1e-10 and flat <= 1e-4
    _gate(capfd, 7, "curvature identity suite", ok,
          f"route agreement {_held(route_rel, 1e-15)} (tol 1e-6), homogeneity "
          f"{hom:.1e} (tol 1e-10), flat-model residual {flat:.1e} (tol 1e-4)")


@pytest.mark.parametrize("L", [14.0, 16.0])
def test_homogeneity_holds_on_trusted_nodes_of_wider_seeds(L):
    """Criterion 7's homogeneity check holds on the contract seed at
    L = 14 and 16, N = 1025, where the fourth-difference pieces on the
    untrusted tail nodes alone would break its 1e-10 tolerance (2.3e-10
    and 1.9e-9 over all nodes)."""
    seed = cf.build_canonical_profile(cf.KahlerClass(1.0, 4.0), cf.RhoGrid(L, 1025), 2, 1)
    assert _homogeneity(seed) <= 1e-10
    assert _homogeneity(seed, trusted=False) > 1e-10


def test_criterion_08_scaled_lower_bounds(contract_default, contract_1025,
                                          capfd):
    fine, _ = contract_default
    coarse = contract_1025
    fb = [min(_finite(t.rows, "bisec_min_scaled", lo=0.5)) for t in (coarse, fine)]
    fc = [min(_finite(t.rows, "c4_min_scaled", lo=0.5)) for t in (coarse, fine)]
    drift_b = abs(fb[1] - fb[0]) / abs(fb[0])
    drift_c = abs(fc[1] - fc[0]) / max(abs(fc[0]), 1e-9)
    sig = max(max(r.sigma[0] for r in t.rows if math.isfinite(r.sigma[0]))
              for t in (coarse, fine))
    ok = (fb[1] > -2.0 and fc[1] > -1e-3 and drift_b < 0.10
          and drift_c < 0.10 and sig < 2.0)
    _gate(capfd, 8, "scaled lower bounds", ok,
          f"(T-t)*bisec_min floor {fb[1]:.6f} (drift {drift_b:.1e}), "
          f"(T-t)*c4_min floor {fc[1]:.6f} (drift {_held(drift_c, 1e-3)}), "
          f"sigma2 ratio max {sig:.4f} (bound 2.0)")


def test_criterion_09_self_similarity(wide_report, capfd):
    rows = wide_report.rows
    selfsim = [r.selfsim_prev for r in rows[1:]]
    decreasing = all(b < a for a, b in zip(selfsim, selfsim[1:]))
    ratio = rows[0].soliton_rms / rows[-1].soliton_rms
    ok = decreasing and ratio >= 2.0
    _gate(capfd, 9, "blow-up self-similarity", ok,
          f"C1 distances {selfsim[0]:.4f} -> {selfsim[-1]:.4f} "
          f"{'strictly decreasing' if decreasing else 'not monotone'}, "
          f"soliton rms reduction j4/j9 = {ratio:.3f} (need >= 2)")


def test_criterion_10_soliton_reference_oracles(contract_default, wide_report, capfd):
    """The fit recovers the Feldman-Ilmanen-Knopf shrinker of (2, 1), whose
    mu is sqrt(2), and the report's C^1 distance to that shrinker falls at
    every level, with the same j = 9 value at L = 12 and L = 16."""
    fit = cf.soliton_residual(cf.fik_reference(2, 1), n=2)
    mu_err = abs(fit.mu - math.sqrt(2.0))
    trend = [r.fik_dist for r in wide_report.rows]
    falling = all(b < a for a, b in zip(trend, trend[1:]))
    trace, _ = contract_default
    narrow = cf.blowup_report(list(trace.checkpoints), T=1.0, n=2, k=1).rows[-1]
    drift = abs(narrow.fik_dist / wide_report.rows[-1].fik_dist - 1.0)
    ok = (fit.rms <= 1e-10 and mu_err <= 1e-8 and abs(fit.c) <= 1e-10 and falling
          and narrow.j == 9 and drift <= 0.01)
    _gate(capfd, 10, "FIK shrinker limit", ok,
          f"reference fit rms {fit.rms:.1e} (tol 1e-10), |mu-sqrt2| {mu_err:.1e} "
          f"(tol 1e-8), |c| {abs(fit.c):.1e} (tol 1e-10); distance over j "
          f"{trend[0]:.3f} -> {trend[-1]:.4f} "
          f"{'strictly decreasing' if falling else 'not monotone'}, j=9 change "
          f"from L=12 to L=16 {drift:.1e} (tol 1e-2)")


def test_criterion_11_nonflat_limit(contract_wide, capfd):
    vals = []
    for c in contract_wide.checkpoints:
        if c.j >= 6:
            proxy = _sample(c.profile).rm_proxy
            vals.append((1.0 - c.t) * float(proxy[0]))
    ok = bool(vals) and min(vals) >= 0.95
    detail = ("no checkpoints with j >= 6" if not vals else
              f"(T-t)*|Rm|(-L) over j>=6: min {min(vals):.4f} (bound 0.95)")
    _gate(capfd, 11, "non-flat rescaled limit", ok, detail)
