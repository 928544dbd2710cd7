"""Trace rows, reductions, export formats and the regime classifier."""
import errno
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import simpson

import calabiflow as cf
from calabiflow import diagnostics, profile

HEADER_N2 = ("t,a,b,supRm,typeI,H_sup,G_sup,G_inf,bisec_min,bisec_min_scaled,"
             "c4_min_scaled,lambda_div_scaled,sigma2,vol_quad,vol_class,"
             "vol_ratio,diam,dt,iters")
SUMMARY_KEYS = {"T", "a0", "b0", "checkpoints", "elapsed_seconds", "k",
                "lambda_div_final", "n", "newton_iters", "num_rows", "regime",
                "retries", "steps", "supRm_final", "t_final", "typeI_max",
                "vol_ratio_final"}


def test_trace_header_is_frozen():
    assert cf.trace_header(2) == HEADER_N2
    h3 = cf.trace_header(3)
    assert "sigma2,sigma3" in h3


def test_export_round_trip(contract_default):
    trace, out = contract_default
    cols = cf.read_trace(out / "trace.csv")
    assert set(cols) == set(HEADER_N2.split(","))
    assert np.array_equal(cols["t"], np.array([r.t for r in trace.rows]))
    assert np.array_equal(cols["a"], np.array([r.a for r in trace.rows]))
    assert np.array_equal(cols["H_sup"], np.array([r.H_sup for r in trace.rows]))
    assert np.all(np.diff(cols["t"]) > 0.0)


def test_summary_file(contract_default):
    trace, out = contract_default
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert set(summary) == SUMMARY_KEYS
    assert summary["T"] == 1.0
    assert summary["regime"] == "Contract"
    assert summary["n"] == 2 and summary["k"] == 1
    assert summary["num_rows"] == len(trace.rows)
    assert summary["t_final"] == trace.rows[-1].t
    assert summary["checkpoints"] == [c.j for c in trace.checkpoints]


class _DiskFull:
    """Stands in for open(): stores half of what it is asked to write, then
    fails as a full disk would."""

    def __init__(self, path, mode):
        self._fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        self._fh.write(text[:len(text) // 2])
        raise OSError(errno.ENOSPC, "no space left on device")


@pytest.mark.parametrize("write", [
    lambda trace, path: cf.save_checkpoint(trace.final_profile, path),
    diagnostics.export_trace,
    diagnostics.write_summary,
], ids=["checkpoint", "trace", "summary"])
def test_interrupted_write_keeps_previous_file(contract_default, tmp_path,
                                               monkeypatch, write):
    """An output write that fails partway leaves the previous file as it was
    and no partial file beside it."""
    trace, _ = contract_default
    target = tmp_path / "out.json"
    target.write_text("previous\n")
    monkeypatch.setattr(profile, "open", _DiskFull, raising=False)
    with pytest.raises((OSError, cf.ProfileError)):
        write(trace, target)
    assert target.read_text() == "previous\n"
    assert [q.name for q in tmp_path.iterdir()] == [target.name]


def test_run_writes_log_and_checkpoints(contract_default):
    _, out = contract_default
    assert (out / "run.log").stat().st_size > 0
    files = sorted(out.glob("checkpoint_j*.json"))
    assert len(files) == 9


def test_row_reductions_match_reference(contract_1025):
    """The curvature columns of the last row, recomputed from the curvature
    sample, the trust mask and the fourth-order combination on the interior
    slice (three nodes clipped at each end)."""
    trace = contract_1025
    p = trace.final_profile
    row = trace.rows[-1]
    tau = trace.T - p.t
    inner = slice(3, p.grid.N - 3)
    trust = cf.c4_trust_mask(p)
    itrust = trust[inner]
    cs = cf.curvature_sample(p)
    assert itrust.any()

    # fourth-difference pieces (r1111, lambda1) count on trusted nodes only
    proxy = np.max(np.stack([np.where(trust, np.abs(cs.r1111), 0.0),
                             np.abs(cs.r11kk), np.abs(cs.rkkkk),
                             np.where(trust, np.abs(cs.lambda1), 0.0),
                             np.abs(cs.lambda2)]), axis=0)
    sup = float(np.max(proxy[inner]))
    bisec = min(float(np.min(cs.r11kk[inner])), float(np.min(cs.rkkkk[inner])),
                float(np.min(cs.r1111[inner][itrust])))
    c4min = float(np.min(cf.c4_combination(p)[inner][itrust]))
    sigma2 = float(np.max(np.abs(cs.sigma[2])[inner][itrust]))

    assert row.supRm == sup
    assert row.typeI == tau * sup
    assert row.bisec_min == bisec
    assert row.bisec_min_scaled == tau * bisec
    assert row.c4_min_scaled == tau * c4min
    assert row.lambda_div_scaled == tau * float(cs.lambda2[0])
    assert row.sigma == (tau * sigma2 / sup,)


def test_sample_row_evaluates_guarded_quantities_once(contract_seed, monkeypatch):
    """One row runs the tail-guard pass, which forms the guarded u'''/u'',
    the fourth-order combination and the trust mask together, once however
    many monitors read them; the shared arrays are read-only."""
    p = cf.profile_from_samples(contract_seed.u, contract_seed.grid,
                                contract_seed.cls, 0.0, 2, 1)
    evaluations = []
    guard = profile._guard_tails

    def counting_guard(q):
        evaluations.append(q)
        return guard(q)

    monkeypatch.setattr(profile, "_guard_tails", counting_guard)
    cf.sample_row(p, 1.0, cf.Regime.CONTRACT)
    assert len(evaluations) == 1 and evaluations[0] is p
    for arr in (cf.ratio_g(p), cf.c4_combination(p), cf.c4_trust_mask(p)):
        assert not arr.flags.writeable
    assert cf.ratio_g(p) is cf.ratio_g(p)
    assert len(evaluations) == 1


def test_volume_identity_on_seed(contract_seed):
    vq, vc = cf.total_volume(contract_seed)
    assert_allclose(vq, vc, rtol=1e-12)
    assert_allclose(vc, (4.0**2 - 1.0**2) / 2.0, rtol=1e-12)


def test_total_volume_simpson():
    """The quadrature volume is the composite Simpson sum of
    (u')^(n-1) u'' plus the closed-form tails: it agrees with scipy's
    simpson on the odd-N grid, and a cubic integrand is integrated exactly,
    which pins the 1, 4, 2, ..., 4, 1 weights."""
    cls = cf.KahlerClass(1.0, 4.0)
    for n, k in [(2, 1), (3, 1), (3, 2)]:
        p = cf.build_canonical_profile(cls, cf.RhoGrid(12.0, 1025), n=n, k=k)
        core = simpson(p.du ** (n - 1) * p.d2u, dx=p.grid.h)
        tails = (p.du[0] ** n - cls.a**n + cls.b**n - p.du[-1] ** n) / n
        assert_allclose(cf.total_volume(p)[0], core + tails, rtol=1e-14)

    # u' = rho^2 + rho + 2 makes (u')^(n-1) u'' a cubic for n = 2, and its
    # integral telescopes with the tails to the class volume (b^2 - a^2)/2
    grid = cf.RhoGrid(1.0, 257)
    rho = grid.nodes
    du = rho**2 + rho + 2.0
    cubic = cf.CalabiProfile(grid=grid, cls=cls, t=0.0, n=2, k=1, u=np.zeros_like(rho),
                             du=du, d2u=2.0 * rho + 1.0, d3u=np.full_like(rho, 2.0),
                             d4u=np.zeros_like(rho))
    vol_quad, vol_class = cf.total_volume(cubic)
    assert vol_class == 7.5
    assert_allclose(vol_quad, vol_class, rtol=1e-14)


def test_divisor_diameter_oracle(contract_seed):
    """The induced metric on the divisor is round: diameter = pi sqrt(a/2)
    for k = 1, checked against the quadrature route."""
    assert_allclose(cf.divisor_diameter(contract_seed),
                    math.pi / math.sqrt(2.0), rtol=1e-12)
    q = cf.build_canonical_profile(cf.KahlerClass(4.0, 16.0), contract_seed.grid)
    assert_allclose(cf.divisor_diameter(q),
                    2.0 * cf.divisor_diameter(contract_seed), rtol=1e-12)


def test_regime_indicator_matches_prediction(contract_default, collapse_run,
                                             shrink_run):
    for trace, params in [(contract_default[0], cf.FlowParams(2, 1, 1.0, 4.0)),
                          (collapse_run, cf.FlowParams(2, 1, 1.0, 2.0)),
                          (shrink_run, cf.FlowParams(2, 1, 1.0, 3.0))]:
        predicted = cf.singular_time(params).regime
        assert cf.regime_indicator(trace) is predicted
        assert trace.regime is predicted


def test_regime_indicator_needs_late_data():
    ctl = cf.StepControl(t_stop_fraction=0.5)
    trace = cf.run(cf.FlowParams(2, 1, 1.0, 4.0), ctl=ctl,
                   grid=cf.RhoGrid(12.0, 257))
    with pytest.raises(cf.DiagnosticsError):
        cf.regime_indicator(trace)


def test_collapse_shrinks_fiber_volume(collapse_run):
    """In the Collapse regime total volume vanishes linearly, so vol/(T-t)
    tends to a positive constant."""
    late = [r for r in collapse_run.rows if r.t >= 0.99 * collapse_run.T]
    ratios = [r.vol_ratio for r in late]
    assert all(math.isfinite(v) and v > 0.0 for v in ratios)
    assert max(ratios) / min(ratios) < 1.05


def test_refinement_stability_of_c4_min(contract_1025, contract_default):
    """The scaled fourth-order minimum near t = 0.99 moves by well under
    5% between the two grid resolutions."""
    def at_t99(trace):
        row = min(trace.rows, key=lambda r: abs(r.t - 0.99))
        return row.c4_min_scaled
    v1, v2 = at_t99(contract_1025), at_t99(contract_default[0])
    assert abs(v2 - v1) < 0.05 * abs(v1)
