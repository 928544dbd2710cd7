"""Trace rows, reductions, export formats and the regime classifier."""
import dataclasses
import errno
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import simpson

import calabiflow as cf
from calabiflow import diagnostics, flow, profile

HEADER_N2 = ("t,a,b,supRm,typeI,H_sup,G_sup,G_inf,bisec_min,bisec_min_scaled,"
             "c4_min_scaled,lambda_div_scaled,sigma2,vol_quad,vol_class,"
             "vol_ratio,diam,dt,iters")
SUMMARY_KEYS = {"T", "a0", "b0", "checkpoints", "elapsed_seconds", "k",
                "lambda_div_final", "n", "newton_iters", "num_rows",
                "phase_seconds", "regime",
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


def _fine_seed():
    """The contract seed rebuilt from its samples at (12, 8193)."""
    grid = cf.RhoGrid(12.0, 8193)
    seed = cf.build_canonical_profile(cf.KahlerClass(1.0, 4.0), grid, 2, 1)
    return cf.profile_from_samples(seed.u, grid, seed.cls, 0.0, 2, 1)


def test_row_reductions_match_reference(contract_1025):
    """The curvature columns of a row, recomputed from the curvature sample,
    the trust mask and the fourth-order combination on the interior slice
    (three nodes clipped at each end).  The seed rebuilt on the short grid
    (4, 513) is trusted on every inner node.  The other profiles have
    untrusted inner nodes that hold unrestricted extremes: in the raw
    tails of the last row of a run those of r1111 and c4, and on the seed
    rebuilt at N = 8193, the j = 9 checkpoint and the n = 3 seed (3,1,1,6)
    rebuilt at (12, 1025) also those of every |sigma_j|.  The n = 3 seed
    pins both sigma columns.  r11kk and rkkkk reach below the trusted
    r1111, so the row shows the restriction of c4 but not of r1111."""
    short = cf.build_canonical_profile(cf.KahlerClass(1.0, 4.0), cf.RhoGrid(4.0, 513), 2, 1)
    short = cf.profile_from_samples(short.u, short.grid, short.cls, 0.0, 2, 1)
    fine = _fine_seed()
    late = next(c.profile for c in contract_1025.checkpoints if c.j == 9)
    n3 = cf.build_canonical_profile(cf.KahlerClass(1.0, 6.0), cf.RhoGrid(12.0, 1025), 3, 1)
    n3 = cf.profile_from_samples(n3.u, n3.grid, n3.cls, 0.0, 3, 1)
    cases = [(contract_1025.final_profile, contract_1025.rows[-1], contract_1025.T,
              ("r1111", "c4")),
             (short, diagnostics.profile_row(short, 1.0, cf.Regime.CONTRACT), 1.0, ()),
             (fine, diagnostics.profile_row(fine, 1.0, cf.Regime.CONTRACT), 1.0,
              ("r1111", "c4", "sigma2")),
             (late, diagnostics.profile_row(late, contract_1025.T, cf.Regime.CONTRACT),
              contract_1025.T, ("r1111", "c4", "sigma2")),
             (n3, diagnostics.profile_row(n3, 0.5, cf.Regime.CONTRACT), 0.5,
              ("r1111", "c4", "sigma2", "sigma3"))]
    for p, row, T, untrusted_extremes in cases:
        tau = T - p.t
        inner = slice(3, p.grid.N - 3)
        arrays = diagnostics.moment_arrays(p)  # (x, phi, G, -c4, trust)
        trust = arrays[4]
        itrust = trust[inner]
        cs = cf.curvature_sample(*arrays, p.n)
        assert itrust.any() and itrust.all() == (not untrusted_extremes)

        # fourth-difference pieces (r1111, lambda1) count on trusted nodes only
        proxy = np.max(np.stack([np.where(trust, np.abs(cs.r1111), 0.0),
                                 np.abs(cs.r11kk), np.abs(cs.rkkkk),
                                 np.where(trust, np.abs(cs.lambda1), 0.0),
                                 np.abs(cs.lambda2)]), axis=0)
        sup = float(np.max(proxy[inner]))
        bisec = min(float(np.min(cs.r11kk[inner])), float(np.min(cs.rkkkk[inner])),
                    float(np.min(cs.r1111[inner][itrust])))
        c4min = float(np.min(-arrays[3][inner][itrust]))
        sigma = {j: float(np.max(np.abs(cs.sigma[j])[inner][itrust]))
                 for j in range(2, p.n + 1)}

        assert row.supRm == sup
        assert row.typeI == tau * sup
        assert row.bisec_min == bisec
        assert row.bisec_min_scaled == tau * bisec
        assert row.c4_min_scaled == tau * c4min
        assert row.lambda_div_scaled == tau * float(cs.lambda2[0])
        assert row.sigma == tuple(tau ** (j - 1) * s / sup for j, s in sigma.items())
        if "r1111" in untrusted_extremes:
            assert np.min(cs.r1111[inner]) < np.min(cs.r1111[inner][itrust])
        if "c4" in untrusted_extremes:
            assert np.min(cs.c4[inner]) < c4min
        for j, s in sigma.items():
            if f"sigma{j}" in untrusted_extremes:
                assert np.max(np.abs(cs.sigma[j][inner])) > s


def test_sample_row_evaluates_guarded_quantities_once(contract_seed, monkeypatch):
    """One row of a rho profile, read through profile_row, runs the
    tail-guard pass, which forms the guarded u'''/u'', the fourth-order
    combination and the trust mask together, once however many monitors
    read them; the shared arrays are read-only."""
    p = cf.profile_from_samples(contract_seed.u, contract_seed.grid,
                                contract_seed.cls, 0.0, 2, 1)
    evaluations = []
    guard = profile.guard_tails

    def counting_guard(u, *args):
        evaluations.append(u)
        return guard(u, *args)

    monkeypatch.setattr(profile, "guard_tails", counting_guard)
    diagnostics.profile_row(p, 1.0, cf.Regime.CONTRACT)
    assert len(evaluations) == 1 and evaluations[0] is p.u
    for arr in p.guarded:
        assert not arr.flags.writeable
    G, _, trust = p.guarded
    arrays = diagnostics.moment_arrays(p)
    assert arrays[2] is G and arrays[4] is trust
    assert len(evaluations) == 1


def _reference_sigma(cs, n):
    """sigma_j by the general term, no exact no-op skipped or regrouped."""
    lam1, lam2 = cs.lambda1, cs.lambda2
    return {j: math.comb(n - 1, j) * lam2**j + math.comb(n - 1, j - 1) * lam1 * lam2 ** (j - 1)
            for j in range(1, n + 1)}


def _accepted_states(params, grid, monkeypatch):
    """A cadence-1 run of params on grid, a failed one included, with every
    state step() accepted."""
    states, step = [], flow.step

    def recording_step(*args, **kwargs):
        states.append(step(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(flow, "step", recording_step)
    try:
        trace = cf.run(params, grid=grid, monitors=cf.MonitorSet(cadence=1))
    except cf.FlowError as exc:
        trace = exc.trace
    return trace, states


@pytest.mark.parametrize("params, L, N", [
    (cf.FlowParams(2, 1, 1.0, 4.0), 12.0, 513),
    (cf.FlowParams(2, 1, 1.0, 2.0), 12.0, 513),
    (cf.FlowParams(2, 1, 1.0, 3.0), 12.0, 513),
    (cf.FlowParams(3, 1, 1.0, 6.0), 12.0, 1025),
    (cf.FlowParams(3, 2, 1.0, 6.0), 12.0, 1025),
], ids=["contract", "collapse", "shrink", "3-1-1-6", "3-2-1-6"])
def test_rows_from_samples_are_rows_of_the_rebuilt_profiles(params, L, N, monkeypatch):
    """Every row a cadence-1 run samples after the seed is, bit for bit
    (repr of the TraceRow), profile_row of profile_from_samples on the
    accepted state's samples, though only the kept states build a
    profile.  Its sigma columns come from curvature_sample's sigma_j,
    which equal the general term C(n-1, j) l2^j + C(n-1, j-1) l1 l2^(j-1)
    evaluated as written: on (3,2,1,6), which fails at 0.6046 T, a
    regrouped (l1 l2) l2 moves sigma3 by one ulp."""
    grid = cf.RhoGrid(L, N)
    trace, states = _accepted_states(params, grid, monkeypatch)
    assert len(trace.rows) == len(states) + 1
    if params.k == 2:
        assert trace.error and abs(trace.rows[-1].t / trace.T - 0.6046) < 1e-4
    else:
        assert trace.error is None
    for row, state in zip(trace.rows[1:], states):
        p = cf.profile_from_samples(state.u, grid, cf.class_at(params, state.t), state.t,
                                    params.n, params.k)
        st = state.stats
        assert repr(row) == repr(diagnostics.profile_row(p, trace.T, trace.regime, st.dt,
                                                         st.newton_iters))
        cs = cf.curvature_sample(*diagnostics.moment_arrays(p), p.n)
        for j, ref in _reference_sigma(cs, p.n).items():
            assert np.array_equal(cs.sigma[j], ref, equal_nan=True), (state.t, j)


def test_row_from_samples_propagates_nan_and_inf(contract_1025):
    """Seven samples set to zero inside the j = 5 checkpoint give u'' < 0
    beside them and u' = u'' = 0 at the middle three, where H and G are
    0/0 and the trusted c4 is inf.  The row from the samples is still
    profile_row of the rebuilt profile, bit for bit, and its sups and
    infs carry the NaN as np.max and np.min do (Python's max would drop
    it)."""
    ck = next(c.profile for c in contract_1025.checkpoints if c.j == 5)
    u = ck.u.copy()
    u[600:607] = 0.0
    params, T = cf.FlowParams(2, 1, 1.0, 4.0), contract_1025.T
    with np.errstate(all="ignore"):
        p = cf.profile_from_samples(u, ck.grid, ck.cls, ck.t, 2, 1)
        ref = diagnostics.profile_row(p, T, cf.Regime.CONTRACT, 1e-3, 4)
        row = diagnostics.row_from_samples(u, ck.grid.h, params, ck.t, T, cf.Regime.CONTRACT,
                                           1e-3, 4)
    assert np.any(p.d2u < 0.0) and not p.du[602:605].any() and not p.d2u[602:605].any()
    _, _, G, minus_c4, trust = diagnostics.moment_arrays(p)
    assert np.isnan(G[603]) and np.isinf(minus_c4[602]) and trust[602]
    assert repr(row) == repr(ref)
    assert all(math.isnan(v) for v in (row.supRm, row.typeI, row.H_sup, row.G_sup, row.G_inf))


def test_inf_g_does_not_follow_a_newton_sized_perturbation():
    """Moving u by a tenth of TOL_NEWTON inside the right tail moves a
    row's inf G by less than 1e-6 and its typeI by less than 1e-6.  A
    least-squares tail fit read a second mode from 1e-12 features of u
    there: on the contract seed at (16, 2731) this bump flipped it, inf G
    read -1.00029 instead of -0.99999977, below criterion 4's bound of -1,
    and typeI moved from 1.000 to 1.658.  The ghosts now continue the
    closure relation, and no monitor reads an unresolved tail mode."""
    params = cf.FlowParams(2, 1, 1.0, 4.0)
    seed = cf.build_canonical_profile(cf.class_at(params, 0.0), cf.RhoGrid(16.0, 2731), 2, 1)
    rho = seed.grid.nodes
    bump = 0.1 * flow.TOL_NEWTON * np.exp(-(((rho - 14.5) / 0.7) ** 2))
    T = cf.singular_time(params).T
    rows = [diagnostics.profile_row(cf.profile_from_samples(u, seed.grid, seed.cls, 0.0, 2, 1),
                                    T, cf.Regime.CONTRACT)
            for u in (seed.u, seed.u - bump)]
    assert abs(rows[1].G_inf - rows[0].G_inf) < 1e-6
    assert abs(rows[1].typeI - rows[0].typeI) < 1e-6


@pytest.mark.parametrize("params, ctl", [
    (cf.FlowParams(2, 1, 0.997, 4.01), cf.StepControl()),
    (cf.FlowParams(2, 1, 1.0, 4.0), cf.StepControl(tol_step=8e-7)),
], ids=["class-0.997-4.01", "tol_step-8e-7"])
def test_inf_g_keeps_criterion_4_bound_near_the_preset(params, ctl):
    """Criterion 4's bound inf G >= min(inf G(0), -1) - 1e-6 holds on two
    runs next to the scorecard's own at (16, 2731), whose verdicts used to
    hang on the fitted second tail mode (-1.0000196 and -1.00023)."""
    trace = cf.run(params, ctl=ctl, grid=cf.RhoGrid(16.0, 2731))
    bound = min(trace.rows[0].G_inf, -1.0) - 1e-6
    assert min(r.G_inf for r in trace.rows) >= bound


def test_divisor_eigenvalue_stays_positive_on_the_default_grid(contract_default):
    """(T - t) lambda2 at the left grid end stays above 0.5 on every row of
    the contract preset at (12, 2049); fitted ghosts that missed the end
    samples made it read -4.85 at t = 0.998."""
    trace, _ = contract_default
    assert min(r.lambda_div_scaled for r in trace.rows) > 0.5


def test_fine_seed_monitors_read_the_seed():
    """On the seed rebuilt at (12, 8193) the Type I monitor reads 1 to
    1e-3, and the trusted c4 is within 1e-2 of the seed's exact 2/3: no
    tail model stands in where it misses the solution."""
    p = _fine_seed()
    assert abs(diagnostics.profile_row(p, 1.0, cf.Regime.CONTRACT).typeI - 1.0) < 1e-3
    _, _, _, minus_c4, trust = diagnostics.moment_arrays(p)
    assert trust.any()
    assert np.max(np.abs(-minus_c4[trust] - 2.0 / 3.0)) < 1e-2


def _row_at_seed_time(p):
    return diagnostics.profile_row(p, 1.0, cf.Regime.CONTRACT)


def test_volume_identity_on_seed(contract_seed):
    row = _row_at_seed_time(contract_seed)
    assert_allclose(row.vol_quad, row.vol_class, rtol=1e-12)
    assert_allclose(row.vol_class, (4.0**2 - 1.0**2) / 2.0, rtol=1e-12)


def test_total_volume_simpson():
    """The quadrature volume is the composite Simpson sum of
    (u')^(n-1) u'' plus the closed-form tails: a row's vol_quad agrees with
    scipy's simpson on the odd-N grid, and a cubic integrand is integrated
    exactly, which pins the 1, 4, 2, ..., 4, 1 weights."""
    cls = cf.KahlerClass(1.0, 4.0)
    for n, k in [(2, 1), (3, 1), (3, 2)]:
        p = cf.build_canonical_profile(cls, cf.RhoGrid(12.0, 1025), n=n, k=k)
        core = simpson(p.du ** (n - 1) * p.d2u, dx=p.grid.h)
        tails = (p.du[0] ** n - cls.a**n + cls.b**n - p.du[-1] ** n) / n
        assert_allclose(_row_at_seed_time(p).vol_quad, core + tails, rtol=1e-14)

    # u' = rho^2 + rho + 2 makes (u')^(n-1) u'' a cubic for n = 2, and its
    # integral telescopes with the tails to the class volume (b^2 - a^2)/2;
    # its u'' vanishes at rho = -1/2, where a row's curvatures divide by it
    grid = cf.RhoGrid(1.0, 257)
    rho = grid.nodes
    vol_quad, vol_class = diagnostics._volume(rho**2 + rho + 2.0, 2.0 * rho + 1.0, grid.h,
                                              cls.a, cls.b, 2)
    assert vol_class == 7.5
    assert_allclose(vol_quad, vol_class, rtol=1e-14)


def test_divisor_diameter_oracle(contract_seed):
    """The induced metric on the divisor is round: a row's diam is
    pi sqrt(a/2) for k = 1, and it scales like sqrt(a)."""
    diam = _row_at_seed_time(contract_seed).diam
    assert_allclose(diam, math.pi / math.sqrt(2.0), rtol=1e-12)
    q = cf.build_canonical_profile(cf.KahlerClass(4.0, 16.0), contract_seed.grid, 2, 1)
    assert_allclose(_row_at_seed_time(q).diam, 2.0 * diam, rtol=1e-12)


# classes 0.5 % to 5 % off the shrink line on both sides, for n = 2, 3 and 4,
# and (3,1,2,4) on it
NEAR_LINE = [(2, 1, 1.0, 2.99), (2, 1, 1.0, 3.01), (2, 1, 1.0, 3.03), (3, 1, 1.0, 1.99),
             (3, 1, 1.0, 2.01), (3, 1, 1.0, 2.03), (4, 1, 1.0, 1.68), (4, 1, 1.0, 1.7),
             (3, 1, 2.0, 4.0)]


def test_regime_indicator_matches_prediction(contract_default, collapse_run,
                                             shrink_run):
    for trace, params in [(contract_default[0], cf.FlowParams(2, 1, 1.0, 4.0)),
                          (collapse_run, cf.FlowParams(2, 1, 1.0, 2.0)),
                          (shrink_run, cf.FlowParams(2, 1, 1.0, 3.0))]:
        predicted = cf.singular_time(params).regime
        assert cf.regime_indicator(trace) is predicted
        assert trace.regime is predicted
    # the verdict reads the last row, which every cadence samples at the stop time
    for args in NEAR_LINE:
        params = cf.FlowParams(*args)
        predicted = cf.singular_time(params).regime
        for cadence in (1, 10):
            trace = cf.run(params, grid=cf.RhoGrid(12.0, 513), monitors=cf.MonitorSet(cadence))
            assert cf.regime_indicator(trace) is predicted, (args, cadence)


def test_regime_indicator_needs_late_data():
    ctl = cf.StepControl(t_stop_fraction=0.5)
    trace = cf.run(cf.FlowParams(2, 1, 1.0, 4.0), ctl=ctl,
                   grid=cf.RhoGrid(12.0, 257))
    with pytest.raises(cf.DiagnosticsError):
        cf.regime_indicator(trace)


@pytest.mark.parametrize("rows, match", [
    (lambda rows: [*rows[:-1], rows[-1]._replace(a=math.nan)],
     r"last row's ends are not a class: need finite 0 < a0 < b0, got a0=nan"),
    (lambda rows: [], "trace has no rows"),
], ids=["ends-not-a-class", "no-rows"])
def test_regime_indicator_refuses_thin_traces(contract_1025, rows, match):
    trace = dataclasses.replace(contract_1025, rows=rows(contract_1025.rows))
    with pytest.raises(cf.DiagnosticsError, match=match):
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
