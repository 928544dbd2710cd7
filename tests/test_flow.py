"""Time integration: gauge invariance, class tracking, step control."""
import json
import math

import numpy as np
import pytest

import calabiflow as cf
from calabiflow import flow
from calabiflow.flow import dgtsv

THREE_LOG_TWO = 3.0 * math.log(2.0)
CONTRACT = cf.FlowParams(2, 1, 1.0, 4.0)
# admissible classes beyond the n = 2 presets that run to the stop time
SWEEP = [cf.FlowParams(3, 1, 1.0, 6.0), cf.FlowParams(4, 1, 1.0, 4.0),
         cf.FlowParams(2, 1, 0.2, 4.0), cf.FlowParams(2, 1, 1.0, 1.05)]


@pytest.fixture
def rejecting(monkeypatch):
    """Step control whose steps are long enough that two Newton iterations
    sometimes stall, with an error tolerance that some of them miss."""
    monkeypatch.setattr(flow, "DT_INIT", 1e-1)
    monkeypatch.setattr(flow, "NEWTON_MAX_ITER", 2)
    return cf.StepControl(tol_step=1e-7, t_stop_fraction=0.2)


def _tr_stage(u, dt, params, grid):
    """The TR stage of a step of size dt from t = 0, started from its
    explicit predictor: w - D dt f(w) = u + D dt f(u) at t = gamma dt."""
    ddt = flow._D * dt
    f = flow._velocity(*flow._second_diffs(u, grid.h), grid, params.n)
    return flow._solve_stage(u, u[1:-1] + ddt * f, ddt, grid,
                             cf.class_at(params, flow._GAMMA * dt), params.n,
                             params.k, flow._predictor(u, flow._GAMMA * dt, f))


def test_center_value_is_a_discrete_invariant(contract_default, contract_wide):
    """The log gauge freezes u(0, t) = 3 log 2 exactly, step by step."""
    for trace in (contract_default[0], contract_wide):
        p = trace.final_profile
        assert abs(float(p.u[p.grid.center]) - THREE_LOG_TWO) < 1e-12


def test_run_reports_exact_class_data(contract_default):
    trace, _ = contract_default
    assert trace.T == 1.0
    assert trace.regime is cf.Regime.CONTRACT
    assert trace.rows[-1].t == pytest.approx(0.999, abs=1e-12)
    for row in trace.rows:
        cls = cf.class_at(CONTRACT, row.t)
        assert abs(row.a - cls.a) < 1e-3
        assert abs(row.b - cls.b) < 1e-3


def test_checkpoint_schedule_is_dyadic(contract_default):
    trace, _ = contract_default
    expect = cf.checkpoint_times(1.0, 0.999, 10)
    assert [(c.t, c.j) for c in trace.checkpoints] == expect
    assert [c.j for c in trace.checkpoints] == list(range(1, 10))
    for c in trace.checkpoints:
        assert c.profile.t == c.t


def test_single_step_mechanics(contract_seed):
    ctl = cf.StepControl()
    state = cf.FlowState(profile=contract_seed, params=CONTRACT,
                         stats=cf.StepStats(flow.DT_INIT, flow.DT_INIT, 0, 0.0, 0.0, 0))
    out = cf.step(state, ctl)
    assert out.profile.t > 0.0
    assert out.stats.newton_iters <= 2 * flow.NEWTON_MAX_ITER
    assert out.stats.residual <= flow.TOL_NEWTON
    assert out.stats.dt_next <= flow.MAX_GROWTH * out.stats.dt
    c = out.profile.grid.center
    assert abs(float(out.profile.u[c]) - THREE_LOG_TWO) < 1e-13


def test_evolution_residuals_shrink_with_dt(contract_seed):
    resids = {}
    for dt in (1e-3, 1e-4):
        state = cf.FlowState(profile=contract_seed, params=CONTRACT,
                             stats=cf.StepStats(dt, dt, 0, 0.0, 0.0, 0))
        out = cf.step(state, cf.StepControl(), t_cap=state.t + dt)
        resids[dt] = cf.evolution_residuals(contract_seed, out.profile, out.stats.dt)
    # the residual behaves like A dt + eps/dt: the time-error part decays
    # until the spatial-stencil floor (divided by dt) takes over, which
    # happens first in the highest derivative
    for key in ("du", "d2u"):
        assert resids[1e-4][key] < resids[1e-3][key]
    for key in ("du", "d2u", "d3u"):
        assert resids[1e-3][key] < 5e-4
        assert resids[1e-4][key] < 5e-4


def test_step_cap_is_respected(contract_seed):
    state = cf.FlowState(profile=contract_seed, params=CONTRACT,
                         stats=cf.StepStats(1e-3, 1e-3, 0, 0.0, 0.0, 0))
    out = cf.step(state, cf.StepControl(), t_cap=2.5e-4)
    assert out.profile.t == pytest.approx(2.5e-4, rel=1e-12)


def test_failed_run_keeps_partial_trace(tmp_path, monkeypatch):
    """A FlowError still leaves the rows sampled so far and a summary that
    names the error; u'' never clears a floor of 1 on this seed."""
    monkeypatch.setattr(flow, "FLOOR_U2", 1.0)
    with pytest.raises(cf.FlowError) as info:
        cf.run(CONTRACT, grid=cf.RhoGrid(12.0, 257), out_dir=tmp_path)
    rows = info.value.trace.rows
    assert len(rows) >= 1
    cols = cf.read_trace(tmp_path / "trace.csv")
    assert np.array_equal(cols["t"], [r.t for r in rows])
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["num_rows"] == len(rows)
    assert summary["error"] == str(info.value)
    assert {"steps", "retries", "newton_iters"} <= set(summary)
    assert f"error: {info.value}" in (tmp_path / "run.log").read_text()


def test_failed_step_logs_its_rejected_attempts(tmp_path, monkeypatch):
    """One Newton iteration never meets TOL_NEWTON = 0, so the first step
    halves dt from 1e-6 until it falls below DT_MIN: 24 rejected attempts,
    each logged before the error and counted as retries."""
    monkeypatch.setattr(flow, "NEWTON_MAX_ITER", 1)
    monkeypatch.setattr(flow, "TOL_NEWTON", 0.0)
    with pytest.raises(cf.FlowError, match="step size underflow at t=0 ") as info:
        cf.run(CONTRACT, grid=cf.RhoGrid(12.0, 257), out_dir=tmp_path)
    assert len(info.value.rejected) == 24
    assert info.value.trace.steps == 0
    assert info.value.trace.retries == 24
    lines = (tmp_path / "run.log").read_text().splitlines()
    assert len(lines) == 25
    for line, entry in zip(lines, info.value.rejected):
        assert line == f"reject {entry}"
        assert "Newton stalled after 1 iterations" in line
    assert lines[-1] == f"error: {info.value}"
    with open(tmp_path / "summary.json") as fh:
        assert json.load(fh)["retries"] == 24


def test_inadmissible_seed_is_refused_before_any_attempt(tmp_path):
    """A dent that makes u'' < 0 away from the center is refused when the
    first step starts, with no attempt made."""
    seed = cf.build_canonical_profile(cf.KahlerClass(1.0, 4.0), cf.RhoGrid(12.0, 1025))
    rho = seed.grid.nodes
    u = seed.u - 0.05 * np.exp(-(((rho - 4.0) / 0.3) ** 2))
    d2 = np.diff(u, 2)
    assert np.any(d2 <= 0.0) and d2[seed.grid.center - 1] > 0.0
    dented = cf.profile_from_samples(u, seed.grid, seed.cls, 0.0, 2)
    with pytest.raises(cf.FlowError, match="profile inadmissible at t=0:") as info:
        cf.run(CONTRACT, seed_profile=dented, out_dir=tmp_path)
    trace = info.value.trace
    assert trace.steps == 0 and trace.retries == 0
    assert (tmp_path / "run.log").read_text() == f"error: {info.value}\n"


def test_restart_from_checkpoint(contract_default):
    """A run seeded from its own checkpoint continues the same flow."""
    trace, _ = contract_default
    mid = next(c.profile for c in trace.checkpoints if c.j == 1)
    ctl = cf.StepControl(t_stop_fraction=0.75)
    cont = cf.run(CONTRACT, ctl=ctl, grid=mid.grid, seed_profile=mid)
    assert cont.rows[0].t == 0.5
    assert cont.rows[-1].t == pytest.approx(0.75, abs=1e-12)
    p = cont.final_profile
    assert abs(float(p.u[p.grid.center]) - THREE_LOG_TWO) < 1e-12


def test_mismatched_seed_class_is_rejected(collapse_run):
    wrong = next(c.profile for c in collapse_run.checkpoints if c.j == 1)
    with pytest.raises(cf.FlowError):
        cf.run(CONTRACT, grid=wrong.grid, seed_profile=wrong)


def test_convexity_floor_aborts(contract_seed, monkeypatch):
    monkeypatch.setattr(flow, "FLOOR_U2", 1.0)
    with pytest.raises(cf.FlowError):
        cf.run(CONTRACT, grid=contract_seed.grid)


@pytest.mark.parametrize("dt", [1e-5, 1e-3, 5e-3])
def test_stage_solves_the_gauged_equation(contract_seed, dt):
    """The TR stage, solved without the gauge and then shifted, satisfies
    the gauged equation: interior rows with c from the center differences
    of each side's profile, plus both closure rows.  The center value does
    not move at all."""
    grid = contract_seed.grid
    u_prev = contract_seed.u
    w, _, _ = _tr_stage(u_prev, dt, CONTRACT, grid)

    n, k, h, c = 2, 1, grid.h, grid.center
    cls = cf.class_at(CONTRACT, flow._GAMMA * dt)

    def gauged_velocity(v):
        d1 = (v[2:] - v[:-2]) / (2.0 * h)
        d2 = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h**2
        ct = -math.log(d2[c - 1]) - (n - 1) * math.log(d1[c - 1])
        return np.log(d2) + (n - 1) * np.log(d1) - n * grid.nodes[1:-1] + ct

    ddt = flow._D * dt
    efac = math.expm1(k * h)
    residual = np.concatenate([
        [(w[0] - 2.0 * w[1] + w[2]) - efac * ((w[1] - w[0]) - cls.a * h)],
        w[1:-1] - u_prev[1:-1] - ddt * (gauged_velocity(w) + gauged_velocity(u_prev)),
        [(w[-3] - 2.0 * w[-2] + w[-1]) + efac * ((w[-1] - w[-2]) - cls.b * h)],
    ])
    assert float(np.max(np.abs(residual))) <= 1e-8
    assert w[c] == u_prev[c]


def test_run_log_reports_retries_and_error(contract_default):
    """Every accepted step names its rejected attempts and its error
    estimate.  Between t = 0.01 and 0.8 the error estimate alone sets the
    steps that do not land on a checkpoint, so none of them is far below
    tol_step."""
    _, out = contract_default
    tol = cf.StepControl().tol_step
    events = [tj for tj, _ in cf.checkpoint_times(1.0, 0.999, 10)]
    lines = [ln for ln in (out / "run.log").read_text().splitlines()
             if ln.startswith("t=")]
    assert lines
    for line in lines:
        fields = dict(item.split("=", 1) for item in line.split())
        assert set(fields) == {"t", "dt", "iters", "res", "retries", "err"}
        assert int(fields["retries"]) >= 0
        err, t = float(fields["err"]), float(fields["t"])
        assert 0.0 <= err <= tol
        on_event = any(abs(t - tj) <= 1e-11 for tj in events)
        if 0.01 <= t <= 0.8 and not on_event:
            assert err >= 0.1 * tol, line


@pytest.mark.parametrize("params", [CONTRACT, *SWEEP[:2]], ids=["n2", "n3", "n4"])
@pytest.mark.parametrize("dt", [1e-5, 1e-3, 5e-3])
def test_newton_converges_quadratically(params, dt):
    """From the explicit predictor, Newton on the eliminated tridiagonal
    system of the TR stage meets TOL_NEWTON within three iterations; a
    Jacobian that is wrong but still convergent converges only linearly and
    needs more."""
    seed = cf.build_canonical_profile(cf.class_at(params, 0.0), cf.RhoGrid(12.0, 1025),
                                      params.n, params.k)
    _, iters, _ = _tr_stage(seed.u, dt, params, seed.grid)
    assert iters <= 3


def test_step_is_second_order():
    """Fixed steps to t = 0.064: each halving of dt cuts the error against
    a dt = 2.5e-4 reference by at least 3.5 (4 at second order, 2 at
    first).  Each step lands on the event t + dt; at tol_step = 1 the
    proposal never falls short of it."""
    seed = cf.build_canonical_profile(cf.KahlerClass(1.0, 4.0), cf.RhoGrid(12.0, 257))
    ctl = cf.StepControl(tol_step=1.0)

    def final_u(dt):
        state = cf.FlowState(profile=seed, params=CONTRACT,
                             stats=cf.StepStats(dt, dt, 0, 0.0, 0.0, 0))
        for _ in range(round(0.064 / dt)):
            state = cf.step(state, ctl, t_cap=state.t + dt)
            assert state.stats.retries == 0
            assert state.stats.dt == pytest.approx(dt, rel=1e-9)
        assert state.t == pytest.approx(0.064, rel=1e-12)
        return state.u

    ref = final_u(2.5e-4)
    errs = [float(np.max(np.abs(final_u(dt) - ref))) for dt in (8e-3, 4e-3, 2e-3)]
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine >= 3.5


def test_scorecard_converged_under_tolerance_refinement(contract_wide, wide_report):
    """At tol_step = 1e-8, a hundredth of the default, the contract preset
    on the acceptance grid takes 100^(1/3) times the steps (within 20 %),
    as the cube-root step rule of an error-controlled second-order step
    gives, and criterion 9's C^1 distances and j4/j9 ratio stay where they
    were."""
    tight = cf.run(CONTRACT, ctl=cf.StepControl(tol_step=1e-8),
                   grid=cf.RhoGrid(16.0, 2731))
    growth = 100.0 ** (1.0 / 3.0)
    assert 0.8 * growth <= tight.steps / contract_wide.steps <= 1.2 * growth
    report = cf.blowup_report(list(tight.checkpoints), T=1.0, n=2, k=1)
    assert [r.j for r in report.rows] == [r.j for r in wide_report.rows]
    for a, b in zip(report.rows[1:], wide_report.rows[1:]):
        assert abs(a.selfsim_prev - b.selfsim_prev) <= 5e-4
    ratio = report.rows[0].soliton_rms / report.rows[-1].soliton_rms
    wide_ratio = wide_report.rows[0].soliton_rms / wide_report.rows[-1].soliton_rms
    assert ratio == pytest.approx(wide_ratio, rel=0.03)


def test_run_log_names_each_rejected_attempt(tmp_path, rejecting):
    """Rejected attempts, from stalled Newton solves and from the error
    estimate, each get a reject line before the step that follows them."""
    cf.run(CONTRACT, ctl=rejecting, grid=cf.RhoGrid(12.0, 257), out_dir=tmp_path)
    lines = (tmp_path / "run.log").read_text().splitlines()
    pending = []
    reasons = set()
    for line in lines:
        if line.startswith("reject "):
            pending.append(line)
            reasons.add("stalled" if "Newton stalled" in line else
                        "err" if "> tol" in line else line)
            continue
        assert line.startswith("t=")
        fields = dict(item.split("=", 1) for item in line.split())
        assert int(fields["retries"]) == len(pending)
        pending = []
    assert not pending
    assert reasons == {"stalled", "err"}


def test_summary_counts_match_run_log(tmp_path, rejecting):
    """summary.json counts the accepted steps, rejected attempts and
    Newton iterations that run.log lists."""
    cf.run(CONTRACT, ctl=rejecting, grid=cf.RhoGrid(12.0, 257), out_dir=tmp_path)
    lines = (tmp_path / "run.log").read_text().splitlines()
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    steps = [ln for ln in lines if ln.startswith("t=")]
    assert summary["steps"] == len(steps)
    assert summary["retries"] == sum(ln.startswith("reject ") for ln in lines)
    assert summary["retries"] > 0
    iters = sum(int(dict(item.split("=", 1) for item in ln.split())["iters"])
                for ln in steps)
    assert summary["newton_iters"] == iters


@pytest.mark.parametrize("params", [CONTRACT, *SWEEP[:2]], ids=["n2", "n3", "n4"])
@pytest.mark.parametrize("dt", [1e-3, 5e-3])
def test_contraction_stop_saves_the_confirming_solve(params, dt, monkeypatch):
    """From the predictor, the contraction estimate ends the TR stage after
    two linear solves, within 1e-10 of the stage solved to
    TOL_NEWTON = 1e-13."""
    seed = cf.build_canonical_profile(cf.class_at(params, 0.0), cf.RhoGrid(12.0, 1025),
                                      params.n, params.k)
    solves = []

    def counting_dgtsv(*args, **kwargs):
        solves.append(dt)
        return dgtsv(*args, **kwargs)

    monkeypatch.setattr(flow, "dgtsv", counting_dgtsv)
    w, _, _ = _tr_stage(seed.u, dt, params, seed.grid)
    assert len(solves) <= 2
    monkeypatch.setattr(flow, "TOL_NEWTON", 1e-13)
    tight, _, _ = _tr_stage(seed.u, dt, params, seed.grid)
    assert float(np.max(np.abs(w - tight))) <= 1e-10


def test_profiles_are_built_only_where_read(monkeypatch):
    """A run builds one profile per row sampled after the seed.  Stepping
    reads the samples alone, so the monitor cadence, which decides which
    profiles get built, leaves the checkpoints and the final samples
    bitwise unchanged; each checkpoint profile is the rebuild of its own
    samples."""
    grid = cf.RhoGrid(12.0, 257)
    dense = cf.run(CONTRACT, grid=grid, monitors=cf.MonitorSet(cadence=1))
    builds = []

    def counting_rebuild(*args, **kwargs):
        builds.append(args[3])
        return cf.profile_from_samples(*args, **kwargs)

    monkeypatch.setattr(flow, "profile_from_samples", counting_rebuild)
    sparse = cf.run(CONTRACT, grid=grid, monitors=cf.MonitorSet(cadence=10))
    assert builds == [r.t for r in sparse.rows[1:]]
    assert len(dense.rows) > len(sparse.rows)
    assert [c.j for c in dense.checkpoints] == [c.j for c in sparse.checkpoints]
    for a, b in zip(dense.checkpoints, sparse.checkpoints):
        assert np.array_equal(a.profile.u, b.profile.u)
    assert np.array_equal(dense.final_profile.u, sparse.final_profile.u)
    for c in sparse.checkpoints:
        p = c.profile
        ref = cf.profile_from_samples(p.u, p.grid, p.cls, p.t, p.n, p.k)
        for name in ("du", "d2u", "d3u", "d4u"):
            assert np.array_equal(getattr(p, name), getattr(ref, name)), name


@pytest.mark.parametrize("params", SWEEP, ids=lambda p: f"{p.n}-{p.k}-{p.a0}-{p.b0}")
def test_parameter_sweep_reaches_stop_time(params):
    """Classes with n = 3, 4, a small a0 and a thin gap b0 - a0 run to the
    stop time, and the volume decay classifies the predicted regime.

    In the contraction regime the blow-up report over j <= 6 sends the
    divisor to n - k and its soliton rms and C^1 distances fall.  At
    L = 12 the magnified left grid end passes a_hat + 0.1 at j = 7, and
    the full report refuses that level instead of clipping its window."""
    ctl = cf.StepControl()
    trace = cf.run(params, ctl=ctl, grid=cf.RhoGrid(12.0, 513))
    info = cf.singular_time(params)
    assert trace.rows[-1].t == pytest.approx(ctl.t_stop_fraction * info.T, rel=1e-12)
    assert cf.regime_indicator(trace) is info.regime
    if info.regime is not cf.Regime.CONTRACT:
        return
    n, k = params.n, params.k
    with pytest.raises(cf.BlowupError,
                       match=r"level j=7: comparison window: .* outside sampled domain"):
        cf.blowup_report(list(trace.checkpoints), T=info.T, n=n, k=k)
    report = cf.blowup_report([c for c in trace.checkpoints if c.j <= 6],
                              T=info.T, n=n, k=k)
    assert [r.j for r in report.rows] == [4, 5, 6]
    for r in report.rows:
        assert r.a_hat == pytest.approx(n - k, abs=1e-12)
    rms = [r.soliton_rms for r in report.rows]
    assert rms[0] > rms[1] > rms[2]
    assert report.rows[1].selfsim_prev > report.rows[2].selfsim_prev
