"""Time integration: gauge invariance, class tracking, step control."""
import json
import math
import re
import sys

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
    """The TR stage of a step of size dt from t = 0, started from u as step()
    starts it: w - D dt f(w) = u + D dt f(u) at t = gamma dt."""
    ddt = flow._D * dt
    diffs = flow._second_diffs(u, grid.h)
    f = flow._velocity(*diffs, grid, params.n)
    return flow._solve_stage(u, diffs, u[grid.center], u[1:-1] + ddt * f, ddt, grid,
                             cf.class_at(params, flow._GAMMA * dt), params.n, params.k)


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


def test_evolution_residuals_need_one_grid(contract_seed):
    other = cf.build_canonical_profile(contract_seed.cls, cf.RhoGrid(12.0, 513))
    with pytest.raises(ValueError, match="profiles on different grids"):
        cf.evolution_residuals(contract_seed, other, 1e-3)


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


@pytest.mark.parametrize("fails", [False, True])
def test_summary_phase_seconds_split_elapsed(tmp_path, monkeypatch, fails):
    """summary.json times the steps, monitor rows, checkpoints and trace
    export of a run, a failed one too; the phases are non-negative and sum
    to at most elapsed_seconds."""
    if fails:
        monkeypatch.setattr(flow, "FLOOR_U2", 1.0)
    try:
        trace = cf.run(CONTRACT, grid=cf.RhoGrid(12.0, 257), out_dir=tmp_path)
    except cf.FlowError as exc:
        assert fails
        trace = exc.trace
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    for phases, elapsed in ((trace.phase_seconds, trace.elapsed),
                            (summary["phase_seconds"], summary["elapsed_seconds"])):
        assert set(phases) == {"step", "monitors", "checkpoints", "export"}
        assert min(phases.values()) >= 0.0
        assert sum(phases.values()) <= elapsed + 1e-12
    assert trace.phase_seconds["step"] > 0.0 and trace.phase_seconds["monitors"] > 0.0
    assert (trace.phase_seconds["checkpoints"] > 0.0) == (not fails)


def test_failed_seed_row_opens_no_log(tmp_path, monkeypatch):
    """run.log is opened after the seed's monitor row, inside the block that
    closes it, so an error from that row leaves no open file behind."""
    def broken_row(*args, **kwargs):
        raise ZeroDivisionError("monitor")

    monkeypatch.setattr(cf.diagnostics, "sample_row", broken_row)
    with pytest.raises(ZeroDivisionError):
        cf.run(CONTRACT, grid=cf.RhoGrid(12.0, 257), out_dir=tmp_path)
    assert not (tmp_path / "run.log").exists()


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


@pytest.mark.parametrize("name, fake, reason", [
    ("dgtsv", lambda dl, d, du, b, **_: (dl, d, du, b, 2),
     "tridiagonal solve failed: info=2"),
    ("dgtsv", lambda dl, d, du, b, **_: (dl, d, du, np.full_like(b, np.nan), 0),
     "nonfinite tridiagonal solution"),
    ("closure_rows", lambda *_: (math.nan, 0.0), "nonfinite residual"),
], ids=["dgtsv-info", "nonfinite-solution", "nonfinite-residual"])
def test_solver_refusals_are_logged_rejected_attempts(tmp_path, monkeypatch, name, fake,
                                                      reason):
    """A failed tridiagonal solve, a non-finite solution and a non-finite
    Newton residual, forced here on every attempt, each reject the attempt
    with its reason: the first step halves dt from 1e-6 below DT_MIN, and
    FlowError.rejected and run.log list the 24 attempts."""
    monkeypatch.setattr(flow, name, fake)
    with pytest.raises(cf.FlowError,
                       match=re.escape(f"step size underflow at t=0 ({reason})")) as info:
        cf.run(CONTRACT, grid=cf.RhoGrid(12.0, 257), out_dir=tmp_path)
    rejected = info.value.rejected
    assert len(rejected) == 24
    assert all(entry.endswith(f" {reason}") for entry in rejected)
    lines = (tmp_path / "run.log").read_text().splitlines()
    assert lines == [f"reject {entry}" for entry in rejected] + [f"error: {info.value}"]


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


def _dented_seed():
    """The contract seed at (12, 1025) with a dent that makes u'' < 0 at
    40 nodes right of the center."""
    seed = cf.build_canonical_profile(cf.KahlerClass(1.0, 4.0), cf.RhoGrid(12.0, 1025))
    rho = seed.grid.nodes
    u = seed.u - 0.05 * np.exp(-(((rho - 4.0) / 0.3) ** 2))
    return cf.profile_from_samples(u, seed.grid, seed.cls, 0.0, 2)


@pytest.mark.parametrize("seed, count", [
    (lambda: cf.build_canonical_profile(cf.KahlerClass(1.0, 4.0), cf.RhoGrid(25.0, 2049)),
     71),
    (_dented_seed, 40),
], ids=["L=25", "dented"])
def test_validate_and_step_refuse_the_same_nodes(seed, count):
    """validate_profile applies the stepper's rule: its convexity violation
    counts the nodes that step's refusal counts."""
    p = seed()
    violations = {v.invariant: v for v in cf.validate_profile(p).violations}
    assert f" at {count} node(s), " in violations["convexity"].detail
    with pytest.raises(cf.FlowError, match=rf"inadmissible at t=0: .* at {count} node\(s\)"):
        cf.step(cf.FlowState(profile=p, params=CONTRACT), cf.StepControl())


@pytest.mark.parametrize("flow_run", [
    lambda request: request.getfixturevalue("contract_default")[0],
    lambda request: request.getfixturevalue("contract_1025"),
    lambda request: request.getfixturevalue("contract_wide"),
    lambda request: cf.run(CONTRACT, grid=cf.RhoGrid(12.0, 513)),
], ids=["12-2049", "12-1025", "16-2731", "12-513"])
def test_validate_passes_every_checkpoint_step_starts_from(request, flow_run):
    """Every dyadic checkpoint of the contract preset is admissible to
    validate_profile and to step, on each grid: the verdict does not follow
    the boundary tail fit."""
    trace = flow_run(request)
    assert [c.j for c in trace.checkpoints] == list(range(1, 10))
    for c in trace.checkpoints:
        assert cf.validate_profile(c.profile).ok, c.j
        state = cf.step(cf.FlowState(profile=c.profile, params=CONTRACT), cf.StepControl())
        assert state.t > c.t


def test_inadmissible_stage_solution_is_a_rejected_attempt(contract_seed, monkeypatch):
    """A stage solution that fails the rule after its gauge shift, forced
    here once, is rejected like a failed solve and the step retries."""
    solve, valid = flow._solve_stage, flow._valid
    solutions = []

    def recording_solve(*args):
        out = solve(*args)
        solutions.append(out[0])
        return out

    def refuse_first_solution(w, h):
        return None if len(solutions) == 2 and w is solutions[1] else valid(w, h)

    monkeypatch.setattr(flow, "_solve_stage", recording_solve)
    monkeypatch.setattr(flow, "_valid", refuse_first_solution)
    out = cf.step(cf.FlowState(profile=contract_seed, params=CONTRACT), cf.StepControl())
    assert out.stats.rejected == ("dt=1e-06 stage solution inadmissible after the gauge shift",)
    assert out.stats.dt == 5e-7 and len(solutions) == 4


def _contract_seed_at(t, N=257):
    """The canonical profile of the contract class at time t, stamped t."""
    p = cf.build_canonical_profile(cf.class_at(CONTRACT, t), cf.RhoGrid(12.0, N))
    return cf.profile_from_samples(p.u, p.grid, p.cls, t, 2)


def _with_nan_sample(t):
    p = _contract_seed_at(t)
    u = p.u.copy()
    u[p.grid.center // 2] = np.nan
    return cf.profile_from_samples(u, p.grid, p.cls, t, 2)


@pytest.mark.parametrize("seed, t_cap, match", [
    (lambda: _contract_seed_at(0.999), None, "already beyond the stop time"),
    (lambda: _contract_seed_at(0.9995), None, "already beyond the stop time"),
    (lambda: _contract_seed_at(0.5), 0.5, "event time 0.5 not ahead of t=0.5"),
    (lambda: _contract_seed_at(0.5), 0.25, "event time 0.25 not ahead of t=0.5"),
    (lambda: _with_nan_sample(0.0), None, "profile inadmissible at t=0: .* 3 node"),
], ids=["at-stop", "past-stop", "cap-at-t", "cap-behind-t", "nan-sample"])
def test_step_refuses_before_any_attempt(seed, t_cap, match):
    """A state at or past the stop time, an event time not ahead of t and
    a non-finite sample each end the step with no attempt made."""
    state = cf.FlowState(profile=seed(), params=CONTRACT)
    with pytest.raises(cf.FlowError, match=match) as info:
        cf.step(state, cf.StepControl(), t_cap=t_cap)
    assert info.value.rejected == ()


@pytest.mark.parametrize("t", [0.999, 0.9995])
def test_seed_at_or_past_the_stop_time_is_refused(t):
    with pytest.raises(cf.FlowError, match="past the stop time"):
        cf.run(CONTRACT, seed_profile=_contract_seed_at(t))


def test_step_size_underflow_is_never_accepted():
    """At tol_step = 1e-300 no attempt meets the tolerance: the first step
    cuts dt from DT_INIT by 0.2 per rejection, 11 times, until it falls
    below DT_MIN, and then fails instead of accepting an attempt whose
    error estimate exceeds tol_step."""
    state = cf.FlowState(profile=_contract_seed_at(0.0, N=513), params=CONTRACT)
    with pytest.raises(cf.FlowError,
                       match=r"step size underflow at t=0 \(err=\S+ > tol\)") as info:
        cf.step(state, cf.StepControl(tol_step=1e-300))
    rejected = info.value.rejected
    assert len(rejected) == 11
    assert all(entry.endswith(" > tol") for entry in rejected)
    assert float(rejected[-1].split()[0].removeprefix("dt=")) < 2.0 * flow.DT_MIN


def test_newton_safety_paths_end_in_a_diagnosis(tmp_path, monkeypatch):
    """(3, 1, 1, 2) at (12, 513) loses discrete convexity near T: its Newton
    iterates leave the admissible cone, so updates are damped, the BDF2
    stage falls back from its extrapolated start to u_n, and some attempts
    exhaust the damping.  The run reaches the stop time or fails with a
    FlowError that names its cause and carries the partial trace."""
    params = cf.FlowParams(3, 1, 1.0, 2.0)
    valid = flow._valid
    refused = {"step": 0, "_solve_stage": 0}

    def recording_valid(w, h):
        diffs = valid(w, h)
        if diffs is None:
            refused[sys._getframe(1).f_code.co_name] += 1
        return diffs

    monkeypatch.setattr(flow, "_valid", recording_valid)
    ctl = cf.StepControl()
    try:
        trace = cf.run(params, ctl=ctl, grid=cf.RhoGrid(12.0, 513), out_dir=tmp_path)
    except cf.FlowError as exc:
        assert re.fullmatch(r"profile (inadmissible at t=\S+: .+|degenerate: (step size "
                            r"underflow at t=\S+ \(.+\)|u'' at floor after .+))",
                            str(exc))
        trace = exc.trace
        assert trace.error == str(exc)
        assert trace.steps > 0 and len(trace.rows) > 1
        assert trace.rows[-1].t < ctl.t_stop_fraction * trace.T
    else:
        assert trace.rows[-1].t == pytest.approx(ctl.t_stop_fraction * trace.T, rel=1e-12)
    assert refused["step"] > 0 and refused["_solve_stage"] > 0
    assert "damping exhausted" in (tmp_path / "run.log").read_text()


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
    """From u_n, Newton on the eliminated tridiagonal system of the TR
    stage meets TOL_NEWTON within three iterations; a Jacobian that is
    wrong but still convergent converges only linearly and needs more."""
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
    """From u_n, the contraction estimate ends the TR stage after two
    linear solves, within 1e-10 of the stage solved to
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
