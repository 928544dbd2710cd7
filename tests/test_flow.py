"""Time integration: gauge invariance, class tracking, step control."""
import json
import math
import re
import sys

import numpy as np
import pytest

import calabiflow as cf
from calabiflow import flow, profile
from calabiflow.flow import dgtsv

THREE_LOG_TWO = 3.0 * math.log(2.0)
CONTRACT = cf.FlowParams(2, 1, 1.0, 4.0)
# admissible classes beyond the n = 2 presets that run to the stop time
SWEEP = [cf.FlowParams(3, 1, 1.0, 6.0), cf.FlowParams(4, 1, 1.0, 4.0),
         cf.FlowParams(2, 1, 0.2, 4.0), cf.FlowParams(2, 1, 1.0, 1.05)]
# the first attempt of a run of the contract preset from t = 0
FIRST_DT = flow.DT_INIT * cf.singular_time(CONTRACT).T


def _cuts_to_underflow(factor):
    """The attempts a first step rejects when each one cuts dt by factor,
    from FIRST_DT until dt falls below DT_MIN: the least m with
    FIRST_DT factor^m < DT_MIN."""
    return math.floor(math.log(FIRST_DT / flow.DT_MIN) / -math.log(factor)) + 1


@pytest.fixture
def rejecting(monkeypatch):
    """Step control whose steps are long enough that two Newton iterations
    sometimes stall, with an error tolerance that some of them miss."""
    monkeypatch.setattr(flow, "DT_INIT", 1e-1)
    monkeypatch.setattr(flow, "NEWTON_MAX_ITER", 2)
    return cf.StepControl(tol_step=1e-7, t_stop_fraction=0.2)


def _evolution_residuals(p_prev, p_next, dt):
    """Sup-norm defects of the differentiated flow equations over one step.

    Compares finite time differences of u', u'', u''' against the
    trapezoidal average of their analytic evolution laws, e.g.
    d(u')/dt = u'''/u'' + (n-1) u''/u' - n.  Restricted to nodes away from
    both tails (raw stencils are exact there); the fifth derivative needed
    for the u''' law is obtained by differencing d4u.  The profiles share
    grid, n and k, and dt > 0.
    """
    n = p_prev.n
    h = p_prev.grid.h
    N = p_prev.grid.N
    lo, hi = 4, N - 4

    def pieces(p):
        du, d2u, d3u, d4u = p.du, p.d2u, p.d3u, p.d4u
        r1 = d3u / d2u + (n - 1) * d2u / du - n
        r2 = (d4u / d2u - (d3u / d2u) ** 2
              + (n - 1) * (d3u / du - (d2u / du) ** 2))
        radius, coeffs = profile._STENCILS[1]
        d5_mid = np.convolve(d4u, coeffs[::-1], mode="valid") / h
        d5 = np.full(N, np.nan)
        d5[radius:N - radius] = d5_mid
        r3 = (d5 / d2u - 3.0 * d3u * d4u / d2u**2 + 2.0 * d3u**3 / d2u**3
              + (n - 1) * (d4u / du - 3.0 * d2u * d3u / du**2
                           + 2.0 * d2u**3 / du**3))
        return r1, r2, r3

    prev_r = pieces(p_prev)
    next_r = pieces(p_next)
    # stay in the transition region: raw high-order stencils are only
    # noise-free there, and that is where the dynamics happen anyway
    krho = p_prev.k * p_prev.grid.nodes
    band = np.abs(krho[lo:hi]) <= 2.0
    interior = slice(lo, hi)
    out = {}
    for name, get_prev, get_next, arr_prev, arr_next in (
        ("du", p_prev.du, p_next.du, prev_r[0], next_r[0]),
        ("d2u", p_prev.d2u, p_next.d2u, prev_r[1], next_r[1]),
        ("d3u", p_prev.d3u, p_next.d3u, prev_r[2], next_r[2]),
    ):
        lhs = (get_next[interior] - get_prev[interior]) / dt
        rhs_avg = 0.5 * (arr_prev[interior] + arr_next[interior])
        defect = np.abs(lhs - rhs_avg)[band]
        out[name] = float(np.nanmax(defect))
    return out


def _tr_stage(u, dt, params, grid):
    """The TR stage of a step of size dt from t = 0, started from u as step()
    starts it from a state without history: w - D dt f(w) = u + D dt f(u)
    at t = gamma dt, with no contraction measured."""
    ddt = flow._D * dt
    ws = flow._Workspace(grid, params.n, params.k)
    diffs = flow._second_diffs(u)
    rhs = u[1:-1] + ddt * flow._velocity(diffs, params.n, ws.offset)
    cls = cf.class_at(params, flow._GAMMA * dt)
    return flow._solve_stage(u, diffs, u[grid.center], rhs, rhs - ddt * ws.offset, ddt,
                             cls.a, cls.b, flow._UNMEASURED, ws)


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


def test_checkpoint_times_stop_at_the_stop_time():
    """Levels past the stop time are never formed, so a count of 10**12
    gives the nine levels of a count of 10, at once."""
    expect = cf.checkpoint_times(1.0, 0.999, 10)
    assert [j for _, j in expect] == list(range(1, 10))
    assert cf.checkpoint_times(1.0, 0.999, 10**12) == expect


def test_single_step_mechanics(contract_seed):
    ctl = cf.StepControl()
    state = cf.FlowState(contract_seed.u, contract_seed.t, contract_seed.grid, CONTRACT,
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
        state = cf.FlowState(contract_seed.u, contract_seed.t, contract_seed.grid, CONTRACT,
                             stats=cf.StepStats(dt, dt, 0, 0.0, 0.0, 0))
        out = cf.step(state, cf.StepControl(), t_cap=state.t + dt)
        resids[dt] = _evolution_residuals(contract_seed, out.profile, out.stats.dt)
    # the residual behaves like A dt + eps/dt: the time-error part decays
    # until the spatial-stencil floor (divided by dt) takes over, which
    # happens first in the highest derivative
    for key in ("du", "d2u"):
        assert resids[1e-4][key] < resids[1e-3][key]
    for key in ("du", "d2u", "d3u"):
        assert resids[1e-3][key] < 5e-4
        assert resids[1e-4][key] < 5e-4


def test_step_cap_is_respected(contract_seed):
    state = cf.FlowState(contract_seed.u, contract_seed.t, contract_seed.grid, CONTRACT,
                         stats=cf.StepStats(1e-3, 1e-3, 0, 0.0, 0.0, 0))
    out = cf.step(state, cf.StepControl(), t_cap=2.5e-4)
    assert out.profile.t == pytest.approx(2.5e-4, rel=1e-12)


def test_numpy_event_time_steps_as_a_python_float():
    """A float32 event time is taken as the Python float it equals: the
    contract seed at (12, 513) reaches t = 0.5 in the same 18 steps, with
    no retry, as with t_cap = 0.5, every time a Python float.  Kept as a
    float32, t_cap would pull dt and t to float32 resolution near it."""
    seed = _contract_seed_at(0.0, N=513)
    runs = []
    for t_cap in (0.5, np.float32(0.5)):
        state = cf.FlowState(seed.u, seed.t, seed.grid, CONTRACT)
        steps = retries = 0
        while state.t < 0.5:
            state = cf.step(state, cf.StepControl(), t_cap=t_cap)
            steps, retries = steps + 1, retries + state.stats.retries
            assert type(state.t) is float
        runs.append((state.t, steps, retries, state.u.tobytes()))
    assert runs[0][:3] == (0.5, 18, 0) and runs[1] == runs[0]


def test_step_without_a_cap_lands_on_the_stop_time():
    """The stop time is step()'s default event: steps without t_cap, or
    with t_cap = inf, never pass it, the last one lands on it exactly, and
    no further step starts."""
    ctl = cf.StepControl(t_stop_fraction=0.3)
    t_stop = ctl.t_stop_fraction * cf.singular_time(CONTRACT).T
    seed = _contract_seed_at(0.0)
    for t_cap in (None, math.inf):
        state = cf.FlowState(seed.u, seed.t, seed.grid, CONTRACT)
        while state.t < t_stop:
            state = cf.step(state, ctl, t_cap=t_cap)
            assert state.t <= t_stop
        assert state.t == t_stop
        with pytest.raises(cf.FlowError, match="already beyond the stop time"):
            cf.step(state, ctl, t_cap=t_cap)


def test_nan_event_time_is_refused():
    """A NaN t_cap is refused by name before any attempt: min(nan, t_stop)
    is nan, which neither the landing nor the halving test matches, so its
    steps would pass the stop time (t = 0.3293 > 0.3 T after 12 steps)."""
    seed = _contract_seed_at(0.0)
    state = cf.FlowState(seed.u, seed.t, seed.grid, CONTRACT)
    with pytest.raises(cf.ProfileError, match="t_cap=nan"):
        cf.step(state, cf.StepControl(t_stop_fraction=0.3), t_cap=math.nan)


def test_collapse_takes_one_step_per_late_level(tmp_path):
    """With no cap but the events and the error estimate, the collapse
    preset at (12, 513) crosses each dyadic level from t = 0.96875 T on,
    and the last one before the stop time, in one accepted step."""
    params = cf.FlowParams(2, 1, 1.0, 2.0)
    trace = cf.run(params, grid=cf.RhoGrid(12.0, 513), out_dir=tmp_path)
    times = [float(ln.split()[0].removeprefix("t=")) for ln in
             (tmp_path / "run.log").read_text().splitlines() if ln.startswith("t=")]
    levels = [c.t for c in trace.checkpoints if c.j >= 5] + [0.999 * trace.T]
    assert levels[0] == 0.96875 * trace.T and len(levels) == 6
    for start, end in zip(levels, levels[1:]):
        assert [t for t in times if start < t <= end] == [end]


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


def test_failed_checkpoint_write_keeps_partial_trace(tmp_path):
    """A checkpoint that cannot be written stops the run as a failed step
    does: with a directory in the way of checkpoint_j01.json, run() raises
    ProfileError with the trace attached, after writing the rows so far,
    a summary that names the error and run.log's error line.  The write's
    time counts as checkpoints, and the summary lists no checkpoint."""
    (tmp_path / "checkpoint_j01.json").mkdir()
    with pytest.raises(cf.ProfileError,
                       match="cannot write checkpoint .*Is a directory") as info:
        cf.run(CONTRACT, grid=cf.RhoGrid(12.0, 257), out_dir=tmp_path)
    trace = info.value.trace
    assert trace.steps >= 1 and trace.checkpoints == []
    assert trace.phase_seconds["checkpoints"] > 0.0
    cols = cf.read_trace(tmp_path / "trace.csv")
    assert np.array_equal(cols["t"], [r.t for r in trace.rows])
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["error"] == str(info.value) and summary["checkpoints"] == []
    assert (tmp_path / "run.log").read_text().splitlines()[-1] == f"error: {info.value}"
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "checkpoint_j01.json", "run.log", "summary.json", "trace.csv"]


def test_numpy_inputs_run_and_write_their_checkpoints(tmp_path):
    """A class, grid and checkpoint count given as numpy scalars are stored
    as Python numbers: the run writes its checkpoints and summary (a numpy
    N once failed the first checkpoint's JSON header), bit for bit as the
    run of the same Python numbers does."""
    runs = {"numpy": (cf.FlowParams(np.int64(2), np.int32(1), np.float32(1.0), np.float64(4.0)),
                      cf.RhoGrid(np.float32(12.0), np.int64(513)), np.int64(3)),
            "python": (CONTRACT, cf.RhoGrid(12.0, 513), 3)}
    for name, (params, grid, levels) in runs.items():
        trace = cf.run(params, grid=grid, out_dir=tmp_path / name, checkpoints_j=levels)
        assert [c.j for c in trace.checkpoints] == [1, 2, 3]
    for name in ("trace.csv", "run.log", "checkpoint_j01.json", "checkpoint_j03.json"):
        assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "python" / name).read_bytes()
    with open(tmp_path / "numpy" / "summary.json") as fh:
        summary = json.load(fh)
    assert (summary["n"], summary["a0"], summary["checkpoints"]) == (2, 1.0, [1, 2, 3])


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
    halves dt from DT_INIT T until it falls below DT_MIN, each rejected
    attempt logged before the error and counted as retries."""
    monkeypatch.setattr(flow, "NEWTON_MAX_ITER", 1)
    monkeypatch.setattr(flow, "TOL_NEWTON", 0.0)
    with pytest.raises(cf.FlowError, match="step size underflow at t=0 ") as info:
        cf.run(CONTRACT, grid=cf.RhoGrid(12.0, 257), out_dir=tmp_path)
    attempts = _cuts_to_underflow(0.5)
    assert len(info.value.rejected) == attempts
    assert info.value.trace.steps == 0
    assert info.value.trace.retries == attempts
    lines = (tmp_path / "run.log").read_text().splitlines()
    assert len(lines) == attempts + 1
    for line, entry in zip(lines, info.value.rejected):
        assert line == f"reject {entry}"
        assert "Newton stalled after 1 iterations" in line
    assert lines[-1] == f"error: {info.value}"
    with open(tmp_path / "summary.json") as fh:
        assert json.load(fh)["retries"] == attempts


@pytest.mark.parametrize("name, fake, reason", [
    ("dgtsv", lambda dl, d, du, b, *_: (dl, d, du, b, 2),
     "tridiagonal solve failed: info=2"),
    ("dgtsv", lambda dl, d, du, b, *_: (dl, d, du, np.full_like(b, np.nan), 0),
     "nonfinite tridiagonal solution"),
    ("closure_rows", lambda *_: (math.nan, 0.0), "nonfinite residual"),
], ids=["dgtsv-info", "nonfinite-solution", "nonfinite-residual"])
def test_solver_refusals_are_logged_rejected_attempts(tmp_path, monkeypatch, name, fake,
                                                      reason):
    """A failed tridiagonal solve, a non-finite solution and a non-finite
    Newton residual, forced here on every attempt, each reject the attempt
    with its reason: the first step halves dt from DT_INIT T below DT_MIN,
    and FlowError.rejected and run.log list every attempt."""
    monkeypatch.setattr(flow, name, fake)
    with pytest.raises(cf.FlowError,
                       match=re.escape(f"step size underflow at t=0 ({reason})")) as info:
        cf.run(CONTRACT, grid=cf.RhoGrid(12.0, 257), out_dir=tmp_path)
    rejected = info.value.rejected
    assert len(rejected) == _cuts_to_underflow(0.5)
    assert all(entry.endswith(f" {reason}") for entry in rejected)
    lines = (tmp_path / "run.log").read_text().splitlines()
    assert lines == [f"reject {entry}" for entry in rejected] + [f"error: {info.value}"]


def test_inadmissible_seed_is_refused_before_any_attempt(tmp_path):
    """A dent that makes u'' < 0 away from the center is refused when the
    first step starts, with no attempt made."""
    seed = cf.build_canonical_profile(cf.KahlerClass(1.0, 4.0), cf.RhoGrid(12.0, 1025), 2, 1)
    rho = seed.grid.nodes
    u = seed.u - 0.05 * np.exp(-(((rho - 4.0) / 0.3) ** 2))
    d2 = np.diff(u, 2)
    assert np.any(d2 <= 0.0) and d2[seed.grid.center - 1] > 0.0
    dented = cf.profile_from_samples(u, seed.grid, seed.cls, 0.0, 2, 1)
    with pytest.raises(cf.FlowError, match="profile inadmissible at t=0:") as info:
        cf.run(CONTRACT, seed_profile=dented, out_dir=tmp_path)
    trace = info.value.trace
    assert trace.steps == 0 and trace.retries == 0
    assert (tmp_path / "run.log").read_text() == f"error: {info.value}\n"


def _dented_seed():
    """The contract seed at (12, 1025) with a dent that makes u'' < 0 at
    40 nodes right of the center."""
    seed = cf.build_canonical_profile(cf.KahlerClass(1.0, 4.0), cf.RhoGrid(12.0, 1025), 2, 1)
    rho = seed.grid.nodes
    u = seed.u - 0.05 * np.exp(-(((rho - 4.0) / 0.3) ** 2))
    return cf.profile_from_samples(u, seed.grid, seed.cls, 0.0, 2, 1)


@pytest.mark.parametrize("seed, count", [
    (lambda: cf.build_canonical_profile(cf.KahlerClass(1.0, 4.0), cf.RhoGrid(25.0, 2049), 2, 1),
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
        cf.step(cf.FlowState(p.u, p.t, p.grid, CONTRACT), cf.StepControl())


@pytest.mark.parametrize("params, seed, match", [
    (cf.FlowParams(5, 4, 2.387, 2.995),
     lambda: cf.build_canonical_profile(cf.class_at(cf.FlowParams(5, 4, 2.387, 2.995), 0.0),
                                        cf.RhoGrid(12.0, 513), 5, 4),
     r"at 256 node\(s\), first at rho=-11\.9531 \(u' <= 0 at 0, u'' <= FLOOR_U2 at 256, "
     r"non-finite at 0; min u'' (\S+) vs FLOOR_U2 1e-10\)"),
    (CONTRACT, lambda: _with_nan_sample(0.0),
     r"at 3 node\(s\), first at rho=\S+ \(u' <= 0 at 0, u'' <= FLOOR_U2 at 0, "
     r"non-finite at 3; min u'' (\S+) vs FLOOR_U2 1e-10\)"),
], ids=["5-4-2.387-2.995", "nan-sample"])
def test_refusal_names_the_nodes_of_each_cause(params, seed, match):
    """A refused state's message counts the nodes of each cause and gives
    the smallest u'' on one line, in step's refusal and in validate's
    convexity line alike.  The canonical seed of (5, 4, 2.387, 2.995) at
    (12, 513) has u'' at or below FLOOR_U2 at all 256 refused nodes, the
    least of them negative; a nan sample leaves 3 nodes non-finite."""
    p = seed()
    with pytest.raises(cf.FlowError) as info:
        cf.run(params, seed_profile=p)
    message = str(info.value)
    assert message.startswith("profile inadmissible at t=0: ") and "\n" not in message
    found = re.search(match + "$", message)
    # the nan sample leaves the finite u'' of the contract seed, all above the floor
    assert found and (float(found[1]) < 0.0 if params is not CONTRACT
                      else float(found[1]) > flow.FLOOR_U2)
    detail = {v.invariant: v.detail for v in cf.validate_profile(p).violations}["convexity"]
    assert detail.endswith(message[message.index(" (u' <= 0 at "):])


def _non_finite_samples():
    """(label, u) for the (12, 257) contract seed with nan, +inf or -inf at
    single nodes near both ends and the center, and at adjacent pairs at
    both ends."""
    u = _contract_seed_at(0.0).u
    N = u.size
    values = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}
    singles = [[i] for i in (0, 1, 2, N // 2, N - 3, N - 2, N - 1)]
    pairs = [[0, 1], [1, 2], [N - 3, N - 2], [N - 2, N - 1]]
    cases = [(nodes, [v] * len(nodes)) for nodes in singles for v in values]
    cases += [(nodes, [v, w]) for nodes in pairs for v in values for w in values]
    for nodes, labels in cases:
        w = u.copy()
        w[nodes] = [values[v] for v in labels]
        yield ",".join(f"{v}@{i}" for i, v in zip(nodes, labels)), w


def test_valid_refuses_exactly_where_the_rule_flags_a_node():
    """_valid refuses a sample vector exactly when _rule's mask flags a
    node, and the mask is the node-by-node rule: the non-finite samples and
    the interior nodes without u' > 0 and u'' > FLOOR_U2, on the unscaled
    differences d1 = 2h u' and d2 = h^2 u''.  +inf at node N-1 is the one
    case whose differences pass; the end check refuses it."""
    h = cf.RhoGrid(12.0, 257).h
    seed = _contract_seed_at(0.0).u
    assert flow._rule(seed, h)[1] is None and flow._valid(seed, h) is not None
    for label, w in _non_finite_samples():
        with np.errstate(invalid="ignore"):
            d1, d2 = flow._second_diffs(w)
            interior_ok = (d1 > 0.0) & (d2 > flow.FLOOR_U2 * h**2)
        expect = ~np.isfinite(w)
        expect[1:-1] |= ~interior_ok
        mask = flow._rule(w, h)[1]
        assert mask is not None and np.array_equal(mask, expect), label
        with np.errstate(invalid="ignore"):  # _valid leaves the error state to its caller
            assert flow._valid(w, h) is None, label
        assert interior_ok.all() == (label == f"+inf@{w.size - 1}"), label


def test_one_verdict_call_is_the_node_by_node_rule():
    """_admissible's one reduction over both rows of the differences gives
    the verdict of the node-by-node rule, and _rule forms its mask exactly
    when that verdict refuses: on crafted samples with nan, +inf or -inf at
    an interior node and at each end, d1 = 0 at one node, and d2 equal to
    FLOOR_U2 h^2 and one ulp above it at one node."""
    h = 2.0**-4
    floor = flow.FLOOR_U2 * h**2
    base = np.cumsum(np.arange(12.0))  # d1 = 2j, d2 = 1 at interior node j
    cases = [("admissible", base, True)]
    for value in (np.nan, np.inf, -np.inf):
        for node in (0, 5, base.size - 1):
            w = base.copy()
            w[node] = value
            cases.append((f"{value}@{node}", w, False))
    w = base.copy()
    w[0] = w[2]
    cases.append(("d1=0@1", w, False))
    for label, d2, ok in (("d2=floor@1", floor, False),
                          ("d2=floor+ulp@1", np.nextafter(floor, 1.0), True)):
        # d2 at node 1 is (0 - 0) + w[2], exactly w[2]
        cases.append((label, np.concatenate(([0.0, 0.0, d2], base[1:])), ok))
    for label, w, ok in cases:
        with np.errstate(invalid="ignore"):
            diffs = flow._second_diffs(w)
        d1, d2 = diffs
        expect = ~np.isfinite(w)
        expect[1:-1] |= ~((d1 > 0.0) & (d2 > floor))
        assert (not expect.any()) == ok, label
        assert flow._admissible(w, diffs, h) == ok, label
        mask = flow._rule(w, h)[1]
        assert (mask is None) == ok and (ok or np.array_equal(mask, expect)), label


def test_two_column_solve_sizes_match_one_column_solves(contract_seed):
    """A two-column solve, whose sizes come from one maximum and one
    minimum reduction over both columns, returns the columns and sizes of
    two one-column solves of the same matrix, bit for bit."""
    grid = contract_seed.grid
    diffs = flow._second_diffs(contract_seed.u)
    ws = flow._Workspace(grid, 2, 1)
    b = np.random.default_rng(0).standard_normal((grid.N, 2))
    x, sizes = flow._stage_matrix_solve(diffs, 1e-3, np.asfortranarray(b), ws)
    x = x.copy()
    for j in range(2):
        col, (size,) = flow._stage_matrix_solve(diffs, 1e-3, b[:, j].copy(), ws)
        assert size == sizes[j] and col.tobytes() == x[:, j].tobytes()


def test_a_run_carries_one_workspace(monkeypatch):
    """Over a run of the contract preset at (12, 513) every step after the
    first writes into the workspace the first step made, and no array a
    returned state holds (u, its differences, its solution points) shares
    memory with a workspace buffer."""
    states, step = [], flow.step

    def recording_step(state, ctl, t_cap=None):
        states.append(step(state, ctl, t_cap))
        return states[-1]

    monkeypatch.setattr(flow, "step", recording_step)
    cf.run(CONTRACT, grid=cf.RhoGrid(12.0, 513))
    ws = states[0]._ws
    assert len(states) > 1 and all(s._ws is ws for s in states)
    buffers = [b for b in (getattr(ws, name) for name in flow._Workspace.__slots__)
               if isinstance(b, np.ndarray)]
    for state in states:
        for array in (state.u, state._diffs, *(u for _, u in state._past)):
            assert not any(np.shares_memory(array, b) for b in buffers), state.t


def test_carried_differences_step_like_a_fresh_state(rejecting):
    """A step from the state step() returned, which carries the differences
    of its samples, and a step from a state built from the same samples,
    time and stats, given the same solution history and contraction factor,
    give bitwise-equal samples, time and stats, also after steps with
    rejected attempts."""
    seed = _contract_seed_at(0.0)
    state = cf.FlowState(seed.u, seed.t, seed.grid, CONTRACT)
    retries = 0
    for _ in range(8):
        fresh = cf.FlowState(state.u, state.t, state.grid, CONTRACT, state.stats)
        fresh._past, fresh._contraction = state._past, state._contraction
        out, ref = cf.step(state, rejecting), cf.step(fresh, rejecting)
        assert out.u.tobytes() == ref.u.tobytes()
        assert (out.t, out.stats) == (ref.t, ref.stats)
        retries += out.stats.retries
        state = out
    assert retries > 0


def test_a_kept_state_steps_alike_after_later_steps(rejecting):
    """A step from a kept state, repeated after the steps that follow it,
    gives bitwise-equal samples, differences, solution points, time and
    stats, also through rejected attempts: no array a returned state holds
    is a buffer that a later step overwrites."""
    seed = _contract_seed_at(0.0)
    chain = [cf.FlowState(seed.u, seed.t, seed.grid, CONTRACT)]
    for _ in range(6):
        chain.append(cf.step(chain[-1], rejecting))
    assert chain[1].stats.retries > 0
    for kept, first in reversed(list(zip(chain, chain[1:]))):
        again = cf.step(kept, rejecting)
        assert (again.t, again.stats, again._contraction) == (first.t, first.stats,
                                                               first._contraction)
        assert [p[0] for p in again._past] == [p[0] for p in first._past]
        arrays = [(again.u, first.u), *zip(again._diffs, first._diffs)]
        arrays += [(a[1], b[1]) for a, b in zip(again._past, first._past)]
        for a, b in arrays:
            assert a.tobytes() == b.tobytes()


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
        p = c.profile
        state = cf.step(cf.FlowState(p.u, p.t, p.grid, CONTRACT), cf.StepControl())
        assert state.t > c.t


def test_inadmissible_stage_solution_is_a_rejected_attempt(contract_seed, monkeypatch):
    """A stage value that fails the rule after its gauge shift, while the
    unshifted iterate passes it, forced here once, on the BDF2 stage of the
    first attempt, is rejected like a failed solve and the step retries."""
    solve, valid = flow._solve_stage, flow._valid
    stages, refused = [], []

    def counting_solve(*args):
        stages.append(args)
        return solve(*args)

    def refuse_first_stage_value(w, h):
        caller = sys._getframe(1)
        if (len(stages) == 2 and not refused and caller.f_code.co_name == "_solve_stage"
                and caller.f_locals.get("error", math.inf) <= flow.TOL_NEWTON
                and w is caller.f_locals.get("w_try")):
            refused.append(w)
            return None
        return valid(w, h)

    monkeypatch.setattr(flow, "_solve_stage", counting_solve)
    monkeypatch.setattr(flow, "_valid", refuse_first_stage_value)
    out = cf.step(cf.FlowState(contract_seed.u, contract_seed.t, contract_seed.grid, CONTRACT),
                  cf.StepControl())
    assert len(refused) == 1 and refused[0][contract_seed.grid.center] == stages[1][2]
    assert out.stats.rejected == (
        f"dt={FIRST_DT:.6g} stage solution inadmissible after the gauge shift",)
    assert out.stats.dt == 0.5 * FIRST_DT and len(stages) == 4


def _fail_info(dl, d, du, b, *_):
    return dl, d, du, b, 2


def _fail_estimate_column(dl, d, du, b, *flags):
    *out, info = dgtsv(dl, d, du, b, *flags)
    out[3][:, 1] = np.nan
    return (*out, info)


@pytest.mark.parametrize("fail, reason", [
    (_fail_info, "tridiagonal solve failed: info=2"),
    (_fail_estimate_column, "nonfinite tridiagonal solution"),
], ids=["dgtsv-info", "nonfinite-estimate"])
def test_two_column_solve_refusals_are_logged_rejected_attempts(tmp_path, monkeypatch,
                                                                fail, reason):
    """The first dgtsv call that solves the error estimate as a second
    column beside a BDF2 Newton residual, made here to fail with info = 2
    or to return a non-finite estimate column, rejects its attempt with the
    reason a one-column solve gives; run.log names it, and the run reaches
    its stop time."""
    calls = []

    def failing_once(dl, d, du, b, *flags):
        calls.append(b.ndim)
        if calls.count(2) == 1 and b.ndim == 2:
            return fail(dl, d, du, b, *flags)
        return dgtsv(dl, d, du, b, *flags)

    monkeypatch.setattr(flow, "dgtsv", failing_once)
    ctl = cf.StepControl(t_stop_fraction=0.2)
    trace = cf.run(CONTRACT, ctl=ctl, grid=cf.RhoGrid(12.0, 257), out_dir=tmp_path)
    assert trace.rows[-1].t == pytest.approx(0.2, rel=1e-12) and calls.count(2) > 1
    lines = (tmp_path / "run.log").read_text().splitlines()
    assert len([ln for ln in lines if ln.startswith("reject ") and ln.endswith(f" {reason}")]) == 1


def _contract_seed_at(t, N=257):
    """The canonical profile of the contract class at time t, stamped t."""
    p = cf.build_canonical_profile(cf.class_at(CONTRACT, t), cf.RhoGrid(12.0, N), 2, 1)
    return cf.profile_from_samples(p.u, p.grid, p.cls, t, 2, 1)


def _with_nan_sample(t):
    p = _contract_seed_at(t)
    u = p.u.copy()
    u[p.grid.center // 2] = np.nan
    return cf.profile_from_samples(u, p.grid, p.cls, t, 2, 1)


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
    p = seed()
    state = cf.FlowState(p.u, p.t, p.grid, CONTRACT)
    with pytest.raises(cf.FlowError, match=match) as info:
        cf.step(state, cf.StepControl(), t_cap=t_cap)
    assert info.value.rejected == ()


@pytest.mark.parametrize("t", [0.999, 0.9995])
def test_seed_at_or_past_the_stop_time_is_refused(t):
    with pytest.raises(cf.FlowError, match="past the stop time"):
        cf.run(CONTRACT, seed_profile=_contract_seed_at(t))


def test_step_size_underflow_is_never_accepted():
    """At tol_step = 1e-300 no attempt meets the tolerance: the first step
    cuts dt from DT_INIT T by 0.2 per rejection until it falls below
    DT_MIN, and then fails instead of accepting an attempt whose error
    estimate exceeds tol_step.  The last attempt is the last cut at or
    above DT_MIN."""
    seed = _contract_seed_at(0.0, N=513)
    state = cf.FlowState(seed.u, seed.t, seed.grid, CONTRACT)
    with pytest.raises(cf.FlowError,
                       match=r"step size underflow at t=0 \(err=\S+ > tol\)") as info:
        cf.step(state, cf.StepControl(tol_step=1e-300))
    rejected = info.value.rejected
    cuts = _cuts_to_underflow(0.2)
    assert len(rejected) == cuts
    assert all(entry.endswith(" > tol") for entry in rejected)
    last = float(rejected[-1].split()[0].removeprefix("dt="))
    assert last == pytest.approx(FIRST_DT * 0.2 ** (cuts - 1), rel=1e-5)
    assert 0.2 * last < flow.DT_MIN <= last


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
            # credit the nearest enclosing step or _solve_stage, however
            # deep in helpers the call sits
            frame = sys._getframe(1)
            while frame.f_code.co_name not in refused:
                frame = frame.f_back
            refused[frame.f_code.co_name] += 1
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


def test_restart_grid_is_the_seed_grid(contract_default):
    """A seed fixes the grid: without one the run takes the seed's, and a
    different one is refused with both named, not replaced by the seed's."""
    trace, _ = contract_default
    mid = next(c.profile for c in trace.checkpoints if c.j == 1)
    cont = cf.run(CONTRACT, ctl=cf.StepControl(t_stop_fraction=0.55), seed_profile=mid)
    assert cont.final_profile.grid == mid.grid
    with pytest.raises(cf.ProfileError, match=re.escape(
            "grid RhoGrid(L=12.0, N=513) differs from the seed's grid RhoGrid(L=12.0, N=2049)")):
        cf.run(CONTRACT, grid=cf.RhoGrid(12.0, 513), seed_profile=mid)


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
    w = _tr_stage(u_prev, dt, CONTRACT, grid)[0]

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


def test_run_log_reports_retries_and_error(contract_default, tmp_path):
    """Every accepted step names its rejected attempts and its error
    estimate.  From t = 0 to 0.8 T the error estimate alone sets every step
    but the run's first, the event landings and the first half of an even
    split before an event, which has the dt of the landing that follows it;
    so no other step is far below tol_step.  No step without retries is
    shorter than 0.4 times the step before it.  Checked on the three
    presets and on three classes with n = 3, n = 4 and a small a0."""
    tol = cf.StepControl().tol_step
    logs = [(CONTRACT, contract_default[1] / "run.log")]
    for params in (cf.FlowParams(2, 1, 1.0, 2.0), cf.FlowParams(2, 1, 1.0, 3.0), *SWEEP[:3]):
        out = tmp_path / f"{params.n}-{params.k}-{params.a0}-{params.b0}"
        cf.run(params, grid=cf.RhoGrid(12.0, 513), out_dir=out)
        logs.append((params, out / "run.log"))
    for params, log in logs:
        T = cf.singular_time(params).T
        events = [tj for tj, _ in cf.checkpoint_times(T, 0.999 * T, 10)] + [0.999 * T]
        lines = [ln for ln in log.read_text().splitlines() if ln.startswith("t=")]
        assert lines
        steps = []
        for line in lines:
            fields = dict(item.split("=", 1) for item in line.split())
            assert set(fields) == {"t", "dt", "iters", "res", "retries", "err"}
            assert int(fields["retries"]) >= 0
            steps.append((line, {key: float(value) for key, value in fields.items()}))
        for i, (line, st) in enumerate(steps):
            assert 0.0 <= st["err"] <= tol, line
            if i > 0 and st["retries"] == 0:
                assert st["dt"] >= 0.4 * steps[i - 1][1]["dt"], line
            if i == 0 or st["t"] > 0.8 * T or st["err"] >= 0.1 * tol:
                continue
            lands = [any(abs(s["t"] - tj) <= 1e-11 * T for tj in events)
                     for _, s in steps[i:i + 2]]
            if lands[0]:
                continue
            # the first half of an even split: the next step lands with the same dt
            assert lands[1:] == [True], line
            assert steps[i + 1][1]["dt"] == pytest.approx(st["dt"], rel=1e-5), line


@pytest.mark.parametrize("params", [CONTRACT, *SWEEP[:2]], ids=["n2", "n3", "n4"])
@pytest.mark.parametrize("dt", [1e-5, 1e-3, 5e-3])
def test_newton_converges_quadratically(params, dt):
    """From u_n, Newton on the eliminated tridiagonal system of the TR
    stage meets TOL_NEWTON within three iterations; a Jacobian that is
    wrong but still convergent converges only linearly and needs more."""
    seed = cf.build_canonical_profile(cf.class_at(params, 0.0), cf.RhoGrid(12.0, 1025),
                                      params.n, params.k)
    assert _tr_stage(seed.u, dt, params, seed.grid)[1] <= 3


def test_step_is_second_order():
    """Fixed steps to t = 0.064: each halving of dt cuts the error against
    a dt = 2.5e-4 reference by at least 3.5 (4 at second order, 2 at
    first).  Each step lands on the event t + dt; at tol_step = 1 the
    proposal never falls short of it."""
    seed = cf.build_canonical_profile(cf.KahlerClass(1.0, 4.0), cf.RhoGrid(12.0, 257), 2, 1)
    ctl = cf.StepControl(tol_step=1.0)

    def final_u(dt):
        state = cf.FlowState(seed.u, seed.t, seed.grid, CONTRACT,
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
    w = _tr_stage(seed.u, dt, params, seed.grid)[0]
    assert len(solves) <= 2
    monkeypatch.setattr(flow, "TOL_NEWTON", 1e-13)
    tight = _tr_stage(seed.u, dt, params, seed.grid)[0]
    assert float(np.max(np.abs(w - tight))) <= 1e-10


def test_predicted_stage_stops_after_one_solve(monkeypatch):
    """From a state that carries its solution history and the contraction
    its BDF2 stage measured, the TR stage starts from the quadratic
    extrapolation of the last three solution points and stops after one
    linear solve, within 1e-10 (gauge-free) of the same stage solved to
    TOL_NEWTON = 1e-13."""
    seed = _contract_seed_at(0.0, N=1025)
    state = cf.FlowState(seed.u, seed.t, seed.grid, CONTRACT)
    for _ in range(20):
        state = cf.step(state, cf.StepControl())
    assert len(state._past) == 2 and state._contraction[0] < flow.ETA_START
    grid, c = state.grid, state.grid.center
    dt = state.stats.dt_next
    ddt, t_g = flow._D * dt, state.t + flow._GAMMA * dt
    ws = flow._Workspace(grid, 2, 1)
    rhs = state.u[1:-1] + ddt * flow._velocity(state._diffs, 2, ws.offset)
    start = flow._start(state._past + ((state.t, state.u),), t_g, state.u, state._diffs,
                        grid.h)
    assert start[0] is not state.u
    cls = cf.class_at(CONTRACT, t_g)
    stage = (state.u[c], rhs, rhs - ddt * ws.offset, ddt, cls.a, cls.b)
    solves = []

    def counting_dgtsv(*args, **kwargs):
        solves.append(dt)
        return dgtsv(*args, **kwargs)

    monkeypatch.setattr(flow, "dgtsv", counting_dgtsv)
    w, iters, error = flow._solve_stage(*start, *stage, state._contraction, ws)[:3]
    assert iters == 1 and len(solves) == 1 and error <= flow.TOL_NEWTON
    # the same factor, measured on an update a millionth the size of this
    # first one, is scaled up with it and does not end the stage
    moved = w - start[0]
    small = (state._contraction[0], 1e-6 * float(np.max(np.abs(moved - moved[c]))))
    assert flow._solve_stage(*start, *stage, small, ws)[1] >= 2
    monkeypatch.setattr(flow, "TOL_NEWTON", 1e-13)
    d = w - flow._solve_stage(*start, *stage, state._contraction, ws)[0]
    assert float(np.max(np.abs(d - d[c]))) <= 1e-10


def test_start_is_the_lagrange_extrapolation_bit_for_bit():
    """_start's closed-form weights for two and three solution points give
    the samples of the Lagrange loop, each weight a running product of
    (t - t_j) / (t_i - t_j) over j != i and the terms summed in order, bit
    for bit, on the solution points of steps of the contract preset."""
    seed = _contract_seed_at(0.0)
    state = cf.FlowState(seed.u, seed.t, seed.grid, CONTRACT)
    for _ in range(4):
        state = cf.step(state, cf.StepControl())
    points = state._past + ((state.t, state.u),)
    dt = state.stats.dt_next
    for points, t in ((points, state.t + flow._GAMMA * dt), (points[1:], state.t + dt)):
        terms = []
        for i, (ti, ui) in enumerate(points):
            weight = 1.0
            for j, (tj, _) in enumerate(points):
                if j != i:
                    weight *= (t - tj) / (ti - tj)
            terms.append(ui * weight)
        expect = terms[0]
        for term in terms[1:]:
            expect = expect + term
        w = flow._start(points, t, state.u, state._diffs, state.grid.h)[0]
        assert w is not state.u and w.tobytes() == expect.tobytes()


def test_predicted_starts_save_solves_at_the_same_accuracy(monkeypatch):
    """On the contract preset at (12, 513) a run takes at most 3.5 linear
    solves per accepted step (5.47 when every stage started from u_n or its
    linear extrapolation and confirmed its last update, 4.31 when the error
    filter took a solve of its own), and its checkpoints and final samples
    stay within 5e-10 of the same run at TOL_NEWTON = 1e-13."""
    grid = cf.RhoGrid(12.0, 513)
    solves = []

    def counting_dgtsv(*args, **kwargs):
        solves.append(1)
        return dgtsv(*args, **kwargs)

    monkeypatch.setattr(flow, "dgtsv", counting_dgtsv)
    trace = cf.run(CONTRACT, grid=grid)
    assert len(solves) <= 3.5 * trace.steps
    monkeypatch.setattr(flow, "TOL_NEWTON", 1e-13)
    tight = cf.run(CONTRACT, grid=grid)
    assert [c.j for c in trace.checkpoints] == [c.j for c in tight.checkpoints]
    pairs = [(a.profile, b.profile) for a, b in zip(trace.checkpoints, tight.checkpoints)]
    for a, b in pairs + [(trace.final_profile, tight.final_profile)]:
        assert float(np.max(np.abs(a.u - b.u))) <= 5e-10, a.t


def _bdf2_estimates(params, grid, monkeypatch):
    """Run params on grid and return the trace, the err of every BDF2 stage
    that returned, and for each float err its ratio to the estimate
    filtered by a separate solve with the stage matrix at the stage value
    u_1: fixed + (u_1 - rhs) E_1/D on the interior rows, 0 at both ends."""
    solve = flow._solve_stage
    errs, ratios = [], []

    def checking_solve(w, diffs, center, rhs, base, ddt, a, b, contraction, ws, fixed=None):
        out = solve(w, diffs, center, rhs, base, ddt, a, b, contraction, ws, fixed)
        u1, diffs1, err = out[0], out[4], out[5]
        if fixed is not None:
            errs.append(err)
        if err is not None:
            est = np.zeros(grid.N)
            est[1:-1] = fixed + (u1[1:-1] - rhs) * (flow._E_1 / flow._D)
            _, (alone,) = flow._stage_matrix_solve(
                diffs1, ddt, est, flow._Workspace(grid, params.n, params.k))
            ratios.append(err / alone)
        return out

    monkeypatch.setattr(flow, "_solve_stage", checking_solve)
    return cf.run(params, grid=grid), errs, ratios


def test_ridden_error_filter_matches_a_filter_solve_at_the_stage_value(monkeypatch):
    """On the contract preset at (12, 513) every BDF2 stage ends on an
    update whose contraction it measured, and filters the error estimate at
    the iterate before it as a second column of that update's solve.  Each
    such estimate is within 1 % of the estimate filtered by a separate
    solve with the stage matrix at the stage value u_1."""
    trace, errs, ratios = _bdf2_estimates(CONTRACT, cf.RhoGrid(12.0, 513), monkeypatch)
    assert len(errs) >= trace.steps and len(ratios) == len(errs)
    assert max(abs(r - 1.0) for r in ratios) <= 0.01


def test_bdf2_stage_never_ends_without_its_filtered_estimate(monkeypatch):
    """On (2, 1, 1, 1.05) at (12, 513), whose BDF2 stages can pass the stop
    test on their first update, that update becomes the next iterate: every
    BDF2 stage returns the estimate its last Newton solve filtered, and the
    run reaches the stop time."""
    params = SWEEP[3]
    trace, errs, _ = _bdf2_estimates(params, cf.RhoGrid(12.0, 513), monkeypatch)
    assert trace.rows[-1].t == pytest.approx(0.999 * cf.singular_time(params).T, rel=1e-12)
    assert len(errs) >= trace.steps and all(isinstance(err, float) for err in errs)


def test_profiles_are_built_only_where_read(monkeypatch):
    """A cadence-1 run builds a profile once per checkpoint and once for the
    final profile, which the rows at those landings read; every other row
    is sampled from the accepted samples.  Stepping reads the samples
    alone, so the monitor cadence leaves the checkpoints and the final
    samples bitwise unchanged; each checkpoint profile is the rebuild of
    its own samples."""
    grid = cf.RhoGrid(12.0, 513)
    sparse = cf.run(CONTRACT, grid=grid, monitors=cf.MonitorSet(cadence=10))
    builds = []

    def counting_rebuild(*args, **kwargs):
        builds.append(args[3])
        return cf.profile_from_samples(*args, **kwargs)

    monkeypatch.setattr(flow, "profile_from_samples", counting_rebuild)
    dense = cf.run(CONTRACT, grid=grid, monitors=cf.MonitorSet(cadence=1))
    assert builds == [c.t for c in dense.checkpoints] + [dense.final_profile.t]
    assert len(builds) == 10 and len(dense.rows) == dense.steps + 1 > len(sparse.rows)
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
    stop time, and the last row's ends classify the predicted regime.

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
