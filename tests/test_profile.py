"""Profile construction, derivatives, ghost nodes and admissibility checks."""
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit

import calabiflow as cf
from calabiflow import diagnostics, profile
from checkpoint_codec import decode_samples, encode_samples

THREE_LOG_TWO = 3.0 * math.log(2.0)


# ---------------------------------------------------------------------------
# grids, classes, parameters

def test_grid_nodes_are_exact():
    g = cf.RhoGrid(12.0, 1025)
    assert g.nodes[0] == -12.0
    assert g.nodes[-1] == 12.0
    assert g.nodes[g.center] == 0.0
    assert g.h == 24.0 / 1024.0
    assert g.N == 1025


@pytest.mark.parametrize("L, N", [pytest.param(12.0, N, id=str(N))
                                  for N in (258, 31, 1024, 2**20 + 3, 10000000001)]
                         + [pytest.param(L, 1025, id=f"L={L}")
                            for L in (0.0, math.nan, math.inf, -math.inf,
                                      1e-300, 0.999, 1000.5, 1e300)])
def test_grid_rejects_bad_node_counts(L, N):
    with pytest.raises(cf.ProfileError):
        cf.RhoGrid(L, N)


def test_grid_accepts_its_bounds():
    for L, N in ((1.0, 257), (1000.0, 257), (12.0, 2**20 + 1)):
        g = cf.RhoGrid(L, N)
        assert g.nodes.size == N and g.nodes[-1] == L


def test_profile_arrays_must_match_the_grid(contract_seed):
    p = contract_seed
    with pytest.raises(cf.ProfileError, match=r"sample array has shape \(1024,\)"):
        cf.profile_from_samples(p.u[:-1], p.grid, p.cls, 0.0, 2, 1)
    with pytest.raises(cf.ProfileError, match=r"d2u has shape \(1024,\)"):
        dataclasses.replace(p, d2u=p.d2u[:-1])


def test_class_and_params_validation():
    with pytest.raises(cf.ProfileError):
        cf.KahlerClass(2.0, 1.0)
    with pytest.raises(cf.ProfileError):
        cf.KahlerClass(-1.0, 4.0)
    with pytest.raises(cf.ProfileError):
        cf.FlowParams(2, 5, 1.0, 4.0)
    with pytest.raises(cf.ProfileError):
        cf.FlowParams(1, 1, 1.0, 4.0)
    for a, b in [(math.nan, 4.0), (1.0, math.nan), (1.0, math.inf), (math.inf, math.inf)]:
        with pytest.raises(cf.ProfileError, match="need finite"):
            cf.KahlerClass(a, b)
        with pytest.raises(cf.ProfileError, match="need finite"):
            cf.FlowParams(2, 1, a, b)
    # a count is an integer: refused by name here, not as a bare TypeError in the first row
    for n, k, name in [(2.5, 1, "n"), (2.0, 1, "n"), (2, 1.0, "k"), (3, "1", "k")]:
        with pytest.raises(cf.ProfileError, match=f"need an integer {name}, got {name}="):
            cf.FlowParams(n, k, 1.0, 4.0)
    params = cf.FlowParams(np.int64(3), np.int32(1), 1.0, 4.0)
    assert (type(params.n), type(params.k)) == (int, int)
    assert params == cf.FlowParams(3, 1, 1.0, 4.0)
    # a number is stored as a Python number, which a run's JSON files can hold
    params = cf.FlowParams(2, 1, np.float32(1.0), 4)
    assert (type(params.a0), type(params.b0)) == (float, float)
    grid = cf.RhoGrid(np.float32(12.0), np.int64(513))
    assert (type(grid.L), type(grid.N), grid.nodes.dtype) == (float, int, np.float64)
    with pytest.raises(cf.ProfileError, match="need an integer N, got N=2049.0"):
        cf.RhoGrid(12.0, 2049.0)
    with pytest.raises(cf.ProfileError, match="need a number L, got L='12'"):
        cf.RhoGrid("12", 513)
    for a0, b0, name in [("1", 4.0, "a0"), (1.0, None, "b0"), (1.0, 1j, "b0")]:
        with pytest.raises(cf.ProfileError, match=f"need a number {name}, got {name}="):
            cf.FlowParams(2, 1, a0, b0)
    with pytest.raises(cf.ProfileError,
                       match="need an integer checkpoints_j, got checkpoints_j=2.5"):
        cf.run(cf.FlowParams(2, 1, 1.0, 4.0), grid=cf.RhoGrid(12.0, 257), checkpoints_j=2.5)
    with pytest.raises(cf.ProfileError, match="need an integer cadence, got cadence=2.5"):
        cf.MonitorSet(cadence=2.5)
    assert type(cf.MonitorSet(cadence=np.int64(5)).cadence) is int
    # the step controller and the validator store and read Python numbers too
    ctl = cf.StepControl(tol_step=np.float32(1e-6), t_stop_fraction=np.float64(0.5))
    assert (type(ctl.tol_step), type(ctl.t_stop_fraction)) == (float, float)
    seed = cf.build_canonical_profile(cf.KahlerClass(1.0, 4.0), cf.RhoGrid(12.0, 257), 2, 1)
    for make, name in [(lambda: cf.StepControl(tol_step="1e-6"), "tol_step"),
                       (lambda: cf.StepControl(t_stop_fraction=None), "t_stop_fraction"),
                       (lambda: cf.MonitorSet("3"), "cadence"),
                       (lambda: cf.validate_profile(seed, tol="1e-8"), "tol")]:
        with pytest.raises(cf.ProfileError, match=f"need an? \\w+ {name}, got {name}="):
            make()
    assert cf.RhoGrid() == cf.RhoGrid(12.0, 2049)


def test_class_evolution_is_exact_affine():
    params = cf.FlowParams(2, 1, 1.0, 4.0)
    cls = cf.class_at(params, 0.25)
    assert cls.a == 1.0 - 0.25
    assert cls.b == 4.0 - 3.0 * 0.25
    cls = cf.class_at(cf.FlowParams(3, 2, 1.0, 7.0), 0.5)
    assert cls.a == 1.0 - 0.5
    assert cls.b == 7.0 - 5.0 * 0.5


def test_singular_time_trichotomy():
    info = cf.singular_time(cf.FlowParams(2, 1, 1.0, 4.0))
    assert info.T == 1.0 and info.regime is cf.Regime.CONTRACT
    assert info.Ta == 1.0 and info.Tb == 1.5

    info = cf.singular_time(cf.FlowParams(2, 1, 1.0, 2.0))
    assert info.T == 0.5 and info.regime is cf.Regime.COLLAPSE

    info = cf.singular_time(cf.FlowParams(2, 1, 1.0, 3.0))
    assert info.T == 1.0 and info.regime is cf.Regime.SHRINK


# ---------------------------------------------------------------------------
# canonical seed

def test_seed_center_values(contract_seed):
    p = contract_seed
    c = p.grid.center
    assert_allclose(p.u[c], THREE_LOG_TWO, rtol=1e-14)
    assert_allclose(p.du[c], 2.5, rtol=1e-12)
    assert_allclose(p.d2u[c], 0.75, rtol=1e-12)
    assert abs(p.d3u[c]) < 1e-10
    assert_allclose(p.d4u[c], -0.375, rtol=1e-5)


def test_seed_slope_matches_logistic(contract_seed):
    p = contract_seed
    rho = p.grid.nodes
    analytic = 1.0 + 3.0 / (1.0 + np.exp(-rho))
    inner = np.abs(rho) <= 9.0
    assert_allclose(p.du[inner], analytic[inner], rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_canonical_logistic_matches_expit(k):
    """The seed's logistic keeps full relative accuracy across k rho in
    [-60, 60]: u' and the left tail of u'', where sig ~ e^(k rho), agree with
    scipy's expit to a few ulp.  A wide grid with k L > 710, where
    e^(k L) overflows, raises no warning."""
    cls = cf.KahlerClass(1.0, 4.0)
    p = cf.build_canonical_profile(cls, cf.RhoGrid(60.0 / k, 1025), n=3, k=k)
    sig = expit(k * p.grid.nodes)
    ulp = np.finfo(float).eps
    assert_allclose(p.du, 1.0 + 3.0 * sig, rtol=4 * ulp, atol=0.0)
    assert_allclose(p.d2u, k * 3.0 * (sig * (1.0 - sig)), rtol=4 * ulp, atol=0.0)

    wide = cf.build_canonical_profile(cls, cf.RhoGrid(720.0 / k, 1025), n=3, k=k)
    assert np.all(np.isfinite(wide.u)) and np.all(np.isfinite(wide.d4u))
    assert wide.du[0] == 1.0 and wide.du[-1] == 4.0


def test_seed_fourth_order_combination_two_tier(contract_seed):
    """The seed satisfies -u''''u'' + u'''^2 = (2k/(b-a)) u''^3 identically;
    discretely this is rounding-exact in the interior, and the closed-form
    derivative arrays keep a small bounded deviation out to the ends."""
    p = contract_seed
    c4 = -diagnostics.moment_arrays(p)[3]
    rho = p.grid.nodes
    target = 2.0 / 3.0
    assert np.max(np.abs(c4[np.abs(rho) <= 2.0] - target)) < 1e-12
    assert np.max(np.abs(c4 - target)) < 0.05
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = (-p.d4u * p.d2u + p.d3u**2) / p.d2u**3
    assert np.max(np.abs(raw[np.abs(rho) <= 3.0] - target)) < 1e-12


def test_seed_scales_with_k():
    p = cf.build_canonical_profile(cf.KahlerClass(1.0, 7.0), cf.RhoGrid(12.0, 1025),
                                   n=3, k=2)
    c = p.grid.center
    assert_allclose(p.du[c], 4.0, rtol=1e-12)       # (a+b)/2
    assert_allclose(p.d2u[c], 3.0, rtol=1e-12)      # k(b-a)/4


# ---------------------------------------------------------------------------
# differentiation

def test_interior_stencils_are_fourth_order():
    """Nodes 5 or more from each end never reach a ghost value, so the
    class that fixes the ghosts does not matter there."""
    errs = []
    for N in (513, 1025):
        g = cf.RhoGrid(12.0, N)
        p = cf.profile_from_samples(np.sin(g.nodes), g, cf.KahlerClass(1.0, 4.0),
                                    t=0.0, n=2, k=1)
        sl = slice(5, N - 5)
        errs.append(max(np.max(np.abs(p.du[sl] - np.cos(g.nodes[sl]))),
                        np.max(np.abs(p.d2u[sl] + np.sin(g.nodes[sl])))))
    ratio = errs[0] / errs[1]
    assert 10.0 < ratio < 30.0


# ---------------------------------------------------------------------------
# validation

def test_seed_profile_is_admissible(contract_seed):
    report = cf.validate_profile(contract_seed)
    assert report.ok
    assert report.violations == ()


def test_closure_check_tightens_with_tolerance(contract_seed):
    report = cf.validate_profile(contract_seed, tol=1e-12)
    names = {v.invariant for v in report.violations}
    assert not report.ok
    assert names <= {"closure-left", "closure-right"}
    assert "closure-left" in names


def test_validation_flags_convexity_loss(contract_seed):
    p = contract_seed
    u = p.u - 1.0 * np.exp(-p.grid.nodes**2)
    bad = cf.profile_from_samples(u, p.grid, p.cls, t=0.0, n=2, k=1)
    report = cf.validate_profile(bad)
    names = {v.invariant for v in report.violations}
    assert "convexity" in names


def test_validation_flags_class_range(contract_seed):
    p = contract_seed
    bad = cf.profile_from_samples(2.0 * p.u, p.grid, p.cls, t=0.0, n=2, k=1)
    report = cf.validate_profile(bad)
    names = {v.invariant for v in report.violations}
    assert "class-range" in names


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_validation_flags_non_finite_samples(contract_seed, bad):
    u = contract_seed.u.copy()
    u[contract_seed.grid.center] = bad
    report = cf.validate_profile(dataclasses.replace(contract_seed, u=u))
    assert not report.ok
    assert report.violations[0].invariant == "finite"
    assert report.violations[0].nodes == (contract_seed.grid.center,)


# ---------------------------------------------------------------------------
# ghost nodes and the tail guard

def test_ghost_triples_satisfy_the_closure_rows(contract_default):
    """Every triple of consecutive samples that reaches a ghost satisfies
    the flow's closure rows to rounding, on seeds and on the flow's own
    checkpoints, whatever the end triple of the samples does."""
    seeds = [cf.build_canonical_profile(cf.KahlerClass(1.0, 4.0), cf.RhoGrid(L, N), n, k)
             for n, k, L, N in ((2, 1, 12.0, 1025), (3, 2, 6.0, 513), (3, 1, 16.0, 257))]
    trace, _ = contract_default
    for p in (*seeds, *(ck.profile for ck in trace.checkpoints)):
        h = p.grid.h
        left, right = profile._ghosts(p.u, h, p.k, p.cls.a, p.cls.b)
        padded = np.concatenate([left, p.u, right])
        tol = 1e-13 * max(float(np.max(np.abs(p.u))), 1.0)
        for i in range(3):
            rows = profile.closure_rows(padded[i:padded.size - i], h, math.expm1(p.k * h),
                                        p.cls.a, p.cls.b)
            assert max(map(abs, rows)) <= tol, (p.t, i, rows)


@pytest.mark.parametrize("k, L, N", [(1, 12.0, 1025), (1, 16.0, 2731), (2, 6.0, 513)])
def test_ghosts_continue_an_exact_one_mode_tail(k, L, N):
    """On u = a rho + D + E e^(k rho) at the left end and
    b rho + D' + E' e^(-k rho) at the right, the ghosts are that tail's
    values at the ghost nodes, to a few ulp of sup|u|."""
    grid = cf.RhoGrid(L, N)
    rho, h = grid.nodes, grid.h
    a, b = 0.5, 2.5
    u = np.where(rho <= 0.0, a * rho + 0.7 + 3.0 * np.exp(k * rho),
                 b * rho - 0.4 + 2.0 * np.exp(-k * rho))
    left, right = profile._ghosts(u, h, k, a, b)
    g_left = rho[0] + h * np.array([-3.0, -2.0, -1.0])
    g_right = rho[-1] + h * np.array([1.0, 2.0, 3.0])
    tol = 4.0 * np.finfo(float).eps * max(float(np.max(np.abs(u))), 1.0)
    assert_allclose(left, a * g_left + 0.7 + 3.0 * np.exp(k * g_left), rtol=0.0, atol=tol)
    assert_allclose(right, b * g_right - 0.4 + 2.0 * np.exp(-k * g_right), rtol=0.0, atol=tol)


def _coef_sum(order):
    """Absolute coefficient sum of the order-3 or order-4 stencil: 5.5 or 26.67."""
    return float(np.abs(profile._STENCILS[order][1]).sum())


def test_guard_stays_within_rounding_noise_of_the_raw_ratios(contract_default):
    """On the late contract checkpoints, away from the three ghost-read
    nodes at each end, the guarded u'''/u'' and c4 differ from the raw
    differences by at most the raw values' rounding noise,
    5.5 eps sup|u| / (h^3 |u''|) and 26.67 eps sup|u| / (h^4 u''^2), the
    factors being the stencils' absolute coefficient sums.  A guard that
    swaps in the tail model by position alone breaks this once the
    contracting structure moves into the model's zone."""
    trace, _ = contract_default
    for ck in (c for c in trace.checkpoints if c.j >= 5):
        p = ck.profile
        scale = np.finfo(float).eps * float(np.max(np.abs(p.u)))
        inner = slice(3, p.grid.N - 3)
        d2u, d3u, d4u = p.d2u[inner], p.d3u[inner], p.d4u[inner]
        _, _, G, minus_c4, _ = diagnostics.moment_arrays(p)
        for guarded, raw, noise in (
                (G, d3u / d2u,
                 _coef_sum(3) * scale / p.grid.h**3 / np.abs(d2u)),
                (-minus_c4, (d3u * d3u - d4u * d2u) / (d2u * d2u * d2u),
                 _coef_sum(4) * scale / p.grid.h**4 / (d2u * d2u))):
            assert np.all(np.abs(guarded[inner] - raw) <= noise), ck.j


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip(tmp_path, contract_seed):
    path = tmp_path / "seed.json"
    cf.save_checkpoint(contract_seed, path)
    back = cf.load_checkpoint(path)
    assert np.array_equal(back.u, contract_seed.u)
    assert back.t == contract_seed.t
    assert back.n == contract_seed.n and back.k == contract_seed.k
    assert back.cls == contract_seed.cls
    assert back.grid.N == contract_seed.grid.N and back.grid.L == contract_seed.grid.L
    # the seed carries analytic derivatives; the loader recomputes them from
    # the samples, so they agree only to stencil accuracy
    assert_allclose(back.du, contract_seed.du, rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("a, b, name", [("1", 4.0, "a"), (1.0, None, "b")])
def test_kahler_class_refuses_a_non_number_by_name(a, b, name):
    with pytest.raises(cf.ProfileError, match=f"need a number {name}, got {name}="):
        cf.KahlerClass(a, b)


def test_checkpoint_of_a_class_from_numpy_scalars(tmp_path):
    """A class stores Python floats, so a profile whose class was built from
    numpy scalars is written and read back like any other."""
    cls = cf.KahlerClass(np.float32(1.0), np.int64(4))
    assert (type(cls.a), type(cls.b)) == (float, float)
    p = cf.build_canonical_profile(cls, cf.RhoGrid(12.0, 257), 2, 1)
    cf.save_checkpoint(p, tmp_path / "seed.json")
    assert cf.load_checkpoint(tmp_path / "seed.json").cls == cf.KahlerClass(1.0, 4.0)


def test_load_checkpoint_missing_file(tmp_path):
    with pytest.raises((OSError, cf.ProfileError)):
        cf.load_checkpoint(tmp_path / "absent.json")


def _corrupted_checkpoint(tmp_path, profile, key, value):
    path = tmp_path / "corrupt.json"
    cf.save_checkpoint(profile, path)
    payload = json.loads(path.read_text())
    if key == "u":
        u = decode_samples(payload["u"])
        u[profile.grid.center] = value
        payload["u"] = encode_samples(u)
    else:
        payload[key] = value
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_load_checkpoint_rejects_non_finite_samples(tmp_path, contract_seed, bad):
    path = _corrupted_checkpoint(tmp_path, contract_seed, "u", bad)
    with pytest.raises(cf.ProfileError, match="non-finite sample"):
        cf.load_checkpoint(path)


@pytest.mark.parametrize("key, bad", [("L", math.inf), ("a", math.nan),
                                      ("b", math.inf), ("t", math.nan), ("t", -5.0)])
def test_load_checkpoint_rejects_non_finite_header(tmp_path, contract_seed, key, bad):
    path = _corrupted_checkpoint(tmp_path, contract_seed, key, bad)
    with pytest.raises(cf.ProfileError, match=f"(non-finite header field.*|negative time ){key}"):
        cf.load_checkpoint(path)


@pytest.mark.parametrize("text", ["[1, 2, 3]", "3.5", '"u"', "null"])
def test_load_checkpoint_rejects_non_object(tmp_path, text):
    path = tmp_path / "corrupt.json"
    path.write_text(text)
    with pytest.raises(cf.ProfileError, match="not an object"):
        cf.load_checkpoint(path)


@pytest.mark.parametrize("edit, match", [
    (lambda text: text[:-10], "is not valid JSON"),
    (lambda text: text.replace('"version": 2', '"version": 3'), "has version 3, expected 2"),
    (lambda text: text.replace('"a": ', '"alpha": '), "missing or malformed field: 'a'"),
    (lambda text: text.replace('"L": 12.0', '"L": 1e-300'), "need finite 1 <= L <= 1000"),
], ids=["truncated", "version", "missing-field", "grid-bounds"])
def test_load_checkpoint_rejects_malformed_file(tmp_path, contract_seed, edit, match):
    path = tmp_path / "corrupt.json"
    cf.save_checkpoint(contract_seed, path)
    path.write_text(edit(path.read_text()))
    with pytest.raises(cf.ProfileError, match=match):
        cf.load_checkpoint(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_load_checkpoint_rejects_non_finite_node_count(tmp_path, contract_seed, bad):
    path = _corrupted_checkpoint(tmp_path, contract_seed, "N", bad)
    with pytest.raises(cf.ProfileError, match="malformed field"):
        cf.load_checkpoint(path)


@pytest.mark.parametrize("key, bad", [("n", 2.9), ("n", 2.0), ("k", 1.5), ("k", True),
                                      ("N", 1025.4), ("N", "1025"), ("N", None)])
def test_load_checkpoint_rejects_non_integer_counts(tmp_path, contract_seed, key, bad):
    """n, k and N are JSON integers; a float, bool, string or null is
    refused, not truncated or parsed."""
    path = _corrupted_checkpoint(tmp_path, contract_seed, key, bad)
    with pytest.raises(cf.ProfileError, match="malformed field.*" + re.escape(f"{key}={bad!r}")):
        cf.load_checkpoint(path)


@pytest.mark.parametrize("N", [1027, 10**12 + 1])
def test_load_checkpoint_rejects_sample_count_mismatch(tmp_path, contract_seed, N):
    """A header N that disagrees with the samples is refused before a grid
    of N nodes is built."""
    path = _corrupted_checkpoint(tmp_path, contract_seed, "N", N)
    with pytest.raises(cf.ProfileError, match=f"u has 1025 samples, header says {N}"):
        cf.load_checkpoint(path)


def test_checkpoint_text_and_samples_are_exact(tmp_path, contract_default):
    """The file is the JSON of the header and the encoded float64 samples,
    byte for byte, and loading it gives back every sample bit for bit."""
    trace, _ = contract_default
    p = next(c.profile for c in trace.checkpoints if c.j == 5)
    path = tmp_path / "ck.json"
    cf.save_checkpoint(p, path)
    expected = {"version": 2, "n": p.n, "k": p.k, "t": p.t, "a": p.cls.a,
                "b": p.cls.b, "L": p.grid.L, "N": p.grid.N,
                "u": encode_samples(p.u)}
    assert path.read_text() == json.dumps(expected) + "\n"
    assert cf.load_checkpoint(path).u.tobytes() == p.u.tobytes()


def test_checkpoint_file_stores_binary_samples(contract_default):
    """Each (12, 2049) checkpoint is at most its base64 samples, 4 ceil(8N/3)
    characters, plus 512 bytes of header; decimal text is about twice that."""
    _, out = contract_default
    paths = sorted(out.glob("checkpoint_j*.json"))
    assert len(paths) == 9
    for path in paths:
        assert path.stat().st_size <= 4 * math.ceil(8 * 2049 / 3) + 512


@pytest.mark.parametrize("key, bad", [("u", math.nan), ("u", math.inf),
                                      ("t", math.nan), ("t", math.inf)])
def test_save_checkpoint_refuses_non_finite_profile(tmp_path, contract_seed, key, bad):
    """A non-finite sample or time, which the loader would refuse, is
    refused before anything is written: no checkpoint and no .tmp file."""
    if key == "u":
        u = contract_seed.u.copy()
        u[contract_seed.grid.center] = bad
        p = dataclasses.replace(contract_seed, u=u)
    else:
        p = dataclasses.replace(contract_seed, t=bad)
    with pytest.raises(cf.ProfileError, match="cannot write checkpoint"):
        cf.save_checkpoint(p, tmp_path / "ck.json")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key, bad", [("n", 1), ("n", 0), ("k", 0), ("k", -1),
                                      ("k", 2)])
def test_load_checkpoint_rejects_inadmissible_dimension(tmp_path, contract_seed,
                                                         key, bad):
    """n >= 2 and 1 <= k < n, as for the flow parameters."""
    path = _corrupted_checkpoint(tmp_path, contract_seed, key, bad)
    with pytest.raises(cf.ProfileError, match=r"need n >= 2|need 1 <= k < n"):
        cf.load_checkpoint(path)


def test_evolved_checkpoint_is_admissible(contract_default):
    trace, _ = contract_default
    early = next(c.profile for c in trace.checkpoints if c.j == 1)
    assert cf.validate_profile(early).ok


def test_initial_class_recovery(contract_default):
    trace, _ = contract_default
    ck = next(c for c in trace.checkpoints if c.j == 5)
    params = cf.infer_initial_class(ck.profile, n=2, k=1)
    assert_allclose([params.a0, params.b0], [1.0, 4.0], atol=2e-4)
