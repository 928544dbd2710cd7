"""Profile construction, derivatives, tail fits and admissibility checks."""
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit

import calabiflow as cf
from calabiflow import profile
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


def test_seed_tail_coefficients(contract_seed):
    tl, tr = contract_seed.tail_left, contract_seed.tail_right
    assert abs(tl.base) < 1e-9
    assert_allclose(tl.amp, 3.0, rtol=1e-9)
    assert_allclose(tl.amp2, -1.5, rtol=1e-6)
    assert abs(tr.base) < 1e-9
    assert_allclose(tr.amp, 3.0, rtol=1e-9)
    assert_allclose(tr.amp2, -1.5, rtol=1e-6)


def test_seed_fourth_order_combination_two_tier(contract_seed):
    """The seed satisfies -u''''u'' + u'''^2 = (2k/(b-a)) u''^3 identically;
    discretely this is rounding-exact in the interior while the soft blend
    into the boundary tail model allows a small bounded deviation."""
    p = contract_seed
    c4 = cf.c4_combination(p)
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
    assert_allclose(p.tail_left.amp, 3.0, rtol=1e-9)   # (b-a)/k


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


def test_tail_fit_recovers_planted_coefficients():
    g = cf.RhoGrid(12.0, 513)
    rho = g.nodes
    cls = cf.KahlerClass(1.0, 4.0)
    u = np.where(rho <= 0.0,
                 1.0 * rho + 3.0 * np.exp(rho) - 1.5 * np.exp(2.0 * rho),
                 4.0 * rho + 3.0 * np.exp(-rho) - 1.5 * np.exp(-2.0 * rho))
    tl, tr = cf.fit_boundary_tails(u, g, cls, k=1)
    assert_allclose([tl.base, tl.amp, tl.amp2], [0.0, 3.0, -1.5],
                    rtol=1e-7, atol=1e-9)
    assert_allclose([tr.base, tr.amp, tr.amp2], [0.0, 3.0, -1.5],
                    rtol=1e-7, atol=1e-9)


def test_tail_fit_discards_contaminated_inner_band():
    """A disturbance near the inner edge of the fitting band must not poison
    the recovered amplitudes; the fit shrinks its window instead."""
    g = cf.RhoGrid(12.0, 513)
    rho = g.nodes
    cls = cf.KahlerClass(1.0, 4.0)
    u = np.where(rho <= 0.0,
                 1.0 * rho + 3.0 * np.exp(rho) - 1.5 * np.exp(2.0 * rho),
                 4.0 * rho + 3.0 * np.exp(-rho) - 1.5 * np.exp(-2.0 * rho))
    u = u + 2e-3 * np.exp(-((rho + 9.3) / 0.15) ** 2)
    tl, _ = cf.fit_boundary_tails(u, g, cls, k=1)
    assert abs(tl.amp - 3.0) < 0.15


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


def _weights(kind):
    w = np.exp(np.linspace(-10.0, -7.0, 20))
    if kind == "zero":
        return np.zeros_like(w)
    if kind == "negative":
        return -w
    w[0] = math.inf if kind == "inf" else math.nan
    return w


@pytest.mark.parametrize("kind", ["zero", "negative", "inf", "nan"])
def test_fit_tail_without_a_positive_finite_weight_is_flat(kind):
    """A tail weight whose maximum is not positive and finite gets no
    least-squares fit: the model is the outermost value, with no modes."""
    z = np.linspace(2.0, 3.0, 20)
    assert cf.profile._fit_tail(z, _weights(kind)) == cf.profile.TailFit(2.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# position-only arrays, computed once per (grid, k)

def _perturbed_profile(grid, n, k):
    """A profile rebuilt from a seed with a bump at the center, so that the
    tail fits and the guards see a potential that is not the seed's."""
    seed = cf.build_canonical_profile(cf.KahlerClass(1.0, 4.0), grid, n, k)
    u = seed.u + 1e-3 * np.exp(-grid.nodes**2)
    return cf.profile_from_samples(u, grid, seed.cls, 0.0, n, k)


def _bitwise_state(p):
    """Every array and tail coefficient of a profile, its tail-guarded arrays
    and its trace row, as bytes, so equal means bit for bit."""
    arrays = (p.u, p.du, p.d2u, p.d3u, p.d4u, *p._guarded)
    return ([a.tobytes() for a in arrays], p.tail_left, p.tail_right,
            repr(cf.sample_row(p, 1.0, cf.Regime.CONTRACT)))


def _geometry_arrays(geo):
    def walk(item):
        if isinstance(item, np.ndarray):
            yield item
        elif isinstance(item, tuple):
            for sub in item:
                yield from walk(sub)
    return list(walk((geo.fits, geo.ghosts, geo.halves)))


def test_geometry_cache_is_invisible_in_the_results():
    """A cold cache, a warm one and an equal but distinct grid object give
    the same profile, guarded arrays and row, bit for bit."""
    profile._geometry.cache_clear()
    cold = _bitwise_state(_perturbed_profile(cf.RhoGrid(12.0, 1025), 2, 1))
    assert profile._geometry.cache_info().misses == 1
    warm = _bitwise_state(_perturbed_profile(cf.RhoGrid(12.0, 1025), 2, 1))
    grid = cf.RhoGrid(12.0, 1025)
    assert profile._geometry(grid, 1) is profile._geometry(cf.RhoGrid(12.0, 1025), 1)
    distinct = _bitwise_state(_perturbed_profile(grid, 2, 1))
    assert profile._geometry.cache_info().misses == 1
    assert cold == warm == distinct


def test_geometry_cache_keys_on_grid_and_k():
    """Grids that differ in L or in N, and another k, each get their own
    entry, and every cached array is read-only."""
    profile._geometry.cache_clear()
    keys = [(cf.RhoGrid(12.0, 1025), 1), (cf.RhoGrid(16.0, 1025), 1),
            (cf.RhoGrid(12.0, 513), 1), (cf.RhoGrid(12.0, 1025), 2)]
    entries = [profile._geometry(grid, k) for grid, k in keys]
    assert profile._geometry.cache_info().currsize == len(keys)
    assert len({id(geo) for geo in entries}) == len(keys)
    for (grid, k), geo in zip(keys, entries):
        assert geo.h3 == grid.h**3 and geo.h4 == grid.h**4
        assert [s for s, *_ in geo.halves] == [k, -k]
        arrays = _geometry_arrays(geo)
        assert len(arrays) == 2 * (2 + 3 + 3)
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0


def _formula_profile(u, grid, cls, n, k):
    """profile_from_samples with the fit bands, ghosts and guards formed on
    the spot from the grid, by boolean masks: the formulas the cached
    geometry stands for."""
    rho, h = grid.nodes, grid.h
    width = min(profile.TAIL_BAND_WIDTH / k, grid.L / 3.0)
    m = min(max(int(round(width / h)) + 1, profile.MIN_FIT_NODES), grid.N // 3)
    left = profile._fit_tail(u[:m] - cls.a * rho[:m], np.exp(k * rho[:m]))
    right = profile._fit_tail((u[-m:] - cls.b * rho[-m:])[::-1], np.exp(-k * rho[-m:])[::-1])
    gl = rho[0] + h * np.array([-3.0, -2.0, -1.0])
    gr = rho[-1] + h * np.array([1.0, 2.0, 3.0])
    padded = np.concatenate([
        cls.a * gl + left.base + left.amp * np.exp(k * gl) + left.amp2 * np.exp(2 * k * gl), u,
        cls.b * gr + right.base + right.amp * np.exp(-k * gr)
        + right.amp2 * np.exp(-2 * k * gr)])
    d = [profile._apply_stencil(padded, order, h) for order in (1, 2, 3, 4)]
    return cf.CalabiProfile(grid=grid, cls=cls, t=0.0, n=n, k=k, u=u, du=d[0], d2u=d[1],
                            d3u=d[2], d4u=d[3], tail_left=left, tail_right=right)


def _formula_guard_tails(p):
    """The guard's rule written with boolean masks over the whole grid: the
    model replaces a raw value on its own side of the center where it is
    finite and within the raw value's rounding noise, or at the three end
    nodes whose stencils read the ghosts."""
    N, c, rho = p.grid.N, p.grid.center, p.grid.nodes
    d2u, d3u, d4u = p.d2u, p.d3u, p.d4u
    scale = np.finfo(float).eps * float(np.max(np.abs(p.u)))
    node = np.arange(N)
    modelled = np.zeros(N, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        G = d3u / d2u
        c4 = (d3u * d3u - d4u * d2u) / (d2u * d2u * d2u)
        noises = (_coef_sum(3) * scale / p.grid.h**3 / np.abs(d2u),
                  _coef_sum(4) * scale / p.grid.h**4 / (d2u * d2u))
        for tail, s, side, end in ((p.tail_left, p.k, node < c, node < 3),
                                   (p.tail_right, -p.k, node > c, node >= N - 3)):
            E, F = tail.amp, tail.amp2
            w = np.ones(N)
            w[side] = np.exp(s * rho[side])
            models = (s * (E + 8.0 * F * w) / (E + 4.0 * F * w),
                      -4.0 * E * F * w**3 / (E * w + 4.0 * F * w**2) ** 3)
            for out, model, noise in zip((G, c4), models, noises):
                use = side & np.isfinite(model) & ((np.abs(model - out) <= noise) | end)
                out[use] = model[use]
            modelled |= use
        ref = abs(float(c4[c]))
        trust = modelled | (noises[1] <= profile.C4_TRUST_REL * (np.abs(c4) + ref))
    return G, c4, trust


def _coef_sum(order):
    """Absolute coefficient sum of the order-3 or order-4 stencil: 5.5 or 26.67."""
    return float(np.abs(profile._STENCILS[order][1]).sum())


@pytest.mark.parametrize("n, k, L", [(2, 1, 1.0), (2, 1, 2.0), (3, 2, 1.0), (2, 1, 12.0)])
def test_geometry_matches_the_formulas(n, k, L, monkeypatch):
    """The cached geometry gives what the formulas give on the spot, on
    grids short and long against the tail scale 1/k."""
    grid = cf.RhoGrid(L, 513)
    p = _perturbed_profile(grid, n, k)
    state = _bitwise_state(p)
    monkeypatch.setattr(profile, "_guard_tails", _formula_guard_tails)
    assert _bitwise_state(_formula_profile(p.u, grid, p.cls, n, k)) == state


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
        for guarded, raw, noise in (
                (cf.ratio_g(p), d3u / d2u,
                 _coef_sum(3) * scale / p.grid.h**3 / np.abs(d2u)),
                (cf.c4_combination(p), (d3u * d3u - d4u * d2u) / (d2u * d2u * d2u),
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
