"""Curve families, implicit tracer, and the residual verifier."""

import gc
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slag_forge import atiyah_hitchin as ah, elliptic, presets
from slag_forge import slag_curves as sc
from slag_forge.atiyah_hitchin import (AHParams, AHSphericalPoint,
                                       ah_from_spherical, ah_metric_UZ,
                                       ah_u_coordinate, ah_xy_from_zvx,
                                       ah_zvx_from_spherical)
from slag_forge.elliptic import (elliptic_data, elliptic_E_vec, elliptic_K,
                                 elliptic_K_vec)
from slag_forge.errors import ChartError, DomainError, EmptyDomainError, SlagForgeError
from slag_forge.moment_maps import (ActionSpec, moment_ah_so2, moment_tn_so2,
                                    moment_tn_u1)
from slag_forge.slag_curves import (CurveTrace, ImplicitGrid, ah_condition,
                                    ah_cos2psi_level, ah_traces_theta_k,
                                    ah_traces_theta_phi, perturb_phi,
                                    tn_so2_curve, tn_so2_r_of_theta,
                                    tn_u1_case1, tn_u1_case2, trace_zero_set,
                                    transversality_variation, verify_slag)
from slag_forge.taub_nut import (MetricBlock, TNParams, TNSphericalPoint,
                                 tn_chart_spherical_to_holo, tn_metric_holo)

TN_TOL = 1e-5
AH_TOL = 1e-4


def test_case1_first_sample_and_asymptote():
    traces = tn_u1_case1(1.0, 0.5, r_range=(math.sqrt(2.0), 1000.0), n=2000)
    plus = traces[0]
    assert plus.cols["r"][0] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert plus.cols["phi"][0] == pytest.approx(0.0, abs=1e-7)
    # phi -> pi/2 as r -> infinity
    assert abs(plus.cols["phi"][-1] - math.pi / 2) < 5e-3
    minus = traces[1]
    assert abs(minus.cols["phi"][-1] - 3 * math.pi / 2) < 5e-3


def test_case1_constant_phi_when_c2_zero():
    traces = tn_u1_case1(1.0, 0.0, r_range=(1.5, 5.0), n=50)
    assert np.allclose(traces[0].cols["phi"], math.pi / 2)
    with pytest.raises(EmptyDomainError):
        tn_u1_case1(1.0, 0.0, r_range=(0.5, 5.0))
    with pytest.raises(EmptyDomainError):
        tn_u1_case1(1.0, 0.5, r_range=(0.1, 1.0))


def test_case1_negative_c2_parametrized_by_minus_phi():
    """c2 < 0: phi falls from pi as r grows, so t = -phi keeps t increasing."""
    p = TNParams(1.0, 1.0)
    traces = tn_u1_case1(1.0, -0.5, n=300)
    assert [tr.tag for tr in traces] == ["+", "-"]
    for trace in traces:
        r, th, ph = trace.cols["r"], trace.cols["theta"], trace.cols["phi"]
        assert np.all(np.diff(trace.t) > 0) and np.all(np.diff(r) > 0)
        assert r[0] == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert np.allclose(r * np.cos(th), 1.0, atol=1e-12)
        assert np.allclose(0.5 * r * np.sin(th) * np.cos(ph), -0.5, atol=1e-12)
        res = verify_slag(trace, "tn", p)
        assert max(res["omega_max"], res["im_omega_max"]) < TN_TOL
        assert res["mu_max_dev"] < 1e-6 * max(1.0, abs(res["mu_median"]))
    assert np.allclose(traces[0].t, -traces[0].cols["phi"])


def test_case1_level_sets_exact():
    for trace in tn_u1_case1(2.0, 0.7, n=100):
        r, th, ph = trace.cols["r"], trace.cols["theta"], trace.cols["phi"]
        assert np.allclose(r * np.cos(th), 2.0, atol=1e-12)
        assert np.allclose(0.5 * r * np.sin(th) * np.cos(ph), 0.7, atol=1e-12)


def test_case2_examples():
    traces = tn_u1_case2(1.0, n=100)
    th, ph = traces[0].cols["theta"], traces[0].cols["phi"]
    assert th[0] == pytest.approx(math.pi / 4, rel=1e-9)
    assert ph[0] == pytest.approx(0.0, abs=1e-7)
    # cos(phi) = c/tan(theta) along the curve; phi increases toward pi/2
    assert np.allclose(np.cos(ph), 1.0 / np.tan(th), atol=1e-12)
    assert np.all(np.diff(ph) > -1e-12)
    assert abs(ph[-1] - math.pi / 2) < 0.1


def test_case2_family_monotone_for_larger_c():
    traces = tn_u1_case2(2.0, n=200)
    ph = traces[0].cols["phi"]
    assert ph[-1] > ph[0]


def test_so2_plane_root_and_axis_limit():
    p = TNParams(1.0, 1.0)
    assert tn_so2_r_of_theta(np.array([math.pi / 2]), 3.0, p)[0] == \
        pytest.approx(-2 + math.sqrt(10.0), rel=1e-12)
    # theta -> 0 limit tends to c1/(2m)
    assert tn_so2_r_of_theta(np.array([1e-8]), 3.0, p)[0] == \
        pytest.approx(1.5, rel=1e-8)
    with pytest.raises(DomainError):
        tn_so2_curve(-1.0, p)


@pytest.mark.parametrize("c1", [math.nan, math.inf, 0.0])
def test_so2_curve_rejects_c1_outside_finite_positive(c1):
    with pytest.raises(DomainError, match="finite c1 > 0"):
        tn_so2_curve(c1, TNParams(1.0, 1.0))


@pytest.mark.parametrize("psi_rate", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("branch", ["plane", "axis"])
def test_so2_curve_rejects_a_non_finite_psi_rate(branch, psi_rate):
    """A NaN or infinite psi rate is a DomainError up front that names it,
    not a NaN psi column that fails later in the chart."""
    with pytest.raises(DomainError) as err:
        tn_so2_curve(3.0, TNParams(1.0, 1.0), branch=branch, psi_rate=psi_rate)
    assert str(err.value) == f"tn_so2_curve requires a finite psi_rate, got {psi_rate!r}"


@pytest.mark.parametrize("branch", ["plane", "axis"])
def test_so2_curve_with_psi_rate_needs_positive_m(branch):
    """psi = -(psi_rate / 2m) t divides by m: m = 0 with psi_rate != 0 is a
    DomainError on both branches; m = 0 at psi_rate = 0 still gives the plane."""
    with pytest.raises(DomainError):
        tn_so2_curve(3.0, TNParams(1.0, 0.0), branch=branch, psi_rate=1.0, n=16)
    assert len(tn_so2_curve(3.0, TNParams(1.0, 0.0), n=16)) == 2


def test_so2_axis_branch():
    p = TNParams(1.0, 2.0)
    traces = tn_so2_curve(4.0, p, branch="axis", n=32)
    assert len(traces) == 2
    for tr in traces:
        assert np.allclose(tr.cols["r"], 1.0)  # c1/(2m)
        res = verify_slag(tr, "tn", p)
        assert res["omega_max"] == 0.0
        assert res["im_omega_max"] == 0.0  # Re(z udot) = 0 with z = 0
        assert res["mu_max_dev"] == 0.0
    # imaginary case fills psi = -(c/2m) t
    tr = tn_so2_curve(4.0, p, branch="axis", psi_rate=2.0, n=32)[0]
    assert not np.allclose(tr.cols["psi"], 0.0)


def test_verify_slag_tn_families():
    p = TNParams(1.0, 1.0)
    for trace in (tn_u1_case1(1.0, 0.5, n=400) + tn_u1_case2(2.0, n=400)
                  + tn_so2_curve(3.0, p, branch="plane", n=400)):
        res = verify_slag(trace, "tn", p)
        assert res["omega_max"] < TN_TOL
        assert res["im_omega_max"] < TN_TOL
        assert res["mu_max_dev"] < 1e-6 * max(1.0, abs(res["mu_median"]))


def test_verify_slag_case1_tight():
    p = TNParams(1.0, 1.0)
    res = verify_slag(tn_u1_case1(1.0, 0.5, n=400)[0], "tn", p)
    assert res["omega_max"] < 1e-6
    assert res["im_omega_max"] < 1e-6
    assert res["mu_max_dev"] < 1e-6


def test_negative_control():
    p = TNParams(1.0, 1.0)
    base = tn_u1_case1(1.0, 0.5, n=400)[0]
    good = verify_slag(base, "tn", p)
    bad = verify_slag(perturb_phi(base, 0.1), "tn", p)
    assert bad["im_omega_max"] > 1e-2
    assert bad["im_omega_max"] > 1e3 * max(good["im_omega_max"], 1e-300)


def test_verify_slag_chart_guard():
    p = TNParams(1.0, 1.0)
    t = np.linspace(0.0, 1.0, 8)
    trace = CurveTrace(action="u1", t=t,
                       cols={"r": np.full(8, 2.0), "theta": np.zeros(8) + 1e-14,
                             "phi": np.linspace(0, 1, 8), "psi": np.zeros(8)},
                       params={})
    # all-axis traces take the axis path; a single interior sample must raise
    trace.cols["theta"][3] = 0.5
    with pytest.raises(ChartError):
        verify_slag(trace, "tn", p)


def test_ah_cos2psi_backsubstitution():
    rng = np.random.default_rng(50)
    for _ in range(50):
        k = rng.uniform(0.2, 0.8)
        th = rng.uniform(0.4, math.pi - 0.4)
        psi = rng.uniform(0.05, math.pi / 2 - 0.05)
        h = 1.0
        # build c1 from a state, then recover cos(2 psi)
        from slag_forge.elliptic import elliptic_E, elliptic_K
        K, E = elliptic_K(k), elliptic_E(k)
        x = 4 * (-3 * math.cos(2 * psi) * math.sin(th) ** 2
                 + (2 * k * k - 1) * (1 - 3 * math.cos(th) ** 2)) * K * K
        c1 = -16 * h * K * ((k * k - 2) * K / 3 + E) - x / (3 * h)
        val = ah_cos2psi_level(th, k, c1, h)[0]
        assert val == pytest.approx(math.cos(2 * psi), abs=1e-10)
    # no real psi: the level leaves [-1, 1] and the condition reads NaN
    assert not sc._in_range(ah_cos2psi_level(0.1, 0.5, 100.0, 1.0)[0])
    assert math.isnan(ah_condition(0.1, 0.3, 0.5, 100.0, 1.0))


def test_ah_cos2psi_affine_in_c1():
    # d(cos 2psi)/d c1 = h / (4 K^2 sin^2 theta), read off the formula.  At
    # (theta, k) = (1.1, 0.4) a real psi exists only for c1 in (-20.73, -3.64);
    # c1 = -10 sits inside it (cos 2psi = 0.256).
    from slag_forge.elliptic import elliptic_K
    k, th, h = 0.4, 1.1, 1.0
    c1, d = -10.0, 1e-4
    slope = (ah_cos2psi_level(th, k, c1 + d, h)[0]
             - ah_cos2psi_level(th, k, c1 - d, h)[0]) / (2 * d)
    expect = h / (4 * elliptic_K(k) ** 2 * math.sin(th) ** 2)
    assert slope == pytest.approx(expect, rel=1e-9)
    # outside that interval the level set has no real psi (cos 2psi = 1.54):
    # the condition reads NaN there
    assert math.isnan(ah_condition(th, 0.3, k, 1.0, h))
    # the unclamped level value keeps the same slope there
    assert ah_cos2psi_level(th, k, 1.0, h)[0] == pytest.approx(1.54, abs=5e-3)
    slope = (ah_cos2psi_level(th, k, 1.0 + d, h)[0]
             - ah_cos2psi_level(th, k, 1.0 - d, h)[0]) / (2 * d)
    assert slope == pytest.approx(expect, rel=1e-9)


def _level_full_array(theta, k, c1, h):
    """ah_cos2psi_level's formula, K and E, with K and E taken on every element of k."""
    K, E = elliptic_K_vec(k), elliptic_E_vec(k)
    bracket = (3.0 * h / (4.0 * K * K)) * (
        c1 + 16.0 * h * K * ((k * k - 2.0) * K / 3.0 + E))
    st2 = np.sin(theta) ** 2
    ct = np.cos(theta)
    tk = 2.0 * k * k - 1.0
    return (tk * (1.0 - 3.0 * ct * ct) + bracket) / (3.0 * st2), K, E


def test_ah_cos2psi_level_bits_match_full_array_reference():
    """The level set, K and E have the bits of the reference that takes K and
    E on every element of k: on the fig9 (theta, k) grid, on a bisection-like
    k with repeats and at a 0-d k."""
    th_axis = np.linspace(0.02, math.pi - 0.02, 257)
    k_axis = np.linspace(0.02, 0.98, 257)
    rng = np.random.default_rng(7)
    cases = [np.meshgrid(th_axis, k_axis, indexing="ij"),
             (rng.uniform(0.1, 3.0, 300), np.repeat(rng.uniform(0.05, 0.95, 60), 5)),
             (np.float64(1.1), np.float64(0.4)),
             (np.linspace(0.3, 2.8, 5), np.array(0.7))]
    for theta, k in cases:
        got = ah_cos2psi_level(theta, k, -3.0, 1.0)
        ref = _level_full_array(theta, np.asarray(k, dtype=float), -3.0, 1.0)
        assert len(got) == len(ref) == 3
        for g, r in zip(got, ref):
            assert np.shape(g) == np.shape(r)
            assert np.array_equal(g, r)


# theta within 1e-12..1e-3 of the poles theta = 0 and theta = pi
POLE_THETA = st.one_of(st.floats(1e-12, 1e-3),
                       st.floats(math.pi - 1e-3, math.pi - 1e-12))


@settings(max_examples=200, deadline=None)
@given(theta=POLE_THETA, k=st.floats(1e-6, 1.0 - 1e-9), c1=st.floats(-10.0, 10.0),
       phi=st.floats(0.0, 2.0 * math.pi), sign=st.sampled_from((1, -1)))
def test_ah_cos2psi_and_condition_bounded_at_poles(theta, k, c1, phi, sign):
    """Near theta = 0 or pi, the condition residual is finite where cos 2psi
    is in [-1, 1] and NaN where it is not, each call in under 50 ms of CPU
    time; at theta = 0 itself the level is not finite and the condition NaN."""
    # CPU time of this process: a wall-clock bound also counts time other
    # processes take on a busy host; the collector is paused, so that a
    # collection pass of the whole test session is not billed to these calls
    gc.disable()
    try:
        t0 = time.process_time()
        c2p = ah_cos2psi_level(theta, k, c1, 1.0)[0]
        t1 = time.process_time()
        f = ah_condition(theta, phi, k, c1, 1.0, sign)
        t2 = time.process_time()
    finally:
        gc.enable()
    assert t1 - t0 < 0.05 and t2 - t1 < 0.05
    assert math.isfinite(f) if sc._in_range(c2p) else math.isnan(f)
    assert not math.isfinite(ah_cos2psi_level(0.0, k, c1, 1.0)[0])
    assert math.isnan(ah_condition(0.0, phi, k, c1, 1.0, sign))


def test_ah_condition_zero_iff_negative_real_z():
    k, c1, h = 0.5, 0.0, 1.0
    count = 0
    for th in np.linspace(1.48, 1.66, 12):
        c2p = ah_cos2psi_level(th, k, c1, h)[0]
        assert sc._in_range(c2p)
        psi = 0.5 * math.acos(min(1.0, max(-1.0, c2p)))
        z0, _, _ = ah_zvx_from_spherical(k, th, 0.0, psi, h)
        phi_star = ((math.pi - np.angle(z0)) / 2.0) % (2 * math.pi)
        f = ah_condition(th, phi_star, k, c1, h, sign=1)
        z, _, _ = ah_zvx_from_spherical(k, th, phi_star, psi, h)
        assert z.real <= 0 and abs(z.imag) <= 1e-9 * abs(z)
        assert abs(f) < 1e-7
        # off the locus the condition is nonzero
        f_off = ah_condition(th, (phi_star + 0.7) % (2 * math.pi), k, c1, h, 1)
        assert abs(f_off) > 1e-2
        count += 1
    assert count == 12


def test_ah_condition_sign_symmetry():
    k, c1, h = 0.5, 0.0, 1.0
    th = 1.55
    for ph in (0.3, 1.2, 2.5):
        a = ah_condition(th, ph, k, c1, h, sign=1)
        b = ah_condition(th, (2 * math.pi - ph) % (2 * math.pi), k, c1, h, sign=-1)
        assert type(a) is type(b) is np.float64     # scalars in, a scalar out
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_trace_zero_set_circle():
    grid = ImplicitGrid(f=lambda x, y: x * x + y * y - 1.0, rect=(-2, 2, -2, 2),
                        n=64)
    polys = trace_zero_set(grid)
    assert len(polys) == 1
    cell_diag = math.hypot(4 / 64, 4 / 64)
    for pt in polys[0]:
        assert abs(math.hypot(*pt) - 1.0) < cell_diag
    # closed polyline: endpoints coincide
    assert np.allclose(polys[0][0], polys[0][-1], atol=2e-10)


def test_trace_zero_set_horizontal_line():
    grid = ImplicitGrid(f=lambda x, y: y + 0.0 * x, rect=(-2, 2, -2, 2), n=32)
    polys = trace_zero_set(grid)
    assert len(polys) == 1
    assert np.max(np.abs(polys[0][:, 1])) < 1e-9


def test_trace_zero_set_empty_and_nan_regions():
    grid = ImplicitGrid(f=lambda x, y: x * x + y * y + 1.0, rect=(-1, 1, -1, 1),
                        n=16)
    assert trace_zero_set(grid) == []
    # a constant condition (a Python float) broadcasts to the node lattice
    assert trace_zero_set(ImplicitGrid(f=lambda x, y: 1.0, rect=(-1, 1, -1, 1),
                                       n=16)) == []

    def f_nan(x, y):
        out = np.asarray(x, dtype=float) - 0.5
        return np.where(np.asarray(y) > 0, out, np.nan)

    grid2 = ImplicitGrid(f=f_nan, rect=(-1, 1, -1, 1), n=32)
    polys = trace_zero_set(grid2)
    assert polys and all(np.all(p[:, 1] > 0) for p in polys)
    with pytest.raises(DomainError):
        ImplicitGrid(f=f_nan, rect=(-1, 1, -1, 1), n=8)


def test_trace_zero_set_returns_early_without_a_finite_node(monkeypatch):
    """A lattice without a finite node returns [] before any refinement: an
    all-NaN grid (one layer and two) and the fig8 family at k = 0.5,
    c1 = 10, where no theta row has a real psi, never call _refine_edges.
    A grid whose only finite cell is crossed still traces that cell."""
    def no_refine(*args):
        raise AssertionError("_refine_edges called")

    monkeypatch.setattr(sc, "_refine_edges", no_refine)
    for f in (lambda x, y: np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), np.nan),
              lambda x, y: np.full((2,) + np.broadcast_shapes(np.shape(x), np.shape(y)),
                                   np.nan)):
        assert trace_zero_set(ImplicitGrid(f=f, rect=(-1, 1, -1, 1), n=16)) == []
    assert ah_traces_theta_phi(0.5, 10.0) == []
    monkeypatch.undo()

    xs = np.linspace(-1, 1, 17)
    x0, x1, y0, y1 = xs[5], xs[6], xs[9], xs[10]

    def one_cell(x, y):
        inside = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
        return np.where(inside, x - 0.5 * (x0 + x1) + 0.0 * y, np.nan)

    calls = _spy_calls(monkeypatch, "_refine_edges", lambda: trace_zero_set(
        ImplicitGrid(f=one_cell, rect=(-1, 1, -1, 1), n=16)))
    assert len(calls) == 1 and len(calls[0][0][1]) == 2
    polys = trace_zero_set(ImplicitGrid(f=one_cell, rect=(-1, 1, -1, 1), n=16))
    assert len(polys) == 1 and polys[0].shape == (2, 2)
    assert np.allclose(polys[0][:, 0], 0.5 * (x0 + x1), atol=1e-12)
    assert polys[0][:, 1].tolist() == [y0, y1]


def test_trace_zero_set_determinism():
    grid = ImplicitGrid(f=lambda x, y: np.sin(3 * x) - y, rect=(-2, 2, -2, 2),
                        n=48)
    a = trace_zero_set(grid)
    b = trace_zero_set(grid)
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)


def _reference_refine_bisection(f, p0s, p1s, f0s, f1s, tol, iters=80):
    """The 80-step bisection refine: the midpoint of [a, b] each sweep, over
    every segment until all stop (|f| < tol, non-finite, bracket < 1e-10)."""
    a = np.zeros(len(p0s))
    b = np.ones(len(p0s))
    fa = f0s.copy()
    done = np.zeros(len(p0s), dtype=bool)
    mid = 0.5 * np.ones(len(p0s))
    for _ in range(iters):
        mid = np.where(done, mid, 0.5 * (a + b))
        pts = p0s + mid[:, None] * (p1s - p0s)
        with np.errstate(all="ignore"):
            fm = np.asarray(f(*pts.T), dtype=float)
        done = done | ~np.isfinite(fm) | (np.abs(fm) < tol) | ((b - a) < 1e-10)
        if np.all(done):
            break
        towards_a = (fa > 0.0) != (fm > 0.0)
        b = np.where(~done & towards_a, mid, b)
        a = np.where(~done & ~towards_a, mid, a)
        fa = np.where(~done & ~towards_a, fm, fa)
    return p0s + mid[:, None] * (p1s - p0s)


def _spy_calls(monkeypatch, name, run):
    """Arguments of every call of slag_curves.<name> made by run()."""
    calls = []
    original = getattr(sc, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(sc, name, spy)
    run()
    monkeypatch.setattr(sc, name, original)
    return calls


TRACER_CASES = {
    "fig8": lambda: ah_traces_theta_phi(0.5, -3.0),
    "fig9": lambda: ah_traces_theta_k(math.pi / 4, -3.0),
    "circle": lambda: sc.trace_zero_set(ImplicitGrid(
        f=lambda x, y: x * x + y * y - 1.0, rect=(-2, 2, -2, 2), n=64)),
}


@pytest.mark.parametrize("case", sorted(TRACER_CASES))
def test_trace_zero_set_matches_bisection_reference(case, monkeypatch):
    """Illinois refinement against the 80-step bisection on the fig8
    (k = 0.5) and fig9 (phi = pi/4) grids at c1 = -3 and on the circle: the
    same polylines with the same vertex counts, vertices within 1e-9."""
    calls = _spy_calls(monkeypatch, "trace_zero_set", TRACER_CASES[case])
    assert calls
    got = [trace_zero_set(*args, **kwargs) for args, kwargs in calls]
    monkeypatch.setattr(sc, "_refine_edges", _reference_refine_bisection)
    ref = [trace_zero_set(*args, **kwargs) for args, kwargs in calls]
    vertices = 0
    for g_polys, r_polys in zip(got, ref):
        assert [len(p) for p in g_polys] == [len(p) for p in r_polys]
        for g, r in zip(g_polys, r_polys):
            assert np.max(np.abs(g - r)) <= 1e-9
            vertices += len(g)
    assert vertices > 100


def _reference_trace_zero_set(grid, tol=1e-10):
    """The edge-key tracer: ("h"|"v", i, j) tuple keys, a per-cell loop, an
    edge-key adjacency dict and frozenset chaining, on the same node
    lattice, refine and saddle rule as slag_curves.trace_zero_set."""
    x0, x1, y0, y1 = grid.rect
    n = grid.n
    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)
    with np.errstate(all="ignore"):
        F = np.broadcast_to(np.asarray(grid.f(xs[:, None], ys[None, :]), dtype=float),
                            (n + 1, n + 1))
    fin = np.isfinite(F)
    pos = F > 0.0
    h_cross = (pos[:-1, :] != pos[1:, :]) & fin[:-1, :] & fin[1:, :]
    v_cross = (pos[:, :-1] != pos[:, 1:]) & fin[:, :-1] & fin[:, 1:]
    hi, hj = np.nonzero(h_cross)
    vi, vj = np.nonzero(v_cross)
    p0s = np.concatenate([np.column_stack([xs[hi], ys[hj]]),
                          np.column_stack([xs[vi], ys[vj]])])
    p1s = np.concatenate([np.column_stack([xs[hi + 1], ys[hj]]),
                          np.column_stack([xs[vi], ys[vj + 1]])])
    f0s = np.concatenate([F[hi, hj], F[vi, vj]])
    f1s = np.concatenate([F[hi + 1, hj], F[vi, vj + 1]])
    refined = sc._refine_edges(grid.f, p0s, p1s, f0s, f1s, tol) if len(p0s) else p0s
    verts = {}
    for idx in range(len(hi)):
        verts[("h", int(hi[idx]), int(hj[idx]))] = tuple(refined[idx])
    for idx in range(len(vi)):
        verts[("v", int(vi[idx]), int(vj[idx]))] = tuple(refined[len(hi) + idx])

    cell_ok = fin[:-1, :-1] & fin[1:, :-1] & fin[:-1, 1:] & fin[1:, 1:]
    crossings = (h_cross[:, :-1].astype(int) + h_cross[:, 1:]
                 + v_cross[:-1, :] + v_cross[1:, :]) * cell_ok
    si, sj = np.nonzero(crossings == 4)
    saddle_pos = {}
    if len(si):
        cx = 0.5 * (xs[si] + xs[si + 1])
        cy = 0.5 * (ys[sj] + ys[sj + 1])
        with np.errstate(all="ignore"):
            fc_vals = np.asarray(grid.f(cx, cy), dtype=float)
        saddle_pos = {(int(a), int(b)): bool(v > 0.0) for a, b, v in zip(si, sj, fc_vals)}

    segments = []
    for i_, j_ in zip(*np.nonzero((crossings == 2) | (crossings == 4))):
        i, j = int(i_), int(j_)
        bottom, top = ("h", i, j), ("h", i, j + 1)
        left, right = ("v", i, j), ("v", i + 1, j)
        crossed = [e for e, c in ((bottom, h_cross[i, j]), (top, h_cross[i, j + 1]),
                                  (left, v_cross[i, j]), (right, v_cross[i + 1, j])) if c]
        if len(crossed) == 2:
            segments.append((crossed[0], crossed[1]))
        elif saddle_pos[(i, j)] == bool(pos[i, j]):
            segments.extend([(bottom, right), (top, left)])
        else:
            segments.extend([(bottom, left), (top, right)])

    adj = {}
    for a, b in segments:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    unused = {frozenset((a, b)) for a, b in segments if a != b}

    def walk(start):
        chain = [start]
        current = start
        while True:
            nxt = None
            for nb in adj.get(current, ()):
                key = frozenset((current, nb))
                if key in unused:
                    nxt = nb
                    unused.remove(key)
                    break
            if nxt is None:
                return chain
            chain.append(nxt)
            current = nxt

    endpoints = sorted((k for k, nbrs in adj.items() if len(nbrs) == 1),
                       key=lambda k: verts[k])
    chains = []
    for ep in endpoints:
        if any(frozenset((ep, nb)) in unused for nb in adj[ep]):
            chains.append(walk(ep))
    while unused:
        start = min(unused, key=lambda s: sorted(verts[k] for k in s)[0])
        chains.append(walk(min(start, key=lambda k: verts[k])))

    polylines = []
    for chain in chains:
        pts = np.array([verts[k] for k in chain])
        if len(pts) < 2:
            continue
        if tuple(pts[0]) > tuple(pts[-1]):
            pts = pts[::-1]
        polylines.append(pts)
    polylines.sort(key=lambda p: (tuple(p[0]), tuple(p[-1]), len(p)))
    return polylines


def _saddle_cells(grid):
    """Cells whose four corners are finite and alternate in sign."""
    xs = np.linspace(grid.rect[0], grid.rect[1], grid.n + 1)
    ys = np.linspace(grid.rect[2], grid.rect[3], grid.n + 1)
    with np.errstate(all="ignore"):
        F = np.broadcast_to(grid.f(xs[:, None], ys[None, :]), (grid.n + 1, grid.n + 1))
    pos, fin = F > 0.0, np.isfinite(F)
    return int(np.sum((pos[:-1, :-1] == pos[1:, 1:]) & (pos[1:, :-1] == pos[:-1, 1:])
                      & (pos[:-1, :-1] != pos[1:, :-1])
                      & fin[:-1, :-1] & fin[1:, 1:] & fin[1:, :-1] & fin[:-1, 1:]))


def _layer_grids(grid):
    """One single-layer grid per layer of a layered grid; [grid] for a plain one."""
    x0, x1, y0, y1 = grid.rect
    with np.errstate(all="ignore"):
        centre = np.asarray(grid.f(np.array([0.5 * (x0 + x1)]), np.array([0.5 * (y0 + y1)])))
    if centre.ndim < 2:
        return [grid]
    return [ImplicitGrid(f=lambda x, y, i=i: grid.f(x, y)[i], rect=grid.rect, n=grid.n)
            for i in range(len(centre))]


def _layer_polylines(polylines, layer):
    """The (x, y) polylines of one layer of trace_zero_set's output, in order."""
    if not polylines or polylines[0].shape[1] == 2:
        return polylines if layer == 0 else []
    return [p[:, :2] for p in polylines if p[0, 2] == layer]


def _synthetic_grid(f):
    return lambda: sc.trace_zero_set(ImplicitGrid(f=f, rect=(-2, 2, -2, 2), n=64))


CHAINING_CASES = {
    "fig8": TRACER_CASES["fig8"],
    "fig9": TRACER_CASES["fig9"],
    "saddles": _synthetic_grid(lambda x, y: np.sin(5 * x) * np.cos(5 * y)),
    "loops": _synthetic_grid(lambda x, y: np.sin(5 * x) * np.cos(4 * y) - 0.1),
}


@pytest.mark.parametrize("case", sorted(CHAINING_CASES))
def test_trace_zero_set_matches_edge_key_reference(case, monkeypatch):
    """Integer edge ids against the tuple-keyed, frozenset-chained tracer:
    every polyline bit for bit equal and in the same order, on the fig8
    (k = 0.5) and fig9 (phi = pi/4) grids at c1 = -3 and on two synthetic
    grids, one with 36 saddle cells and one with 15 closed loops.  Each
    closed loop starts and ends at its smallest vertex."""
    calls = _spy_calls(monkeypatch, "trace_zero_set", CHAINING_CASES[case])
    assert calls
    loops = saddles = 0
    for args, kwargs in calls:
        got = trace_zero_set(*args, **kwargs)
        for layer, grid in enumerate(_layer_grids(args[0])):
            ref = _reference_trace_zero_set(grid, **kwargs)
            mine = _layer_polylines(got, layer)
            assert len(mine) == len(ref) > 0
            for g, r in zip(mine, ref):
                assert np.array_equal(g, r)
                if np.array_equal(g[0], g[-1]):
                    loops += 1
                    smallest = g[np.lexsort(g.T[::-1])[0]]
                    assert np.array_equal(g[0], smallest)
            saddles += _saddle_cells(grid)
    if case == "saddles":
        assert saddles == 36
    if case == "loops":
        assert loops == 15


# the most sweeps one refine call takes, measured on these grids: 8 (fig8),
# 26 (fig9, a sqrt-type zero on the theta = pi/2 node column, where only the
# 1e-10 bracket rule stops); bisection takes 32 and 35
ILLINOIS_MAX_SWEEPS = {"fig8": 10, "fig9": 28}


@pytest.mark.parametrize("case", sorted(ILLINOIS_MAX_SWEEPS))
def test_refine_edges_sweeps_below_bisection(case, monkeypatch):
    """A counting f: each Illinois refine takes at most the measured sweep
    bound where bisection takes 30 or more, and evaluates f on at most a
    quarter of the points bisection does (measured: 0.10 fig8, 0.18 fig9)."""
    calls = _spy_calls(monkeypatch, "_refine_edges", TRACER_CASES[case])
    assert calls
    for args, kwargs in calls:
        f, rest = args[0], args[1:]
        counts = []
        for refine in (sc._refine_edges, _reference_refine_bisection):
            sweeps, points = [0], [0]

            def counting(x, *rest):
                sweeps[0] += 1
                points[0] += np.size(x)
                return f(x, *rest)

            refine(counting, *rest, **kwargs)
            counts.append((sweeps[0], points[0]))
        (ill_sweeps, ill_points), (bis_sweeps, bis_points) = counts
        assert ill_sweeps <= ILLINOIS_MAX_SWEEPS[case]
        assert bis_sweeps >= 30
        assert ill_points <= 0.25 * bis_points


def _reference_condition_arrays(theta, phi, k, c1, h, sign):
    """The per-sign condition: w and sqrt(w) evaluated afresh at each sign."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    k = np.asarray(k, dtype=float)
    c2p, K, _ = ah_cos2psi_level(theta, k, c1, h)
    ok = sc._in_range(c2p)
    c2p = np.clip(c2p, -1.0, 1.0)
    st2 = np.sin(theta) ** 2
    ct = np.cos(theta)
    tk = 2.0 * k * k - 1.0
    s2p = sign * np.sqrt(np.maximum(1.0 - c2p * c2p, 0.0))
    w = c2p * (1.0 + ct * ct) + tk * st2 + 2j * s2p * ct
    val = 2.0 * np.real(np.exp(1j * phi) * K * np.sqrt(w))
    return np.where(ok, val, np.nan)


def _dense_condition_layers(theta, phi, k, c1, h):
    """Both sign layers from one sign-free root computed at every node or
    point, range or not (the dense form the sparse kernel replaced)."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    k = np.asarray(k, dtype=float)
    c2p, K, _ = ah_cos2psi_level(theta, k, c1, h)
    ok = sc._in_range(c2p)
    c2p = np.clip(c2p, -1.0, 1.0)
    st2 = np.sin(theta) ** 2
    ct = np.cos(theta)
    tk = 2.0 * k * k - 1.0
    s2p = np.sqrt(np.maximum(1.0 - c2p * c2p, 0.0))
    w = c2p * (1.0 + ct * ct) + tk * st2 + 2j * s2p * ct
    ek, sq, real_w = np.exp(1j * phi) * K, np.sqrt(w), s2p == 0.0
    out = np.empty((2,) + np.broadcast_shapes(ok.shape, ek.shape, sq.shape))
    for layer, sqs in enumerate((sq, np.where(real_w, sq, np.conjugate(sq)))):
        out[layer] = np.where(ok, 2.0 * np.real(ek * sqs), np.nan)
    return out


def _theta_at_range_edge(k, c1, level):
    """Thetas in [0.02, pi - 0.02] where cos 2psi = level (+-1) up to its last
    bit, on the side outside [-1, 1] (clipped, so sin 2psi is exactly 0)."""
    th = np.linspace(0.02, math.pi - 0.02, 257)

    def gap(t):
        return ah_cos2psi_level(t, k, c1, 1.0)[0] - level

    out = []
    for i in np.flatnonzero(np.diff(np.sign(gap(th)))):
        a, b = float(th[i]), float(th[i + 1])
        ga = float(gap(a))
        while a < np.nextafter(b, a):
            m = 0.5 * (a + b)
            gm = float(gap(m))
            if (gm > 0.0) == (ga > 0.0):
                a, ga = m, gm
            else:
                b = m
        out.append(a if (ga > 0.0) == (level > 0.0) else b)
    return np.array(out)


# the fig8 lattice (theta, phi at k = 0.5) and two fig9 lattices (theta, k at
# phi = pi/4): (fixed, c1, rect, and the (k, cos 2psi) pairs of the range
# edges the plane crosses; fig8 reaches no cos 2psi = -1 at its k)
SIGN_PLANES = {
    "fig8-k0.5-c1m3": ("theta-phi", 0.5, -3.0, (0.02, math.pi - 0.02, 0.0, 2.0 * math.pi),
                       [(0.5, 1.0)]),
    "fig9-phi-pi4-c1m3": ("theta-k", math.pi / 4, -3.0, (0.02, math.pi - 0.02, 0.02, 0.98),
                          [(0.5, 1.0), (0.9, -1.0)]),
    "fig9-phi-pi4-c15": ("theta-k", math.pi / 4, 5.0, (0.02, math.pi - 0.02, 0.02, 0.98),
                         [(0.93, 1.0), (0.97, -1.0)]),
}


def _plane_args(plane, fixed, x, y):
    """(theta, phi, k) of plane points (x, y)."""
    return (x, y, fixed) if plane == "theta-phi" else (x, fixed, y)


@pytest.mark.parametrize("case", sorted(SIGN_PLANES))
def test_shared_root_matches_per_sign_reference(case, monkeypatch):
    """Both signs read from one sqrt(w) give the per-sign values bit for
    bit, NaN pattern included: on the node lattice (one sqrt(w) call gives
    both layers of the family's grid), on refine-style 1-d points, and on
    points where sin 2psi = 0 exactly, at whose cos 2psi = -1 end a plain
    conjugate would flip the branch of sqrt(w)."""
    plane, fixed, c1, (x0, x1, y0, y1), edges = SIGN_PLANES[case]

    def layers(x, y):
        return sc._ah_condition_layers(*_plane_args(plane, fixed, x, y), c1, 1.0)

    def reference(x, y, sign):
        return _reference_condition_arrays(*_plane_args(plane, fixed, x, y), c1, 1.0, sign)

    xs, ys = np.linspace(x0, x1, 257)[:, None], np.linspace(y0, y1, 257)[None, :]
    calls = _spy_calls(monkeypatch, "_ah_sqrt_w", lambda: layers(xs, ys))
    assert len(calls) == 1
    for got, sign in zip(layers(xs, ys), (1, -1)):
        ref = reference(xs, ys, sign)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        assert np.isnan(ref).any() and np.isfinite(ref).any()

    rng = np.random.default_rng(3)
    x, y = rng.uniform(x0, x1, 4000), rng.uniform(y0, y1, 4000)
    for got, sign in zip(layers(x, y), (1, -1)):
        assert got.tobytes() == reference(x, y, sign).tobytes()

    sqrt_w = sc._ah_sqrt_w
    for k, level in edges:
        x = _theta_at_range_edge(k, c1, level)
        y = rng.uniform(y0, y1, len(x)) if plane == "theta-phi" else np.full_like(x, k)
        assert len(x) and np.all(sc._in_range(ah_cos2psi_level(x, k, c1, 1.0)[0]))
        calls = _spy_calls(monkeypatch, "_ah_sqrt_w", lambda: layers(x, y))
        assert sqrt_w(*calls[0][0])[1].all()          # sin 2psi = 0 at every point
        for got, sign in zip(layers(x, y), (1, -1)):
            assert got.tobytes() == reference(x, y, sign).tobytes()
        # without the sin 2psi = 0 flag, s = -1 takes the plain conjugate
        monkeypatch.setattr(sc, "_ah_sqrt_w",
                            lambda *args: (sqrt_w(*args)[0], np.zeros(len(args[0]), bool)))
        plain = layers(x, y)[1]
        monkeypatch.undo()
        if level > 0:
            assert np.array_equal(plain, reference(x, y, -1))
        else:
            assert np.all(plain != reference(x, y, -1))


AH_FAMILIES = {
    "fig8-k0.5-c1m3": (ah_traces_theta_phi, 0.5, -3.0),
    "fig9-phi-pi4-c1m3": (ah_traces_theta_k, math.pi / 4, -3.0),
    "fig9-phi-pi4-c15": (ah_traces_theta_k, math.pi / 4, 5.0),
}


@pytest.mark.parametrize("case", sorted(AH_FAMILIES))
def test_ah_families_match_per_sign_reference(case, monkeypatch):
    """A family evaluates its node lattice's condition layers once, and
    emits the traces of the per-sign path bit for bit (tags, t and every
    column)."""
    family, fixed, c1 = AH_FAMILIES[case]
    calls = _spy_calls(monkeypatch, "_ah_condition_layers", lambda: family(fixed, c1))
    assert [np.shape(args[0]) for args, _ in calls].count((257, 1)) == 1
    got = family(fixed, c1)
    monkeypatch.setattr(sc, "_ah_condition_layers", lambda *args: np.stack(
        [_reference_condition_arrays(*args, sign) for sign in (1, -1)]))
    ref = family(fixed, c1)
    assert [tr.tag for tr in got] == [tr.tag for tr in ref]
    assert {tr.params["sign"] for tr in got} == {1.0, -1.0}
    for g, r in zip(got, ref):
        assert g.params == r.params
        assert g.t.tobytes() == r.t.tobytes()
        assert g.cols.keys() == r.cols.keys()
        assert all(g.cols[c].tobytes() == r.cols[c].tobytes() for c in g.cols)


def _tracer_mask_reference(z, v, x, k, rho):
    """The tracer's sample mask as it was written before ah_regular: the cut
    [e3, e2] typed out from rho, and min |v_pm| (x_+ - x_-) for min |y_pm|."""
    k2 = k * k
    e2 = (rho / 3.0) * (2.0 * k2 - 1.0)
    e3 = -(rho / 3.0) * (k2 + 1.0)
    pad = 1e-4 * (e2 - e3)
    with np.errstate(divide="ignore", invalid="ignore"):
        xp, xm, vp, vm, _, _ = ah.ah_xy_from_zvx(z, v, x)
    ymag = np.minimum(np.abs(vp), np.abs(vm)) * (xp - xm)
    return ((np.abs(z) >= 1e-10 * rho) & (e3 + pad < xm) & (xm < e2 - pad)
            & (xp > e2 + pad) & (ymag > 1e-7 * rho ** 1.5))


@pytest.mark.parametrize("preset", ["fig8", "fig9"])
def test_tracer_mask_matches_its_old_arithmetic(preset, monkeypatch):
    """On every polyline of the preset, ah_regular at the tracer's guard keeps
    the samples the tracer's own mask kept, bit for bit; the curve data it
    reads has rho = 16 K(k)^2 (h = 1)."""
    seen = []
    regular = ah.ah_regular

    def spy(z, v, x, data, y_guard):
        seen.append((z, v, x, data, y_guard, regular(z, v, x, data, y_guard)))
        return seen[-1][-1]

    monkeypatch.setattr(ah, "ah_regular", spy)
    list(presets.preset_traces(preset))
    kept = dropped = 0
    for z, v, x, data, y_guard, got in seen:
        assert y_guard == 1e-7
        assert np.array_equal(data.rho, 16.0 * elliptic.elliptic_KE_vec(data.k)[0] ** 2)
        assert np.array_equal(got, _tracer_mask_reference(z, v, x, data.k, data.rho))
        kept, dropped = kept + np.sum(got), dropped + np.sum(~got)
    assert kept > 1000 and dropped > 0


def test_ah_condition_outer_product_matches_meshgrid():
    """The tracer's outer-product node evaluation of the AH condition is
    bit-identical (NaN where no psi included) to the meshgrid evaluation, on
    the (theta, phi) and (theta, k) planes."""
    th = np.linspace(0.02, math.pi - 0.02, 257)
    ph = np.linspace(0.0, 2.0 * math.pi, 257)
    kk = np.linspace(0.02, 0.98, 257)
    for sign in (1, -1):
        for c1 in (-3.0, 0.0):
            planes = [(lambda x, y: sc.ah_condition(x, y, 0.5, c1, 1.0, sign), ph),
                      (lambda x, y: sc.ah_condition(x, math.pi / 4, y, c1, 1.0, sign),
                       kk)]
            for f, ys in planes:
                outer = np.broadcast_to(f(th[:, None], ys[None, :]), (257, 257))
                X, Y = np.meshgrid(th, ys, indexing="ij")
                full = f(X, Y)
                assert np.array_equal(outer, full, equal_nan=True)
                assert np.isfinite(full).any() and np.isnan(full).any()


def test_implicit_matches_closed_form_case1():
    c1, c2 = 1.0, 0.5
    r0 = math.sqrt(c1**2 + 4 * c2**2)
    rect = (0.0, 2 * math.pi, r0 + 1e-3, 8.0)
    grid = ImplicitGrid(
        f=lambda ph, r: np.cos(ph) - 2 * c2 / np.sqrt(r * r - c1 * c1),
        rect=rect, n=128)
    polys = trace_zero_set(grid)
    assert polys
    cell = max((rect[1] - rect[0]) / 128, (rect[3] - rect[2]) / 128)
    plus, minus = tn_u1_case1(c1, c2, r_range=(r0 + 1e-3, 8.0), n=800)
    ref = np.vstack([np.column_stack([tr.cols["phi"], tr.cols["r"]])
                     for tr in (plus, minus)])
    for poly in polys:
        for pt in poly:
            d = np.min(np.hypot(ref[:, 0] - pt[0], ref[:, 1] - pt[1]))
            assert d < 2 * cell


def test_ah_traces_exist_and_mu_constant():
    p = AHParams(1.0, 1)
    traces = ah_traces_theta_phi(0.5, -2.0, n=192)
    assert traces
    for tr in traces[:4]:
        res = verify_slag(tr, "ah", p)
        assert res["mu_max_dev"] < 1e-6 * max(1.0, abs(res["mu_median"]))
        assert res["mu_median"] == pytest.approx(-2.0, abs=1e-9)


def test_ah_traces_im_omega_defect_reproducible():
    """The fixed-k families satisfy the level-set and Re Z = 0 conditions but
    the calibration-phase residual Im Omega is O(1) on them: the phase of
    Omega(X, gamma') drifts along each curve.  This pins the documented
    failure so regressions are visible.

    Re Z = 0 is the cut of the principal sqrt(z), so the verifier must
    continue the branch along the trace: consecutive Z samples never jump to
    the other sign, and omega (which vanishes on mu = c1) is left with only
    the finite-difference error of the tangent.
    """
    p = AHParams(1.0, 1)
    traces = ah_traces_theta_phi(0.5, -2.0, n=192)
    results = [verify_slag(tr, "ah", p) for tr in traces[:2]]
    for res in results:
        Z = res["w1"]
        assert np.all(np.abs(Z[1:] + Z[:-1]) >= np.abs(Z[1:] - Z[:-1]))
    assert max(res["omega_max"] for res in results) <= 1e-2
    assert max(res["im_omega_max"] for res in results) > 1e-2


def test_fig9_jump_on_theta_pi_2_traced_as_crossing():
    """Pins a known tracer defect on fig9 (phi = pi/4, c1 = -3, n = 256).

    Node column 128 of the theta axis is exactly pi/2, where Im w = 0 and
    sqrt(w) sits on its cut: the condition changes sign across that column
    without vanishing, and trace_zero_set joins true zero segments through
    vertices on it with |f| ~ 1.2.  Every other vertex is a zero, and the
    sample mask keeps all of them out of the emitted traces.
    """
    phi, c1 = math.pi / 4, -3.0
    for sign, on_column in ((1, 97), (-1, 96)):
        grid = ImplicitGrid(
            f=lambda th, kk, s=sign: sc.ah_condition(th, phi, kk, c1, 1.0, s),
            rect=(0.02, math.pi - 0.02, 0.02, 0.98), n=256)
        pts = np.vstack(trace_zero_set(grid))
        f = np.abs(grid.f(pts[:, 0], pts[:, 1]))
        on = np.abs(pts[:, 0] - math.pi / 2) <= 1e-12
        assert on.sum() == on_column
        assert f[on].max() > 1.0
        assert f[~on].max() <= 1e-9
    theta = np.concatenate([tr.cols["theta"] for tr in ah_traces_theta_k(phi, c1)])
    assert np.min(np.abs(theta - math.pi / 2)) > 1e-3


def test_ah_traces_read_the_chart_kernel(monkeypatch):
    """The tracer maps its samples through ah._chart: with z = 0 at every
    sample no sample is regular, and the fig8 family at c1 = -3 emits no
    trace."""
    assert ah_traces_theta_phi(0.5, -3.0)
    chart = ah._chart

    def z_zero(*args):
        z, v, x, data = chart(*args)
        return 0.0 * z, v, x, data

    monkeypatch.setattr(ah, "_chart", z_zero)
    assert ah_traces_theta_phi(0.5, -3.0) == []


def test_ah_theta_k_traces():
    p = AHParams(1.0, 1)
    traces = ah_traces_theta_k(math.pi / 4, -2.0, n=160)
    assert traces
    res = verify_slag(traces[0], "ah", p)
    assert res["mu_max_dev"] < 1e-6 * max(1.0, abs(res["mu_median"]))
    kcol = traces[0].cols["k"]
    assert np.max(kcol) - np.min(kcol) > 1e-4  # k varies in this plane


def test_transversality_variation():
    p = TNParams(1.0, 1.0)
    for tr in tn_so2_curve(3.0, p, branch="plane", n=200):
        assert transversality_variation(tr, "tn", p) > 1e-3
    pa = AHParams(1.0, 1)
    for tr in ah_traces_theta_phi(0.5, -2.0, n=160)[:2]:
        assert transversality_variation(tr, "ah", pa) > 1e-3


def test_curve_trace_ordering_guard():
    with pytest.raises(DomainError):
        CurveTrace(action="u1",
                   t=np.array([0.0, 1.0, 1.0]),
                   cols={"r": np.ones(3), "theta": np.ones(3),
                         "phi": np.ones(3), "psi": np.zeros(3)}, params={})


def _reference_sample_ok(theta, kmod, phi, psi, h):
    """Per-sample degenerate-locus test (x_pm at the cut ends, y_pm -> 0)."""
    rho = 16.0 * h * h * elliptic_K(kmod) ** 2
    data = elliptic_data(kmod, rho)
    z, v, x = ah_zvx_from_spherical(kmod, theta, phi, psi, h)
    if abs(z) < 1e-10 * rho:
        return False
    az = abs(z)
    xp = (x + 6.0 * az) / 3.0
    xm = (x - 6.0 * az) / 3.0
    span = data.e2 - data.e3
    pad = 1e-4 * span
    if not (data.e3 + pad < xm < data.e2 - pad and xp > data.e2 + pad):
        return False
    ratio = v / np.sqrt(complex(z))
    ymag = min(abs(ratio.imag), abs(ratio.real)) * (xp - xm)
    return ymag > 1e-7 * rho ** 1.5


def _reference_runs(pts, plane, fixed, c1, h, sign,
                    max_samples=320, min_run=6):
    """Polyline to chart runs one sample at a time: the level at a scalar,
    math.acos and the scalar sample test.  Returns (t, k, theta, phi, psi)
    of every run of at least min_run good samples."""
    if len(pts) > max_samples:
        idx = np.unique(np.linspace(0, len(pts) - 1, max_samples).astype(int))
        pts = pts[idx]
    seg = np.hypot(*np.diff(pts, axis=0).T)
    t = np.concatenate([[0.0], np.cumsum(seg)])
    keep = np.concatenate([[True], seg > 0])
    pts, t = pts[keep], t[keep]
    theta = pts[:, 0]
    if plane == "theta-phi":
        phi = pts[:, 1] % (2.0 * math.pi)
        kcol = np.full_like(theta, fixed)
    else:
        kcol = pts[:, 1]
        phi = np.full_like(theta, fixed % (2.0 * math.pi))
    psi = np.zeros_like(theta)
    good = np.ones(len(theta), dtype=bool)
    for i in range(len(theta)):
        c2p = float(ah_cos2psi_level(theta[i], kcol[i], c1, h)[0])
        if not abs(c2p) <= 1.0 + 1e-12:
            good[i] = False
            continue
        half = 0.5 * math.acos(min(1.0, max(-1.0, c2p)))
        psi[i] = half if sign > 0 else (math.pi - half)
        good[i] = _reference_sample_ok(theta[i], kcol[i], phi[i], psi[i], h)
    runs, start = [], None
    for i in range(len(theta) + 1):
        if i < len(theta) and good[i]:
            if start is None:
                start = i
        elif start is not None:
            if i - start >= min_run:
                sl = slice(start, i)
                runs.append((t[sl], kcol[sl], theta[sl], phi[sl], psi[sl]))
            start = None
    return runs


@pytest.mark.parametrize("family, fixed", [(ah_traces_theta_phi, 0.5),
                                           (ah_traces_theta_k, math.pi / 4)],
                         ids=["fig8", "fig9"])
def test_ah_polyline_runs_one_agm(family, fixed, monkeypatch):
    """The moment level set and the sample mask of all polylines of a family
    share one extended-AGM run: the mask's chart reads the level set's K."""
    calls, per_family = [], []
    original = elliptic.elliptic_KE_vec

    def spy(k):
        calls.append(np.shape(k))
        return original(k)

    monkeypatch.setattr(elliptic, "elliptic_KE_vec", spy)
    to_traces = sc._ah_traces_from_polylines

    def counted(*args):
        before = len(calls)
        traces = to_traces(*args)
        per_family.append((len(calls) - before, len(args[0]), len(traces)))
        return traces

    monkeypatch.setattr(sc, "_ah_traces_from_polylines", counted)
    family(fixed, -3.0, n=64)
    assert [runs for runs, _, _ in per_family] == [1]
    assert per_family[0][1] > 1
    assert sum(emitted for _, _, emitted in per_family) > 0


@pytest.mark.parametrize("family, fixed", [(ah_traces_theta_phi, 0.5),
                                           (ah_traces_theta_k, math.pi / 4)],
                         ids=["fig8", "fig9"])
def test_ah_polyline_traces_match_per_sample_reference(family, fixed, monkeypatch):
    """The array polyline-to-trace step against the per-sample loop on the
    fig8 (k = 0.5) and fig9 (phi = pi/4) families at c1 = -3: same runs,
    bit-identical t, k, theta, phi, and psi within 1e-13."""
    calls = []
    original = sc._ah_traces_from_polylines

    def spy(*args):
        traces = original(*args)
        calls.append((args, traces))
        return traces

    monkeypatch.setattr(sc, "_ah_traces_from_polylines", spy)
    assert family(fixed, -3.0)
    emitted = 0
    for args, traces in calls:
        polylines, plane, fixed, c1, h = args
        index = [0, 0]
        for poly in polylines:
            layer = int(poly[0, 2])
            sign, tag = (1, -1)[layer], f"{('s+', 's-')[layer]}-part{index[layer]}"
            index[layer] += 1
            runs = _reference_runs(poly[:, :2], plane, fixed, c1, h, sign)
            mine, traces = traces[:len(runs)], traces[len(runs):]
            assert [tr.tag for tr in mine] == [f"{tag}r{i}" for i in range(len(runs))]
            assert all(tr.params["sign"] == sign for tr in mine)
            for tr, (t, k, theta, phi, psi) in zip(mine, runs):
                assert np.array_equal(tr.t, t)
                assert np.array_equal(tr.cols["k"], k)
                assert np.array_equal(tr.cols["theta"], theta)
                assert np.array_equal(tr.cols["phi"], phi)
                assert np.max(np.abs(tr.cols["psi"] - psi)) <= 1e-13
                emitted += len(t)
        assert traces == []
    assert emitted > 100


def test_ah_chart_and_xy_arrays_match_scalar_calls():
    rng = np.random.default_rng(11)
    n = 300
    k = rng.uniform(0.02, 0.98, n)
    theta = rng.uniform(0.02, math.pi - 0.02, n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    psi = rng.uniform(0.0, 4.0 * math.pi, n)
    z, v, x = ah_zvx_from_spherical(k, theta, phi, psi, 1.0)
    xy = ah_xy_from_zvx(z, v, x)
    for i in range(n):
        zvx_i = ah_zvx_from_spherical(float(k[i]), float(theta[i]), float(phi[i]),
                                      float(psi[i]), 1.0)
        assert (z[i], v[i], x[i]) == pytest.approx(zvx_i, rel=1e-14)
        xy_i = ah_xy_from_zvx(*zvx_i)
        assert tuple(q[i] for q in xy) == pytest.approx(xy_i, rel=1e-14)


def _reference_deriv(vals, t):
    """The tangent rule one sample at a time in Python floats: the derivative
    at t_i of the Lagrange polynomial through the min(5, n) samples nearest
    it (centred where the trace allows, one-sided at its ends), as
    sum_{k != i} L_k'(t_i) (v_k - v_i), where L_k'(t_i) = prod_{l != i, k}
    (t_i - t_l) / prod_{l != k} (t_k - t_l) (the L_k sum to 1, so L_i'
    takes minus the others' sum)."""
    t = [float(x) for x in t]
    n, m = len(t), min(5, len(t))
    out = np.empty(n, dtype=complex)
    for i in range(n):
        first = min(max(i - 2, 0), n - m)
        nodes = range(first, first + m)
        total = 0j
        for k in nodes:
            if k != i:
                weight = math.prod(t[i] - t[l] for l in nodes if l not in (i, k)) \
                    / math.prod(t[k] - t[l] for l in nodes if l != k)
                total += weight * (complex(vals[k]) - complex(vals[i]))
        out[i] = total
    return out


def _reference_continue_sqrt_branch(Us, Zs):
    """The per-trace sqrt(z) branch continuation: each sample the sign that
    puts Z nearest its predecessor's, the trace the sign with Im Z_0 > 0."""
    flip = np.abs(Zs[1:] + Zs[:-1]) < np.abs(Zs[1:] - Zs[:-1])
    sign = np.ones(len(Zs))
    sign[1:] = np.where(np.cumsum(flip) % 2 == 1, -1.0, 1.0)
    if Zs[0].imag < 0.0:
        sign = -sign
    return Us * sign, Zs * sign


def _reference_verify_tn(trace, p):
    """Taub-NUT residuals one sample at a time through the public scalar
    point, chart, metric block and moment: (u, z, mu, omega, Im Omega)."""
    r, theta, phi, psi = (trace.cols[c] for c in ("r", "theta", "phi", "psi"))
    m = len(r)
    if np.all(np.abs(np.sin(theta)) < 1e-12):
        return (np.full(m, math.nan) - 2j * p.m * psi, np.zeros(m, dtype=complex),
                2.0 * p.m * r + 0.0, np.zeros(m), np.zeros(m))
    us = np.empty(m, dtype=complex)
    zs = np.empty(m, dtype=complex)
    fields = np.empty((4, m), dtype=complex)
    mu = np.empty(m)
    for i in range(m):
        pt = tn_chart_spherical_to_holo(
            TNSphericalPoint(float(r[i]), float(theta[i]), float(phi[i]) % (2 * math.pi),
                             float(psi[i]) % (4 * math.pi)), p)
        us[i], zs[i] = pt.u, pt.z
        blk = tn_metric_holo(pt, p)
        fields[:, i] = (blk.kuubar, blk.kuzbar, blk.kzubar, blk.kzzbar)
        mu[i] = moment_tn_u1(pt) if trace.action == "u1" else moment_tn_so2(pt, p)
    v1u, v1z = (1j, 0j) if trace.action == "u1" else (0j, -2j * zs)
    omega, im_omega = sc._residuals(MetricBlock(*fields), v1u, v1z,
                                    _reference_deriv(us, trace.t), _reference_deriv(zs, trace.t))
    return us, zs, mu, np.abs(omega), np.abs(im_omega)


def test_verify_tn_matches_per_sample_reference():
    """One array pass per Taub-NUT trace against the per-sample loop on the
    fig5-fig7 presets, both tn_so2_curve branches (and the psi_rate != 0
    plane case) and a c2 < 0 case-1 trace."""
    p = TNParams(1.0, 1.0)
    items = [(tr, pp) for name in ("fig5", "fig6", "fig7")
             for _, _, tr, pp in presets.preset_traces(name)]
    items += [(tr, p) for tr in (tn_so2_curve(3.0, p, branch="plane", n=200)
                                 + tn_so2_curve(3.0, p, branch="axis", n=64)
                                 + tn_so2_curve(3.0, p, psi_rate=0.5, n=200)
                                 + tn_u1_case1(1.0, -0.5, n=200))]
    assert len(items) == 33
    for tr, pp in items:
        res = verify_slag(tr, "tn", pp)
        u, z, mu, omega, im_omega = _reference_verify_tn(tr, pp)
        # the chart is the same arithmetic; |z| and the complex divisions of
        # the metric block may round differently for numpy scalars and arrays
        assert np.array_equal(res["w0"], u, equal_nan=True)
        assert np.array_equal(res["w1"], z)
        assert np.all(np.abs(res["mu"] - mu) <= 1e-15 * np.abs(mu))
        assert np.max(np.abs(res["omega"] - omega)) <= 1e-14
        assert np.max(np.abs(res["im_omega"] - im_omega)) <= 1e-14


def test_verify_slag_reads_the_generator_table(monkeypatch):
    """verify_slag takes v1 from ActionSpec.field: with every generator
    replaced by the tri-holomorphic U(1) field, the fig7 SO(2) level sets
    fail the omega gate.  Flipping a generator's sign would not show here,
    as the residuals are reported as absolute values."""
    traces = [(tr, p) for _, _, tr, p in presets.preset_traces("fig7")]
    assert all(verify_slag(tr, "tn", p)["omega_max"] <= TN_TOL for tr, p in traces)
    u1 = ActionSpec("TaubNUT", "U1_triholo").field
    monkeypatch.setattr(ActionSpec, "field", lambda self, w0, w1: u1(w0, w1))
    assert all(verify_slag(tr, "tn", p)["omega_max"] > TN_TOL for tr, p in traces)



def test_verify_slag_reads_the_moment_table(monkeypatch):
    """verify_slag takes mu from ActionSpec.moment: with the Taub-NUT SO(2)
    entry replaced by the U(1) moment x/2, which is not constant on the
    SO(2) level sets, every fig7 trace's relative mu deviation exceeds the
    gate."""
    traces = [(tr, p) for _, _, tr, p in presets.preset_traces("fig7")]

    def mu_rel(tr, p):
        res = verify_slag(tr, "tn", p)
        return res["mu_max_dev"] / max(1.0, abs(res["mu_median"]))

    assert all(mu_rel(tr, p) <= TN_TOL for tr, p in traces)
    moment = ActionSpec.moment
    u1 = ActionSpec("TaubNUT", "U1_triholo")

    def so2_as_u1(self, point, params):
        tn_so2 = (self.manifold, self.generator) == ("TaubNUT", "SO2_rot")
        return moment(u1 if tn_so2 else self, point, params)

    monkeypatch.setattr(ActionSpec, "moment", so2_as_u1)
    assert all(mu_rel(tr, p) > TN_TOL for tr, p in traces)

def _reference_verify_ah(trace, p):
    """Atiyah-Hitchin residuals one sample at a time through the public scalar
    chart, u coordinate, metric block and moment: (U, Z, mu, omega, Im Omega)."""
    m = len(trace.t)
    Us = np.empty(m, dtype=complex)
    Zs = np.empty(m, dtype=complex)
    fields = np.empty((4, m), dtype=complex)
    mu = np.empty(m)
    for i in range(m):
        k, theta, phi, psi = (float(trace.cols[c][i]) for c in ("k", "theta", "phi", "psi"))
        state = ah_from_spherical(
            AHSphericalPoint(k, theta, phi % (2 * math.pi), psi % (4 * math.pi)), p)
        _, Us[i], Zs[i] = ah_u_coordinate(state, p)
        blk = ah_metric_UZ(state, p)
        fields[:, i] = (blk.kuubar, blk.kuzbar, blk.kzubar, blk.kzzbar)
        mu[i] = moment_ah_so2(state)
    Us, Zs = _reference_continue_sqrt_branch(Us, Zs)
    omega, im_omega = sc._residuals(MetricBlock(*fields), 0j, -2j * Zs,
                                    _reference_deriv(Us, trace.t), _reference_deriv(Zs, trace.t))
    return Us, Zs, mu, np.abs(omega), np.abs(im_omega)


@pytest.mark.parametrize("family, fixed", [(ah_traces_theta_phi, 0.5),
                                           (ah_traces_theta_k, math.pi / 4)],
                         ids=["fig8", "fig9"])
def test_verify_ah_matches_per_sample_reference(family, fixed):
    """One array pass per trace against the per-sample loop on the fig8
    (k = 0.5) and fig9 (phi = pi/4) families at c1 = -3; a trace with one
    degenerate sample raises the error the loop raises."""
    p = AHParams(1.0, 1)
    traces = family(fixed, -3.0)
    assert traces
    for tr in traces:
        res = verify_slag(tr, "ah", p)
        U, Z, mu, omega, im_omega = _reference_verify_ah(tr, p)
        assert np.all(np.abs(res["w0"] - U) <= 1e-12 * np.abs(U))
        assert np.all(np.abs(res["w1"] - Z) <= 1e-12 * np.abs(Z))
        assert np.max(np.abs(res["mu"] - mu)) <= 1e-13
        assert np.max(np.abs(res["omega"] - omega)) <= 1e-10
        assert np.max(np.abs(res["im_omega"] - im_omega)) <= 1e-10
    # theta -> 0 with psi = 0 collapses v and y_pm and puts x_- on e3
    cols = {c: v.copy() for c, v in traces[0].cols.items()}
    j = len(traces[0].t) // 2
    cols["theta"][j], cols["psi"][j] = 1e-7, 0.0
    bad = CurveTrace(action="so2", t=traces[0].t.copy(),
                     cols=cols, params=dict(traces[0].params))
    with pytest.raises(SlagForgeError) as ref_err:
        _reference_verify_ah(bad, p)
    with pytest.raises(SlagForgeError) as err:
        verify_slag(bad, "ah", p)
    assert type(err.value) is type(ref_err.value)


@pytest.mark.parametrize("family, fixed", [(ah_traces_theta_phi, 0.5),
                                           (ah_traces_theta_k, math.pi / 4)],
                         ids=["fig8", "fig9"])
def test_sqrt_branch_pinned_per_trace(family, fixed, monkeypatch):
    """Each trace starts with Im Z > 0, and a chart that hands back (-U, -Z)
    yields bit-identical U, Z and residuals."""
    p = AHParams(1.0, 1)
    traces = family(fixed, -3.0)
    assert traces
    plain = [verify_slag(tr, "ah", p) for tr in traces]
    original = sc.ah.ah_u_coordinate

    def negated(state, params):
        u, U, Z = original(state, params)
        return u, -U, -Z

    monkeypatch.setattr(sc.ah, "ah_u_coordinate", negated)
    for tr, res in zip(traces, plain):
        assert res["w1"][0].imag > 0.0
        flipped = verify_slag(tr, "ah", p)
        for key in ("w0", "w1", "omega", "im_omega", "mu"):
            assert np.array_equal(flipped[key], res[key])


def _retimed(trace, t, m=None):
    """The first m samples of a trace (all by default) with the parameter t."""
    m = len(t) if m is None else m
    return CurveTrace(action=trace.action, t=np.asarray(t, dtype=float),
                      cols={c: v[:m].copy() for c, v in trace.cols.items()},
                      params=dict(trace.params), tag=trace.tag)


def _tail_batches():
    """(traces, manifold, params) of each batch the segmented tail is checked on."""
    pa, p = AHParams(1.0, 1), TNParams(1.0, 1.0)
    case1 = tn_u1_case1(1.0, 0.5)[0]
    t = case1.t
    uneven = t[0] + (t - t[0]) * (1.0 + 0.3 * (t - t[0]) / (t[-1] - t[0]))
    by_fig = {name: [tr for _, _, tr, _ in presets.preset_traces(name)]
              for name in ("fig5", "fig6", "fig7")}
    return {
        "fig8": (ah_traces_theta_phi(0.5, -3.0), "ah", pa),
        "fig9": (ah_traces_theta_k(math.pi / 4, -3.0), "ah", pa),
        **{name: (traces, "tn", p) for name, traces in by_fig.items()},
        "axis": (tn_so2_curve(3.0, p, branch="axis", n=64) + by_fig["fig7"][:1]
                 + tn_so2_curve(2.0, p, branch="axis", n=9), "tn", p),
        "short": ([_retimed(case1, t[:3]), _retimed(case1, t[:6]),
                   _retimed(case1, 0.5 * np.arange(5.0))], "tn", p),
        "mixed": ([case1, _retimed(case1, uneven), _retimed(case1, t[:7]),
                   _retimed(case1, np.cumsum(np.linspace(1.0, 2.0, 9))),
                   _retimed(case1, 0.25 * np.arange(7.0)), _retimed(case1, t[:40])], "tn", p),
    }


def _per_trace_tail(monkeypatch, traces, manifold, params):
    """verify_slag_batch's reports with the tail run trace by trace: the
    reference branch continuation and _segment_deriv on each trace alone,
    and each trace's maxima and median from np.max and np.median."""
    deriv = sc._segment_deriv

    def continue_each(Us, Zs, ends):
        parts = [_reference_continue_sqrt_branch(Us[a:b], Zs[a:b])
                 for a, b in zip([0, *ends[:-1]], ends)]
        return tuple(np.concatenate(col) for col in zip(*parts))

    def deriv_each(w, t, ends):
        return np.concatenate([deriv(w[:, a:b], t[a:b], np.array([b - a]))
                               for a, b in zip([0, *ends[:-1]], ends)], axis=1)

    with monkeypatch.context() as m:
        m.setattr(sc, "_continue_sqrt_branches", continue_each)
        m.setattr(sc, "_segment_deriv", deriv_each)
        reports = sc.verify_slag_batch(traces, manifold, params)
    for res in reports:
        med = float(np.median(res["mu"]))
        res.update(omega_max=float(np.max(res["omega"])), mu_median=med,
                   im_omega_max=float(np.max(res["im_omega"])),
                   mu_max_dev=float(np.max(np.abs(res["mu"] - med))))
    return reports


@pytest.mark.parametrize("case", ["fig8", "fig9", "fig5", "fig6", "fig7", "axis",
                                  "short", "mixed"])
def test_segmented_tail_matches_per_trace_loop(case, monkeypatch):
    """The batch's segment-wise tail (one cumulative sum for the branch, one
    derivative pass, per-segment maxima and median) gives every report
    field of the per-trace loop bit for bit: on the fig8 and fig9 families,
    the fig5-fig7 traces, Taub-NUT axis traces beside a plane trace, traces
    of 3, 5 and 6 samples (stencils of 3 and 5 nodes), and uniform traces
    among uneven ones."""
    traces, manifold, params = _tail_batches()[case]
    got = sc.verify_slag_batch(traces, manifold, params)
    ref = _per_trace_tail(monkeypatch, traces, manifold, params)
    assert len(got) == len(ref) == len(traces)
    for trace, g, r in zip(traces, got, ref):
        assert g.keys() == r.keys()
        for key in r:
            assert np.asarray(g[key]).tobytes() == np.asarray(r[key]).tobytes(), (trace.tag, key)


def _uneven(rng, m, h=1.0):
    """m increasing samples whose steps are h times uniform draws from [0.3, 1]."""
    return rng.uniform(-1.0, 1.0) + np.concatenate([[0.0], np.cumsum(h * rng.uniform(0.3, 1.0, m - 1))])


def test_segment_deriv_and_branches_match_per_segment_references():
    """In a shuffled batch of segments of 3 to 40 samples, uniform and uneven,
    each segment has the bits of _segment_deriv on that segment alone and
    the per-sample reference's values to rounding, and the branch
    continuation has the per-trace bits (flips inside segments, none
    carried across a boundary, either sign of Im Z at a first sample)."""
    rng = np.random.default_rng(11)
    ts = [np.sort(rng.uniform(0.0, 5.0, m)) for m in (3, 4, 6, 7, 12)]
    ts += [0.1 * np.arange(m) for m in (3, 5, 7, 12, 40)] + [0.25 * np.arange(m) for m in (4, 5)]
    ts += [np.linspace(-1.0, 2.0, m) for m in (6, 7, 9)]
    ts += [np.linspace(0.0, 1.0, 8) * (1.0 + 1e-12 * rng.standard_normal(8))]
    ts += [_uneven(rng, m, h) for m, h in zip(rng.integers(3, 41, 30), rng.uniform(0.01, 1.0, 30))]
    rng.shuffle(ts)
    ends = np.cumsum([len(t) for t in ts])
    t = np.concatenate(ts)
    w = rng.standard_normal((2, len(t))) + 1j * rng.standard_normal((2, len(t)))
    d = sc._segment_deriv(w, t, ends)
    for a, b in zip([0, *ends[:-1]], ends):
        assert d[:, a:b].tobytes() == sc._segment_deriv(w[:, a:b], t[a:b], np.array([b - a])).tobytes()
        scale = np.max(np.abs(w[:, a:b])) / np.min(np.diff(t[a:b]))
        for row in range(2):
            assert np.max(np.abs(d[row, a:b] - _reference_deriv(w[row, a:b], t[a:b]))) \
                <= 1e-12 * scale
    Z = np.exp(1j * rng.uniform(-3.0, 3.0, len(t))) * np.sign(rng.standard_normal(len(t)))
    U = rng.standard_normal(len(t)) + 1j * rng.standard_normal(len(t))
    got = sc._continue_sqrt_branches(U, Z, ends)
    for a, b in zip([0, *ends[:-1]], ends):
        ref = _reference_continue_sqrt_branch(U[a:b], Z[a:b])
        assert all(g[a:b].tobytes() == r.tobytes() for g, r in zip(got, ref))


def _stacked_segment_deriv(w, t, ends):
    """_segment_deriv's arithmetic on one (4, 5, n) array: np.prod over each
    slot's four other nodes, then the sum over the five stencil terms."""
    n = np.diff(ends, prepend=0)
    size = np.repeat(np.minimum(n, 5), n)
    i = np.arange(len(t))
    first = np.clip(i - 2, np.repeat(ends - n, n), np.repeat(ends, n) - size)
    node = first + np.arange(5)[:, None]
    node = np.where(node < first + size, node, i)
    d = t.take(node) - t
    r = 1.0 / np.where(d != 0.0, d, np.inf)
    other = (np.arange(5) + np.arange(1, 5)[:, None]) % 5
    c = r / np.prod(1.0 - d * r.take(other, axis=0), axis=0)
    return (c * (w.take(node, axis=1) - w[:, None])).sum(axis=1)


def _random_segments(rng, count, longest):
    """count uneven segments of 3 to longest samples, and complex rows on them
    with a signed zero in every seventh entry."""
    lengths = rng.integers(3, longest + 1, count)
    t = np.concatenate([_uneven(rng, m, h) for m, h in zip(lengths, rng.uniform(1e-3, 1.0, count))])
    w = rng.standard_normal((2, len(t))) * 10.0 ** rng.integers(-6, 6, (2, len(t))) \
        + 1j * rng.standard_normal((2, len(t)))
    w[0, ::7] = -0.0
    return w, t, np.cumsum(lengths)


def test_segment_deriv_has_the_bits_of_the_stacked_reference():
    """The rolled in-place products and sums give the (4, 5, n) reference's
    bits, on batches of a few samples up to past 16 384."""
    rng = np.random.default_rng(12)
    for count, longest in [(1, 3), (1, 4), (3, 5), (40, 12), (200, 60), (120, 300)]:
        w, t, ends = _random_segments(rng, count, longest)
        assert sc._segment_deriv(w, t, ends).tobytes() == \
            _stacked_segment_deriv(w, t, ends).tobytes(), (count, longest)


def test_segment_deriv_peak_memory_on_8000_samples():
    """Its temporaries are (5, n) and (2, n) arrays, no (4, 5, n) one: the
    traced peak of 8 000 samples stays at 3 MB (the stacked form takes 4.2)."""
    rng = np.random.default_rng(13)
    t = np.concatenate([_uneven(rng, 100) for _ in range(80)])
    w = rng.standard_normal((2, 8000)) + 1j * rng.standard_normal((2, 8000))
    ends = np.arange(100, 8001, 100)
    tracemalloc.start()
    try:
        sc._segment_deriv(w, t, ends)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6, peak


def test_verify_slag_batch_peak_memory_on_the_fig8_preset():
    """The chart state is freed before the tangent: one call on the whole
    fig8 preset (21 714 samples) peaks at 13 MB traced (11.6 measured; 16.1
    when the state is held to the end)."""
    traces = [trace for _, _, trace, _ in presets.preset_traces("fig8")]
    gc.collect()
    tracemalloc.start()
    try:
        sc.verify_slag_batch(traces, "ah", AHParams(1.0, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13e6, peak


def test_segment_deriv_exact_on_polynomials():
    """On uneven spacings of 3 to 12 samples, the derivative of a polynomial of
    degree below min(5, n), real and imaginary parts, is exact to rounding."""
    rng = np.random.default_rng(3)
    for m in range(3, 13):
        for _ in range(20):
            t = _uneven(rng, m)
            coef = rng.standard_normal((2, min(5, m))) + 1j * rng.standard_normal((2, min(5, m)))
            w = np.stack([np.polyval(c, t) for c in coef])
            want = np.stack([np.polyval(np.polyder(c), t) for c in coef])
            d = sc._segment_deriv(w, t, np.array([m]))
            assert np.max(np.abs(d - want)) <= 1e-12 * np.max(np.abs(w)) / np.min(np.diff(t))


def test_segment_deriv_converges_at_fourth_order():
    """For sin on uneven grids, halving the spacing cuts the error at the
    interior samples (those with a centred stencil) at least 12-fold."""
    rng = np.random.default_rng(4)
    for _ in range(10):
        steps = rng.uniform(0.3, 1.0, 7)      # one period of the step pattern
        errs = []
        for h in (0.04, 0.02, 0.01):
            t = 0.3 + np.concatenate([[0.0], np.cumsum(h * np.resize(steps, round(2.8 / h)))])
            d = sc._segment_deriv(np.stack([np.sin(t), 1j * np.sin(t)]), t, np.array([len(t)]))
            errs.append(np.max(np.abs(d[:, 2:-2] - [np.cos(t[2:-2]), 1j * np.cos(t[2:-2])])))
        assert errs[0] >= 12 * errs[1] and errs[1] >= 12 * errs[2], errs


LAYER_PAIRS = {
    "circle-line": (lambda x, y: x * x + y * y - 1.0, lambda x, y: y - 0.3 * x + 0.1),
    "saddles-loops": (lambda x, y: np.sin(5 * x) * np.cos(5 * y),
                      lambda x, y: np.sin(5 * x) * np.cos(4 * y) - 0.1),
}


@pytest.mark.parametrize("case", sorted(LAYER_PAIRS))
def test_two_layer_grid_matches_single_layer_calls(case, monkeypatch):
    """A two-layer grid gives, layer by layer, the polylines (bit for bit,
    in order) of a single-layer grid of that layer, with the layer index as
    the third column, and refines the edges of both layers in one run."""
    fs = LAYER_PAIRS[case]

    def layered(x, y):
        return np.stack([np.broadcast_to(f(x, y), np.broadcast_shapes(np.shape(x), np.shape(y)))
                         for f in fs])

    calls = _spy_calls(monkeypatch, "_refine_edges", lambda: sc.trace_zero_set(
        ImplicitGrid(f=layered, rect=(-2, 2, -2, 2), n=64)))
    assert len(calls) == 1
    assert set(calls[0][0][1][:, 2]) == {0.0, 1.0}
    got = trace_zero_set(ImplicitGrid(f=layered, rect=(-2, 2, -2, 2), n=64))
    assert [p[0, 2] for p in got] == sorted(p[0, 2] for p in got)
    for layer, f in enumerate(fs):
        single = trace_zero_set(ImplicitGrid(f=f, rect=(-2, 2, -2, 2), n=64))
        mine = [p for p in got if p[0, 2] == layer]
        assert len(mine) == len(single) > 0
        for g, r in zip(mine, single):
            assert np.all(g[:, 2] == layer)
            assert np.array_equal(g[:, :2], r)


@pytest.mark.parametrize("family, fixed", [(ah_traces_theta_phi, 0.5),
                                           (ah_traces_theta_k, math.pi / 4)],
                         ids=["fig8", "fig9"])
def test_ah_family_evaluates_its_lattice_once_and_refines_once(family, fixed, monkeypatch):
    """One family call traces one grid: one condition evaluation of its node
    lattice (both layers) and one refine run over the crossed edges of both
    signs."""
    seen = {name: [] for name in ("_ah_condition_layers", "_refine_edges", "trace_zero_set")}
    for name, calls in seen.items():
        def spy(*args, _original=getattr(sc, name), _calls=calls):
            _calls.append(args)
            return _original(*args)
        monkeypatch.setattr(sc, name, spy)
    assert family(fixed, -3.0)
    assert [np.shape(args[0]) for args in seen["_ah_condition_layers"]].count((257, 1)) == 1
    assert len(seen["trace_zero_set"]) == 1
    assert len(seen["_refine_edges"]) == 1
    assert set(seen["_refine_edges"][0][1][:, 2]) == {0.0, 1.0}


@pytest.mark.parametrize("family, fixed", [(ah_traces_theta_phi, 0.5),
                                           (ah_traces_theta_k, math.pi / 4)],
                         ids=["fig8", "fig9"])
def test_ah_lattice_runs_the_complex_part_only_where_psi_is_real(family, fixed, monkeypatch):
    """On the fig8 (k = 0.5) and fig9 (phi = pi/4) lattices at c1 = -3,
    sqrt(w) runs on exactly the in-range theta rows (fig8) or (theta, k)
    nodes (fig9), the layer values are finite at exactly the in-range
    nodes, and the (2, 257, 257) node array is the dense form's bit for
    bit, NaN pattern included."""
    lattice = []
    original = sc._ah_condition_layers

    def spy(*args):
        out = original(*args)
        if np.shape(args[0]) == (257, 1):
            lattice.append((args, out))
        return out

    monkeypatch.setattr(sc, "_ah_condition_layers", spy)
    sqrt_calls = _spy_calls(monkeypatch, "_ah_sqrt_w", lambda: family(fixed, -3.0))
    (args, nodes), = lattice
    theta, phi, k, c1, h = args
    in_range = sc._in_range(ah_cos2psi_level(theta, k, c1, h)[0])
    assert in_range.shape == ((257, 1) if family is ah_traces_theta_phi else (257, 257))
    assert 0 < in_range.sum() < in_range.size
    assert len(sqrt_calls[0][0][0]) == in_range.sum()
    assert nodes.shape == (2, 257, 257)
    assert np.array_equal(np.isfinite(nodes), np.broadcast_to(in_range, nodes.shape))
    assert nodes.tobytes() == _dense_condition_layers(*args).tobytes()
