"""Curve families, implicit tracer, and the residual verifier."""

import math

import numpy as np
import pytest

from slag_forge import slag_curves as sc
from slag_forge.atiyah_hitchin import (AHParams, ah_xy_from_zvx,
                                       ah_zvx_from_spherical)
from slag_forge.elliptic import elliptic_data, elliptic_K
from slag_forge.errors import (ChartError, DomainError, EmptyDomainError,
                               OutOfRangeError)
from slag_forge.slag_curves import (CurveTrace, ImplicitGrid, ah_condition,
                                    ah_cos2psi, ah_cos2psi_level,
                                    ah_traces_theta_k,
                                    ah_traces_theta_phi, perturb_phi,
                                    tn_so2_curve, tn_so2_r_of_theta,
                                    tn_u1_case1, tn_u1_case2, trace_zero_set,
                                    transversality_variation, verify_slag)
from slag_forge.taub_nut import TNParams

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
        trace.residuals = res
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
    trace = CurveTrace(chart="tn-spherical", action="u1", t=t,
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
        val = ah_cos2psi(th, k, c1, h)
        assert val == pytest.approx(math.cos(2 * psi), abs=1e-10)
    with pytest.raises(OutOfRangeError):
        ah_cos2psi(0.1, 0.5, 100.0, 1.0)


def test_ah_cos2psi_affine_in_c1():
    # d(cos 2psi)/d c1 = h / (4 K^2 sin^2 theta), read off the formula.  At
    # (theta, k) = (1.1, 0.4) a real psi exists only for c1 in (-20.73, -3.64);
    # c1 = -10 sits inside it (cos 2psi = 0.256).
    from slag_forge.elliptic import elliptic_K
    k, th, h = 0.4, 1.1, 1.0
    c1, d = -10.0, 1e-4
    slope = (ah_cos2psi(th, k, c1 + d, h) - ah_cos2psi(th, k, c1 - d, h)) / (2 * d)
    expect = h / (4 * elliptic_K(k) ** 2 * math.sin(th) ** 2)
    assert slope == pytest.approx(expect, rel=1e-9)
    # outside that interval the level set has no real psi (cos 2psi = 1.54)
    with pytest.raises(OutOfRangeError):
        ah_cos2psi(th, k, 1.0, h)
    # the unclamped level value keeps the same slope there
    assert ah_cos2psi_level(th, k, 1.0, h)[0] == pytest.approx(1.54, abs=5e-3)
    slope = (ah_cos2psi_level(th, k, 1.0 + d, h)[0]
             - ah_cos2psi_level(th, k, 1.0 - d, h)[0]) / (2 * d)
    assert slope == pytest.approx(expect, rel=1e-9)


def test_ah_condition_zero_iff_negative_real_z():
    k, c1, h = 0.5, 0.0, 1.0
    count = 0
    for th in np.linspace(1.48, 1.66, 12):
        c2p = ah_cos2psi(th, k, c1, h)
        psi = 0.5 * math.acos(c2p)
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
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_trace_zero_set_circle():
    grid = ImplicitGrid(f=lambda x, y: x * x + y * y - 1.0, rect=(-2, 2, -2, 2),
                        n=64)
    polys = trace_zero_set(grid, tol=1e-12)
    assert len(polys) == 1
    cell_diag = math.hypot(4 / 64, 4 / 64)
    for pt in polys[0]:
        assert abs(math.hypot(*pt) - 1.0) < cell_diag
    # closed polyline: endpoints coincide
    assert np.allclose(polys[0][0], polys[0][-1], atol=2e-10)


def test_trace_zero_set_horizontal_line():
    grid = ImplicitGrid(f=lambda x, y: y + 0.0 * x, rect=(-2, 2, -2, 2), n=32)
    polys = trace_zero_set(grid, tol=1e-12)
    assert len(polys) == 1
    assert np.max(np.abs(polys[0][:, 1])) < 1e-9


def test_trace_zero_set_empty_and_nan_regions():
    grid = ImplicitGrid(f=lambda x, y: x * x + y * y + 1.0, rect=(-1, 1, -1, 1),
                        n=16)
    assert trace_zero_set(grid) == []

    def f_nan(x, y):
        out = np.asarray(x, dtype=float) - 0.5
        return np.where(np.asarray(y) > 0, out, np.nan)

    grid2 = ImplicitGrid(f=f_nan, rect=(-1, 1, -1, 1), n=32)
    polys = trace_zero_set(grid2)
    assert polys and all(np.all(p[:, 1] > 0) for p in polys)
    with pytest.raises(DomainError):
        ImplicitGrid(f=f_nan, rect=(-1, 1, -1, 1), n=8)


def test_trace_zero_set_determinism():
    grid = ImplicitGrid(f=lambda x, y: np.sin(3 * x) - y, rect=(-2, 2, -2, 2),
                        n=48)
    a = trace_zero_set(grid)
    b = trace_zero_set(grid)
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)


def test_implicit_matches_closed_form_case1():
    c1, c2 = 1.0, 0.5
    r0 = math.sqrt(c1**2 + 4 * c2**2)
    rect = (0.0, 2 * math.pi, r0 + 1e-3, 8.0)
    grid = ImplicitGrid(
        f=lambda ph, r: np.cos(ph) - 2 * c2 / np.sqrt(r * r - c1 * c1),
        rect=rect, n=128)
    polys = trace_zero_set(grid, tol=1e-10)
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
        Z = res["Z"]
        assert np.all(np.abs(Z[1:] + Z[:-1]) >= np.abs(Z[1:] - Z[:-1]))
    assert max(res["omega_max"] for res in results) <= 1e-2
    assert max(res["im_omega_max"] for res in results) > 1e-2


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
        CurveTrace(chart="tn-spherical", action="u1",
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


def _reference_runs(pts, plane, k_fixed, phi_fixed, c1, h, sign,
                    max_samples=320, min_run=6):
    """Polyline to chart runs one sample at a time: scalar ah_cos2psi,
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
        kcol = np.full_like(theta, k_fixed)
    else:
        kcol = pts[:, 1]
        phi = np.full_like(theta, phi_fixed % (2.0 * math.pi))
    psi = np.zeros_like(theta)
    good = np.ones(len(theta), dtype=bool)
    for i in range(len(theta)):
        try:
            c2p = ah_cos2psi(theta[i], kcol[i], c1, h)
        except (OutOfRangeError, ChartError):
            good[i] = False
            continue
        half = 0.5 * math.acos(c2p)
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
def test_ah_polyline_traces_match_per_sample_reference(family, fixed, monkeypatch):
    """The array polyline-to-trace step against the per-sample loop on the
    fig8 (k = 0.5) and fig9 (phi = pi/4) families at c1 = -3: same runs,
    bit-identical t, k, theta, phi, and psi within 1e-13."""
    calls = []
    original = sc._ah_traces_from_polyline

    def spy(*args):
        traces = original(*args)
        calls.append((args, traces))
        return traces

    monkeypatch.setattr(sc, "_ah_traces_from_polyline", spy)
    assert family(fixed, -3.0)
    emitted = 0
    for args, traces in calls:
        pts, plane, k_fixed, phi_fixed, c1, h, sign, tag = args
        runs = _reference_runs(pts, plane, k_fixed, phi_fixed, c1, h, sign)
        assert [tr.tag for tr in traces] == [f"{tag}r{i}" for i in range(len(runs))]
        for tr, (t, k, theta, phi, psi) in zip(traces, runs):
            assert np.array_equal(tr.t, t)
            assert np.array_equal(tr.cols["k"], k)
            assert np.array_equal(tr.cols["theta"], theta)
            assert np.array_equal(tr.cols["phi"], phi)
            assert np.max(np.abs(tr.cols["psi"] - psi)) <= 1e-13
            emitted += len(t)
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
