"""Taub-NUT chart, metric block, spherical closed form, volume-form residual."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slag_forge.errors import ChartError, ConvergenceError, DomainError
from slag_forge.moment_maps import moment_tn_so2, moment_tn_u1
from slag_forge.multiplets import O2Multiplet, tn_Fxx_contour_oracle
from slag_forge.taub_nut import (TNHoloPoint, TNParams, TNSphericalPoint,
                                 potential, re_u_from_xz, tn_calabi_yau_residual,
                                 tn_chart_holo_to_spherical,
                                 tn_chart_spherical_to_holo, tn_metric_holo,
                                 tn_metric_spherical,
                                 tn_metric_spherical_from_holo,
                                 tn_point_from_uz, tn_point_from_xz,
                                 tn_solve_x)


def solve_x_reference(re_u, absz, p):
    """The one-point x-solve as a scalar loop: bracket doubling, then Newton
    with bisection fallback, stopping at |f| < 1e-13 max(1, |Re u|)."""
    def f(x):
        return re_u_from_xz(x, absz, p) - re_u

    bound = 10.0 * (abs(re_u) * p.h / 2.0 + 2.0 * absz + 1.0)
    lo, hi = -bound, bound
    for _ in range(200):
        if f(lo) > 0.0 >= f(hi):
            break
        lo *= 2.0
        hi *= 2.0
    else:
        raise ConvergenceError("bracket search failed")
    x = 0.0 if lo < 0.0 < hi else 0.5 * (lo + hi)
    for _ in range(200):
        fx = f(x)
        if fx > 0.0:
            lo = x
        else:
            hi = x
        r = math.sqrt(x * x + 4.0 * absz * absz)
        x_new = x + fx / (1.0 / p.h + 2.0 * p.m / r)
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(f(x_new)) < 1e-13 * max(1.0, abs(re_u)):
            return x_new
        x = x_new
    raise ConvergenceError("Newton/bisection did not converge")


def random_point(rng, p, r_lo=0.1, r_hi=100.0):
    r = rng.uniform(r_lo, r_hi)
    ang = rng.uniform(0.05, math.pi - 0.05)
    phase = rng.uniform(0, 2 * math.pi)
    z = r * math.sin(ang) / 2 * complex(math.cos(phase), math.sin(phase))
    return tn_point_from_xz(r * math.cos(ang), z, p, im_u=rng.uniform(-3, 3))


def test_params_validation():
    with pytest.raises(DomainError):
        TNParams(0.0, 1.0)
    with pytest.raises(DomainError):
        TNParams(1.0, -0.5)
    TNParams(1.0, 0.0)  # flat limit allowed


@pytest.mark.parametrize("args", [(math.nan, 1.0), (1.0, math.nan),
                                  (np.array([1.0, math.nan]), np.array([1.0, 1.0]))])
def test_params_reject_nan(args):
    with pytest.raises(DomainError):
        TNParams(*args)


def test_spherical_point_rejects_nan_radius():
    with pytest.raises(DomainError, match="r must be positive"):
        TNSphericalPoint(math.nan, 1.0, 0.0, 0.0)
    with pytest.raises(DomainError, match="r must be positive"):
        TNSphericalPoint(np.array([1.0, math.nan]), np.ones(2), np.zeros(2), np.zeros(2))


def test_spherical_point_rejects_infinite_radius():
    """r = +-inf is a DomainError, as NaN is; a batch names its first bad
    entry, its index and how many there are, not the whole array."""
    for r in (math.inf, -math.inf):
        with pytest.raises(DomainError) as err:
            TNSphericalPoint(r, 1.0, 0.0, 0.0)
        assert str(err.value) == f"r must be positive and finite, got {r!r}"
    r = np.full(400, 2.0)
    r[[7, 300]] = math.inf
    with pytest.raises(DomainError) as err:
        TNSphericalPoint(r, np.ones(400), np.zeros(400), np.zeros(400))
    assert str(err.value) == "r must be positive and finite, got inf at index 7 (2 of 400 entries)"


def test_solve_x_zero_and_monotone():
    p = TNParams(1.0, 1.0)
    assert tn_solve_x(0.0, 1.0, p) == pytest.approx(0.0, abs=1e-12)
    # strictly decreasing map: re_u large negative -> x large positive
    assert tn_solve_x(-50.0, 1.0, p) > tn_solve_x(0.0, 1.0, p)
    assert tn_solve_x(-50.0, 1.0, p) > 0


def test_solve_x_roundtrip():
    p = TNParams(1.0, 1.0)
    re_u = re_u_from_xz(1.0, 1.0, p)
    assert tn_solve_x(re_u, 1.0, p) == pytest.approx(1.0, abs=1e-10)
    rng = np.random.default_rng(20)
    for _ in range(50):
        pp = TNParams(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0))
        x = rng.uniform(-20, 20)
        absz = rng.uniform(0.05, 10.0)
        assert tn_solve_x(re_u_from_xz(x, absz, pp), absz, pp) == \
            pytest.approx(x, abs=1e-9 * max(1, abs(x)))


@settings(max_examples=200, deadline=None)
@given(re_u=st.floats(-30.0, 30.0), absz=st.floats(1e-3, 20.0),
       h=st.floats(0.5, 2.0), m=st.floats(0.0, 2.0))
@example(re_u=20.0, absz=3e-3, h=1.0, m=1.0)
@example(re_u=10.0, absz=1e-3, h=1.0, m=1.0)
@example(re_u=30.0, absz=1e-3, h=1.0, m=1.0)
def test_solve_x_roundtrip_property(re_u, absz, h, m):
    """The solve converges on the whole chart, x << -|z| included, where
    r + x cancels in the forward map's log argument."""
    p = TNParams(h, m)
    x = tn_solve_x(re_u, absz, p)
    assert abs(re_u_from_xz(x, absz, p) - re_u) < 1e-13 * max(1.0, abs(re_u))


@pytest.mark.parametrize("seed", [0, 1])
def test_batch_solve_x_matches_scalar_loop(seed):
    """A batch runs each element through the scalar loop's steps: bitwise."""
    rng = np.random.default_rng(seed)
    n = 400
    p = TNParams(rng.uniform(0.5, 2.0, n), rng.uniform(0.0, 2.0, n))
    re_u = rng.uniform(-30.0, 30.0, n)
    absz = np.exp(rng.uniform(math.log(1e-3), math.log(20.0), n))
    got = tn_solve_x(re_u, absz, p)
    want = [solve_x_reference(float(re_u[i]), float(absz[i]),
                              TNParams(float(p.h[i]), float(p.m[i]))) for i in range(n)]
    assert np.array_equal(got, want)
    # the same points in another batch (another shape, scalar params) agree too
    one = TNParams(float(p.h[0]), float(p.m[0]))
    assert tn_solve_x(re_u[:7].reshape(7, 1), absz[0], one)[0, 0] == \
        solve_x_reference(float(re_u[0]), float(absz[0]), one)


def test_solve_x_scalar_in_scalar_out():
    p = TNParams(1.3, 0.7)
    x = tn_solve_x(-2.0, 0.5, p)
    assert not isinstance(x, np.ndarray) and x == solve_x_reference(-2.0, 0.5, p)
    pt = tn_point_from_uz(complex(-2.0, 0.5), 0.4 + 0.3j, p)
    sph = tn_chart_holo_to_spherical(pt, p)
    values = (*dataclasses.astuple(pt), *dataclasses.astuple(sph))
    assert not any(isinstance(v, np.ndarray) for v in values)


def test_solve_x_one_bad_entry_raises_for_the_batch():
    p = TNParams(1.0, 1.0)
    with pytest.raises(DomainError):
        tn_solve_x(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0, 1.0]), p)
    with pytest.raises(ConvergenceError):
        tn_solve_x(np.array([0.0, np.nan, 2.0]), np.ones(3), p)
    with pytest.raises(ChartError):
        tn_point_from_uz(np.zeros(3, dtype=complex), np.array([1.0, 0.0, 1j]), p)


def test_metric_block_equatorial():
    # h=m=1, x=0 (theta=pi/2), r=2: V=2 -> K_uu=1/4, K_zz=4, off-diagonals 0
    p = TNParams(1.0, 1.0)
    blk = tn_metric_holo(tn_point_from_xz(0.0, 1.0 + 0j, p), p)
    assert blk.kuubar == pytest.approx(0.25)
    assert blk.kzzbar == pytest.approx(4.0)
    assert blk.kuzbar == pytest.approx(0.0, abs=1e-15)
    assert blk.kzubar == pytest.approx(0.0, abs=1e-15)
    assert blk.det() == pytest.approx(1.0, abs=1e-14)


def test_metric_block_flat_limit():
    p = TNParams(1.0, 0.0)
    blk = tn_metric_holo(tn_point_from_xz(0.7, 0.3 + 0.1j, p), p)
    assert blk.kzzbar == pytest.approx(2.0)
    assert blk.kuubar == pytest.approx(0.5)


def test_monge_ampere_1000_points():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(1000):
        p = TNParams(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0))
        blk = tn_metric_holo(random_point(rng, p), p)
        worst = max(worst, abs(blk.det() - 1.0))
        # hermiticity and positivity
        assert blk.kuzbar == pytest.approx(np.conjugate(blk.kzubar), rel=1e-12,
                                           abs=1e-15)
        assert blk.kuubar.real > 0 and blk.det().real > 0
    assert worst < 1e-10


def test_calabi_yau_residual():
    rng = np.random.default_rng(22)
    p = TNParams(1.0, 1.0)
    for _ in range(20):
        assert tn_calabi_yau_residual(random_point(rng, p), p) < 1e-10
    # flat case: machine zero
    p0 = TNParams(1.0, 0.0)
    assert tn_calabi_yau_residual(tn_point_from_xz(0.4, 0.8 + 0.1j, p0), p0) == 0.0
    # near-origin stress point
    stress = tn_point_from_xz(5e-4, 4e-4 + 1e-4j, p)
    assert tn_calabi_yau_residual(stress, p) < 1e-8


def test_kuu_matches_contour_oracle():
    rng = np.random.default_rng(23)
    for _ in range(5):
        p = TNParams(rng.uniform(0.5, 2.0), rng.uniform(0.1, 2.0))
        r = rng.uniform(1.0, 10.0)
        ang = rng.uniform(0.4, 2.6)
        z = r * math.sin(ang) / 2 * np.exp(1j * rng.uniform(0, 2 * math.pi))
        m2 = O2Multiplet(complex(z), r * math.cos(ang))
        pt = tn_point_from_xz(m2.x, m2.z, p)
        fxx = tn_Fxx_contour_oracle(m2, p.h, p.m)
        assert tn_metric_holo(pt, p).kuubar.real == pytest.approx(-1.0 / fxx,
                                                                  rel=1e-5)


def test_spherical_closed_form_components():
    p = TNParams(1.0, 1.0)
    g = tn_metric_spherical(TNSphericalPoint(2.0, math.pi / 2, 0.3, 1.0), p)
    assert g[0, 0] == pytest.approx(2.0)
    assert g[3, 3] == pytest.approx(2.0)
    assert g[2, 3] == pytest.approx(0.0, abs=1e-15)
    g0 = tn_metric_spherical(TNSphericalPoint(2.0, 1e-9, 0.3, 1.0), p)
    assert g0[2, 3] == pytest.approx(2.0, abs=1e-8)
    with pytest.raises(DomainError):
        tn_metric_spherical(TNSphericalPoint(2.0, 1.0, 0.0, 0.0), TNParams(2.0, 1.0))


def test_pullback_matches_closed_form():
    p = TNParams(1.0, 1.0)
    rng = np.random.default_rng(24)
    for _ in range(20):
        pt = TNSphericalPoint(rng.uniform(0.3, 10.0),
                              rng.uniform(0.2, math.pi - 0.2),
                              rng.uniform(0, 2 * math.pi),
                              rng.uniform(0, 4 * math.pi))
        g1 = tn_metric_spherical(pt, p)
        g2 = tn_metric_spherical_from_holo(pt, p)
        assert np.max(np.abs(g1 - g2)) < 1e-8


def pullback_reference(pt, p):
    """The holomorphic metric pulled back to (r, theta, phi, psi), times 2,
    for one point: the analytic chart Jacobian and a 4 x 4 loop over its
    entries."""
    blk = tn_metric_holo(tn_chart_spherical_to_holo(pt, p), p)
    st, ct = math.sin(pt.theta), math.cos(pt.theta)
    eip = complex(math.cos(pt.phi), math.sin(pt.phi))
    z_q = np.array([0.5 * st * eip, 0.5 * pt.r * ct * eip, 0.5j * pt.r * st * eip, 0.0])
    u_q = np.array([complex(-ct / p.h), complex(pt.r * st / p.h + 2.0 * p.m / st), 0.0,
                    complex(0.0, -2.0 * p.m)])
    g = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            val = (blk.kuubar * u_q[a] * np.conjugate(u_q[b])
                   + blk.kuzbar * u_q[a] * np.conjugate(z_q[b])
                   + blk.kzubar * z_q[a] * np.conjugate(u_q[b])
                   + blk.kzzbar * z_q[a] * np.conjugate(z_q[b]))
            g[a, b] = val.real
    return 2.0 * g


def test_batched_pullback_matches_per_point_loop():
    """A batch gives one 4 x 4 block per point, each within 1e-14 of the
    largest entry of the per-point loop's block; one point gives a (4, 4)
    array, and the closed form of a batch is that of each point (np.sin of
    an array and of a scalar may round differently)."""
    rng = np.random.default_rng(31)
    n = 500
    p = TNParams(1.0, rng.uniform(0.0, 2.0, n))
    pt = TNSphericalPoint(*rng.uniform((0.3, 0.2, 0.0, 0.0),
                                       (10.0, math.pi - 0.2, 2.0 * math.pi, 4.0 * math.pi),
                                       size=(n, 4)).T)
    pulled, closed = tn_metric_spherical_from_holo(pt, p), tn_metric_spherical(pt, p)
    assert pulled.shape == closed.shape == (n, 4, 4)
    for i in range(n):
        pt_i = TNSphericalPoint(*(float(c[i]) for c in dataclasses.astuple(pt)))
        p_i = TNParams(1.0, float(p.m[i]))
        ref = pullback_reference(pt_i, p_i)
        assert np.max(np.abs(pulled[i] - ref)) <= 1e-14 * np.max(np.abs(ref))
        one = tn_metric_spherical_from_holo(pt_i, p_i)
        assert one.shape == tn_metric_spherical(pt_i, p_i).shape == (4, 4)
        assert np.allclose(tn_metric_spherical(pt_i, p_i), closed[i], rtol=4e-15, atol=0.0)


def test_chart_examples():
    p = TNParams(1.0, 1.0)
    pt = tn_chart_spherical_to_holo(TNSphericalPoint(2.0, math.pi / 2, 0.0, 0.0), p)
    assert pt.z == pytest.approx(1.0, abs=1e-14)
    assert pt.u == pytest.approx(0.0, abs=1e-14)
    pt2 = tn_chart_spherical_to_holo(TNSphericalPoint(2.0, math.pi / 2,
                                                      math.pi / 2, 0.0), p)
    assert pt2.z == pytest.approx(1j, abs=1e-14)
    pt3 = tn_chart_spherical_to_holo(TNSphericalPoint(2.0, math.pi / 2, 0.0,
                                                      math.pi), p)
    assert pt3.u.imag == pytest.approx(-2 * math.pi)
    with pytest.raises(ChartError):
        tn_chart_spherical_to_holo(TNSphericalPoint(2.0, 0.0, 0.0, 0.0), p)


def test_chart_roundtrip():
    rng = np.random.default_rng(25)
    for _ in range(50):
        p = TNParams(rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.0))
        sph = TNSphericalPoint(rng.uniform(0.2, 20.0),
                               rng.uniform(0.1, math.pi - 0.1),
                               rng.uniform(0, 2 * math.pi),
                               rng.uniform(0, 4 * math.pi))
        holo = tn_chart_spherical_to_holo(sph, p)
        back = tn_chart_holo_to_spherical(holo, p)
        assert back.r == pytest.approx(sph.r, rel=1e-9)
        assert back.theta == pytest.approx(sph.theta, abs=1e-9)
        assert back.phi == pytest.approx(sph.phi, abs=1e-9)
        assert back.psi == pytest.approx(sph.psi, abs=1e-9)
        # the x cached on the forward point solves the transform condition
        assert tn_solve_x(holo.u.real, abs(holo.z), p) == \
            pytest.approx(holo.x, abs=1e-10 * max(1, abs(holo.x)))


def test_point_from_uz_solves_x():
    p = TNParams(1.3, 0.7)
    pt = tn_point_from_uz(complex(-2.0, 0.5), 0.4 + 0.3j, p)
    assert re_u_from_xz(pt.x, abs(pt.z), p) == pytest.approx(-2.0, abs=1e-11)
    assert pt.r == pytest.approx(math.sqrt(pt.x**2 + 4 * abs(pt.z) ** 2))
    with pytest.raises(ChartError):
        tn_point_from_uz(0j, 0j, p)


def test_spherical_point_ranges():
    with pytest.raises(DomainError):
        TNSphericalPoint(-1.0, 1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        TNSphericalPoint(1.0, 4.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        TNSphericalPoint(1.0, 1.0, 7.0, 0.0)
    with pytest.raises(DomainError):
        TNSphericalPoint(1.0, 1.0, 0.0, 13.0)


def _layer_values(sph, p):
    """Chart point, metric block, the x-given point, moments, V, Re u, det."""
    hol = tn_chart_spherical_to_holo(sph, p)
    blk = tn_metric_holo(hol, p)
    xz = tn_point_from_xz(hol.x, hol.z, p, im_u=hol.u.imag)
    back = tn_chart_holo_to_spherical(hol, p)
    return (*dataclasses.astuple(hol), *dataclasses.astuple(blk),
            *dataclasses.astuple(xz), *dataclasses.astuple(back),
            moment_tn_u1(hol), moment_tn_so2(hol, p),
            potential(hol.r, p), re_u_from_xz(hol.x, abs(hol.z), p), blk.det())


def test_arrays_match_scalar_calls():
    """Array chart map, metric block and moments against elementwise scalar
    calls; scalar input gives scalars back, never 0-d arrays."""
    rng = np.random.default_rng(26)
    n = 300
    p = TNParams(rng.uniform(0.5, 2.0, n), rng.uniform(0.0, 2.0, n))
    sph = TNSphericalPoint(rng.uniform(0.1, 50.0, n), rng.uniform(0.01, math.pi - 0.01, n),
                           rng.uniform(0.0, 2.0 * math.pi, n),
                           rng.uniform(0.0, 4.0 * math.pi, n))
    batch = _layer_values(sph, p)
    assert all(np.shape(v) == (n,) for v in batch)
    for i in range(n):
        sph_i = TNSphericalPoint(*(float(c[i]) for c in dataclasses.astuple(sph)))
        one = _layer_values(sph_i, TNParams(float(p.h[i]), float(p.m[i])))
        assert not any(isinstance(v, np.ndarray) for v in one)
        # the chart is the same arithmetic; |z| and complex division may
        # round differently for numpy scalars and arrays
        assert tuple(v[i] for v in batch[:4]) == one[:4]
        assert tuple(v[i] for v in batch[4:-1]) == pytest.approx(one[4:-1], rel=4e-15,
                                                                 abs=1e-15)
        assert batch[-1][i] == pytest.approx(one[-1], abs=1e-12)


def test_batch_validation_flags_one_bad_entry():
    ok = np.array([0.5, 1.0, 2.0])
    with pytest.raises(DomainError):
        TNParams(ok, np.array([1.0, -0.1, 1.0]))
    with pytest.raises(DomainError):
        TNSphericalPoint(ok, np.array([0.5, 4.0, 0.5]), ok, ok)
    with pytest.raises(ChartError):
        tn_chart_spherical_to_holo(TNSphericalPoint(ok, np.array([0.5, 0.0, 0.5]), ok, ok),
                                   TNParams())
