"""Moment maps, Hamiltonicity finite differences, orbits, SO(3) fixture."""

import math

import numpy as np
import pytest

from slag_forge import atiyah_hitchin, checks, taub_nut
from slag_forge.atiyah_hitchin import AHParams, AHSphericalPoint, ah_from_spherical
from slag_forge.errors import DomainError
from slag_forge.moment_maps import (ActionSpec, _iota_omega, kahler_omega,
                                    moment_ah_so2, moment_tn_so2, moment_tn_u1,
                                    so3_cotangent_moment, verify_hamiltonian_ah,
                                    verify_hamiltonian_tn)
from slag_forge.taub_nut import MetricBlock, TNParams, tn_metric_holo, \
    tn_point_from_uz, tn_point_from_xz

from test_atiyah_hitchin import regular_point
from test_taub_nut import solve_x_reference


def random_tn_point(rng, p, r_lo=0.3, r_hi=20.0):
    r = rng.uniform(r_lo, r_hi)
    ang = rng.uniform(0.1, math.pi - 0.1)
    phase = rng.uniform(0, 2 * math.pi)
    z = r * math.sin(ang) / 2 * complex(math.cos(phase), math.sin(phase))
    return tn_point_from_xz(r * math.cos(ang), z, p, im_u=rng.uniform(-3, 3))


def test_action_spec_validation():
    ActionSpec("TaubNUT", "U1_triholo")
    ActionSpec("AtiyahHitchin", "SO2_rot")
    with pytest.raises(DomainError):
        ActionSpec("TaubNUT", "SO3_rot")
    with pytest.raises(DomainError):
        ActionSpec("AtiyahHitchin", "U1_triholo")


def test_moment_values():
    p = TNParams(1.0, 1.0)
    pt = tn_point_from_xz(0.0, 1.0 + 0j, p)   # r=2, |z|=1
    assert moment_tn_u1(pt) == 0.0
    assert moment_tn_so2(pt, p) == pytest.approx(6.0)
    pt3 = tn_point_from_xz(3.0, 0.5 + 0j, p)
    assert moment_tn_u1(pt3) == pytest.approx(1.5)
    p0 = TNParams(2.0, 0.0)
    assert moment_tn_so2(pt, p0) == pytest.approx(2 * 1.0 / 2.0)


def test_moment_u1_ignores_im_u_and_so2_phase():
    p = TNParams(1.0, 1.0)
    a = tn_point_from_xz(1.2, 0.5 + 0.3j, p, im_u=0.0)
    b = tn_point_from_xz(1.2, 0.5 + 0.3j, p, im_u=2.5)
    assert moment_tn_u1(a) == moment_tn_u1(b)
    c = tn_point_from_xz(1.2, (0.5 + 0.3j) * np.exp(0.7j), p)
    assert moment_tn_so2(a, p) == pytest.approx(moment_tn_so2(c, p), rel=1e-14)


def test_hamiltonicity_tn_u1():
    rng = np.random.default_rng(40)
    action = ActionSpec("TaubNUT", "U1_triholo")
    worst = 0.0
    for _ in range(100):
        p = TNParams(rng.uniform(0.5, 2.0), rng.uniform(0.1, 2.0))
        worst = max(worst, verify_hamiltonian_tn(action, random_tn_point(rng, p), p))
    assert worst < 1e-5


def test_hamiltonicity_tn_so2():
    rng = np.random.default_rng(41)
    action = ActionSpec("TaubNUT", "SO2_rot")
    worst = 0.0
    for _ in range(100):
        p = TNParams(rng.uniform(0.5, 2.0), rng.uniform(0.1, 2.0))
        worst = max(worst, verify_hamiltonian_tn(action, random_tn_point(rng, p), p))
    assert worst < 1e-5


def verify_hamiltonian_tn_reference(action, pt, p, eps=1e-5):
    """verify_hamiltonian_tn one point at a time: each of the 8 perturbed
    points through the scalar x-solve loop.  |z| is NumPy's complex
    absolute value, as in the batch, since libm's hypot rounds differently
    and central differences turn one ulp of mu into ~1e-10 of d mu."""
    def mu_of(q):
        absz = np.abs(complex(q[2], q[3]))
        x = solve_x_reference(q[0], absz, p)
        if action.generator == "U1_triholo":
            return 0.5 * x
        return (2.0 * p.m * math.sqrt(x * x + 4.0 * (absz * absz))
                + 2.0 * (absz * absz) / p.h)

    q0 = np.array([pt.u.real, pt.u.imag, pt.z.real, pt.z.imag])
    dmu = np.zeros(4)
    for a in range(4):
        step = max(eps * abs(q0[a]), 1e-7)
        qp, qm = q0.copy(), q0.copy()
        qp[a] += step
        qm[a] -= step
        dmu[a] = (mu_of(qp) - mu_of(qm)) / (2.0 * step)
    lhs = _iota_omega(action, tn_metric_holo(pt, p), pt.u, pt.z)
    return float(np.max(np.abs(lhs - dmu)))


@pytest.mark.parametrize("generator", ["U1_triholo", "SO2_rot"])
def test_hamiltonicity_tn_batch_matches_per_point_reference(generator, monkeypatch):
    """One x-solve for the 8 perturbed copies of all points, and one residual
    per point: d mu is the per-point loop's bit for bit, so the residuals
    differ only by the rounding of the metric block (scalar or array)."""
    rng = np.random.default_rng(47)
    n = 60
    p = TNParams(rng.uniform(0.5, 2.0, n), rng.uniform(0.1, 2.0, n))
    pt = checks._tn_point(p, rng.uniform(0.3, 20.0, n), rng.uniform(0.05, math.pi - 0.05, n),
                          rng.uniform(0.0, 2.0 * math.pi, n), rng.uniform(-3.0, 3.0, n))
    action = ActionSpec("TaubNUT", generator)
    sizes = []
    original = taub_nut.tn_solve_x

    def spy(re_u, absz, params):
        sizes.append(np.shape(re_u))
        return original(re_u, absz, params)

    monkeypatch.setattr(taub_nut, "tn_solve_x", spy)
    res = verify_hamiltonian_tn(action, pt, p)
    assert sizes == [(8, n)]
    assert res.shape == (n,) and np.max(res) < 1e-5
    for i in range(n):
        p_i = TNParams(float(p.h[i]), float(p.m[i]))
        pt_i = taub_nut.TNHoloPoint(complex(pt.u[i]), complex(pt.z[i]), float(pt.x[i]),
                                    float(pt.r[i]))
        assert res[i] == pytest.approx(verify_hamiltonian_tn_reference(action, pt_i, p_i),
                                       rel=0.0, abs=1e-14)
    one = verify_hamiltonian_tn(action, pt_i, p_i)
    assert type(one) is float and one == pytest.approx(res[-1], rel=0.0, abs=1e-14)


def test_hamiltonicity_ah():
    rng = np.random.default_rng(42)
    p = AHParams(1.0, 1)
    worst = 0.0
    for _ in range(100):
        pt, _ = regular_point(rng, p, y_guard=3e-3)
        worst = max(worst, verify_hamiltonian_ah(pt, p))
    assert worst < 1e-4


def test_hamiltonicity_ah_batch_one_state_call(monkeypatch):
    """A batch and its 8 perturbed copies go through one chart call; one
    residual per point, a float for a scalar point."""
    p = AHParams(1.0, 1)
    pt, _ = checks.random_ah_point(np.random.default_rng(42), p, 50, y_guard=3e-3)
    sizes = []
    original = atiyah_hitchin.ah_from_spherical

    def spy(q, params, *args):
        sizes.append(np.size(q.k))
        return original(q, params, *args)

    monkeypatch.setattr(atiyah_hitchin, "ah_from_spherical", spy)
    res = verify_hamiltonian_ah(pt, p)
    assert sizes == [9 * 50]
    assert res.shape == (50,) and np.max(res) < 1e-4
    one = verify_hamiltonian_ah(
        AHSphericalPoint(*(float(c[3]) for c in (pt.k, pt.theta, pt.phi, pt.psi))), p)
    # both are finite-difference noise; pi(x_pm) rounds with the batch it is in
    assert type(one) is float and one == pytest.approx(res[3], abs=1e-6)


def test_orbit_constancy_tn():
    """The orbits in closed form, U(1): Im u += t and SO(2): z -> e^{-2it} z.
    mu is constant along 20 orbit points, and the central-difference
    velocity at t = 0 is the action's field."""
    rng = np.random.default_rng(43)
    p = TNParams(1.0, 1.0)
    dt = 1e-5
    t = np.concatenate([(dt, -dt), np.linspace(0.0, math.pi, 20, endpoint=False)])
    for name in ("U1_triholo", "SO2_rot"):
        pt = random_tn_point(rng, p, 0.5, 10.0)
        if name == "U1_triholo":
            orbit = tn_point_from_uz(pt.u + 1j * t, np.full(t.shape, pt.z), p)
            mus = moment_tn_u1(orbit)
        else:
            orbit = tn_point_from_uz(np.full(t.shape, pt.u), pt.z * np.exp(-2j * t), p)
            mus = moment_tn_so2(orbit, p)
        assert np.ptp(mus[2:]) < 1e-8
        du, dz = ((w[0] - w[1]) / (2 * dt) for w in (orbit.u, orbit.z))
        X = ActionSpec("TaubNUT", name).field(pt.u, pt.z)
        assert [du.real, du.imag, dz.real, dz.imag] == pytest.approx(X, abs=1e-6)


def test_orbit_constancy_ah():
    """The rotational orbit is the phi-circle: generator matches the chart
    pushforward and mu is constant along 20 orbit points."""
    rng = np.random.default_rng(44)
    p = AHParams(1.0, 1)
    pt, state0 = regular_point(rng, p)
    mus = [moment_ah_so2(ah_from_spherical(
        AHSphericalPoint(pt.k, pt.theta, (pt.phi + s) % (2 * math.pi), pt.psi), p))
        for s in np.linspace(0, 2 * math.pi, 20, endpoint=False)]
    assert max(mus) - min(mus) < 1e-8
    from slag_forge.atiyah_hitchin import ah_u_coordinate
    dphi = 1e-5
    up = ah_from_spherical(AHSphericalPoint(pt.k, pt.theta, pt.phi + dphi, pt.psi), p)
    dn = ah_from_spherical(AHSphericalPoint(pt.k, pt.theta, pt.phi - dphi, pt.psi), p)
    _, U_u, Z_u = ah_u_coordinate(up, p)
    _, U_d, Z_d = ah_u_coordinate(dn, p)
    _, U0, Z0 = ah_u_coordinate(state0, p)
    assert abs((U_u - U_d) / (2 * dphi)) < 1e-6 * max(1.0, abs(U0))
    assert (Z_u - Z_d) / (2 * dphi) == pytest.approx(1j * Z0, rel=1e-6)


def test_lie_derivative_vanishes():
    """L_X omega = 0 via d(iota_X omega) = 0, second differences."""
    rng = np.random.default_rng(45)
    p = TNParams(1.0, 1.0)
    from slag_forge.moment_maps import _iota_omega
    for name in ("U1_triholo", "SO2_rot"):
        action = ActionSpec("TaubNUT", name)
        pt = random_tn_point(rng, p, 1.0, 10.0)
        q0 = np.array([pt.u.real, pt.u.imag, pt.z.real, pt.z.imag])

        def sigma(q):
            point = tn_point_from_uz(complex(q[0], q[1]), complex(q[2], q[3]), p)
            return _iota_omega(action, tn_metric_holo(point, p), point.u, point.z)

        h = 1e-4
        for a in range(4):
            for b in range(a + 1, 4):
                qa_p, qa_m = q0.copy(), q0.copy()
                qa_p[a] += h
                qa_m[a] -= h
                qb_p, qb_m = q0.copy(), q0.copy()
                qb_p[b] += h
                qb_m[b] -= h
                curl = ((sigma(qa_p)[b] - sigma(qa_m)[b])
                        - (sigma(qb_p)[a] - sigma(qb_m)[a])) / (2 * h)
                assert abs(curl) < 1e-3


def test_so3_cotangent_moment():
    assert np.allclose(so3_cotangent_moment([1, 0, 0], [0, 1, 0]), [0, 0, 1])
    assert np.allclose(so3_cotangent_moment([2, 1, 3], [4, 2, 6]), [0, 0, 0])
    rng = np.random.default_rng(46)
    for _ in range(20):
        q = rng.normal(size=3)
        p_vec = rng.normal(size=3)
        mat, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(mat) < 0:
            mat[:, 0] = -mat[:, 0]
        lhs = so3_cotangent_moment(mat @ q, mat @ p_vec)
        rhs = mat @ so3_cotangent_moment(q, p_vec)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def _omega_matrix_reference(blk):
    """The Kahler form as a real antisymmetric 4x4 matrix in (re u, im u,
    re z, im z), written out entry by entry from the block."""
    p1, p2 = np.real(blk.kzubar), np.imag(blk.kzubar)
    w = np.zeros(np.shape(p1) + (4, 4))
    w[..., 0, 1] = np.real(blk.kuubar)
    w[..., 0, 2] = p2
    w[..., 0, 3] = p1
    w[..., 1, 2] = -p1
    w[..., 1, 3] = p2
    w[..., 2, 3] = np.real(blk.kzzbar)
    return w - np.swapaxes(w, -1, -2)


def _blocks(rng, n=40):
    """A batch of Taub-NUT (u, z) and one of Atiyah-Hitchin (U, Z) blocks,
    each with the chart coordinates (w0, w1) of its points."""
    p = TNParams(1.0, 1.0)
    r = rng.uniform(0.3, 20.0, n)
    ang = rng.uniform(0.1, math.pi - 0.1, n)
    z = 0.5 * r * np.sin(ang) * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    pt = tn_point_from_xz(r * np.cos(ang), z, p, im_u=rng.uniform(-3, 3, n))
    pa = AHParams(1.0, 1)
    _, state = checks.random_ah_point(rng, pa, n)
    _, U, Z = atiyah_hitchin.ah_u_coordinate(state, pa)
    return [("TaubNUT", tn_metric_holo(pt, p), pt.u, pt.z),
            ("AtiyahHitchin", atiyah_hitchin.ah_metric_UZ(state, pa), U, Z)]


def test_kahler_omega_antisymmetric():
    """omega(v2, v1) is -omega(v1, v2) and omega(v, v) is 0 for both block
    kinds.  One sample at a time (numpy scalars) both hold bit for bit.
    Over arrays numpy's vectorized complex product rounds the imaginary
    part by operand order, so they hold to a few ulps of the terms."""
    rng = np.random.default_rng(48)
    for _, blk, _, _ in _blocks(rng):
        n = np.shape(blk.kuubar)[0]
        v1u, v1z, v2u, v2z = (rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, n)
                              + 1j * rng.normal(size=n) for _ in range(4))
        w12 = kahler_omega(blk, v1u, v1z, v2u, v2z)
        w21 = kahler_omega(blk, v2u, v2z, v1u, v1z)
        w11 = kahler_omega(blk, v1u, v1z, v1u, v1z)
        k = np.abs(blk.kuubar) + np.abs(blk.kuzbar) + np.abs(blk.kzubar) + np.abs(blk.kzzbar)
        size1, size2 = np.abs(v1u) + np.abs(v1z), np.abs(v2u) + np.abs(v2z)
        assert np.all(np.abs(w12 + w21) <= 8e-16 * k * size1 * size2)
        assert np.all(np.abs(w11) <= 8e-16 * k * size1 * size1)
        for i in range(n):
            one = MetricBlock(blk.kuubar[i], blk.kuzbar[i], blk.kzubar[i], blk.kzzbar[i])
            a = kahler_omega(one, v1u[i], v1z[i], v2u[i], v2z[i])
            b = kahler_omega(one, v2u[i], v2z[i], v1u[i], v1z[i])
            assert a != 0.0 and np.float64(b).view(np.int64) == np.float64(-a).view(np.int64)
            assert kahler_omega(one, v1u[i], v1z[i], v1u[i], v1z[i]) == 0.0


@pytest.mark.parametrize("manifold, generator", [("TaubNUT", "U1_triholo"),
                                                 ("TaubNUT", "SO2_rot"),
                                                 ("AtiyahHitchin", "SO2_rot")])
def test_iota_omega_matches_real_matrix_reference(manifold, generator):
    """iota_X omega = omega(X, e_a) through the kernel against X^T W with W
    the real antisymmetric matrix of the Kahler form, at a batch of points
    and at one point."""
    rng = np.random.default_rng(49)
    action = ActionSpec(manifold, generator)
    _, blk, w0, w1 = next(b for b in _blocks(rng) if b[0] == manifold)
    X = action.field(w0, w1)
    ref = (X[..., None, :] @ _omega_matrix_reference(blk))[..., 0, :]
    lhs = _iota_omega(action, blk, w0, w1)
    assert lhs.shape == ref.shape
    assert np.max(np.abs(lhs - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-14
    one = MetricBlock(blk.kuubar[0], blk.kuzbar[0], blk.kzubar[0], blk.kzzbar[0])
    lhs = _iota_omega(action, one, w0[0], w1[0])
    assert lhs.shape == (4,)
    assert np.max(np.abs(lhs - ref[0]) / np.maximum(1.0, np.abs(ref[0]))) <= 1e-14
