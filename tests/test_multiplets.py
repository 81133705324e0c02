"""Multiplet structure and the contour-integral oracles."""

import math

import numpy as np
import pytest

from slag_forge import multiplets
from slag_forge.atiyah_hitchin import pi_pair_from_zvx
from slag_forge.elliptic import elliptic_data
from slag_forge.errors import ConvergenceError, DegenerateError, PoleError
from slag_forge.multiplets import (O2Multiplet, ah_I1_closed_form,
                                   ah_I2_closed_form, ah_In_contour_oracle,
                                   best_branch_integer, o2_eval, o2_roots,
                                   o4_eval, o4_from_roots, o4_modulus,
                                   tn_Fxx_contour_oracle)


def random_o2(rng):
    r = rng.uniform(0.5, 20.0)
    ang = rng.uniform(0.3, 2.7)
    phase = rng.uniform(0, 2 * math.pi)
    return O2Multiplet(r * math.sin(ang) / 2 * complex(math.cos(phase),
                                                       math.sin(phase)),
                       r * math.cos(ang))


def random_o4(rng):
    while True:
        m = o4_from_roots(complex(rng.normal(), rng.normal()),
                          complex(rng.normal(), rng.normal()),
                          rng.uniform(0.5, 4.0))
        if abs(m.z) > 0.05 * m.rho and abs(m.beta) > 0.05:
            return m


def test_o2_eval_direct():
    m = O2Multiplet(1j, 0.0)
    assert o2_eval(m, 1.0) == pytest.approx(-2j)
    m2 = O2Multiplet(1.0 + 0j, 0.0)
    assert o2_eval(m2, 1.0) == pytest.approx(0.0)
    assert o2_eval(m2, -1.0) == pytest.approx(0.0)
    with pytest.raises(PoleError):
        o2_eval(m, 0.0)


@pytest.mark.parametrize("evaluate, m", [(o2_eval, O2Multiplet(1j, 0.5)),
                                         (o4_eval, o4_from_roots(0.3 + 0.2j, -1.1j, 2.0))],
                         ids=["o2", "o4"])
def test_eval_takes_an_array_and_flags_its_pole(evaluate, m):
    """An array zeta gives the scalar values elementwise; one zero entry
    raises PoleError for the array."""
    zeta = np.array([0.5 - 0.25j, 1.0 + 0j, -2.0j])
    assert evaluate(m, zeta) == pytest.approx([evaluate(m, complex(z)) for z in zeta],
                                              rel=1e-15)
    with pytest.raises(PoleError):
        evaluate(m, np.array([1.0 + 1j, 0j, -1.0]))


def test_o2_roots_arithmetic():
    zp, zm = o2_roots(O2Multiplet(1.0 + 0j, 0.0))
    assert (zp, zm) == (1.0, -1.0)
    zp, zm = o2_roots(O2Multiplet(1.0 + 0j, 3.0))
    assert zp == pytest.approx((3 + math.sqrt(13)) / 2)
    assert zm == pytest.approx((3 - math.sqrt(13)) / 2)
    with pytest.raises(DegenerateError):
        o2_roots(O2Multiplet(0j, 1.0))


def test_o2_reality_and_vieta():
    rng = np.random.default_rng(10)
    for _ in range(30):
        m = random_o2(rng)
        for _ in range(16):
            zeta = complex(rng.normal(), rng.normal())
            if abs(zeta) < 1e-3:
                continue
            assert abs(o2_eval(m, -1 / np.conjugate(zeta))
                       - np.conjugate(o2_eval(m, zeta))) < 1e-12 * max(1, m.r)
        zp, zm = o2_roots(m)
        assert abs(o2_eval(m, zp)) < 1e-12 * max(1.0, m.r)
        assert abs(o2_eval(m, zm)) < 1e-12 * max(1.0, m.r)
        assert zp * zm == pytest.approx(-np.conjugate(m.z) / m.z, abs=1e-12)


def test_o4_from_roots_special_values():
    m = o4_from_roots(0j, 0j, 2.5)
    assert (m.z, m.v, m.x) == (0j, 0j, 2.5)
    m = o4_from_roots(1.0 + 0j, 0j, 2.0)
    assert m.v == pytest.approx(-1.0)  # -rho/2
    assert m.x == pytest.approx(0.0)


def test_o4_quartic_vanishes_at_roots():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = random_o4(rng)
        for root in (m.alpha, -1 / np.conjugate(m.alpha),
                     m.beta, -1 / np.conjugate(m.beta)):
            assert abs(o4_eval(m, root)) < 1e-10 * m.rho
        assert abs(complex(m.x).imag) < 1e-14 * m.rho


def test_fxx_contour_oracle_unit_case():
    # z=1, x=0, h=m=1: r=2, target F_xx = -2(1 + 1) = -4
    val = tn_Fxx_contour_oracle(O2Multiplet(1.0 + 0j, 0.0), 1.0, 1.0)
    assert val == pytest.approx(-4.0, rel=1e-6)


def test_fxx_contour_oracle_flat_limit():
    # m=0: only the quadratic term survives and F_xx = -2/h identically;
    # the second central difference limits the attainable accuracy
    val = tn_Fxx_contour_oracle(O2Multiplet(0.7 + 0.2j, 1.3), 2.0, 0.0)
    assert val == pytest.approx(-1.0, rel=1e-7)


def test_fxx_contour_oracle_scaling():
    m1 = O2Multiplet(0.6 + 0.4j, 0.8)
    lam = 3.0
    m2 = O2Multiplet(lam * m1.z, lam * m1.x)
    assert m2.r == pytest.approx(lam * m1.r, rel=1e-14)
    v1 = tn_Fxx_contour_oracle(m1, 1.0, 1.0)
    v2 = tn_Fxx_contour_oracle(m2, 1.0, 1.0)
    assert v1 == pytest.approx(-2 * (1 + 2 / m1.r), rel=1e-6)
    assert v2 == pytest.approx(-2 * (1 + 2 / (lam * m1.r)), rel=1e-6)


def test_fxx_contour_oracle_random_points():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(50):
        m = random_o2(rng)
        h = rng.uniform(0.5, 2.0)
        mc = rng.uniform(0.1, 2.0)
        target = -2.0 * (1.0 / h + 2.0 * mc / m.r)
        rel = abs(tn_Fxx_contour_oracle(m, h, mc) - target) / abs(target)
        worst = max(worst, rel)
    assert worst < 1e-5


def _tn_Fxx_reference(m, h, mcharge):
    """The shared-loop F_xx on 1 024 loop nodes, its nodes built on every call."""
    z, zb = m.z, np.conjugate(m.z)
    step = 1e-4 * m.r
    xs = np.array([[m.x + step], [m.x], [m.x - step]])
    zeta = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False))
    eta = zb / zeta + xs - z * zeta
    f_quad = -np.real(np.sum(eta * eta, axis=1)) / (h * 64)
    zp, zm = o2_roots(m)
    pad = min(0.2 * abs(zm), 0.45 * abs(zp))
    u_hat = zm / abs(zm)
    a_ax, b_ax = 0.5 * abs(zm) + pad, pad
    th = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    loop = 0.5 * zm + (a_ax * np.cos(th) + 1j * b_ax * np.sin(th)) * u_hat
    dlog = (-a_ax * np.sin(th) + 1j * b_ax * np.cos(th)) * u_hat / loop
    eta_l = zb / loop + xs - z * loop
    log_eta = np.log(np.abs(eta_l)) + 1j * np.unwrap(np.angle(eta_l), axis=1)
    f = f_quad - 4.0 * mcharge * np.imag(np.mean(eta_l * log_eta * dlog, axis=1))
    return (f[0] - 2.0 * f[1] + f[2]) / (step * step)


def test_fxx_contour_oracle_matches_per_call_nodes():
    """The shared read-only nodes give the one-loop rule bit for bit."""
    rng = np.random.default_rng(13)
    for _ in range(4):
        m = random_o2(rng)
        h, mc = rng.uniform(0.5, 2.0), rng.uniform(0.1, 2.0)
        val = tn_Fxx_contour_oracle(m, h, mc)
        assert val == _tn_Fxx_reference(m, h, mc) and val.loop_nodes == 1024
    for arr in multiplets._trig_nodes(64) + multiplets._trig_nodes(1024):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def pinched_o2(angle):
    """r = 5 at polar angle `angle`, so x/r = cos(angle) -> -1 pinches the loop."""
    return O2Multiplet(2.5 * math.sin(angle) * complex(math.cos(0.7), math.sin(0.7)),
                       5.0 * math.cos(angle))


@pytest.mark.parametrize("angle, nodes", [(2.9, 2048), (3.0, 8192), (3.05, 8192)])
def test_fxx_contour_oracle_pinched_inputs(angle, nodes):
    """Near x = -r (x/r = -0.971, -0.990, -0.996) the loop doubles until its
    even-indexed half agrees, and F_xx holds to 1e-6."""
    m = pinched_o2(angle)
    target = -2.0 * (1.0 + 2.0 / m.r)
    val = tn_Fxx_contour_oracle(m, 1.0, 1.0)
    assert abs(val - target) < 1e-6 * abs(target) and val.loop_nodes == nodes


def test_fxx_contour_oracle_unconverged_raises():
    """At x/r = -0.9991 the half-node gap is still open at 8 192 loop nodes."""
    with pytest.raises(ConvergenceError, match="8192 loop nodes"):
        tn_Fxx_contour_oracle(pinched_o2(3.1), 1.0, 1.0)


def test_fxx_contour_oracle_step_scaling(monkeypatch):
    """The second difference is second order in its step: each halving of
    the step cuts the median relative error of 20 samples by 3-5x."""
    medians = []
    for step_rel in (1.6e-2, 8e-3, 4e-3, 2e-3):
        monkeypatch.setattr(multiplets, "_FXX_STEP_REL", step_rel)
        rng = np.random.default_rng(31)
        errs = []
        for _ in range(20):
            m = random_o2(rng)
            h, mc = rng.uniform(0.5, 2.0), rng.uniform(0.1, 2.0)
            target = -2.0 * (1.0 / h + 2.0 * mc / m.r)
            errs.append(abs(tn_Fxx_contour_oracle(m, h, mc) - target) / abs(target))
        medians.append(np.median(errs))
    ratios = [a / b for a, b in zip(medians, medians[1:])]
    assert all(3.0 <= q <= 5.0 for q in ratios), ratios


def test_o2_root_separation_invariant():
    # |zeta_+ - zeta_-| = r/|z| >= 2 since r^2 = x^2 + 4|z|^2, so the
    # contour-collision guard is unreachable from valid multiplets
    rng = np.random.default_rng(17)
    for _ in range(100):
        m = random_o2(rng)
        zp, zm = o2_roots(m)
        assert abs(zp - zm) == pytest.approx(m.r / abs(m.z), rel=1e-12)
        assert abs(zp - zm) >= 2.0 - 1e-12
    with pytest.raises(DegenerateError):
        tn_Fxx_contour_oracle(O2Multiplet(0j, 1.0), 1.0, 1.0)


def test_ah_I0_equals_twice_half_period():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m4 = random_o4(rng)
        data = elliptic_data(o4_modulus(m4), m4.rho)
        (val,), _, _ = ah_In_contour_oracle(data, m4.alpha, m4.beta)[0]
        assert abs(val - 2.0 * data.omega1) < 1e-8 * abs(2 * data.omega1)


def test_ah_Xinf_consistency():
    rng = np.random.default_rng(14)
    for _ in range(30):
        m4 = random_o4(rng)
        data = elliptic_data(o4_modulus(m4), m4.rho)
        cross = (1 + np.conjugate(m4.alpha) * m4.beta) / (1 + abs(m4.alpha) ** 2)
        Xinf = data.e3 + m4.rho * cross
        Xinf2 = m4.x / 3 - m4.beta * m4.v + 2 * m4.beta**2 * m4.z
        assert abs(Xinf - Xinf2) < 1e-10 * m4.rho
        X0 = data.e3 + m4.rho * (m4.alpha / m4.beta) * cross
        Yinf = 2 * m4.beta * np.sqrt(complex(m4.z)) * (X0 - Xinf)
        cubic = 4 * Xinf**3 - data.g2 * Xinf - data.g3
        assert abs(Yinf**2 - cubic) < 1e-10 * max(1.0, abs(cubic))


def test_ah_I1_I2_closed_forms():
    """Quadrature vs the closed forms built from pi(x_pm), minimizing over
    the branch integer; the minimizing 2a pi i offset must be even."""
    rng = np.random.default_rng(15)
    done = 0
    while done < 10:
        m4 = random_o4(rng)
        data = elliptic_data(o4_modulus(m4), m4.rho)
        try:
            pi_p, pi_m = pi_pair_from_zvx(m4.z, m4.v, m4.x, data)
            _, (i1,), (i2,) = ah_In_contour_oracle(data, m4.alpha, m4.beta)[0]
        except PoleError:
            continue
        a_best, res1 = best_branch_integer(i1, m4.z, pi_p, pi_m)
        assert res1 < 1e-7 * max(1.0, abs(i1))
        assert ah_I1_closed_form(m4.z, pi_p, pi_m, a_best) == pytest.approx(i1, abs=2e-7)
        cf2 = ah_I2_closed_form(m4.z, m4.v, m4.x, data, pi_p, pi_m, a_best)
        assert abs(i2 - cf2) < 1e-7 * max(1.0, abs(i2))
        done += 1


def test_ah_In_pole_on_path():
    # alpha = beta makes X0 = Xinf... instead choose roots so Xinf is real
    # inside [e3, e2]: beta real small, alpha adjusted; search numerically
    rng = np.random.default_rng(16)
    for _ in range(500):
        m4 = random_o4(rng)
        data = elliptic_data(o4_modulus(m4), m4.rho)
        cross = (1 + np.conjugate(m4.alpha) * m4.beta) / (1 + abs(m4.alpha) ** 2)
        Xinf = data.e3 + m4.rho * cross
        if abs(Xinf.imag) < 1e-10 and data.e3 <= Xinf.real <= data.e2:
            with pytest.raises(PoleError):
                ah_In_contour_oracle(data, m4.alpha, m4.beta)
            return
    # the locus has measure zero; if unsampled, construct it directly
    m4 = o4_from_roots(0.5 + 0j, -0.5 + 0j, 1.0)
    data = elliptic_data(o4_modulus(m4), m4.rho)
    cross = (1 + np.conjugate(m4.alpha) * m4.beta) / (1 + abs(m4.alpha) ** 2)
    Xinf = data.e3 + m4.rho * cross
    if abs(Xinf.imag) < 1e-10 and data.e3 <= Xinf.real <= data.e2:
        with pytest.raises(PoleError):
            ah_In_contour_oracle(data, m4.alpha, m4.beta)
