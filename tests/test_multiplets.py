"""Multiplet structure and the contour-integral oracles."""

import math

import numpy as np
import pytest

from slag_forge import multiplets
from slag_forge.atiyah_hitchin import pi_pair_from_zvx
from slag_forge.elliptic import elliptic_data
from slag_forge.errors import DegenerateError, PoleError
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


def _tn_F_value_reference(x, z, h, mcharge, nodes_circle=4096, nodes_loop=8192):
    """The contour F-function with its nodes built on every call."""
    zb = np.conjugate(z)
    th = np.linspace(0.0, 2.0 * math.pi, nodes_circle, endpoint=False)
    zeta = np.exp(1j * th)
    eta = zb / zeta + x - z * zeta
    f_quad = np.real(-(1.0 / (2.0 * math.pi * 1j * h))
                     * np.sum(eta * eta * 1j) * (2.0 * math.pi / nodes_circle))
    r = math.sqrt(x * x + 4.0 * abs(z) ** 2)
    zm = (x - r) / (2.0 * z)
    zp = (x + r) / (2.0 * z)
    pad = min(0.2 * abs(zm), 0.45 * abs(zp))
    u_hat = zm / abs(zm)
    a_ax, b_ax = 0.5 * abs(zm) + pad, pad
    th = np.linspace(0.0, 2.0 * math.pi, nodes_loop, endpoint=False)
    loop = 0.5 * zm + a_ax * np.cos(th) * u_hat + b_ax * np.sin(th) * (1j * u_hat)
    dloop = (-a_ax * np.sin(th) * u_hat + b_ax * np.cos(th) * (1j * u_hat)) \
        * (2.0 * math.pi / nodes_loop)
    eta_l = zb / loop + x - z * loop
    log_eta = np.log(np.abs(eta_l)) + 1j * np.unwrap(np.angle(eta_l))
    s_val = np.sum(eta_l * log_eta / loop * dloop) / (2.0 * math.pi * 1j)
    return float(f_quad + np.real(-2.0 * mcharge * (s_val + np.conjugate(s_val))))


def test_fxx_contour_oracle_matches_per_call_nodes():
    """The shared read-only nodes give the oracle bit for bit."""
    rng = np.random.default_rng(13)
    for _ in range(4):
        m = random_o2(rng)
        h, mc = rng.uniform(0.5, 2.0), rng.uniform(0.1, 2.0)
        step = 1e-4 * m.r
        f0, fp, fm = (_tn_F_value_reference(m.x + d, m.z, h, mc) for d in (0.0, step, -step))
        assert tn_Fxx_contour_oracle(m, h, mc) == (fp - 2.0 * f0 + fm) / (step * step)
    for arr in multiplets._trig_nodes(4096) + multiplets._trig_nodes(8192):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


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
        val = ah_In_contour_oracle(data, m4, 0)
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
            i1 = ah_In_contour_oracle(data, m4, 1, tol=1e-12)
            i2 = ah_In_contour_oracle(data, m4, 2, tol=1e-12)
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
                ah_In_contour_oracle(data, m4, 1)
            return
    # the locus has measure zero; if unsampled, construct it directly
    m4 = o4_from_roots(0.5 + 0j, -0.5 + 0j, 1.0)
    data = elliptic_data(o4_modulus(m4), m4.rho)
    cross = (1 + np.conjugate(m4.alpha) * m4.beta) / (1 + abs(m4.alpha) ** 2)
    Xinf = data.e3 + m4.rho * cross
    if abs(Xinf.imag) < 1e-10 and data.e3 <= Xinf.real <= data.e2:
        with pytest.raises(PoleError):
            ah_In_contour_oracle(data, m4, 1)


def _assert_same_bits(got, want):
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("phase", [
    [0.0, math.pi, 0.0, -math.pi, 0.0, 1.0],
    [3.0, -3.0, 3.0, -0.5, 2.9, -2.9, 0.1],
    list(np.linspace(-3.0, 3.0, 64)),
    [-0.0, 0.25, -0.0, 0.5, -0.0],
    [0.5],
], ids=["steps-of-exactly-pi", "jumps-both-signs", "no-jump", "negative-zero", "one-node"])
def test_unwrap_jumps_matches_np_unwrap(phase):
    """The jump-only unwrap gives np.unwrap's array bit for bit, the sign of
    zero included; a step of exactly +pi or -pi takes np.unwrap's tie rule."""
    phase = np.array(phase)
    _assert_same_bits(multiplets._unwrap_jumps(phase), np.unwrap(phase))


def test_unwrap_jumps_on_oracle_loops(monkeypatch):
    """The loop phases of the F_xx oracle, and a loop phase that winds seven
    times, unwrap as np.unwrap unwraps them."""
    phases = []
    original = multiplets._unwrap_jumps

    def spy(phase):
        phases.append(phase)
        return original(phase)

    monkeypatch.setattr(multiplets, "_unwrap_jumps", spy)
    rng = np.random.default_rng(21)
    for _ in range(5):
        tn_Fxx_contour_oracle(random_o2(rng), rng.uniform(0.5, 2.0), rng.uniform(0.1, 2.0))
    assert len(phases) == 15
    _, cos_th, sin_th = multiplets._trig_nodes(8192)
    wound = np.angle((cos_th + 1j * sin_th) ** 7)
    assert np.count_nonzero(np.abs(np.diff(wound)) >= math.pi) == 7
    for phase in phases + [wound]:
        _assert_same_bits(original(phase), np.unwrap(phase))
