"""Special-function tests: AGM integrals, Jacobi sn, Weierstrass p, quadrature.

Frozen expected values were produced by the independent oracles defined in
this file (midpoint rule at 1e6 nodes, RK4 on the sn ODE at step 1e-5, a
200-shell lattice sum); each test also re-runs its oracle so the numbers
stay live.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slag_forge import checks, elliptic, multiplets
from slag_forge.elliptic import (elliptic_data, elliptic_E, elliptic_E_vec,
                                 elliptic_K, elliptic_K_vec, elliptic_KE,
                                 elliptic_KE_vec, eta1_quadrature,
                                 eta3_quadrature, jacobi_sn, omega1_quadrature,
                                 omega3_quadrature, quad_adaptive, quad_periodic,
                                 weierstrass_p, weierstrass_p_half_periods)
from slag_forge.errors import ConvergenceError, DomainError, PoleError

K_SQRT_HALF = 1.8540746773013714      # midpoint oracle, 1e6 nodes
E_SQRT_HALF = 1.3506438810476749
SN_HALF_HALF = 4.7508293602853663e-01  # RK4 oracle, step 1e-5
WP_03_LATTICE = 3.9241967106847837    # 200-shell lattice sum, k=0.5, rho=1


def midpoint_elliptic(k, kind, n=10**6):
    t = (np.arange(n) + 0.5) * (math.pi / 2) / n
    s2 = np.sin(t) ** 2
    f = 1.0 / np.sqrt(1.0 - k * k * s2) if kind == "K" else np.sqrt(1.0 - k * k * s2)
    return float(np.sum(f) * (math.pi / 2) / n)


def rk4_sn(u_target, k, h=1e-5):
    y = (0.0, 1.0, 1.0)

    def f(y):
        s, c, d = y
        return (c * d, -s * d, -k * k * s * c)

    steps = round(u_target / h)
    for _ in range(steps):
        k1 = f(y)
        k2 = f(tuple(y[i] + 0.5 * h * k1[i] for i in range(3)))
        k3 = f(tuple(y[i] + 0.5 * h * k2[i] for i in range(3)))
        k4 = f(tuple(y[i] + h * k3[i] for i in range(3)))
        y = tuple(y[i] + h / 6 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
                  for i in range(3))
    return y[0]


def lattice_sum_wp(u, data, shells=200):
    om1 = data.omega1
    om3 = elliptic_K(data.kprime) / math.sqrt(data.rho)
    total = 1.0 / u**2
    for R in range(1, shells + 1):
        pairs = [(m, n) for m in range(-R, R + 1) for n in (-R, R)]
        pairs += [(m, n) for n in range(-R + 1, R) for m in (-R, R)]
        lam = np.array([2 * om1 * m + 2j * om3 * n for m, n in pairs])
        total += float(np.sum(1.0 / (u - lam) ** 2 - 1.0 / lam**2).real)
    return total


def test_elliptic_K_trivial():
    assert elliptic_K(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
    with pytest.raises(DomainError):
        elliptic_K(1.0)
    with pytest.raises(DomainError):
        elliptic_K(-0.1)


def test_elliptic_K_midpoint_oracle():
    k = 1.0 / math.sqrt(2.0)
    assert elliptic_K(k) == pytest.approx(K_SQRT_HALF, rel=1e-12)
    assert midpoint_elliptic(k, "K") == pytest.approx(K_SQRT_HALF, rel=1e-12)


def test_elliptic_E_trivial_and_oracle():
    assert elliptic_E(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert elliptic_E(1.0) == 1.0
    k = 1.0 / math.sqrt(2.0)
    assert elliptic_E(k) == pytest.approx(E_SQRT_HALF, rel=1e-12)
    assert midpoint_elliptic(k, "E") == pytest.approx(E_SQRT_HALF, rel=1e-12)
    with pytest.raises(DomainError):
        elliptic_E(1.2)


# the 257 k-axis nodes of the fig9 (theta, k) grid, the fig8 moduli and the ends
K_E_POINTS = np.concatenate([np.linspace(0.02, 0.98, 257),
                             [1e-6, 0.3, 0.5, 0.7, 0.997, 0.999]])


def test_vectorized_K_E_match_scalar():
    ks = np.concatenate([np.linspace(0.0, 0.97, 40), K_E_POINTS])
    assert np.array_equal(elliptic_K_vec(ks), [elliptic_K(k) for k in ks])
    assert np.array_equal(elliptic_E_vec(ks), [elliptic_E(k) for k in ks])


def _reference_K(k):
    """K(k) by the lean AGM, kept apart from the library's extended-AGM loop."""
    a, b = 1.0, math.sqrt(1.0 - k * k)
    for _ in range(60):
        last = abs(a - b) <= math.sqrt(1e-16) * a
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        if last:
            break
    return math.pi / (2.0 * a)


def _reference_E(k):
    """E(k) by its own extended AGM, kept apart from the library's loop."""
    a, b, c = 1.0, math.sqrt(1.0 - k * k), k
    csum = 0.5 * c * c
    pow2 = 0.5
    for _ in range(60):
        last = abs(a - b) <= math.sqrt(1e-16) * a
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        pow2 *= 2.0
        csum += pow2 * c * c
        if last:
            break
    K = math.pi / (2.0 * a)
    return K * (1.0 - csum)


def test_all_K_E_entry_points_match_reference_loops():
    """The six K/E entry points give the bits of two separate reference
    loops (lean K, extended-AGM E), for scalars and for arrays of any shape
    and size: the array loop holds each element once it has converged."""
    ks = np.concatenate([np.linspace(0.0, 0.97, 40), K_E_POINTS,
                         np.random.default_rng(3).uniform(0.0, 1.0, 500)])
    K_ref = np.array([_reference_K(k) for k in ks.tolist()])
    E_ref = np.array([_reference_E(k) for k in ks.tolist()])
    assert [elliptic_K(k) for k in ks.tolist()] == K_ref.tolist()
    assert [elliptic_E(k) for k in ks.tolist()] == E_ref.tolist()
    assert [elliptic_KE(k) for k in ks.tolist()] == list(zip(K_ref.tolist(), E_ref.tolist()))
    batches = [np.arange(len(ks))] + [np.array([i]) for i in (0, 41, 300, len(ks) - 1)]
    batches.append(np.arange(12).reshape(3, 4) * 47)
    for idx in batches:
        K, E = K_ref[idx], E_ref[idx]
        assert np.array_equal(elliptic_K_vec(ks[idx]), K)
        assert np.array_equal(elliptic_E_vec(ks[idx]), E)
        KE = elliptic_KE_vec(ks[idx])
        assert np.array_equal(KE[0], K) and np.array_equal(KE[1], E)
        assert KE[0].shape == KE[1].shape == idx.shape


def test_K_E_domain_errors_name_their_entry_point():
    for fn, bad in ((elliptic_K, 1.0), (elliptic_E, 1.5), (elliptic_KE, 1.0),
                    (elliptic_K_vec, np.array([0.5, 1.0])),
                    (elliptic_KE_vec, np.array([-0.1]))):
        with pytest.raises(DomainError, match=fn.__name__ + " requires"):
            fn(bad)


@pytest.mark.parametrize("ks", [K_E_POINTS, np.linspace(1e-6, 1.0 - 1e-9, 5001)],
                         ids=["fig-moduli", "grid-5001"])
def test_KE_vec_one_agm_matches_separate_kernels(ks):
    """K and E from one extended-AGM sequence have the bits of the lean K
    loop and of the scalar E, in any shape."""
    K, E = elliptic_KE_vec(ks)
    assert np.array_equal(K, elliptic_K_vec(ks))
    assert np.array_equal(E, [elliptic_E(float(k)) for k in ks])
    assert np.array_equal(E, elliptic_E_vec(ks))
    K2, E2 = elliptic_KE_vec(ks[:12].reshape(3, 4))
    assert np.array_equal(K2, K[:12].reshape(3, 4)) and np.array_equal(E2, E[:12].reshape(3, 4))
    with pytest.raises(DomainError):
        elliptic_KE_vec(np.array([0.5, 1.0]))


def test_K_E_match_mpmath():
    """K and E against 40-digit mpmath to 2e-15 relative (the scalar kernels
    give the same bits); a stop after the AGM had settled into a 1-ulp cycle
    read 9.4e-15 on E."""
    mp = pytest.importorskip("mpmath")
    Kv, Ev = elliptic_K_vec(K_E_POINTS), elliptic_E_vec(K_E_POINTS)
    with mp.workdps(40):
        for k, K, E in zip(K_E_POINTS, Kv, Ev):
            m = mp.mpf(float(k)) ** 2
            assert abs(K / mp.ellipk(m) - 1) <= 2e-15, k
            assert abs(E / mp.ellipe(m) - 1) <= 2e-15, k


def test_agm_stops_by_quadratic_rule_before_cap(monkeypatch):
    """The AGM stops once a step leaves it converged, well before the cap:
    eight steps give the same bits as sixty over 0 < k < 1 - 1e-9."""
    ks = np.linspace(1e-6, 1.0 - 1e-9, 5001)

    def run():
        return (elliptic_K_vec(ks), elliptic_E_vec(ks), *elliptic_KE_vec(ks),
                np.array([elliptic_K(float(k)) for k in ks]),
                np.array([elliptic_E(float(k)) for k in ks]))

    default = run()
    monkeypatch.setattr(elliptic, "_AGM_CAP", 8)
    for full, capped in zip(default, run()):
        assert np.array_equal(full, capped)


def test_jacobi_sn_degenerate_and_quarter_period():
    assert jacobi_sn(0.7, 0.0) == pytest.approx(math.sin(0.7), abs=1e-15)
    for k in (0.2, 0.5, 0.9):
        assert jacobi_sn(elliptic_K(k), k) == pytest.approx(1.0, abs=1e-14)


def test_jacobi_sn_ode_oracle():
    assert jacobi_sn(0.5, 0.5) == pytest.approx(SN_HALF_HALF, rel=1e-13)
    assert rk4_sn(0.5, 0.5) == pytest.approx(SN_HALF_HALF, rel=1e-13)


def test_jacobi_sn_bounded():
    rng = np.random.default_rng(1)
    for _ in range(200):
        assert abs(jacobi_sn(rng.uniform(-30, 30), rng.uniform(0, 0.999))) <= 1.0


def test_elliptic_modulus():
    m = elliptic_data(0.6, 1.0)
    assert m.k**2 + m.kprime**2 == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(DomainError):
        elliptic_data(1.0, 1.0)


@pytest.mark.parametrize("k, rho, message", [
    (1.0, 1.0, "elliptic_data requires 0 < k < 1, got k=1.0"),
    (float("nan"), -1.0, "elliptic_data requires 0 < k < 1, got k=nan"),
    (0.5, 0.0, "elliptic_data requires rho > 0, got rho=0.0"),
    (0.5, float("nan"), "elliptic_data requires rho > 0, got rho=nan"),
    (np.array([0.5, 0.0]), np.array([1.0, 1.0]),
     "requires 0 < k < 1, got k=0.0 at index 1 (1 of 2 entries)"),
    (np.array([0.5, 0.6]), np.array([1.0, -2.0]),
     "requires rho > 0, got rho=-2.0 at index 1 (1 of 2 entries)"),
    (np.full(400, 1.5), np.ones(400), "requires 0 < k < 1, got k=1.5 at index 0 (400 of 400"),
])
def test_elliptic_data_names_the_bad_field(k, rho, message):
    """One combined check, and on failure the message of the first bad
    field (k before rho), for scalars and arrays; for an array it names the
    first bad entry, not the whole array, so it stays short at any size."""
    with pytest.raises(DomainError) as err:
        elliptic_data(k, rho)
    assert message in str(err.value)
    assert len(str(err.value)) < 100


def test_weierstrass_p_at_omega1():
    data = elliptic_data(0.5, 1.0)
    assert weierstrass_p(data.omega1, data) == pytest.approx(data.e1, abs=1e-12)


def test_weierstrass_p_half_periods():
    rng = np.random.default_rng(2)
    for _ in range(20):
        data = elliptic_data(rng.uniform(0.1, 0.9), rng.uniform(0.3, 3.0))
        p1, p2, p3 = weierstrass_p_half_periods(data)
        assert p1 == pytest.approx(data.e1, abs=1e-10 * data.rho)
        assert p2 == pytest.approx(data.e2, abs=1e-10 * data.rho)
        assert p3 == pytest.approx(data.e3, abs=1e-10 * data.rho)


def test_weierstrass_p_lattice_sum_oracle():
    data = elliptic_data(0.5, 1.0)
    u = 0.3 * data.omega1
    assert weierstrass_p(u, data) == pytest.approx(WP_03_LATTICE, rel=1e-6)
    assert lattice_sum_wp(u, data) == pytest.approx(WP_03_LATTICE, rel=1e-12)


def test_weierstrass_p_pole_and_complex_rejection():
    data = elliptic_data(0.5, 1.0)
    with pytest.raises(PoleError):
        weierstrass_p(0.0, data)
    with pytest.raises(PoleError):
        weierstrass_p(2.0 * data.omega1 + 1e-14, data)
    with pytest.raises(DomainError):
        weierstrass_p(0.3 + 0.1j, data)


def test_weierstrass_p_ode_property():
    rng = np.random.default_rng(3)
    for _ in range(100):
        data = elliptic_data(rng.uniform(0.1, 0.9), rng.uniform(0.5, 2.0))
        u = rng.uniform(0.05, 1.95) * data.omega1
        du = 1e-6
        wp = weierstrass_p(u, data)
        dp = (weierstrass_p(u + du, data) - weierstrass_p(u - du, data)) / (2 * du)
        rhs = 4 * wp**3 - data.g2 * wp - data.g3
        assert dp * dp == pytest.approx(rhs, rel=1e-8, abs=1e-8)


@settings(max_examples=200, deadline=None)
@given(k=st.floats(0.01, 0.99), rho=st.floats(0.1, 10.0))
def test_elliptic_data_invariants(k, rho):
    d = elliptic_data(k, rho)
    assert d.e1 + d.e2 + d.e3 == pytest.approx(0.0, abs=1e-12 * rho)
    assert (d.e1 * d.e2 + d.e2 * d.e3 + d.e3 * d.e1
            == pytest.approx(-d.g2 / 4, abs=1e-12 * rho**2))
    assert d.e1 * d.e2 * d.e3 == pytest.approx(d.g3 / 4, abs=1e-12 * rho**3)
    assert d.e1 - d.e3 == pytest.approx(rho, rel=1e-12)
    assert (d.e2 - d.e3) / (d.e1 - d.e3) == pytest.approx(k * k, abs=1e-12)
    assert d.delta == pytest.approx(16 * rho**6 * k**4 * d.kprime**4,
                                    rel=1e-12)
    # the polynomial form cancels catastrophically at small k; compare on
    # the scale of its terms
    assert abs(d.delta - (d.g2**3 - 27 * d.g3**2)) <= 1e-12 * d.g2**3
    assert d.delta > 0
    assert d.e3 < d.e2 < d.e1


def test_eta1_trivial_small_k_limit():
    # e1 -> 2 rho/3 as k -> 0, so eta1 -> (pi/2)(1 - 2/3) sqrt(rho) = pi/6 at rho=1
    assert elliptic_data(1e-8, 1.0).eta1 == pytest.approx(math.pi / 6, rel=1e-6)


def test_eta1_quadrature_vs_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = elliptic_data(rng.uniform(0.05, 0.95), rng.uniform(0.2, 5.0))
        assert eta1_quadrature(d) == pytest.approx(d.eta1, abs=1e-9)
        assert omega1_quadrature(d) == pytest.approx(d.omega1, abs=1e-10)


def test_g3_vanishes_at_half_square_modulus():
    d = elliptic_data(math.sqrt(0.5), 1.0)
    assert d.g3 == pytest.approx(0.0, abs=1e-15)


def test_legendre_relation_complete_integrals():
    for k in np.linspace(0.01, 0.95, 60):
        kp = math.sqrt(1 - k * k)
        val = (elliptic_E(k) * elliptic_K(kp) + elliptic_E(kp) * elliptic_K(k)
               - elliptic_K(k) * elliptic_K(kp))
        assert val == pytest.approx(math.pi / 2, abs=1e-12)


def test_legendre_relation_quasi_periods():
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = elliptic_data(rng.uniform(0.1, 0.9), rng.uniform(0.3, 3.0))
        val = d.eta1 * omega3_quadrature(d) - eta3_quadrature(d) * d.omega1
        assert abs(val - 0.5j * math.pi) < 1e-9


def test_quad_adaptive_polynomial_and_sine():
    assert quad_adaptive(lambda x: x * x, 0.0, 1.0, 1e-13) == pytest.approx(1 / 3, abs=1e-13)
    assert quad_adaptive(np.sin, 0.0, math.pi, 1e-13) == pytest.approx(2.0, abs=1e-12)


def test_quad_adaptive_matches_elliptic_K():
    val = quad_adaptive(lambda t: 1.0 / np.sqrt(1.0 - 0.25 * np.sin(t) ** 2),
                        0.0, math.pi / 2, 1e-12)
    assert val == pytest.approx(elliptic_K(0.5), abs=1e-12)


def test_quad_adaptive_depth_limit():
    # a genuine non-integrable singularity must trip the depth cap
    with pytest.raises(ConvergenceError):
        quad_adaptive(lambda x: 1.0 / np.abs(x - 0.3), 0.0, 1.0, 1e-10)


# ------------------------------------------------------- periodic trapezoid

def test_quad_periodic_exact_on_trigonometric_polynomials():
    """An even trigonometric polynomial of degree under the first node count
    is integrated exactly, to rounding, and stops at the first doubling:
    int_0^{pi/2} (1 + c cos 2t + d cos 4t + sin^2 3t) dt = 3 pi / 4."""
    c, d = np.array([0.0, 1.5, -3.0]), np.array([2.0, 0.0, 0.25])

    def f(i, s2):
        cos2 = 1.0 - 2.0 * s2
        sin2_3t = s2 * (3.0 - 4.0 * s2) ** 2
        return 1.0 + c[i] * cos2 + d[i] * (2.0 * cos2 ** 2 - 1.0) + sin2_3t

    vals, nodes = quad_periodic(f, 3)
    assert np.allclose(vals, 0.75 * math.pi, rtol=4e-16, atol=0.0)
    assert np.array_equal(nodes, [2 * elliptic._TRAP_NODES] * 3)


@pytest.mark.parametrize("k", [0.05, 0.5, 0.95, 0.995])
def test_quad_periodic_matches_K_and_E(k):
    m = np.array([k * k])
    ((K,), (E,)), _ = quad_periodic(
        lambda i, s2: np.stack([1.0 / np.sqrt(1.0 - m[i] * s2), np.sqrt(1.0 - m[i] * s2)]), 1)
    assert abs(K - elliptic_K(k)) <= 1e-14 * elliptic_K(k)
    assert abs(E - elliptic_E(k)) <= 1e-14 * elliptic_E(k)


# moduli that stop after 64 nodes and ones that need thousands
_MIXED_K = np.concatenate([np.linspace(0.05, 0.6, 25), 1.0 - np.geomspace(1e-2, 1e-6, 25)])


def _K_rows(k):
    return lambda i, s2: 1.0 / np.sqrt(1.0 - k[i] ** 2 * s2)


def test_quad_periodic_row_does_not_depend_on_its_batch():
    """Each row's value and node count are bit-identical alone and inside a
    batch of 50 easy and hard rows, in either order."""
    vals, nodes = quad_periodic(_K_rows(_MIXED_K), _MIXED_K.size)
    rev_vals, rev_nodes = quad_periodic(_K_rows(_MIXED_K[::-1]), _MIXED_K.size)
    assert nodes.min() <= 128 and nodes.max() >= 4096
    for j, k in enumerate(_MIXED_K):
        alone, alone_nodes = quad_periodic(_K_rows(np.array([k])), 1)
        assert alone[0] == vals[j] == rev_vals[-1 - j] and alone_nodes[0] == nodes[j]
    assert np.array_equal(nodes, rev_nodes[::-1])


def test_quad_periodic_doubles_only_the_unconverged_rows():
    """A row stopping at N nodes on [0, pi) costs N/2 + 1 integrand elements:
    the N/2 + 1 first nodes in [0, pi/2], then only the new midpoints of the
    doublings it is still live for."""
    evals = []

    def f(i, s2):
        evals.append(np.size(i) * np.size(s2))
        return _K_rows(_MIXED_K)(i, s2)

    _, nodes = quad_periodic(f, _MIXED_K.size)
    assert sum(evals) == int(np.sum(nodes // 2 + 1))
    assert len(evals) == 1 + int(math.log2(nodes.max() // elliptic._TRAP_NODES))


def test_quad_periodic_pole_near_the_cut_raises_at_the_cap():
    """A pole 1e-7 span off the middle of the cut is left unconverged at the
    node cap, and that is a ConvergenceError."""
    d = elliptic_data(0.5, 1.0)
    xinf = np.array([d.e3 + (d.e2 - d.e3) * (0.5 + 1e-7j)])
    with pytest.raises(ConvergenceError, match="1 of 1 rows unconverged at 65536 nodes"):
        quad_periodic(lambda i, s2: 1.0 / (d.e3 + (d.e2 - d.e3) * s2 - xinf[i]), 1)


def _adaptive(g):
    return quad_adaptive(g, 0.0, math.pi / 2.0, 1e-12)


def test_period_quadratures_match_quad_adaptive():
    """The four period integrals of 200 seeded curves, batched, agree with
    quad_adaptive on their sin^2 integrands to 1e-11 relative, and a scalar
    curve gives the batch's float."""
    rng = np.random.default_rng(23)
    k, rho = rng.uniform((0.05, 0.2), (0.995, 5.0), size=(200, 2)).T
    d = elliptic_data(k, rho)
    got = [omega1_quadrature(d), eta1_quadrature(d), omega3_quadrature(d), eta3_quadrature(d)]
    for j in range(200):
        dj = elliptic_data(k[j], rho[j])
        sr, kp2 = math.sqrt(rho[j]), 1.0 - k[j] ** 2
        span1, span3 = dj.e2 - dj.e3, dj.e1 - dj.e2
        want = [_adaptive(lambda t: 1.0 / (sr * np.sqrt(1.0 - k[j] ** 2 * np.sin(t) ** 2))),
                -_adaptive(lambda t: (dj.e3 + span1 * np.sin(t) ** 2)
                           / (sr * np.sqrt(1.0 - k[j] ** 2 * np.sin(t) ** 2))),
                1j * _adaptive(lambda t: 1.0 / (sr * np.sqrt(1.0 - kp2 * np.sin(t) ** 2))),
                -1j * _adaptive(lambda t: (dj.e1 - span3 * np.sin(t) ** 2)
                                / (sr * np.sqrt(1.0 - kp2 * np.sin(t) ** 2)))]
        for batch, ref in zip(got, want):
            assert abs(batch[j] - ref) <= 1e-11 * abs(ref), (j, batch[j], ref)
    assert omega1_quadrature(elliptic_data(k[0], rho[0])) == got[0][0]
    assert isinstance(eta1_quadrature(elliptic_data(k[0], rho[0])), float)


def test_contour_oracle_matches_quad_adaptive():
    """I_0, I_1 and I_2 of 200 seeded oracle samples, in one batched pass,
    agree with quad_adaptive on the plain (unsubtracted) integrands
    (beta (X - X0) / (X - Xinf))^n / Y to 1e-11 relative."""
    rng = np.random.default_rng(29)
    m4s = [checks._random_o4(rng) for _ in range(200)]
    k = np.array([multiplets.o4_modulus(m) for m in m4s])
    d = elliptic_data(k, np.array([m.rho for m in m4s]))
    al, be = np.array([m.alpha for m in m4s]), np.array([m.beta for m in m4s])
    got, nodes = multiplets.ah_In_contour_oracle(d, al, be)
    assert nodes.shape == (200,) and got.shape == (3, 200)
    X0, Xinf = multiplets.ah_In_poles(d, al, be)
    for j in range(200):
        span, sr = d.e2[j] - d.e3[j], math.sqrt(d.rho[j])
        for n in range(3):
            def g(t, n=n):
                X = d.e3[j] + span * np.sin(t) ** 2
                w = (be[j] * (X - X0[j]) / (X - Xinf[j])) ** n
                return w / (sr * np.sqrt(1.0 - k[j] ** 2 * np.sin(t) ** 2))
            ref = 2.0 * _adaptive(g)
            assert abs(got[n, j] - ref) <= 1e-11 * max(1.0, abs(ref)), (j, n, got[n, j], ref)


@pytest.mark.parametrize("frac, off", [(0.5, 1e-7), (0.02, -1e-8)])
def test_contour_oracle_converges_next_to_the_cut(frac, off):
    """With Xinf at frac of the cut and off of its span beside it, the plain
    integrand is unconverged at the node cap, but the oracle integrates the
    pole parts in closed form: it stops within 128 nodes and agrees with a
    25-digit mpmath quadrature split at the pole to 1e-14."""
    mpmath = pytest.importorskip("mpmath")
    d = elliptic_data(0.5, 1.0)
    span = d.e2 - d.e3
    cross = span * (frac + 1j * off) / d.rho
    al, be = np.array([1.0 + 0j]), np.array([2.0 * cross - 1.0])    # cross = (1 + be) / 2
    got, nodes = multiplets.ah_In_contour_oracle(d, al, be)
    assert nodes[0] <= 128
    (x0,), (xinf,) = multiplets.ah_In_poles(d, al, be)
    with mpmath.workdps(25):
        for n in range(3):
            def f(t, n=n):
                X = d.e3 + span * mpmath.sin(t) ** 2
                return (be[0] * (X - x0) / (X - xinf)) ** n / mpmath.sqrt(d.rho - span
                                                                          * mpmath.sin(t) ** 2)
            ref = complex(2 * mpmath.quad(f, [0, mpmath.asin(math.sqrt(frac)), mpmath.pi / 2]))
            assert abs(got[n, 0] - ref) <= 1e-14 * max(1.0, abs(ref)), (n, got[n, 0], ref)
