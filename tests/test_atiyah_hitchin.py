"""Atiyah-Hitchin state construction, pi(x_pm), coefficients, metric block."""

import gc
import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slag_forge.atiyah_hitchin import (AHParams, AHSphericalPoint,
                                       ah_check_h_constraint, ah_coeffs,
                                       ah_from_spherical, ah_kahler_potential,
                                       ah_metric_UZ, ah_pi_xpm, ah_regular,
                                       ah_state_from_zvx, ah_u_coordinate,
                                       ah_xy_from_zvx, ah_zvx_from_spherical,
                                       pi_pair_from_zvx)
from slag_forge import elliptic
from slag_forge.elliptic import elliptic_data, elliptic_K, elliptic_Pi, elliptic_Pi_vec
from slag_forge.errors import ChartError, DegenerateError, DomainError, PoleError


def regular_point(rng, p=AHParams(1.0, 1), y_guard=1e-3):
    """The per-point rejection loop; the reference for checks.random_ah_point,
    which draws the same candidates as one array and keeps those that
    ah_regular passes.  Each condition is tested here on its own, one
    point at a time."""
    for _ in range(500):
        pt = AHSphericalPoint(rng.uniform(0.15, 0.85),
                              rng.uniform(0.25, math.pi - 0.25),
                              rng.uniform(0, 2 * math.pi),
                              rng.uniform(0.05, math.pi / 2 - 0.05))
        try:
            state = ah_from_spherical(pt, p)
            ah_coeffs(state)
        except (ChartError, DegenerateError):
            continue
        d = state.elliptic
        span = d.e2 - d.e3
        if (abs(state.z) >= 1e-10 * d.rho
                and min(abs(state.yplus), abs(state.yminus)) > y_guard * d.rho ** 1.5
                and state.xminus - d.e3 > 1e-4 * span
                and d.e2 - state.xminus > 1e-4 * span
                and state.xplus - d.e2 > 1e-4 * span):
            return pt, state
    raise RuntimeError("no regular point sampled")


def test_spherical_x_example():
    # psi=0, theta=pi/2: x = (8k^2 - 16) K^2(k)
    for k in (0.3, 0.5, 0.7):
        _, _, x = ah_zvx_from_spherical(k, math.pi / 2, 0.0, 0.0, 1.0)
        assert x == pytest.approx((8 * k * k - 16) * elliptic_K(k) ** 2, rel=1e-13)


def test_spherical_v_vanishes_on_axis():
    _, v, _ = ah_zvx_from_spherical(0.5, 0.0, 0.3, 0.4, 1.0)
    assert abs(v) < 1e-14


def test_x_pm_identities():
    rng = np.random.default_rng(30)
    p = AHParams(1.0, 1)
    for _ in range(50):
        _, state = regular_point(rng, p)
        assert state.xplus - state.xminus == pytest.approx(4 * abs(state.z),
                                                           rel=1e-12)
        assert state.x == pytest.approx(1.5 * (state.xplus + state.xminus),
                                        rel=1e-10, abs=1e-10 * state.elliptic.rho)


def test_y_pm_on_curve():
    """(x_pm, y_pm) lie on Y^2 = 4X^3 - g2 X - g3; y_+ imaginary, y_- real."""
    rng = np.random.default_rng(31)
    p = AHParams(1.0, 1)
    for _ in range(50):
        _, state = regular_point(rng, p)
        d = state.elliptic
        for xv, yv in ((state.xplus, complex(state.yplus)),
                       (state.xminus, complex(state.yminus))):
            cubic = 4 * xv**3 - d.g2 * xv - d.g3
            assert yv**2 == pytest.approx(cubic, rel=1e-10,
                                          abs=1e-10 * d.rho**3)
        assert abs(state.yplus.real) < 1e-10 * max(1.0, abs(state.yplus))
        # x_- sits inside the cut, x_+ between e2 and e1
        assert d.e3 < state.xminus < d.e2
        assert d.e2 < state.xplus < d.e1


def test_pi_typing_and_trivial_zero():
    rng = np.random.default_rng(32)
    p = AHParams(1.0, 1)
    for _ in range(100):
        _, state = regular_point(rng, p)
        pi_p, pi_m = ah_pi_xpm(state)
        assert abs(pi_p.real) <= 1e-10 * max(1e-300, abs(pi_p))
        assert isinstance(pi_m, float)
    # v = 0 locus: psi = 0, theta -> 0 kills v, so both integrals vanish
    d = elliptic_data(0.5, 16 * elliptic_K(0.5) ** 2)
    z, v, x = ah_zvx_from_spherical(0.5, 1e-9, 0.2, 0.0, 1.0)
    pi_p, pi_m = pi_pair_from_zvx(z, 0j, x, d)
    assert pi_p == 0 and pi_m == 0


def test_dpi_differential_fd():
    """d pi(x_pm) = 4 A_pm dx_pm - 8 B_pm d eta1 (d omega1 = 0 on the chart)."""
    rng = np.random.default_rng(33)
    p = AHParams(1.0, 1)
    step = 1e-5
    for _ in range(10):
        pt, state = regular_point(rng, p)
        Ap, Am, Bp, Bm, _ = ah_coeffs(state)
        for coord in ("theta", "psi", "k"):
            vals = {"k": pt.k, "theta": pt.theta, "phi": pt.phi, "psi": pt.psi}
            up, dn = dict(vals), dict(vals)
            up[coord] += step
            dn[coord] -= step
            s_up = ah_from_spherical(AHSphericalPoint(**up), p)
            s_dn = ah_from_spherical(AHSphericalPoint(**dn), p)
            pp_u, pm_u = ah_pi_xpm(s_up)
            pp_d, pm_d = ah_pi_xpm(s_dn)
            deta = s_up.elliptic.eta1 - s_dn.elliptic.eta1
            for pi_u, pi_d, A, B, x_u, x_d in (
                    (pp_u, pp_d, Ap, Bp, s_up.xplus, s_dn.xplus),
                    (pm_u, pm_d, Am, Bm, s_up.xminus, s_dn.xminus)):
                dpi = (pi_u - pi_d) / (2 * step)
                rhs = (4 * A * (x_u - x_d) - 8 * B * deta) / (2 * step)
                assert abs(dpi - rhs) <= 1e-4 * max(1.0, abs(dpi))


def test_coeff_types_and_guards():
    rng = np.random.default_rng(34)
    p = AHParams(1.0, 1)
    _, state = regular_point(rng, p)
    Ap, Am, Bp, Bm, Vcap = ah_coeffs(state)
    # y_+ imaginary forces A_+, B_+ imaginary; A_-, B_- real
    assert abs(Ap.real) < 1e-12 * abs(Ap)
    assert abs(Bp.real) < 1e-12 * abs(Bp)
    assert abs(Am.imag) < 1e-12 * abs(Am)
    assert abs(Bm.imag) < 1e-12 * abs(Bm)
    d = state.elliptic
    assert 12 * d.eta1**2 - d.g2 * d.omega1**2 != 0
    # g3 = 0 at k^2 = 1/2 simplifies the ratio
    k_half = math.sqrt(0.5)
    d2 = elliptic_data(k_half, 1.0)
    expected = 2 * d2.g2 * d2.eta1 / (12 * d2.eta1**2 - d2.g2 * d2.omega1**2)
    z, v, x = ah_zvx_from_spherical(k_half, 1.2, 0.5, 0.4, 1.0)
    # Vcap only depends on the curve data, here a state's with rho = 1
    _, _, _, _, vcap2 = ah_coeffs(ah_state_from_zvx(z, v, x, d2))
    assert vcap2 == pytest.approx(expected, rel=1e-12)


def test_degenerate_locus_raises():
    # psi = 0, theta -> 0 collapses v and y_pm
    p = AHParams(1.0, 1)
    pt = AHSphericalPoint(0.5, 1e-7, 0.3, 0.0)
    state = ah_from_spherical(pt, p)
    assert not ah_regular(state.z, state.v, state.x, state.elliptic, 1e-12)
    with pytest.raises(DegenerateError):
        ah_coeffs(state)
    with pytest.raises(DegenerateError):
        ah_metric_UZ(state, p)


def test_metric_block_det_hermiticity_positivity():
    rng = np.random.default_rng(35)
    p = AHParams(1.0, 1)
    for _ in range(500):
        _, state = regular_point(rng, p)
        blk = ah_metric_UZ(state, p)
        assert abs(blk.det() - 1.0) < 1e-8
        assert blk.kuzbar == pytest.approx(np.conjugate(blk.kzubar),
                                           rel=1e-10, abs=1e-12)
        assert abs(blk.kzzbar.imag) < 1e-12 * abs(blk.kzzbar)
        assert blk.kuubar.real > 0 and blk.kzzbar.real > 0
        assert (blk.kuubar * blk.kzzbar - abs(blk.kuzbar) ** 2).real > 0


def test_u_coordinate_and_chart_scalings():
    rng = np.random.default_rng(36)
    p = AHParams(1.0, 1)
    pt, state = regular_point(rng, p)
    u, U, Z = ah_u_coordinate(state, p)
    assert U == pytest.approx(u * state.sqrt_z, rel=1e-14)
    assert Z == pytest.approx(2 * state.sqrt_z, rel=1e-14)
    assert U * Z == pytest.approx(2 * u * state.z, rel=1e-13)
    assert abs(Z) ** 2 == pytest.approx(state.xplus - state.xminus, rel=1e-12)
    # a_int = 1 kills the extra branch term; a_int = 2 shifts u by -pi i/sqrt(z)
    u2, _, _ = ah_u_coordinate(state, AHParams(1.0, 2))
    assert u2 - u == pytest.approx(-math.pi * 1j / state.sqrt_z, rel=1e-12)


def test_kahler_potential_and_phi_invariance():
    rng = np.random.default_rng(37)
    p = AHParams(1.0, 1)
    pt, state = regular_point(rng, p)
    d = state.elliptic
    expected = -8 * d.eta1 + 2 * (state.xplus + state.xminus) * d.omega1
    assert ah_kahler_potential(state) == pytest.approx(expected, rel=1e-14)
    # K depends on phi only through x_+ + x_-, which is phi-independent
    vals = []
    for dphi in np.linspace(0, 2 * math.pi, 12, endpoint=False):
        s2 = ah_from_spherical(AHSphericalPoint(pt.k, pt.theta,
                                                (pt.phi + dphi) % (2 * math.pi),
                                                pt.psi), p)
        vals.append(ah_kahler_potential(s2))
    assert np.max(vals) - np.min(vals) < 1e-10 * max(1.0, abs(vals[0]))


def test_h_constraint_identity():
    for h in (0.5, 1.0, 2.0):
        for k in (0.2, 0.5, 0.8):
            assert ah_check_h_constraint(AHParams(h, 1), k) < 1e-14


def test_h_scaling_consistency():
    """Multiplet scale h^2 keeps the curve identities valid away from h=1."""
    rng = np.random.default_rng(38)
    p = AHParams(1.7, 1)
    _, state = regular_point(rng, p)
    d = state.elliptic
    for xv, yv in ((state.xplus, complex(state.yplus)),
                   (state.xminus, complex(state.yminus))):
        cubic = 4 * xv**3 - d.g2 * xv - d.g3
        assert yv**2 == pytest.approx(cubic, rel=1e-9, abs=1e-9 * d.rho**3)
    blk = ah_metric_UZ(state, p)
    assert abs(blk.det() - 1.0) < 1e-8


def test_params_and_point_validation():
    with pytest.raises(DomainError):
        AHParams(-1.0, 1)
    with pytest.raises(DomainError):
        AHSphericalPoint(1.0, 1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        AHSphericalPoint(0.5, -0.1, 0.0, 0.0)


@pytest.mark.parametrize("fields, message", [
    ((1.0, 1.0, 0.0, 0.0), "k must lie in (0, 1), got 1.0"),
    ((float("nan"), -1.0, 7.0, 13.0), "k must lie in (0, 1), got nan"),
    ((0.5, -0.1, 7.0, 13.0), "theta must lie in [0, pi], got -0.1"),
    ((0.5, 1.0, 2.0 * math.pi, 13.0), "phi must lie in [0, 2 pi), got 6.28"),
    ((0.5, 1.0, 0.5, 4.0 * math.pi), "psi must lie in [0, 4 pi), got 12.56"),
    ((0.5, 1.0, 0.5, float("nan")), "psi must lie in [0, 4 pi), got nan"),
    ((np.array([0.5, 0.6]), np.array([1.0, 4.0]), np.array([0.5, 0.5]),
      np.array([0.3, 0.3])), "theta must lie in [0, pi], got 4.0 at index 1 (1 of 2 entries)"),
])
def test_point_validation_names_the_bad_field(fields, message):
    """One combined range check; on failure the first bad field, in the
    order k, theta, phi, psi, raises with its own message, which names a
    batch's first bad entry and how many there are."""
    with pytest.raises(DomainError) as err:
        AHSphericalPoint(*fields)
    assert message in str(err.value)
    AHSphericalPoint(np.array([0.5, 0.6]), np.array([0.0, math.pi]),
                     np.array([0.0, 6.28]), np.array([0.0, 12.56]))


def chart_data(k):
    """Curve data at the chart scale rho = 16 K^2 (h = 1)."""
    return elliptic_data(k, 16.0 * elliptic_K(k) ** 2)


def cut_point(xp, xm):
    """(z, v, x) of the point with abel images x_+ > x_- and v_+ = v_- = 1
    (y_+ imaginary, y_- real), as bench/workloads.edge_probe builds it."""
    absz = 0.25 * (xp - xm)
    return complex(absz, 0.0), math.sqrt(absz) * complex(1.0, 1.0), 1.5 * (xp + xm)


def Pi_oracle(n: float, k: float) -> float:
    """Pi(n, k) by closed forms independent of elliptic_Pi_vec: mpmath's
    ellippi for n < 1; for n > 1 scipy's R_J, which takes the principal
    value for p < 0, in Pi = K + (n/3) R_J(0, k'^2, 1, 1 - n), and past
    n = 1e5, where that sum cancels, K - Pi(k^2/n, k) in 40-digit mpmath."""
    mp = pytest.importorskip("mpmath")
    special = pytest.importorskip("scipy.special")
    m = k * k
    if n < 1.0:
        with mp.workdps(30):
            return float(mp.ellippi(n, m))
    if n < 1e5:
        return float(special.ellipk(m) + (n / 3.0) * special.elliprj(0.0, 1.0 - m, 1.0, 1.0 - n))
    with mp.workdps(40):
        mm = mp.mpf(k) ** 2
        return float(mp.ellipk(mm) - mp.ellippi(mm / mp.mpf(n), mm))


def at_share(d, end, share):
    """x at the given share of the cut span above e2 or e3 (negative: below)."""
    return getattr(d, end) + share * (d.e2 - d.e3)


# (k, x_+ share above e2, x_- end and share): x_- inside the cut within 1e-6
# of e3 and of e2 and mid-cut, and below the cut; at the k = 0.0402 point a
# three-piece principal-value quadrature of pi(x_-) was off by 3.9e-3
PI_POINTS = [(k, sp, end, sm) for k in (0.04, 0.5, 0.997) for sp in (1e-3, 0.3)
             for end, sm in (("e3", 1e-6), ("e3", 0.5), ("e2", -1e-6), ("e3", -0.2))]
PI_POINTS.append((0.0402, 0.5, "e3", 1.42e-6))


def test_pi_pair_matches_closed_form_oracles():
    """pi(x_pm) = -2 y_pm Pi(n, k) / ((e3 - x_pm) sqrt(rho)), n = (e2 - e3)/(x_pm - e3),
    against Pi_oracle at the same x_pm, to 1e-12 of max(1, |pi|)."""
    for k, sp, end, sm in PI_POINTS:
        d = chart_data(k)
        z, v, x = cut_point(at_share(d, "e2", sp), at_share(d, end, sm))
        pi_pair = pi_pair_from_zvx(z, v, x, d)
        xp, xm, _, _, yp, ym = ah_xy_from_zvx(z, v, x)
        for pi, xv, y in zip(pi_pair, (xp, xm), (yp, ym)):
            n = (d.e2 - d.e3) / (xv - d.e3)
            ref = -2.0 * y * Pi_oracle(n, k) / ((d.e3 - xv) * math.sqrt(d.rho))
            assert abs(pi - ref) <= 1e-12 * max(1.0, abs(ref)), (k, xv, n)


# Pi(n, k) past n = 1e5, where the R_J sum cancels; each value from
#   python -c "import mpmath as mp; mp.mp.dps = 40; k, n = mp.mpf('K'), mp.mpf('N');
#              m = k * k; print(mp.nstr(mp.ellipk(m) - mp.ellippi(m / n, m), 35))"
PI_LARGE_N = [
    (0.0402, 704225.3273341771, -1.8034068841710970950063672379535084e-9),
    (0.04, 1e6, -1.2573918000447423114561367105842459e-9),
    (0.5, 1e5, -2.1828855974995392554623138029487757e-6),
    (0.5, 1e8, -2.1828814588744480487908940264569986e-9),
    (0.997, 1e6, -2.9391314921266104262017497470028145e-6),
]


def test_elliptic_Pi_vec_oracles():
    """The Pi kernel on both sides of n = 1 and far into the principal-value
    range; the large-n values are tiny, so they are held to 1e-12 relative."""
    k = np.array([0.04, 0.5, 0.997])
    n = np.array([-30.0, 0.0, 0.5, 1.0 - 1e-8, 1.0 + 1e-8, 1.5, 30.0, 9e4])
    vals = elliptic_Pi_vec(n[:, None], k[None, :])
    for i, j in np.ndindex(vals.shape):
        ref = Pi_oracle(n[i], k[j])
        assert abs(vals[i, j] - ref) <= 1e-12 * max(1.0, abs(ref)), (n[i], k[j])
    for kk, nn, ref in PI_LARGE_N:
        assert elliptic_Pi_vec(nn, kk) == pytest.approx(ref, rel=1e-12, abs=0.0)
    with pytest.raises(DomainError):
        elliptic_Pi_vec(1.0, 0.5)


def test_elliptic_Pi_vec_has_the_scalar_bits_in_any_batch():
    """The Pi loop holds each element from the step its stop test first
    fires, so one 200-element call, 200 one-element calls and 200
    elliptic_Pi calls agree bit for bit, and so do a permuted batch and an
    (n, k) broadcast."""
    rng = np.random.default_rng(0)
    n = rng.uniform(-3.0, 3.0, 200)
    k = rng.uniform(0.02, 0.98, 200)
    scalar = np.array([elliptic_Pi(a, b) for a, b in zip(n, k)])
    single = np.array([elliptic_Pi_vec(n[i:i + 1], k[i:i + 1])[0] for i in range(200)])
    assert np.array_equal(elliptic_Pi_vec(n, k), scalar)
    assert np.array_equal(single, scalar)
    perm = rng.permutation(200)
    assert np.array_equal(elliptic_Pi_vec(n[perm], k[perm]), scalar[perm])
    grid = elliptic_Pi_vec(n[:, None], k[None, :16])
    assert grid.shape == (200, 16)
    assert np.array_equal(grid, [[elliptic_Pi(a, b) for b in k[:16]] for a in n])


# n within 1e-12..1e-3 of the pole n = 1 on either side, n <= 0, and the
# principal-value range out to 1e8
PI_EDGE_N = st.one_of(
    st.builds(lambda side, e: 1.0 + side * 10.0 ** e, st.sampled_from((-1.0, 1.0)),
              st.floats(-12.0, -3.0)),
    st.floats(-1e8, 0.0),
    st.floats(1.0 + 1e-3, 1e8))


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


@settings(max_examples=200, deadline=None)
@given(n=PI_EDGE_N, k=st.floats(0.0, 0.997))
def test_elliptic_Pi_scalar_loop_at_the_edges(n, k):
    """elliptic_Pi has elliptic_Pi_vec's bits (0-d and one-element input),
    meets Pi_oracle at its 1e-12 of max(1, |Pi|), and stops by its test
    within _AGM_CAP steps."""
    # the loop is `for _ in range(_AGM_CAP)`; a module-level range counts its steps
    steps = []

    def counted(stop):
        for i in range(stop):
            steps.append(i)
            yield i

    with pytest.MonkeyPatch.context() as m:
        m.setattr(elliptic, "range", counted, raising=False)
        value = elliptic_Pi(n, k)
    assert 0 < len(steps) < elliptic._AGM_CAP
    assert _bits(value) == _bits(elliptic_Pi_vec(n, k))
    assert _bits(value) == _bits(elliptic_Pi_vec(np.array([n]), np.array([k]))[0])
    ref = Pi_oracle(n, k)
    assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (n, k)


def test_elliptic_Pi_large_n_and_domain():
    for kk, nn, ref in PI_LARGE_N:
        assert elliptic_Pi(nn, kk) == pytest.approx(ref, rel=1e-12, abs=0.0)
    for n, k in ((0.5, -0.1), (0.5, 1.0), (0.5, 1.5), (0.5, math.nan), (1.0, 0.5)):
        with pytest.raises(DomainError) as err:
            elliptic_Pi(n, k)
        assert str(err.value) == (f"elliptic_Pi requires 0 <= k < 1 and n != 1, "
                                  f"got n={n!r}, k={k!r}")


EDGE_SHARE = st.floats(-9.0, -3.0)     # log10 of the distance, in cut spans


@settings(max_examples=150, deadline=None)
@given(k=st.floats(1e-6, 1.0 - 1e-9), lp=EDGE_SHARE, below_e2=st.booleans(),
       end=st.sampled_from(("e3", "e2")), lm=EDGE_SHARE, below=st.booleans())
# x_+ = e2 + 4e-8 span at k = 0.997, where adaptive quadrature of pi(x_+) took 65 s
@example(k=0.997, lp=math.log10(4e-8), below_e2=False, end="e3", lm=-3.0, below=False)
def test_u_coordinate_bounded_at_cut_ends(k, lp, below_e2, end, lm, below):
    """Within 1e-9..1e-3 of the span from a cut end, u is finite or a
    PoleError, in under 50 ms of CPU time."""
    sp = -(10.0 ** lp) if below_e2 else 10.0 ** lp
    sm = -(10.0 ** lm) if below else 10.0 ** lm
    d = chart_data(k)
    xp, xm = at_share(d, "e2", sp), at_share(d, end, sm)
    assume(xp > xm)
    z, v, x = cut_point(xp, xm)
    state = ah_state_from_zvx(z, v, x, d)
    # CPU time of this process: a wall-clock bound also counts time other
    # processes take on a busy host; the collector is paused, so that a
    # collection pass of the whole test session is not billed to this call
    gc.disable()
    try:
        t0 = time.process_time()
        try:
            _, U, Z = ah_u_coordinate(state, AHParams(1.0, 1))
            assert np.isfinite(U) and np.isfinite(Z)
        except PoleError:
            pass
        elapsed = time.process_time() - t0
    finally:
        gc.enable()
    assert elapsed < 0.05
