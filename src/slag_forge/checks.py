"""Named invariant checks backing the `verify` and `oracle` CLI commands.

Every check returns (ok, detail) where detail is a short machine-readable
summary (max error vs tolerance).  Randomness flows from one seeded
Generator so runs are reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from . import atiyah_hitchin as ah
from . import moment_maps as mm
from . import multiplets as mp
from . import slag_curves as sc
from . import taub_nut as tn
from .elliptic import (_elliptic_KE, elliptic_data, elliptic_KE_vec, eta1_quadrature,
                       eta3_quadrature, omega1_quadrature, omega3_quadrature,
                       weierstrass_p, weierstrass_p_half_periods)
# unused here: bench/tracing.py wraps it by name, tests/test_bench_bindings.py checks it
from .elliptic import elliptic_K  # noqa: F401
from .errors import ConvergenceError, SlagForgeError
from .masks import mask_all


def _result(err: float, tol: float, label: str = "max_err"):
    return err <= tol, f"{label}={err:.3e} tol={tol:.1e}"


# --------------------------------------------------------------- specfun

def check_legendre_relation(rng) -> tuple[bool, str]:
    ks = np.linspace(0.01, 0.95, 60)
    # one AGM call on the rows k and k' = sqrt(1 - k^2)
    (K, Kp), (E, Ep) = elliptic_KE_vec(np.stack([ks, np.sqrt(1.0 - ks * ks)]))
    return _result(np.max(np.abs(E * Kp + Ep * K - K * Kp - math.pi / 2.0)), 1e-12)


def check_wp_ode(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(100):
        k = rng.uniform(0.1, 0.9)
        rho = rng.uniform(0.5, 2.0)
        data = elliptic_data(k, rho)
        u = rng.uniform(0.05, 1.95) * data.omega1
        du = 1e-6
        wp = weierstrass_p(u, data)
        dp = (weierstrass_p(u + du, data) - weierstrass_p(u - du, data)) / (2 * du)
        rhs = 4.0 * wp**3 - data.g2 * wp - data.g3
        rel = abs(dp * dp - rhs) / max(1.0, abs(rhs))
        worst = max(worst, rel)
    return _result(worst, 1e-8)


def check_wp_half_periods(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(50):
        data = elliptic_data(rng.uniform(0.1, 0.9), rng.uniform(0.5, 3.0))
        p1, p2, p3 = weierstrass_p_half_periods(data)
        scale = data.rho
        worst = max(worst, abs(p1 - data.e1) / scale, abs(p2 - data.e2) / scale,
                    abs(p3 - data.e3) / scale)
    return _result(worst, 1e-10)


def check_elliptic_data_invariants(rng) -> tuple[bool, str]:
    # one (k, rho) row per sample, as drawn one sample at a time
    k, rho = rng.uniform((0.01, 0.1), (0.99, 10.0), size=(1000, 2)).T
    d = elliptic_data(k, rho)
    bad = np.flatnonzero(~((d.e3 < d.e2) & (d.e2 < d.e1)))
    if len(bad):
        i = bad[0]
        return False, f"root ordering violated at k={float(k[i])}, rho={float(rho[i])}"
    kp = d.kprime
    worst = max(np.max(np.abs(d.e1 + d.e2 + d.e3) / rho),
                np.max(np.abs(d.e1 * d.e2 + d.e2 * d.e3 + d.e3 * d.e1 + d.g2 / 4.0)
                       / rho**2),
                np.max(np.abs(d.e1 * d.e2 * d.e3 - d.g3 / 4.0) / rho**3),
                np.max(np.abs(d.e1 - d.e3 - rho) / rho),
                np.max(np.abs((d.e2 - d.e3) / (d.e1 - d.e3) - k * k)),
                np.max(np.abs(d.delta - 16.0 * rho**6 * k**4 * kp**4) / rho**6))
    return _result(worst, 1e-12)


def check_eta1_pair(rng) -> tuple[bool, str]:
    # one (k, rho) row per curve, as drawn one curve at a time
    d = elliptic_data(*rng.uniform((0.05, 0.2), (0.95, 5.0), size=(20, 2)).T)
    worst_eta = np.max(np.abs(eta1_quadrature(d) - d.eta1))
    worst_om = np.max(np.abs(omega1_quadrature(d) - d.omega1))
    ok = worst_eta <= 1e-9 and worst_om <= 1e-10
    return ok, f"eta1_err={worst_eta:.3e} omega1_err={worst_om:.3e} tol=1e-9/1e-10"


def check_legendre_quasi_periods(rng) -> tuple[bool, str]:
    d = elliptic_data(*rng.uniform((0.1, 0.3), (0.9, 3.0), size=(10, 2)).T)
    val = d.eta1 * omega3_quadrature(d) - eta3_quadrature(d) * d.omega1
    return _result(np.max(np.abs(val - 0.5j * math.pi)), 1e-9)


# ------------------------------------------------------------- multiplets

def _random_o2(rng) -> mp.O2Multiplet:
    r = rng.uniform(0.5, 20.0)
    ang = rng.uniform(0.3, 2.7)
    x = r * math.cos(ang)
    az = r * math.sin(ang) / 2.0
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return mp.O2Multiplet(az * complex(math.cos(phase), math.sin(phase)), x)


def check_o2_reality_roots(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(50):
        m = _random_o2(rng)
        # 16 zeta as (re, im) normal pairs, those within 1e-3 of the pole skipped
        zeta = rng.normal(size=(16, 2)).view(complex)[:, 0]
        zeta = zeta[np.abs(zeta) >= 1e-3]
        lhs = mp.o2_eval(m, -1.0 / np.conjugate(zeta))
        rhs = np.conjugate(mp.o2_eval(m, zeta))
        zp, zm = mp.o2_roots(m)
        worst = max(worst, np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs)), initial=0.0),
                    np.max(np.abs(mp.o2_eval(m, np.array([zp, zm])))) / max(1.0, m.r),
                    abs(zp * zm + np.conjugate(m.z) / m.z))
    return _result(worst, 1e-12)


# the most draws a sampler makes per multiplet it returns, or per oracle sample
_DRAWS_PER_SAMPLE = 20


def _random_o4(rng) -> mp.O4Multiplet:
    for _ in range(_DRAWS_PER_SAMPLE):
        al = complex(rng.normal(), rng.normal())
        be = complex(rng.normal(), rng.normal())
        rho = rng.uniform(0.5, 4.0)
        m = mp.o4_from_roots(al, be, rho)
        if abs(m.z) > 0.05 * rho and abs(m.beta) > 0.05:
            return m
    raise ConvergenceError(f"_random_o4: no multiplet kept in {_DRAWS_PER_SAMPLE} draws")


def check_o4_roots(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(50):
        m = _random_o4(rng)
        roots = np.array([m.alpha, -1.0 / np.conjugate(m.alpha),
                          m.beta, -1.0 / np.conjugate(m.beta)])
        worst = max(worst, np.max(np.abs(mp.o4_eval(m, roots))) / m.rho)
    return _result(worst, 1e-10)


# --------------------------------------------------------------- taub_nut

# (r, polar angle, phase of z, Im u) of a random Taub-NUT point, drawn in that order
_TN_POINT_BOX = ((0.05, 0.0, -3.0), (math.pi - 0.05, 2.0 * math.pi, 3.0))


def _tn_point(p, r, ang, phase, im_u):
    """Holomorphic point at radius r and polar angle ang (scalars or arrays)."""
    az = r * np.sin(ang) / 2.0
    z = az * (np.cos(phase) + 1j * np.sin(phase))
    return tn.tn_point_from_xz(r * np.cos(ang), z, p, im_u=im_u)


def _random_tn_point(rng, p, r_lo=0.1, r_hi=100.0):
    lo, hi = _TN_POINT_BOX
    return _tn_point(p, *rng.uniform((r_lo,) + lo, (r_hi,) + hi))


def check_tn_monge_ampere(rng) -> tuple[bool, str]:
    lo, hi = _TN_POINT_BOX
    # one row per sample: h, m, then the point, as drawn one sample at a time
    h, m, *point = rng.uniform((0.5, 0.0, 0.1) + lo, (2.0, 2.0, 100.0) + hi,
                               size=(1000, 6)).T
    p = tn.TNParams(h, m)
    blk = tn.tn_metric_holo(_tn_point(p, *point), p)
    det = blk.det()
    if not mask_all((blk.kuubar > 0) & (det.real > 0)):
        return False, "positivity violated"
    worst = max(np.max(np.abs(det - 1.0)),
                np.max(np.abs(blk.kuzbar - np.conjugate(blk.kzubar))))
    return _result(worst, 1e-10)


def check_tn_pullback(rng) -> tuple[bool, str]:
    p = tn.TNParams(1.0, 1.0)
    # one (r, theta, phi, psi) row per sample, as drawn one sample at a time
    pt = tn.TNSphericalPoint(*rng.uniform((0.3, 0.2, 0.0, 0.0),
                                          (10.0, math.pi - 0.2, 2.0 * math.pi, 4.0 * math.pi),
                                          size=(20, 4)).T)
    g1 = tn.tn_metric_spherical(pt, p)
    g2 = tn.tn_metric_spherical_from_holo(pt, p)
    return _result(np.max(np.abs(g1 - g2)), 1e-8)


def check_tn_chart_roundtrip(rng) -> tuple[bool, str]:
    # one row per sample: h, m, then (r, theta, phi, psi)
    h, m, *sph = rng.uniform((0.5, 0.2, 0.2, 0.1, 0.0, 0.0),
                             (2.0, 2.0, 20.0, math.pi - 0.1, 2.0 * math.pi, 4.0 * math.pi),
                             size=(50, 6)).T
    p = tn.TNParams(h, m)
    sph = tn.TNSphericalPoint(*sph)
    holo = tn.tn_chart_spherical_to_holo(sph, p)
    back = tn.tn_chart_holo_to_spherical(holo, p)
    x = tn.tn_solve_x(holo.u.real, np.abs(holo.z), p)
    worst = max(np.max(np.abs(back.r - sph.r) / sph.r),
                np.max(np.abs(back.theta - sph.theta)), np.max(np.abs(back.phi - sph.phi)),
                np.max(np.abs(back.psi - sph.psi)),
                np.max(np.abs(x - holo.x) / np.maximum(1.0, np.abs(holo.x))))
    return _result(worst, 1e-9)


def check_tn_kuu_vs_fxx(rng) -> tuple[bool, str]:
    """Generalized-Legendre cross-check K_uu = -1/F_xx with the contour oracle."""
    worst = 0.0
    for _ in range(10):
        p = tn.TNParams(rng.uniform(0.5, 2.0), rng.uniform(0.1, 2.0))
        m2 = _random_o2(rng)
        pt = tn.tn_point_from_xz(m2.x, m2.z, p)
        fxx = mp.tn_Fxx_contour_oracle(m2, p.h, p.m)
        kuu = tn.tn_metric_holo(pt, p).kuubar.real
        worst = max(worst, abs(kuu + 1.0 / fxx) / abs(kuu))
    return _result(worst, 1e-5)


# ---------------------------------------------------------- atiyah_hitchin

# per-column [low, high) of the (k, theta, phi, psi) candidates of random_ah_point
_AH_POINT_BOX = ((0.15, 0.25, 0.0, 0.05),
                 (0.85, math.pi - 0.25, 2.0 * math.pi, 0.5 * math.pi - 0.05))


def random_ah_point(rng, p: ah.AHParams, n: int, y_guard: float = 1e-3):
    """n regular spherical points and their state as one batch.

    Regular is ah.ah_regular at the guard: the chart map succeeds, x_pm is
    clear of the cut ends by 1e-4 of its span and min |y_pm| exceeds
    y_guard rho^{3/2} (so the coefficients exist).  The 2n + 16 candidates
    are drawn as one array, the stream of drawing them one point at a time,
    and the first n regular ones are kept; ConvergenceError if fewer are.
    The kept states are the chart's own rows (one extended-AGM run).
    """
    k, theta, phi, psi = rng.uniform(*_AH_POINT_BOX, size=(2 * n + 16, 4)).T
    z, v, x, data = ah._chart(k, theta, phi, psi, p.h, *_elliptic_KE(k))
    keep = np.flatnonzero(ah.ah_regular(z, v, x, data, y_guard))[:n]
    if len(keep) < n:
        raise ConvergenceError("could not sample regular Atiyah-Hitchin points")
    pt = ah.AHSphericalPoint(k[keep], theta[keep], phi[keep], psi[keep])
    return pt, ah.ah_state_from_zvx(z[keep], v[keep], x[keep], ah._rows(data, keep))


def check_ah_monge_ampere(rng) -> tuple[bool, str]:
    p = ah.AHParams(1.0, 1)
    _, state = random_ah_point(rng, p, 500)
    blk = ah.ah_metric_UZ(state, p)
    if not mask_all((blk.kuubar.real > 0) & (blk.kzzbar.real > 0)
                    & ((blk.kuubar * blk.kzzbar - abs(blk.kuzbar) ** 2).real > 0)):
        return False, "positivity violated"
    worst_det = np.max(np.abs(blk.det() - 1.0))
    worst_herm = np.max(np.abs(blk.kuzbar - np.conjugate(blk.kzubar))
                        / np.maximum(1.0, np.abs(blk.kuzbar)))
    ok = worst_det <= 1e-8 and worst_herm <= 1e-10
    return ok, f"det_err={worst_det:.3e} herm_err={worst_herm:.3e} tol=1e-8/1e-10"


def check_ah_xz_identities(rng) -> tuple[bool, str]:
    p = ah.AHParams(1.0, 1)
    _, state = random_ah_point(rng, p, 100)
    d = state.elliptic
    scale = d.rho
    errs = [np.abs(state.xplus - state.xminus - 4.0 * np.abs(state.z)) / scale,
            np.abs(state.x - 1.5 * (state.xplus + state.xminus)) / scale]
    for xv, yv in ((state.xplus, state.yplus), (state.xminus, state.yminus)):
        cubic = 4.0 * xv**3 - d.g2 * xv - d.g3
        errs.append(np.abs(yv**2 - cubic) / scale**3)
    return _result(np.max(errs), 1e-12)


def check_ah_pi_typing(rng) -> tuple[bool, str]:
    p = ah.AHParams(1.0, 1)
    _, state = random_ah_point(rng, p, 100)
    pi_p, pi_m = ah.ah_pi_xpm(state)
    nz = np.abs(pi_p) > 0
    worst = max(np.max(np.abs(pi_p.real[nz]) / np.abs(pi_p[nz]), initial=0.0),
                np.max(np.abs(np.imag(pi_m)) / np.maximum(1.0, np.abs(pi_m))))
    return _result(worst, 1e-10)


def check_ah_dpi_fd(rng) -> tuple[bool, str]:
    """d pi(x_pm) = 4 A_pm dx_pm - 8 B_pm d eta1 against finite differences."""
    p = ah.AHParams(1.0, 1)
    step = 1e-5
    pt, state = random_ah_point(rng, p, 20)
    Ap, Am, Bp, Bm, _ = ah.ah_coeffs(state)
    worst = 0.0
    vals = {"k": pt.k, "theta": pt.theta, "phi": pt.phi, "psi": pt.psi}
    for coord in ("theta", "psi", "k"):
        up, dn = dict(vals), dict(vals)
        up[coord] = vals[coord] + step
        dn[coord] = vals[coord] - step
        s_up = ah.ah_from_spherical(ah.AHSphericalPoint(**up), p)
        s_dn = ah.ah_from_spherical(ah.AHSphericalPoint(**dn), p)
        pp_u, pm_u = ah.ah_pi_xpm(s_up)
        pp_d, pm_d = ah.ah_pi_xpm(s_dn)
        deta = s_up.elliptic.eta1 - s_dn.elliptic.eta1
        for (pi_u, pi_d, A, B, x_u, x_d) in (
                (pp_u, pp_d, Ap, Bp, s_up.xplus, s_dn.xplus),
                (pm_u, pm_d, Am, Bm, s_up.xminus, s_dn.xminus)):
            dpi = (pi_u - pi_d) / (2.0 * step)
            rhs = (4.0 * A * (x_u - x_d) - 8.0 * B * deta) / (2.0 * step)
            worst = max(worst, np.max(np.abs(dpi - rhs) / np.maximum(1.0, np.abs(dpi))))
    return _result(worst, 1e-4)


def check_ah_h_constraint(rng) -> tuple[bool, str]:
    worst = max(ah.ah_check_h_constraint(ah.AHParams(h, 1), np.array([0.2, 0.5, 0.8]))
                for h in (0.5, 1.0, 2.0))
    return _result(worst, 1e-14)


# -------------------------------------------------------------- moment maps

def _hamiltonicity_tn(rng, generator: str) -> tuple[bool, str]:
    lo, hi = _TN_POINT_BOX
    # one row per sample: h, m, then the point, as drawn one sample at a time
    h, m, *point = rng.uniform((0.5, 0.1, 0.3) + lo, (2.0, 2.0, 20.0) + hi,
                               size=(100, 6)).T
    p = tn.TNParams(h, m)
    action = mm.ActionSpec("TaubNUT", generator)
    return _result(np.max(mm.verify_hamiltonian_tn(action, _tn_point(p, *point), p)), 1e-5)


def check_hamiltonicity_tn_u1(rng) -> tuple[bool, str]:
    return _hamiltonicity_tn(rng, "U1_triholo")


def check_hamiltonicity_tn_so2(rng) -> tuple[bool, str]:
    return _hamiltonicity_tn(rng, "SO2_rot")


def check_hamiltonicity_ah(rng) -> tuple[bool, str]:
    p = ah.AHParams(1.0, 1)
    pt, _ = random_ah_point(rng, p, 100, y_guard=3e-3)
    return _result(np.max(mm.verify_hamiltonian_ah(pt, p)), 1e-4)


def check_orbit_constancy(rng) -> tuple[bool, str]:
    """mu is constant along each orbit, and each generator is its velocity.

    The orbits in closed form: the Taub-NUT U(1) adds t to Im u, the
    Taub-NUT SO(2) sends z to e^{-2it} z and the Atiyah-Hitchin SO(2) sends
    phi to phi - 2t.  Each is sampled at t = +-dt and at 20 points of
    [0, pi), and its central-difference velocity at t = 0 must be
    ActionSpec.field there: gen_err is the worst component error over
    max(1, |w1|), w1 being z or Z.
    """
    dt = 1e-5
    t = np.concatenate([(dt, -dt), np.linspace(0.0, math.pi, 20, endpoint=False)])
    n = len(t)
    p = tn.TNParams(1.0, 1.0)
    a, b = (_random_tn_point(rng, p, 0.5, 10.0) for _ in range(2))
    tn_pts = tn.tn_point_from_uz(np.concatenate([a.u + 1j * t, np.full(n, b.u)]),
                                 np.concatenate([np.full(n, a.z), b.z * np.exp(-2j * t)]), p)
    pa = ah.AHParams(1.0, 1)
    pt, _ = random_ah_point(rng, pa, 1)
    k, theta, psi = (np.full(n, c[0]) for c in (pt.k, pt.theta, pt.psi))
    phi = (pt.phi[0] - 2.0 * t) % (2.0 * math.pi)
    state = ah.ah_from_spherical(ah.AHSphericalPoint(k, theta, phi, psi), pa)
    _, U, Z = ah.ah_u_coordinate(state, pa)
    # [orbit, sample] for the Taub-NUT U(1), the Taub-NUT SO(2) and the AH SO(2)
    specs = [mm.ActionSpec(*action) for action in (
        ("TaubNUT", "U1_triholo"), ("TaubNUT", "SO2_rot"), ("AtiyahHitchin", "SO2_rot"))]
    w0 = np.vstack([tn_pts.u.reshape(2, n), U])
    w1 = np.vstack([tn_pts.z.reshape(2, n), Z])
    mu = np.vstack([specs[0].moment(tn_pts, p)[:n], specs[1].moment(tn_pts, p)[n:],
                    specs[2].moment(state, pa)])
    mu_span = np.max(np.ptp(mu, axis=1))
    dw0, dw1 = ((w[:, 0] - w[:, 1]) / (2.0 * dt) for w in (w0, w1))
    velocity = np.stack([dw0.real, dw0.imag, dw1.real, dw1.imag], axis=-1)
    X = np.array([spec.field(w0[i, 2], w1[i, 2]) for i, spec in enumerate(specs)])
    gen_err = np.max(np.max(np.abs(velocity - X), axis=1) / np.maximum(1.0, np.abs(w1[:, 2])))
    ok = mu_span <= 1e-8 and gen_err <= 1e-6
    return ok, f"mu_span={mu_span:.3e} gen_err={gen_err:.3e} tol=1e-8/1e-6"


def check_lie_derivative(rng) -> tuple[bool, str]:
    """d(iota_X omega) = 0 by second differences for both Taub-NUT actions.

    Five points per action (U(1) first), each with the 16 points q +- h e_a
    and q +- (h/2) e_a that its central differences need, evaluated as one
    batch.  The central stencil's error is O(h^2), so one Richardson step,
    (4 D(h/2) - D(h)) / 3, leaves the geometry's residual.
    """
    p = tn.TNParams(1.0, 1.0)
    lo, hi = _TN_POINT_BOX
    pt = _tn_point(p, *rng.uniform((1.0,) + lo, (10.0,) + hi, size=(10, 4)).T)
    q = np.array([pt.u.real, pt.u.imag, pt.z.real, pt.z.imag])
    h = 1e-4
    # q + s e_a for a = 0..3 and s = h, -h, h/2, -h/2 in turn
    offsets = np.hstack([s * np.eye(4) for s in (h, -h, 0.5 * h, -0.5 * h)])
    batch = q[:, None, :] + offsets[:, :, None]
    point = tn.tn_point_from_uz(batch[0] + 1j * batch[1], batch[2] + 1j * batch[3], p)
    blk = tn.tn_metric_holo(point, p)
    sigma = np.concatenate(
        [mm._iota_omega(mm.ActionSpec("TaubNUT", name), blk, point.u, point.z)[:, cols]
         for name, cols in (("U1_triholo", slice(0, 5)), ("SO2_rot", slice(5, 10)))],
        axis=1)                                      # [shifted point, point, component]

    def curl(a, b, j, step):
        return (sigma[j + a, :, b] - sigma[j + 4 + a, :, b]) / (2 * step) \
            - (sigma[j + b, :, a] - sigma[j + 4 + b, :, a]) / (2 * step)

    worst = 0.0
    for a in range(4):
        for b in range(a + 1, 4):
            d_ab = (4.0 * curl(a, b, 8, 0.5 * h) - curl(a, b, 0, h)) / 3.0
            worst = max(worst, np.max(np.abs(d_ab)))
    return _result(worst, 1e-3)


def check_so3_equivariance(rng) -> tuple[bool, str]:
    e3 = mm.so3_cotangent_moment([1, 0, 0], [0, 1, 0])
    if not np.allclose(e3, [0, 0, 1]):
        return False, f"mu(q=e1, p=e2)={np.asarray(e3).tolist()} expected e3=[0, 0, 1]"
    # one row per sample: q, p and a Gaussian matrix, as drawn one sample at a time
    draws = rng.normal(size=(20, 15))
    q, p_vec = draws[:, :3], draws[:, 3:6]
    # random rotations via QR of the Gaussian matrices, turned into SO(3)
    mat, _ = np.linalg.qr(draws[:, 6:].reshape(20, 3, 3))
    mat[:, :, 0] *= np.where(np.linalg.det(mat) < 0, -1.0, 1.0)[:, None]
    # q, p and mu(q, p), each rotated by its sample's matrix
    vecs = np.stack([q, p_vec, mm.so3_cotangent_moment(q, p_vec)])
    rq, rp, rmu = (mat @ vecs[..., None])[..., 0]
    return _result(np.max(np.abs(mm.so3_cotangent_moment(rq, rp) - rmu)), 1e-12)


# ------------------------------------------------------------------- slag

def check_slag_tn_traces(rng) -> tuple[bool, str]:
    p = tn.TNParams(1.0, 1.0)
    worst = 0.0
    traces = (sc.tn_u1_case1(1.0, 0.5, n=300)
              + sc.tn_u1_case2(2.0, n=300)
              + sc.tn_so2_curve(3.0, p, branch="plane", n=300)
              + sc.tn_so2_curve(3.0, p, branch="axis", n=64))
    for trace in traces:
        res = sc.verify_slag(trace, "tn", p)
        worst = max(worst, res["omega_max"], res["im_omega_max"],
                    res["mu_max_dev"] / max(1.0, abs(res["mu_median"])))
    return _result(worst, 1e-5)


def check_slag_negative_control(rng) -> tuple[bool, str]:
    p = tn.TNParams(1.0, 1.0)
    base = sc.tn_u1_case1(1.0, 0.5, n=300)[0]
    good = sc.verify_slag(base, "tn", p)
    bad = sc.verify_slag(sc.perturb_phi(base, 0.1), "tn", p)
    ratio = bad["im_omega_max"] / max(good["im_omega_max"], 1e-300)
    ok = bad["im_omega_max"] > 1e-2 and ratio >= 1e3
    return ok, f"perturbed_im_omega={bad['im_omega_max']:.3e} ratio={ratio:.1e}"


def check_slag_implicit_equivalence(rng) -> tuple[bool, str]:
    """Closed-form case-1 curve vs its implicit marching-squares trace."""
    c1, c2 = 1.0, 0.5
    r0 = math.sqrt(c1**2 + 4 * c2**2)
    rect = (0.0, 2.0 * math.pi, r0 + 1e-3, 8.0)
    grid = sc.ImplicitGrid(
        f=lambda ph, r: np.cos(ph) - 2.0 * c2 / np.sqrt(r * r - c1 * c1),
        rect=rect, n=128)
    polys = sc.trace_zero_set(grid)
    if not polys:
        return False, "no implicit curve found"
    cell = max((rect[1] - rect[0]) / 128, (rect[3] - rect[2]) / 128)
    plus, minus = sc.tn_u1_case1(c1, c2, r_range=(r0 + 1e-3, 8.0), n=600)
    ref = np.vstack([np.column_stack([tr.cols["phi"], tr.cols["r"]])
                     for tr in (plus, minus)])
    # [vertex, reference sample] distances, 16 vertices a block: the whole
    # (vertices, 1200) table would add ~9 MB to the process's peak memory
    pts = np.vstack(polys)
    worst = max(np.max(np.min(np.hypot(ref[:, 0] - blk[:, :1], ref[:, 1] - blk[:, 1:]), axis=1))
                for blk in np.split(pts, range(16, len(pts), 16)))
    return _result(float(worst), 2.0 * cell, label="hausdorff")


def check_slag_ah_zero_set(rng) -> tuple[bool, str]:
    """Condition zero set == {Im z = 0, Re z <= 0}, both inclusions.

    Forward: at phi* = pi/2 - arg(w)/2 (mod pi) the coordinate z is negative
    real and the condition residual must vanish, in one array pass over the
    theta rows with a real psi and both phi* of each.  Converse: every
    phi-root of the condition found by scan+bisection must land on z in
    R_{<=0}; the scan of all rows is one (rows, 257) evaluation, and the
    brackets of all rows are bisected together.
    """
    k, c1, h = 0.5, 0.0, 1.0
    th = np.linspace(0.3, math.pi - 0.3, 40)
    c2p, _, _ = sc.ah_cos2psi_level(th, k, c1, h)
    real_psi = sc._in_range(c2p)
    th = th[real_psi]
    if not len(th):
        return False, "locus not sampled"
    psi = 0.5 * np.arccos(np.clip(c2p[real_psi], -1.0, 1.0))
    z0, _, _ = ah.ah_zvx_from_spherical(k, th, 0.0, psi, h)
    # z(phi) = e^{2 i phi} z0 is negative real at [row, branch] phi* = (pi - arg z0)/2 (+ pi)
    phi_star = ((math.pi - np.angle(z0)[:, None]) / 2.0 + [0.0, math.pi]) % (2.0 * math.pi)
    f = sc.ah_condition(th[:, None], phi_star, k, c1, h, 1)
    z, _, _ = ah.ah_zvx_from_spherical(k, th[:, None], phi_star, psi[:, None], h)
    off = np.flatnonzero(~((z.real <= 0) & (np.abs(z.imag) <= 1e-9 * np.abs(z))))
    if len(off):
        row, branch = divmod(off[0], 2)
        return False, (f"forward point theta={th[row]:.6f} phi*={phi_star[row, branch]:.6f} "
                       f"off z <= 0: z={complex(z[row, branch]):.3e}")
    worst_f = np.max(np.abs(f) / np.maximum(1.0, np.abs(z0))[:, None] ** 0.5)
    # converse: scan the rows for sign changes, bisect them all, test z there
    phis = np.linspace(0.0, 2.0 * math.pi, 257)
    vals = sc.ah_condition(th[:, None], phis, k, c1, h, 1)
    row, i = np.nonzero((vals[:, :-1] > 0) != (vals[:, 1:] > 0))
    th, psi = th[row], psi[row]
    a, b, fa = phis[i], phis[i + 1], vals[row, i]
    for _ in range(60):
        mid = 0.5 * (a + b)
        fm = sc.ah_condition(th, mid, k, c1, h, 1)
        left = (fa > 0) != (fm > 0)
        b = np.where(left, mid, b)
        a, fa = np.where(left, a, mid), np.where(left, fa, fm)
    z, _, _ = ah.ah_zvx_from_spherical(k, th, 0.5 * (a + b), psi, h)
    worst_conv = max(np.max(np.abs(z.imag) / np.abs(z), initial=0.0),
                     np.max(np.maximum(z.real, 0.0) / np.abs(z), initial=0.0))
    ok = worst_f <= 1e-7 and worst_conv <= 1e-7
    return ok, (f"forward_resid={worst_f:.3e} converse_resid={worst_conv:.3e} "
                f"tol=1e-7 ({f.size} locus pts)")


def check_slag_ah_traces(rng) -> tuple[bool, str]:
    """omega, mu and Im Omega residuals at 1e-4; fails by a documented defect.

    The traced families satisfy the moment level set and Re Z = 0, but the
    phase of Omega(v1, v2) drifts along them, so the calibration-phase
    residual Im(Omega(v1, v2)) is O(1): this check reports it honestly.
    omega vanishes on mu = c1 up to the finite-difference tangent error,
    ~4e-5 on these two 32-sample traces, under 1e-4: only Im Omega fails.
    """
    p = ah.AHParams(1.0, 1)
    traces = sc.ah_traces_theta_phi(0.5, -2.0, n=192)
    if not traces:
        return False, "no traces found"
    worst_ok = worst_im = 0.0
    for trace in traces[:2]:
        res = sc.verify_slag(trace, "ah", p)
        worst_ok = max(worst_ok, res["omega_max"],
                       res["mu_max_dev"] / max(1.0, abs(res["mu_median"])))
        worst_im = max(worst_im, res["im_omega_max"])
    ok = worst_ok <= 1e-4 and worst_im <= 1e-4
    return ok, (f"omega/mu_err={worst_ok:.3e} im_omega={worst_im:.3e} tol=1e-4 "
                f"(documented defect: im_omega is O(1))")


def check_slag_transversality(rng) -> tuple[bool, str]:
    p = tn.TNParams(1.0, 1.0)
    worst = math.inf
    for trace in sc.tn_so2_curve(3.0, p, branch="plane", n=200):
        worst = min(worst, sc.transversality_variation(trace, "tn", p))
    pa = ah.AHParams(1.0, 1)
    for trace in sc.ah_traces_theta_phi(0.5, -2.0, n=192)[:2]:
        worst = min(worst, sc.transversality_variation(trace, "ah", pa))
    ok = worst > 1e-3
    return ok, f"min_total_variation={worst:.3e} tol>1e-3"


# ---------------------------------------------------------------- oracles

def oracle_fxx(rng, samples: int) -> tuple[bool, str]:
    """Worst relative F_xx error, and the most loop nodes any sample needed."""
    worst = 0.0
    nodes = 0
    for _ in range(samples):
        m = _random_o2(rng)
        h = rng.uniform(0.5, 2.0)
        mc = rng.uniform(0.1, 2.0)
        fxx = mp.tn_Fxx_contour_oracle(m, h, mc)
        nodes = max(nodes, fxx.loop_nodes)
        target = -2.0 * (1.0 / h + 2.0 * mc / m.r)
        worst = max(worst, abs(fxx - target) / abs(target))
    return worst <= 1e-5, f"rel_err={worst:.3e} nodes_max={nodes} tol=1.0e-05"


def _o4_batch(m4s):
    """Curve data (one elliptic_data array call), alpha and beta of a list of O(4) multiplets."""
    k, rho, al, be = np.array([(mp.o4_modulus(m), m.rho, m.alpha, m.beta) for m in m4s]).T
    return elliptic_data(k.real, rho.real), al, be


def oracle_ah_i0(rng, samples: int) -> tuple[bool, str]:
    """Worst relative I_0 error against 2 omega1, and the most nodes any sample needed."""
    data, al, be = _o4_batch([_random_o4(rng) for _ in range(samples)])
    (i0, _, _), nodes = mp.ah_In_contour_oracle(data, al, be)
    worst = np.max(np.abs(i0 - 2.0 * data.omega1) / np.abs(2.0 * data.omega1))
    return worst <= 1e-8, f"rel_err={worst:.3e} nodes_max={nodes.max()} tol=1.0e-08"


def oracle_ah_i1_i2(rng, samples: int) -> tuple[bool, str]:
    """Worst relative I_1, I_2 error, the most nodes a sample needed, the skips by error."""
    kept, skipped = [], {}
    for _ in range(_DRAWS_PER_SAMPLE * samples):
        m4 = _random_o4(rng)
        data = elliptic_data(mp.o4_modulus(m4), m4.rho)
        try:
            pi_pm = ah.pi_pair_from_zvx(m4.z, m4.v, m4.x, data)
            mp.ah_In_poles(data, m4.alpha, m4.beta)
        except SlagForgeError as exc:
            skipped[type(exc).__name__] = skipped.get(type(exc).__name__, 0) + 1
            continue
        kept.append((m4, data, *pi_pm))
        if len(kept) == samples:
            break
    skips = ",".join(f"{name}:{n}" for name, n in sorted(skipped.items())) or "0"
    if len(kept) < samples:
        return False, f"{len(kept)} of {samples} samples drawn, skipped={skips}"
    (_, i1s, i2s), nodes = mp.ah_In_contour_oracle(*_o4_batch([m4 for m4, *_ in kept]))
    worst = 0.0
    for (m4, data, pi_p, pi_m), i1, i2 in zip(kept, i1s, i2s):
        a1, r1 = mp.best_branch_integer(i1, m4.z, pi_p, pi_m)
        cf2 = mp.ah_I2_closed_form(m4.z, m4.v, m4.x, data, pi_p, pi_m, a1)
        worst = max(worst, max(r1, abs(i2 - cf2)) / max(1.0, abs(i1), abs(i2)))
    return worst <= 1e-7, (f"rel_err={worst:.3e} nodes_max={nodes.max()} skipped={skips} "
                           "tol=1.0e-07")


VERIFY_CHECKS = {
    "legendre-relation": check_legendre_relation,
    "wp-ode": check_wp_ode,
    "wp-half-periods": check_wp_half_periods,
    "elliptic-data": check_elliptic_data_invariants,
    "eta1-pair": check_eta1_pair,
    "legendre-quasi-periods": check_legendre_quasi_periods,
    "o2-reality-roots": check_o2_reality_roots,
    "o4-roots": check_o4_roots,
    "tn-monge-ampere": check_tn_monge_ampere,
    "tn-pullback": check_tn_pullback,
    "tn-chart-roundtrip": check_tn_chart_roundtrip,
    "tn-kuu-vs-fxx": check_tn_kuu_vs_fxx,
    "ah-monge-ampere": check_ah_monge_ampere,
    "ah-xz-identities": check_ah_xz_identities,
    "ah-pi-typing": check_ah_pi_typing,
    "ah-dpi-fd": check_ah_dpi_fd,
    "ah-h-constraint": check_ah_h_constraint,
    "hamiltonicity-tn-u1": check_hamiltonicity_tn_u1,
    "hamiltonicity-tn-so2": check_hamiltonicity_tn_so2,
    "hamiltonicity-ah": check_hamiltonicity_ah,
    "orbit-constancy": check_orbit_constancy,
    "lie-derivative": check_lie_derivative,
    "so3-equivariance": check_so3_equivariance,
    "slag-tn-traces": check_slag_tn_traces,
    "slag-negative-control": check_slag_negative_control,
    "slag-implicit-equivalence": check_slag_implicit_equivalence,
    "slag-ah-zero-set": check_slag_ah_zero_set,
    "slag-ah-traces": check_slag_ah_traces,
    "slag-transversality": check_slag_transversality,
}

# `oracle --samples` sizes the first three; eta1-pair (20 curves) and
# pi-typing (100 points) ignore it and keep their own sizes
ORACLE_CHECKS = {
    "fxx-contour": (oracle_fxx, "tn"),
    "ah-i0": (oracle_ah_i0, "ah"),
    "ah-i1-i2-closed": (oracle_ah_i1_i2, "ah"),
    "eta1-pair": (lambda rng, samples: check_eta1_pair(rng), "ah"),
    "pi-typing": (lambda rng, samples: check_ah_pi_typing(rng), "ah"),
}
