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
from .elliptic import (EllipticData, elliptic_data, elliptic_E, elliptic_K,
                       eta1_quadrature, eta3_quadrature, omega1_quadrature,
                       omega3_quadrature, weierstrass_p,
                       weierstrass_p_half_periods)
from .errors import ChartError, OutOfRangeError, SlagForgeError


def _result(err: float, tol: float, label: str = "max_err"):
    return err <= tol, f"{label}={err:.3e} tol={tol:.1e}"


# --------------------------------------------------------------- specfun

def check_legendre_relation(rng) -> tuple[bool, str]:
    ks = np.linspace(0.01, 0.95, 60)
    worst = 0.0
    for k in ks:
        kp = math.sqrt(1.0 - k * k)
        val = (elliptic_E(k) * elliptic_K(kp) + elliptic_E(kp) * elliptic_K(k)
               - elliptic_K(k) * elliptic_K(kp))
        worst = max(worst, abs(val - math.pi / 2.0))
    return _result(worst, 1e-12)


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
    worst = 0.0
    for _ in range(1000):
        k = rng.uniform(0.01, 0.99)
        rho = rng.uniform(0.1, 10.0)
        d = elliptic_data(k, rho)
        kp = d.kprime
        r1 = abs(d.e1 + d.e2 + d.e3) / rho
        r2 = abs(d.e1 * d.e2 + d.e2 * d.e3 + d.e3 * d.e1 + d.g2 / 4.0) / rho**2
        r3 = abs(d.e1 * d.e2 * d.e3 - d.g3 / 4.0) / rho**3
        r4 = abs(d.e1 - d.e3 - rho) / rho
        r5 = abs((d.e2 - d.e3) / (d.e1 - d.e3) - k * k)
        r6 = abs(d.delta - 16.0 * rho**6 * k**4 * kp**4) / rho**6
        if not (d.e3 < d.e2 < d.e1):
            return False, f"root ordering violated at k={k}, rho={rho}"
        worst = max(worst, r1, r2, r3, r4, r5, r6)
    return _result(worst, 1e-12)


def check_eta1_pair(rng) -> tuple[bool, str]:
    worst_eta = worst_om = 0.0
    for _ in range(20):
        d = elliptic_data(rng.uniform(0.05, 0.95), rng.uniform(0.2, 5.0))
        worst_eta = max(worst_eta, abs(eta1_quadrature(d) - d.eta1))
        worst_om = max(worst_om, abs(omega1_quadrature(d) - d.omega1))
    ok = worst_eta <= 1e-9 and worst_om <= 1e-10
    return ok, f"eta1_err={worst_eta:.3e} omega1_err={worst_om:.3e} tol=1e-9/1e-10"


def check_legendre_quasi_periods(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(10):
        d = elliptic_data(rng.uniform(0.1, 0.9), rng.uniform(0.3, 3.0))
        val = (d.eta1 * omega3_quadrature(d) - eta3_quadrature(d) * d.omega1)
        worst = max(worst, abs(val - 0.5j * math.pi))
    return _result(worst, 1e-9)


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
        for _ in range(16):
            zeta = complex(rng.normal(), rng.normal())
            if abs(zeta) < 1e-3:
                continue
            lhs = mp.o2_eval(m, -1.0 / np.conjugate(zeta))
            rhs = np.conjugate(mp.o2_eval(m, zeta))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        zp, zm = mp.o2_roots(m)
        scale = max(1.0, m.r)
        worst = max(worst, abs(mp.o2_eval(m, zp)) / scale,
                    abs(mp.o2_eval(m, zm)) / scale)
        worst = max(worst, abs(zp * zm + np.conjugate(m.z) / m.z))
    return _result(worst, 1e-12)


def _random_o4(rng) -> mp.O4Multiplet:
    while True:
        al = complex(rng.normal(), rng.normal())
        be = complex(rng.normal(), rng.normal())
        rho = rng.uniform(0.5, 4.0)
        m = mp.o4_from_roots(al, be, rho)
        if abs(m.z) > 0.05 * rho and abs(m.beta) > 0.05:
            return m


def check_o4_roots(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(50):
        m = _random_o4(rng)
        roots = [m.alpha, -1.0 / np.conjugate(m.alpha),
                 m.beta, -1.0 / np.conjugate(m.beta)]
        for root in roots:
            worst = max(worst, abs(mp.o4_eval(m, root)) / m.rho)
    return _result(worst, 1e-10)


# --------------------------------------------------------------- taub_nut

def _random_tn_point(rng, p, r_lo=0.1, r_hi=100.0):
    r = rng.uniform(r_lo, r_hi)
    ang = rng.uniform(0.05, math.pi - 0.05)
    x = r * math.cos(ang)
    az = r * math.sin(ang) / 2.0
    phase = rng.uniform(0.0, 2.0 * math.pi)
    z = az * complex(math.cos(phase), math.sin(phase))
    return tn.tn_point_from_xz(x, z, p, im_u=rng.uniform(-3.0, 3.0))


def check_tn_monge_ampere(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(1000):
        p = tn.TNParams(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0))
        pt = _random_tn_point(rng, p)
        blk = tn.tn_metric_holo(pt, p)
        worst = max(worst, abs(blk.det() - 1.0))
        if not (blk.kuubar.real > 0 and blk.det().real > 0):
            return False, "positivity violated"
        worst = max(worst, abs(blk.kuzbar - np.conjugate(blk.kzubar)))
    return _result(worst, 1e-10)


def check_tn_pullback(rng) -> tuple[bool, str]:
    p = tn.TNParams(1.0, 1.0)
    worst = 0.0
    for _ in range(20):
        pt = tn.TNSphericalPoint(rng.uniform(0.3, 10.0),
                                 rng.uniform(0.2, math.pi - 0.2),
                                 rng.uniform(0.0, 2.0 * math.pi),
                                 rng.uniform(0.0, 4.0 * math.pi))
        g1 = tn.tn_metric_spherical(pt, p)
        g2 = tn.tn_metric_spherical_from_holo(pt, p)
        worst = max(worst, float(np.max(np.abs(g1 - g2))))
    return _result(worst, 1e-8)


def check_tn_chart_roundtrip(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(50):
        p = tn.TNParams(rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.0))
        sph = tn.TNSphericalPoint(rng.uniform(0.2, 20.0),
                                  rng.uniform(0.1, math.pi - 0.1),
                                  rng.uniform(0.0, 2.0 * math.pi),
                                  rng.uniform(0.0, 4.0 * math.pi))
        holo = tn.tn_chart_spherical_to_holo(sph, p)
        back = tn.tn_chart_holo_to_spherical(holo, p)
        worst = max(worst, abs(back.r - sph.r) / sph.r, abs(back.theta - sph.theta),
                    abs(back.phi - sph.phi), abs(back.psi - sph.psi))
        x = tn.tn_solve_x(holo.u.real, abs(holo.z), p)
        worst = max(worst, abs(x - holo.x) / max(1.0, abs(holo.x)))
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

def random_ah_point(rng, p: ah.AHParams, y_guard: float = 1e-3):
    """Regular spherical point: |y_pm| above the guard, x_pm clear of the cut ends."""
    for _ in range(500):
        pt = ah.AHSphericalPoint(rng.uniform(0.15, 0.85),
                                 rng.uniform(0.25, math.pi - 0.25),
                                 rng.uniform(0.0, 2.0 * math.pi),
                                 rng.uniform(0.05, 0.5 * math.pi - 0.05))
        try:
            state = ah.ah_from_spherical(pt, p, y_guard=y_guard)
        except SlagForgeError:
            continue
        if state.Aplus is None:
            continue
        d = state.elliptic
        span = d.e2 - d.e3
        if (state.xminus - d.e3 > 1e-4 * span and d.e2 - state.xminus > 1e-4 * span
                and state.xplus - d.e2 > 1e-4 * span):
            return pt, state
    raise RuntimeError("could not sample a regular Atiyah-Hitchin point")


def check_ah_monge_ampere(rng) -> tuple[bool, str]:
    p = ah.AHParams(1.0, 1)
    worst_det = worst_herm = 0.0
    for _ in range(500):
        _, state = random_ah_point(rng, p)
        blk = ah.ah_metric_UZ(state, p)
        worst_det = max(worst_det, abs(blk.det() - 1.0))
        worst_herm = max(worst_herm, abs(blk.kUZbar - np.conjugate(blk.kZUbar))
                         / max(1.0, abs(blk.kUZbar)))
        if not (blk.kUUbar.real > 0 and blk.kZZbar.real > 0
                and (blk.kUUbar * blk.kZZbar
                     - abs(blk.kUZbar) ** 2).real > 0):
            return False, "positivity violated"
    ok = worst_det <= 1e-8 and worst_herm <= 1e-10
    return ok, f"det_err={worst_det:.3e} herm_err={worst_herm:.3e} tol=1e-8/1e-10"


def check_ah_xz_identities(rng) -> tuple[bool, str]:
    p = ah.AHParams(1.0, 1)
    worst = 0.0
    for _ in range(100):
        _, state = random_ah_point(rng, p)
        d = state.elliptic
        scale = d.rho
        worst = max(worst, abs(state.xplus - state.xminus - 4.0 * abs(state.z)) / scale)
        worst = max(worst, abs(state.x - 1.5 * (state.xplus + state.xminus)) / scale)
        for xv, yv in ((state.xplus, state.yplus), (state.xminus, state.yminus)):
            cubic = 4.0 * xv**3 - d.g2 * xv - d.g3
            worst = max(worst, abs(complex(yv) ** 2 - cubic) / scale**3)
    return _result(worst, 1e-12)


def check_ah_pi_typing(rng) -> tuple[bool, str]:
    p = ah.AHParams(1.0, 1)
    worst = 0.0
    for _ in range(100):
        _, state = random_ah_point(rng, p)
        pi_p, pi_m = ah.ah_pi_xpm(state)
        if abs(pi_p) > 0:
            worst = max(worst, abs(pi_p.real) / abs(pi_p))
        worst = max(worst, abs(complex(pi_m).imag) / max(1.0, abs(pi_m)))
    return _result(worst, 1e-10)


def check_ah_dpi_fd(rng) -> tuple[bool, str]:
    """d pi(x_pm) = 4 A_pm dx_pm - 8 B_pm d eta1 against finite differences."""
    p = ah.AHParams(1.0, 1)
    step = 1e-5
    worst = 0.0
    for _ in range(20):
        pt, state = random_ah_point(rng, p)
        for coord in ("theta", "psi", "k"):
            vals = {"k": pt.k, "theta": pt.theta, "phi": pt.phi, "psi": pt.psi}
            up, dn = dict(vals), dict(vals)
            up[coord] += step
            dn[coord] -= step
            s_up = ah.ah_from_spherical(ah.AHSphericalPoint(**up), p)
            s_dn = ah.ah_from_spherical(ah.AHSphericalPoint(**dn), p)
            pp_u, pm_u = ah.ah_pi_xpm(s_up, tol=1e-12)
            pp_d, pm_d = ah.ah_pi_xpm(s_dn, tol=1e-12)
            deta = s_up.elliptic.eta1 - s_dn.elliptic.eta1
            for (pi_u, pi_d, A, B, x_u, x_d) in (
                    (pp_u, pp_d, state.Aplus, state.Bplus, s_up.xplus, s_dn.xplus),
                    (pm_u, pm_d, state.Aminus, state.Bminus, s_up.xminus, s_dn.xminus)):
                dpi = (pi_u - pi_d) / (2.0 * step)
                rhs = (4.0 * A * (x_u - x_d) - 8.0 * B * deta) / (2.0 * step)
                worst = max(worst, abs(dpi - rhs) / max(1.0, abs(dpi)))
    return _result(worst, 1e-4)


def check_ah_h_constraint(rng) -> tuple[bool, str]:
    worst = 0.0
    for h in (0.5, 1.0, 2.0):
        p = ah.AHParams(h, 1)
        for k in (0.2, 0.5, 0.8):
            worst = max(worst, ah.ah_check_h_constraint(p, k))
    return _result(worst, 1e-14)


# -------------------------------------------------------------- moment maps

def check_hamiltonicity_tn_u1(rng) -> tuple[bool, str]:
    action = mm.ActionSpec("TaubNUT", "U1_triholo")
    worst = 0.0
    for _ in range(100):
        p = tn.TNParams(rng.uniform(0.5, 2.0), rng.uniform(0.1, 2.0))
        pt = _random_tn_point(rng, p, 0.3, 20.0)
        worst = max(worst, mm.verify_hamiltonian(action, pt, p))
    return _result(worst, 1e-5)


def check_hamiltonicity_tn_so2(rng) -> tuple[bool, str]:
    action = mm.ActionSpec("TaubNUT", "SO2_rot")
    worst = 0.0
    for _ in range(100):
        p = tn.TNParams(rng.uniform(0.5, 2.0), rng.uniform(0.1, 2.0))
        pt = _random_tn_point(rng, p, 0.3, 20.0)
        worst = max(worst, mm.verify_hamiltonian(action, pt, p))
    return _result(worst, 1e-5)


def check_hamiltonicity_ah(rng, n_points: int = 100) -> tuple[bool, str]:
    p = ah.AHParams(1.0, 1)
    worst = 0.0
    for _ in range(n_points):
        pt, _ = random_ah_point(rng, p, y_guard=3e-3)
        worst = max(worst, mm.verify_hamiltonian_ah(pt, p))
    return _result(worst, 1e-4)


def check_orbit_constancy(rng) -> tuple[bool, str]:
    worst = 0.0
    p = tn.TNParams(1.0, 1.0)
    for action_name in ("U1_triholo", "SO2_rot"):
        action = mm.ActionSpec("TaubNUT", action_name)
        pt = _random_tn_point(rng, p, 0.5, 10.0)
        q0 = np.array([pt.u.real, pt.u.imag, pt.z.real, pt.z.imag])

        def field(q, a=action):
            return a.field(complex(q[0], q[1]), complex(q[2], q[3]))

        path = mm.rk4_orbit(field, q0, 1.0, 2000)
        mus = []
        for q in path[:: len(path) // 20]:
            point = tn.tn_point_from_uz(complex(q[0], q[1]), complex(q[2], q[3]), p)
            mus.append(mm.moment_tn_u1(point) if action_name == "U1_triholo"
                       else mm.moment_tn_so2(point, p))
        worst = max(worst, float(np.max(mus) - np.min(mus)))
    # Atiyah-Hitchin: the orbit is the phi-circle; check the pushforward and mu
    pa = ah.AHParams(1.0, 1)
    pt, state0 = random_ah_point(rng, pa)
    dphi = 1e-5
    up = ah.ah_from_spherical(ah.AHSphericalPoint(pt.k, pt.theta, pt.phi + dphi,
                                                  pt.psi), pa)
    dn = ah.ah_from_spherical(ah.AHSphericalPoint(pt.k, pt.theta, pt.phi - dphi,
                                                  pt.psi), pa)
    _, U_u, Z_u = ah.ah_u_coordinate(up, pa, tol=1e-12)
    _, U_d, Z_d = ah.ah_u_coordinate(dn, pa, tol=1e-12)
    _, U0, Z0 = ah.ah_u_coordinate(state0, pa, tol=1e-12)
    dU = (U_u - U_d) / (2.0 * dphi)
    dZ = (Z_u - Z_d) / (2.0 * dphi)
    gen_err = max(abs(dU), abs(dZ - 1j * Z0))
    mus = [mm.moment_ah_so2(ah.ah_from_spherical(
        ah.AHSphericalPoint(pt.k, pt.theta, (pt.phi + s) % (2.0 * math.pi), pt.psi),
        pa)) for s in np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False)]
    worst = max(worst, float(np.max(mus) - np.min(mus)))
    ok = worst <= 1e-8 and gen_err <= 1e-6 * max(1.0, abs(Z0))
    return ok, f"mu_span={worst:.3e} gen_err={gen_err:.3e} tol=1e-8"


def check_lie_derivative(rng) -> tuple[bool, str]:
    """d(iota_X omega) = 0 by second differences for both Taub-NUT actions."""
    p = tn.TNParams(1.0, 1.0)
    worst = 0.0
    for action_name in ("U1_triholo", "SO2_rot"):
        action = mm.ActionSpec("TaubNUT", action_name)
        for _ in range(5):
            pt = _random_tn_point(rng, p, 1.0, 10.0)
            q0 = np.array([pt.u.real, pt.u.imag, pt.z.real, pt.z.imag])

            def sigma(q):
                point = tn.tn_point_from_uz(complex(q[0], q[1]),
                                            complex(q[2], q[3]), p)
                blk = tn.tn_metric_holo(point, p)
                return mm._iota_omega(action, blk, point.u, point.z)

            h = 1e-4
            for a in range(4):
                for b in range(a + 1, 4):
                    qa_p, qa_m = q0.copy(), q0.copy()
                    qa_p[a] += h
                    qa_m[a] -= h
                    qb_p, qb_m = q0.copy(), q0.copy()
                    qb_p[b] += h
                    qb_m[b] -= h
                    d_ab = (sigma(qa_p)[b] - sigma(qa_m)[b]) / (2 * h) \
                        - (sigma(qb_p)[a] - sigma(qb_m)[a]) / (2 * h)
                    worst = max(worst, abs(d_ab))
    return _result(worst, 1e-3)


def check_so3_equivariance(rng) -> tuple[bool, str]:
    worst = 0.0
    assert np.allclose(mm.so3_cotangent_moment([1, 0, 0], [0, 1, 0]), [0, 0, 1])
    for _ in range(20):
        q = rng.normal(size=3)
        p_vec = rng.normal(size=3)
        # random rotation via QR of a Gaussian matrix
        mat, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(mat) < 0:
            mat[:, 0] = -mat[:, 0]
        lhs = mm.so3_cotangent_moment(mat @ q, mat @ p_vec)
        rhs = mat @ mm.so3_cotangent_moment(q, p_vec)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return _result(worst, 1e-12)


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
        trace.residuals = res
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
    polys = sc.trace_zero_set(grid, tol=1e-10)
    if not polys:
        return False, "no implicit curve found"
    cell = max((rect[1] - rect[0]) / 128, (rect[3] - rect[2]) / 128)
    plus, minus = sc.tn_u1_case1(c1, c2, r_range=(r0 + 1e-3, 8.0), n=600)
    ref = np.vstack([np.column_stack([tr.cols["phi"], tr.cols["r"]])
                     for tr in (plus, minus)])
    worst = 0.0
    for poly in polys:
        for pt in poly:
            worst = max(worst, float(np.min(np.hypot(ref[:, 0] - pt[0],
                                                     ref[:, 1] - pt[1]))))
    return _result(worst, 2.0 * cell, label="hausdorff")


def check_slag_ah_zero_set(rng) -> tuple[bool, str]:
    """Condition zero set == {Im z = 0, Re z <= 0}, both inclusions.

    Forward: at phi* = pi/2 - arg(w)/2 (mod pi) the coordinate z is negative
    real and the condition residual must vanish.  Converse: every phi-root of
    the condition found by scan+bisection must land on z in R_{<=0}.
    """
    k, c1, h = 0.5, 0.0, 1.0
    worst_f = worst_conv = 0.0
    count = 0
    for th in np.linspace(0.3, math.pi - 0.3, 40):
        try:
            c2p = sc.ah_cos2psi(th, k, c1, h)
        except (OutOfRangeError, ChartError):
            continue
        psi = 0.5 * math.acos(c2p)
        z0, _, _ = ah.ah_zvx_from_spherical(k, th, 0.0, psi, h)
        # z(phi) = e^{2 i phi} z0: negative real at phi* = (pi - arg z0)/2
        for branch in (0, 1):
            phi_star = ((math.pi - np.angle(z0)) / 2.0 + branch * math.pi) \
                % (2.0 * math.pi)
            f = sc.ah_condition(th, phi_star, k, c1, h, sign=1)
            z, _, _ = ah.ah_zvx_from_spherical(k, th, phi_star, psi, h)
            assert z.real <= 0 and abs(z.imag) <= 1e-9 * abs(z)
            worst_f = max(worst_f, abs(f) / max(1.0, abs(z0)) ** 0.5)
            count += 1
        # converse: scan the condition for sign changes and test z there
        phis = np.linspace(0.0, 2.0 * math.pi, 257)
        vals = np.array([sc.ah_condition(th, p_, k, c1, h, sign=1) for p_ in phis])
        for i in range(len(phis) - 1):
            if (vals[i] > 0) != (vals[i + 1] > 0):
                a, b = phis[i], phis[i + 1]
                fa = vals[i]
                for _ in range(60):
                    mid = 0.5 * (a + b)
                    fm = sc.ah_condition(th, mid, k, c1, h, sign=1)
                    if (fa > 0) != (fm > 0):
                        b = mid
                    else:
                        a, fa = mid, fm
                root = 0.5 * (a + b)
                z, _, _ = ah.ah_zvx_from_spherical(k, th, root, psi, h)
                worst_conv = max(worst_conv, abs(z.imag) / abs(z),
                                 max(z.real, 0.0) / abs(z))
    if count == 0:
        return False, "locus not sampled"
    ok = worst_f <= 1e-7 and worst_conv <= 1e-7
    return ok, (f"forward_resid={worst_f:.3e} converse_resid={worst_conv:.3e} "
                f"tol=1e-7 ({count} locus pts)")


def check_slag_ah_traces(rng) -> tuple[bool, str]:
    """omega, mu and Im Omega residuals at 1e-4; fails by a documented defect.

    The traced families satisfy the moment level set and Re Z = 0, but the
    phase of Omega(v1, v2) drifts along them, so the calibration-phase
    residual Im(Omega(v1, v2)) is O(1): this check reports it honestly.
    omega vanishes on mu = c1 up to the finite-difference tangent error,
    ~1.2e-3 on these two 32-sample traces, so it is above 1e-4 as well.
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
                f"(documented defect: im_omega is O(1); omega is the "
                f"finite-difference tangent error)")


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

def oracle_fxx(rng, samples: int = 50) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(samples):
        m = _random_o2(rng)
        h = rng.uniform(0.5, 2.0)
        mc = rng.uniform(0.1, 2.0)
        fxx = mp.tn_Fxx_contour_oracle(m, h, mc)
        target = -2.0 * (1.0 / h + 2.0 * mc / m.r)
        worst = max(worst, abs(fxx - target) / abs(target))
    return _result(worst, 1e-5, label="rel_err")


def oracle_ah_i0(rng, samples: int = 50) -> tuple[bool, str]:
    from .elliptic import elliptic_data as make
    worst = 0.0
    for _ in range(samples):
        m4 = _random_o4(rng)
        data = make(mp.o4_modulus(m4), m4.rho)
        val = mp.ah_In_contour_oracle(data, m4, 0)
        target = 2.0 * data.omega1
        worst = max(worst, abs(val - target) / abs(target))
    return _result(worst, 1e-8, label="rel_err")


def oracle_ah_i1_i2(rng, samples: int = 10) -> tuple[bool, str]:
    from .atiyah_hitchin import pi_pair_from_zvx
    from .elliptic import elliptic_data as make
    worst = 0.0
    n_done = 0
    while n_done < samples:
        m4 = _random_o4(rng)
        data = make(mp.o4_modulus(m4), m4.rho)
        try:
            pi_p, pi_m = pi_pair_from_zvx(m4.z, m4.v, m4.x, data, tol=1e-12)
            i1 = mp.ah_In_contour_oracle(data, m4, 1, tol=1e-12)
            i2 = mp.ah_In_contour_oracle(data, m4, 2, tol=1e-12)
        except SlagForgeError:
            continue
        base1 = (pi_p + pi_m) / (4.0 * np.sqrt(complex(m4.z)))
        a1, r1 = mp.best_branch_integer(i1, base1, m4.z)
        cf2 = mp.ah_I2_closed_form(m4.z, m4.v, m4.x, data, pi_p, pi_m, a1)
        r2 = abs(i2 - cf2)
        scale = max(1.0, abs(i1), abs(i2))
        worst = max(worst, r1 / scale, r2 / scale)
        n_done += 1
    return _result(worst, 1e-7, label="rel_err")


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

ORACLE_CHECKS = {
    "fxx-contour": (oracle_fxx, "tn"),
    "ah-i0": (oracle_ah_i0, "ah"),
    "ah-i1-i2-closed": (oracle_ah_i1_i2, "ah"),
    "eta1-pair": (lambda rng, samples=20: check_eta1_pair(rng), "ah"),
    "pi-typing": (lambda rng, samples=100: check_ah_pi_typing(rng), "ah"),
}
