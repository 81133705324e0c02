"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 5 is split into its Taub-NUT and Atiyah-Hitchin halves.  The
Atiyah-Hitchin half fails on the traced fixed-modulus curve families: they
satisfy the moment level set (mu residual ~ 1e-14) and the negative-real-axis
condition Re Z = 0, but the calibration residual Im Omega(v1, v2) is O(1)
(0.06-0.9 per trace) rather than < 1e-4.  The phase of Omega(v1, v2) drifts
by 0.9-3.0 rad along each fig8 curve, so no constant phase repairs it.  The
omega residual vanishes on mu = c1 up to the finite-difference tangent; it
is largest (~3e-2) at the one-sided ends of 9-sample runs, which also keeps
it above 1e-4.  The failure is reported honestly with the measured numbers;
see also tests/test_slag_curves.py::test_ah_traces_im_omega_defect_reproducible,
which pins the defect as a regression guard.
"""

import math
import time

import numpy as np
import pytest

from slag_forge import atiyah_hitchin as ah
from slag_forge import moment_maps as mm
from slag_forge import multiplets as mp
from slag_forge import presets
from slag_forge import slag_curves as sc
from slag_forge import taub_nut as tn
from slag_forge.elliptic import (elliptic_data, elliptic_E, elliptic_K,
                                 eta1_quadrature, weierstrass_p_half_periods)

from test_atiyah_hitchin import regular_point
from test_moment_maps import random_tn_point


def _report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{status}] {name}: {detail} "
          f"({elapsed:.1f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_monge_ampere():
    t0 = time.monotonic()
    rng = np.random.default_rng(100)
    worst_tn = 0.0
    for _ in range(1000):
        p = tn.TNParams(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0))
        blk = tn.tn_metric_holo(random_tn_point(rng, p, 0.1, 100.0), p)
        worst_tn = max(worst_tn, abs(blk.det() - 1.0))
    worst_ah = 0.0
    pa = ah.AHParams(1.0, 1)
    for _ in range(500):
        _, state = regular_point(rng, pa)
        worst_ah = max(worst_ah, abs(ah.ah_metric_UZ(state, pa).det() - 1.0))
    ok = worst_tn < 1e-10 and worst_ah < 1e-8
    _report(1, "Monge-Ampere determinants", ok,
            f"tn_max={worst_tn:.2e} (tol 1e-10, 1000 pts) "
            f"ah_max={worst_ah:.2e} (tol 1e-8, 500 pts)",
            time.monotonic() - t0, 10.0)


def test_criterion_2_taub_nut_closed_form():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    p = tn.TNParams(1.0, 1.0)
    worst = 0.0
    for _ in range(20):
        pt = tn.TNSphericalPoint(rng.uniform(0.3, 10.0),
                                 rng.uniform(0.2, math.pi - 0.2),
                                 rng.uniform(0, 2 * math.pi),
                                 rng.uniform(0, 4 * math.pi))
        diff = np.max(np.abs(tn.tn_metric_spherical(pt, p)
                             - tn.tn_metric_spherical_from_holo(pt, p)))
        worst = max(worst, float(diff))
    _report(2, "spherical closed form vs pullback", worst < 1e-8,
            f"max={worst:.2e} (tol 1e-8, 20 pts, h=1)",
            time.monotonic() - t0, 1.0)


def test_criterion_3_contour_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(102)
    worst_fxx = 0.0
    for _ in range(50):
        r = rng.uniform(0.5, 20.0)
        ang = rng.uniform(0.3, 2.7)
        z = r * math.sin(ang) / 2 * np.exp(1j * rng.uniform(0, 2 * math.pi))
        m2 = mp.O2Multiplet(complex(z), r * math.cos(ang))
        h = rng.uniform(0.5, 2.0)
        mc = rng.uniform(0.1, 2.0)
        target = -2.0 * (1.0 / h + 2.0 * mc / m2.r)
        worst_fxx = max(worst_fxx,
                        abs(mp.tn_Fxx_contour_oracle(m2, h, mc) - target)
                        / abs(target))
    worst_i0 = 0.0
    for _ in range(50):
        while True:
            m4 = mp.o4_from_roots(complex(rng.normal(), rng.normal()),
                                  complex(rng.normal(), rng.normal()),
                                  rng.uniform(0.5, 4.0))
            if abs(m4.z) > 0.05 * m4.rho and abs(m4.beta) > 0.05:
                break
        data = elliptic_data(mp.o4_modulus(m4), m4.rho)
        (val,), _, _ = mp.ah_In_contour_oracle(data, m4.alpha, m4.beta)[0]
        worst_i0 = max(worst_i0, abs(val - 2 * data.omega1) / (2 * data.omega1))
    worst_eta = 0.0
    for _ in range(20):
        d = elliptic_data(rng.uniform(0.05, 0.95), rng.uniform(0.2, 5.0))
        worst_eta = max(worst_eta, abs(eta1_quadrature(d) - d.eta1))
    worst_typ = 0.0
    pa = ah.AHParams(1.0, 1)
    for _ in range(100):
        _, state = regular_point(rng, pa)
        pi_p, pi_m = ah.ah_pi_xpm(state)
        if abs(pi_p) > 0:
            worst_typ = max(worst_typ, abs(pi_p.real) / abs(pi_p))
        worst_typ = max(worst_typ, abs(complex(pi_m).imag) / max(1.0, abs(pi_m)))
    ok = (worst_fxx < 1e-5 and worst_i0 < 1e-8 and worst_eta < 1e-9
          and worst_typ < 1e-10)
    _report(3, "contour-integral oracles", ok,
            f"Fxx_rel={worst_fxx:.2e} (1e-5) I0_rel={worst_i0:.2e} (1e-8) "
            f"eta1={worst_eta:.2e} (1e-9) pi_typing={worst_typ:.2e} (1e-10)",
            time.monotonic() - t0, 60.0)


def test_criterion_4_hamiltonicity():
    t0 = time.monotonic()
    rng = np.random.default_rng(103)
    worst_u1 = worst_so2 = 0.0
    for _ in range(100):
        p = tn.TNParams(rng.uniform(0.5, 2.0), rng.uniform(0.1, 2.0))
        pt = random_tn_point(rng, p)
        worst_u1 = max(worst_u1, mm.verify_hamiltonian_tn(
            mm.ActionSpec("TaubNUT", "U1_triholo"), pt, p))
        worst_so2 = max(worst_so2, mm.verify_hamiltonian_tn(
            mm.ActionSpec("TaubNUT", "SO2_rot"), pt, p))
    worst_ah = 0.0
    pa = ah.AHParams(1.0, 1)
    for _ in range(100):
        pt, _ = regular_point(rng, pa, y_guard=3e-3)
        worst_ah = max(worst_ah, mm.verify_hamiltonian_ah(pt, pa))
    ok = worst_u1 < 1e-5 and worst_so2 < 1e-5 and worst_ah < 1e-4
    _report(4, "iota_X omega = d mu", ok,
            f"tn_u1={worst_u1:.2e} tn_so2={worst_so2:.2e} (tol 1e-5) "
            f"ah={worst_ah:.2e} (tol 1e-4), 100 pts each",
            time.monotonic() - t0, 30.0)


def test_criterion_5_taub_nut_figures():
    t0 = time.monotonic()
    worst = 0.0
    n_traces = 0
    for name in ("fig5", "fig6", "fig7"):
        for _, manifold, trace, params in presets.preset_traces(name):
            res = sc.verify_slag(trace, manifold, params)
            worst = max(worst, res["omega_max"], res["im_omega_max"],
                        res["mu_max_dev"] / max(1.0, abs(res["mu_median"])))
            n_traces += 1
    asym = sc.tn_u1_case1(1.0, 0.5, r_range=(math.sqrt(2.0), 1000.0), n=2000)[0]
    gap = abs(asym.cols["phi"][-1] - math.pi / 2)
    ok = worst < 1e-5 and gap < 5e-3
    _report("5a", "figure families (Taub-NUT)", ok,
            f"{n_traces} traces, worst residual {worst:.2e} (tol 1e-5), "
            f"|phi(r=1e3)-pi/2|={gap:.2e} (tol 5e-3)",
            time.monotonic() - t0, 60.0)


def test_criterion_5_atiyah_hitchin_figures():
    t0 = time.monotonic()
    pa = ah.AHParams(1.0, 1)
    worst_mu = worst_om = worst_im = 0.0
    n_traces = 0
    for name in ("fig8", "fig9"):
        for _, manifold, trace, params in presets.preset_traces(name):
            res = sc.verify_slag(trace, manifold, params)
            worst_mu = max(worst_mu, res["mu_max_dev"]
                           / max(1.0, abs(res["mu_median"])))
            worst_om = max(worst_om, res["omega_max"])
            worst_im = max(worst_im, res["im_omega_max"])
            n_traces += 1
    elapsed = time.monotonic() - t0
    ok = worst_om < 1e-4 and worst_im < 1e-4 and worst_mu < 1e-6
    _report("5b", "figure families (Atiyah-Hitchin)", ok,
            f"{n_traces} traces: mu_rel={worst_mu:.2e} (passes 1e-6), "
            f"omega={worst_om:.2e} im_omega={worst_im:.2e} vs tol 1e-4 "
            "(documented defect: the phase of Omega(v1, v2) drifts along "
            "the fixed-k curves, so Im Omega is O(1); omega is the "
            "finite-difference tangent error, largest at the ends of short "
            "runs; see README, Expected test outcome)",
            elapsed, 120.0)


def test_criterion_6_negative_controls():
    t0 = time.monotonic()
    p = tn.TNParams(1.0, 1.0)
    base = sc.tn_u1_case1(1.0, 0.5, n=400)[0]
    good = sc.verify_slag(base, "tn", p)
    bad = sc.verify_slag(sc.perturb_phi(base, 0.1), "tn", p)
    ratio = bad["im_omega_max"] / max(good["im_omega_max"], 1e-300)
    base2 = sc.tn_so2_curve(3.0, p, branch="plane", n=400)[0]
    good2 = sc.verify_slag(base2, "tn", p)
    bad2 = sc.verify_slag(sc.perturb_phi(base2, 0.1), "tn", p)
    ratio2 = bad2["im_omega_max"] / max(good2["im_omega_max"], 1e-300)
    ok = ratio >= 1e3 and ratio2 >= 1e3 and bad["im_omega_max"] > 1e-2
    _report(6, "negative controls discriminate", ok,
            f"perturbed/clean ratios {ratio:.1e}, {ratio2:.1e} (>= 1e3)",
            time.monotonic() - t0, 10.0)


def test_criterion_7_special_functions():
    t0 = time.monotonic()
    worst_leg = 0.0
    for k in np.linspace(0.01, 0.95, 60):
        kp = math.sqrt(1 - k * k)
        val = (elliptic_E(k) * elliptic_K(kp) + elliptic_E(kp) * elliptic_K(k)
               - elliptic_K(k) * elliptic_K(kp))
        worst_leg = max(worst_leg, abs(val - math.pi / 2))
    rng = np.random.default_rng(104)
    worst_wp = 0.0
    for _ in range(50):
        data = elliptic_data(rng.uniform(0.1, 0.9), rng.uniform(0.3, 3.0))
        p1, p2, p3 = weierstrass_p_half_periods(data)
        worst_wp = max(worst_wp,
                       abs(p1 - data.e1) / data.rho,
                       abs(p2 - data.e2) / data.rho,
                       abs(p3 - data.e3) / data.rho)
    ok = worst_leg < 1e-12 and worst_wp < 1e-10
    _report(7, "special-function suite", ok,
            f"legendre={worst_leg:.2e} (1e-12) wp_half_periods={worst_wp:.2e} "
            f"(1e-10)", time.monotonic() - t0, 5.0)
