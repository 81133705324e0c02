"""Atiyah-Hitchin geometry: spherical chart, x/y-pair data, pi(x_pm), metric.

The spherical chart (k, theta, phi, psi) fixes the multiplet coordinates

    z = 2 h^2 e^{2 i phi} (cos 2psi (1+cos^2 th) + 2 i sin 2psi cos th
        + (2k^2-1) sin^2 th) K^2(k),
    v = 8 h^2 e^{i phi} sin th (sin 2psi - i cos 2psi cos th
        + i (2k^2-1) cos th) K^2(k),
    x = 4 h^2 (-3 cos 2psi sin^2 th + (2k^2-1)(1 - 3 cos^2 th)) K^2(k),

with curve scale rho = 16 h^2 K^2(k); the extremization constraint then
reads 1/h = 4 omega1 identically.  The h^2 factors keep the multiplet scale
consistent with rho for h != 1 (at h = 1 these are the standard formulas).

The abel-map image points (x_pm, y_pm) satisfy y_pm^2 = 4 x_pm^3 - g2 x_pm - g3
with x_- inside (e3, e2) and x_+ inside (e2, e1); pi(x_-) is therefore a
principal-value integral, handled by a symmetric pole window plus
sin^2-desingularized outer pieces.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import (EllipticData, elliptic_K, elliptic_K_vec, elliptic_data,
                       quad_adaptive)
from .errors import ChartError, DegenerateError, DomainError, PoleError


@dataclass(frozen=True)
class AHParams:
    """Scale h > 0 and the branch integer of the pi(X_inf) relation."""

    h: float = 1.0
    a_int: int = 1

    def __post_init__(self):
        if self.h <= 0:
            raise DomainError(f"AHParams requires h > 0, got {self.h!r}")


@dataclass(frozen=True)
class AHSphericalPoint:
    k: float
    theta: float
    phi: float
    psi: float

    def __post_init__(self):
        if not 0.0 < self.k < 1.0:
            raise DomainError(f"k must lie in (0, 1), got {self.k!r}")
        if not 0.0 <= self.theta <= math.pi:
            raise DomainError(f"theta must lie in [0, pi], got {self.theta!r}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise DomainError(f"phi must lie in [0, 2 pi), got {self.phi!r}")
        if not 0.0 <= self.psi < 4.0 * math.pi:
            raise DomainError(f"psi must lie in [0, 4 pi), got {self.psi!r}")


@dataclass(frozen=True)
class AHGeomState:
    """Multiplet coordinates plus everything derived from them at one point.

    The coefficient fields are None on the degenerate loci y_pm -> 0, where
    only the pi(x_pm) = 0 limit remains meaningful.
    """

    z: complex
    v: complex
    x: float
    sqrt_z: complex
    xplus: float
    xminus: float
    vplus: float
    vminus: float
    yplus: complex      # pure imaginary
    yminus: float
    Aplus: complex | None      # pure imaginary (y_+ imaginary forces it)
    Aminus: complex | None     # real-valued
    Bplus: complex | None      # pure imaginary
    Bminus: complex | None     # real-valued
    Vcap: float | None
    elliptic: EllipticData


@dataclass(frozen=True)
class AHMetricBlock:
    kUUbar: complex
    kUZbar: complex
    kZUbar: complex
    kZZbar: complex

    def det(self) -> complex:
        return self.kUUbar * self.kZZbar - self.kUZbar * self.kZUbar

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.kUUbar, self.kUZbar],
                         [self.kZUbar, self.kZZbar]])


def ah_zvx_from_spherical(k, theta, phi, psi, h: float):
    """Multiplet coordinates (z, v, x) of spherical chart points (scalars or arrays)."""
    K2 = (elliptic_K(float(k)) if np.ndim(k) == 0 else elliptic_K_vec(k)) ** 2
    st, ct = np.sin(theta), np.cos(theta)
    c2p, s2p = np.cos(2.0 * psi), np.sin(2.0 * psi)
    tk = 2.0 * k * k - 1.0
    scale = h * h
    w = c2p * (1.0 + ct * ct) + tk * st * st + 2j * s2p * ct
    z = 2.0 * scale * np.exp(2j * phi) * w * K2
    v = 8.0 * scale * np.exp(1j * phi) * st * (s2p - 1j * c2p * ct + 1j * tk * ct) * K2
    x = 4.0 * scale * (-3.0 * c2p * st * st + tk * (1.0 - 3.0 * ct * ct)) * K2
    # on the negative-real-axis locus the principal sqrt branch must not
    # dither with rounding noise; snap a vanishing imaginary part to +0
    z = np.where(np.abs(z.imag) < 1e-12 * np.abs(z), z.real, z)
    if z.ndim == 0:
        return complex(z), complex(v), float(x)
    return z, v, x


def ah_xy_from_zvx(z, v, x):
    """Abel-image data (x_+, x_-, v_+, v_-, y_+, y_-) of multiplet coordinates.

    x_pm = (x +- 6|z|)/3 and v_- + i v_+ = v / sqrt(z) on the principal
    branch, so y_+ = i v_+ (x_+ - x_-) is pure imaginary and
    y_- = v_- (x_- - x_+) real.  Scalars or arrays.
    """
    az = abs(z)
    xp = (x + 6.0 * az) / 3.0
    xm = (x - 6.0 * az) / 3.0
    ratio = v / np.sqrt(z)
    vp, vm = ratio.imag, ratio.real
    return xp, xm, vp, vm, 1j * vp * (xp - xm), vm * (xm - xp)


def ah_state_from_zvx(z: complex, v: complex, x: float, data: EllipticData,
                      y_guard: float = 1e-12) -> AHGeomState:
    """Assemble the derived point data from multiplet coordinates and curve data."""
    if z == 0:
        raise ChartError("sqrt(z)-based quantities degenerate at z = 0")
    xp, xm, vp, vm, yp, ym = ah_xy_from_zvx(z, v, x)
    xp, xm, vp, vm, ym = map(float, (xp, xm, vp, vm, ym))
    try:
        Ap, Am, Bp, Bm, Vcap = ah_coeffs_raw(xp, xm, yp, ym, data, y_guard)
    except DegenerateError:
        Ap = Am = Bp = Bm = Vcap = None
    return AHGeomState(z, v, x, cmath.sqrt(z), xp, xm, vp, vm, yp, ym,
                       Ap, Am, Bp, Bm, Vcap, data)


def ah_from_spherical(pt: AHSphericalPoint, p: AHParams,
                      y_guard: float = 1e-12) -> AHGeomState:
    """Chart map: spherical point -> geometric state (rho = 16 h^2 K^2)."""
    rho = 16.0 * p.h * p.h * elliptic_K(pt.k) ** 2
    data = elliptic_data(pt.k, rho)
    z, v, x = ah_zvx_from_spherical(pt.k, pt.theta, pt.phi, pt.psi, p.h)
    if abs(z) < 1e-12 * rho:
        raise ChartError("chart point has z = 0 (sqrt(z) quantities degenerate)")
    return ah_state_from_zvx(z, v, x, data, y_guard)


def ah_coeffs_raw(xp: float, xm: float, yp: complex, ym: float,
                  data: EllipticData, y_guard: float = 1e-12):
    """A_pm = (x_pm om1 + eta1)/y_pm, B_pm = (x_pm + V om1)/y_pm and the V ratio."""
    den = 12.0 * data.eta1**2 - data.g2 * data.omega1**2
    if den == 0:
        raise DegenerateError("ah_coeffs: 12 eta1^2 - g2 omega1^2 vanishes")
    Vcap = (-3.0 * data.g3 * data.omega1 + 2.0 * data.g2 * data.eta1) / den
    scale = data.rho ** 1.5
    if abs(yp) < y_guard * scale or abs(ym) < y_guard * scale:
        raise DegenerateError(
            f"ah_coeffs: y_pm too small (|y+|={abs(yp):.3e}, |y-|={abs(ym):.3e})")
    Ap = (xp * data.omega1 + data.eta1) / yp
    Am = (xm * data.omega1 + data.eta1) / ym
    Bp = (xp + Vcap * data.omega1) / yp
    Bm = (xm + Vcap * data.omega1) / ym
    return complex(Ap), complex(Am), complex(Bp), complex(Bm), float(Vcap)


def ah_coeffs(state: AHGeomState):
    """(A+, A-, B+, B-, Vcap) of a state; errors on the degenerate y_pm loci."""
    if state.Aplus is None:
        raise DegenerateError("ah_coeffs: state sits on a y_pm -> 0 locus")
    return (state.Aplus, state.Aminus, state.Bplus, state.Bminus, state.Vcap)


def pi_pair_from_zvx(z: complex, v: complex, x: float, data: EllipticData,
                     tol: float = 1e-10, endpoint_guard: float = 1e-9
                     ) -> tuple[complex, float]:
    """pi(x_+) in i R and pi(x_-) in R (principal value when x_- is inside the cut).

    pi(x_pm) = -2 int_{e3}^{e2} y_pm / ((X - x_pm) Y) dX.  x_+ must lie off
    the cut [e3, e2]; x_- generically lies inside it and the integral is
    taken in the principal-value sense.
    """
    xp, xm, vp, vm, yp, ym = ah_xy_from_zvx(z, v, x)
    e2, e3, rho = data.e2, data.e3, data.rho
    span = e2 - e3
    pad = endpoint_guard * span

    if vp == 0.0 and vm == 0.0:
        return 0j, 0.0

    # pi(x_+): x_+ off the cut
    if e3 - pad <= xp <= e2 + pad:
        raise PoleError(f"pi(x_+): x_+ = {xp!r} lies on the integration cut")
    k2 = span / rho
    sr = math.sqrt(rho)

    def gp(t):
        s2 = np.sin(t) ** 2
        X = e3 + span * s2
        return 1.0 / ((X - xp) * (sr * np.sqrt(1.0 - k2 * s2)))

    pi_plus = -2.0 * yp * quad_adaptive(gp, 0.0, math.pi / 2.0, tol)

    # pi(x_-)
    if xm < e3 - pad or xm > e2 + pad:
        def gm(t):
            s2 = np.sin(t) ** 2
            X = e3 + span * s2
            return 1.0 / ((X - xm) * (sr * np.sqrt(1.0 - k2 * s2)))

        pi_minus = -2.0 * ym * float(np.real(
            quad_adaptive(gm, 0.0, math.pi / 2.0, tol)))
        return pi_plus, pi_minus

    if min(xm - e3, e2 - xm) < pad:
        raise PoleError(
            f"pi(x_-): x_- = {xm!r} within {endpoint_guard} of a cut endpoint")
    pi_minus = -2.0 * ym * _pv_cut_integral(xm, data, tol)
    return pi_plus, pi_minus


def _pv_cut_integral(x0: float, data: EllipticData, tol: float) -> float:
    """Principal value of int_{e3}^{e2} dX / ((X - x0) Y) with x0 in (e3, e2)."""
    e1, e2, e3 = data.e1, data.e2, data.e3
    w = 0.5 * min(x0 - e3, e2 - x0)

    def Y(X):
        # factored form: no cancellation near the roots, stays >= 0 on the cut
        return 2.0 * np.sqrt((e1 - X) * (e2 - X) * (X - e3))

    # left piece [e3, x0-w]: sin^2 substitution with the vanishing factor
    # (X - e3) = span_l sin^2(t) cancelled analytically
    span_l = (x0 - w) - e3

    def gl(t):
        c = np.cos(t)
        X = e3 + span_l * np.sin(t) ** 2
        return math.sqrt(span_l) * c / ((X - x0) * np.sqrt((e1 - X) * (e2 - X)))

    # right piece [x0+w, e2]: likewise with (e2 - X) = span_r sin^2(t)
    span_r = e2 - (x0 + w)

    def gr(t):
        c = np.cos(t)
        X = e2 - span_r * np.sin(t) ** 2
        return math.sqrt(span_r) * c / ((X - x0) * np.sqrt((e1 - X) * (X - e3)))

    # symmetric window: PV int_{x0-w}^{x0+w} = int_0^w (1/Y(x0+s) - 1/Y(x0-s)) ds/s;
    # the difference quotient is expanded via Y+^2 - Y-^2 = 2s(12x0^2+4s^2-g2)
    # so no cancellation survives as s -> 0
    g2 = data.g2

    def gm(s):
        yp_ = Y(x0 + s)
        ym_ = Y(x0 - s)
        return -2.0 * (12.0 * x0 * x0 + 4.0 * s * s - g2) / ((yp_ + ym_) * yp_ * ym_)

    third = tol / 3.0
    val = (float(np.real(quad_adaptive(gl, 0.0, math.pi / 2.0, third)))
           + float(np.real(quad_adaptive(gr, 0.0, math.pi / 2.0, third)))
           + float(np.real(quad_adaptive(gm, 0.0, w, third))))
    return val


def ah_pi_xpm(state: AHGeomState, tol: float = 1e-10) -> tuple[complex, float]:
    """pi(x_pm) of a state; pi(x_+) pure imaginary, pi(x_-) real."""
    return pi_pair_from_zvx(state.z, state.v, state.x, state.elliptic, tol)


def ah_kahler_potential(state: AHGeomState) -> float:
    """K = -8 eta1 + 2 (x_+ + x_-) omega1."""
    d = state.elliptic
    return -8.0 * d.eta1 + 2.0 * (state.xplus + state.xminus) * d.omega1


def ah_u_coordinate(state: AHGeomState, p: AHParams,
                    tol: float = 1e-10) -> tuple[complex, complex, complex]:
    """u = -(pi(x+)+pi(x-))/(2 sqrt z) - pi i (a-1)/sqrt(z); returns (u, U, Z).

    U = u sqrt(z) and Z = 2 sqrt(z) with the principal branch stored in the
    state, so U Z = 2 u z holds identically.
    """
    pi_p, pi_m = ah_pi_xpm(state, tol)
    sq = state.sqrt_z
    u = -0.5 * (pi_p + pi_m) / sq - math.pi * 1j * (p.a_int - 1) / sq
    return u, u * sq, 2.0 * sq


def ah_metric_UZ(state: AHGeomState, p: AHParams) -> AHMetricBlock:
    """Metric block in (U, Z) coordinates; det = 1 by the K_UU closure."""
    Ap, Am, Bp, Bm, _ = ah_coeffs(state)
    den = Am * Bp - Ap * Bm
    if abs(den) < 1e-14:
        raise DegenerateError("ah_metric_UZ: A_- B_+ - A_+ B_- vanishes")
    om1 = state.elliptic.omega1
    Z = 2.0 * state.sqrt_z
    if Z == 0:
        raise ChartError("ah_metric_UZ: Z = 0")
    kZZ = -(2.0 * (Ap * Am) + 2.0 * (Am * Bp + Ap * Bm) * om1) / den
    kUZ = -(1.0 / (2.0 * np.conjugate(Z))) * (Am - Ap + 2.0 * (-Bp + Bm) * om1) / den
    kZU = (1.0 / (2.0 * Z)) * (Am + Ap + 2.0 * (Bp + Bm) * om1) / den
    kUU = (1.0 + kZU * kUZ) / kZZ
    return AHMetricBlock(complex(kUU), complex(kUZ), complex(kZU), complex(kZZ))


def ah_check_h_constraint(p: AHParams, k: float, tol: float = 1e-12) -> float:
    """|1/h - 4 omega1| for the chart's rho = 16 h^2 K^2; zero by construction."""
    rho = 16.0 * p.h * p.h * elliptic_K(k) ** 2
    om1 = elliptic_K(k) / math.sqrt(rho)
    return abs(1.0 / p.h - 4.0 * om1)
