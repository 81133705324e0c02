"""O(2) and O(4) twistor multiplets and the contour-integral oracles.

An O(2j) multiplet is a Laurent polynomial eta(zeta) on the twistor sphere
obeying the reality condition eta(-1/conj(zeta)) = conj(eta(zeta)).  The
contour oracles here evaluate the defining integrals of the construction
numerically (trapezoid loops in the zeta-plane, branch-cut quadratures in
the Weierstrass X-plane) so the closed-form metric data can be checked
against them without sharing any code path.  o2_eval and o4_eval take a
scalar zeta or an array of them.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import EllipticData, quad_periodic
# unused here: bench/tracing.py wraps it by name, tests/test_bench_bindings.py checks it
from .elliptic import quad_adaptive  # noqa: F401
from .errors import (ContourCollisionError, ConvergenceError, DegenerateError, DomainError,
                     PoleError)
from .masks import mask_any


@dataclass(frozen=True)
class O2Multiplet:
    """eta(zeta) = conj(z)/zeta + x - z zeta."""

    z: complex
    x: float

    @property
    def r(self) -> float:
        return math.sqrt(self.x * self.x + 4.0 * abs(self.z) ** 2)


def o2_eval(m: O2Multiplet, zeta: complex) -> complex:
    if mask_any(zeta == 0):
        raise PoleError("o2_eval: zeta = 0 is a pole of the multiplet")
    return np.conjugate(m.z) / zeta + m.x - m.z * zeta


def o2_roots(m: O2Multiplet) -> tuple[complex, complex]:
    """Roots zeta_pm = (x pm r) / (2z) of eta(zeta) = 0."""
    if m.z == 0:
        raise DegenerateError("o2_roots: z = 0 degenerates the quadratic")
    r = m.r
    return (m.x + r) / (2.0 * m.z), (m.x - r) / (2.0 * m.z)


@dataclass(frozen=True)
class O4Multiplet:
    """eta(zeta) = conj(z)/zeta^2 + conj(v)/zeta + x - v zeta + z zeta^2."""

    z: complex
    v: complex
    x: float
    alpha: complex
    beta: complex
    rho: float


def o4_from_roots(alpha: complex, beta: complex, rho: float) -> O4Multiplet:
    """Build the multiplet whose roots are alpha, -1/conj(alpha), beta, -1/conj(beta)."""
    if rho <= 0:
        raise DomainError(f"o4_from_roots requires rho > 0, got {rho!r}")
    ab, bb = np.conjugate(alpha), np.conjugate(beta)
    norm = (1.0 + abs(alpha) ** 2) * (1.0 + abs(beta) ** 2)
    z = rho * ab * bb / norm
    v = -rho * (ab + bb - abs(alpha) ** 2 * bb - ab * abs(beta) ** 2) / norm
    x = rho * (-ab * beta - alpha * bb + (1.0 - abs(alpha) ** 2) * (1.0 - abs(beta) ** 2)) / norm
    return O4Multiplet(complex(z), complex(v), float(np.real(x)), complex(alpha),
                       complex(beta), float(rho))


def o4_eval(m: O4Multiplet, zeta: complex) -> complex:
    if mask_any(zeta == 0):
        raise PoleError("o4_eval: zeta = 0 is a pole of the multiplet")
    return (np.conjugate(m.z) / zeta**2 + np.conjugate(m.v) / zeta + m.x
            - m.v * zeta + m.z * zeta**2)


def o4_modulus(m: O4Multiplet) -> float:
    """Elliptic modulus k = |1 + conj(alpha) beta| / sqrt((1+|a|^2)(1+|b|^2))."""
    num = abs(1.0 + np.conjugate(m.alpha) * m.beta)
    den = math.sqrt((1.0 + abs(m.alpha) ** 2) * (1.0 + abs(m.beta) ** 2))
    return num / den


# trapezoid nodes on the unit circle (eta^2 is a Laurent polynomial of degree
# 2, so any count above 4 is exact); the first and the largest node count of
# the log-term loop, and the relative gap between the F_xx of the loop's
# even-indexed half and of the whole loop that stops its doubling; the
# second-difference step in x as a share of r
_FXX_NODES_CIRCLE = 64
_FXX_NODES_LOOP = 1024
_FXX_NODES_LOOP_MAX = 8192
_FXX_HALF_GAP = 5e-6
_FXX_STEP_REL = 1e-4


class FxxValue(float):
    """An F_xx value of tn_Fxx_contour_oracle with the loop nodes it took."""

    __slots__ = ("loop_nodes",)

    def __new__(cls, value: float, loop_nodes: int):
        self = super().__new__(cls, value)
        self.loop_nodes = loop_nodes
        return self


def tn_Fxx_contour_oracle(m: O2Multiplet, h: float, mcharge: float) -> float:
    """F_xx by second central differences of the contour-integral F-function.

    F(x) is the unit-circle trapezoid of the quadratic term plus the log term
    integrated along a closed ellipse around the cut [0, zeta_-], doubled
    with its reality image.  F at x + step, x and x - step is one (3, N)
    array pass on one circle and one loop: the ellipse that x builds, which
    encloses the three cuts and keeps zeta_+ outside, so the loop's
    discretization errors cancel in the second difference.  The log branch
    is continued along each row by np.unwrap.  The loop starts at
    _FXX_NODES_LOOP nodes and doubles while the F_xx of its even-indexed
    half differs from the full one by more than _FXX_HALF_GAP relative; the
    loop clearance pinches as x -> -r, and an input still unconverged at
    _FXX_NODES_LOOP_MAX raises ConvergenceError.  The value is an FxxValue,
    a float whose loop_nodes is the node count it took.  For the Taub-NUT
    F-function this must reproduce F_xx = -2(1/h + 2 mcharge / r).
    """
    if m.z == 0 or m.r == 0:
        raise DegenerateError("tn_Fxx_contour_oracle: z = 0 or r = 0")
    zp, zm = o2_roots(m)
    if abs(zp - zm) < 1e-6:
        raise ContourCollisionError(
            f"roots too close: |zeta_+ - zeta_-| = {abs(zp - zm):.3e}")
    z, zb = m.z, np.conjugate(m.z)
    step = _FXX_STEP_REL * m.r
    xs = np.array([[m.x + step], [m.x], [m.x - step]])
    zeta = _trig_nodes(_FXX_NODES_CIRCLE)[0]
    eta = zb / zeta + xs - z * zeta
    # Gamma_0 term: -(1/(2 pi i h)) oint (dzeta/zeta) eta^2, dzeta/zeta = i dth
    f_quad = -np.real(np.sum(eta * eta, axis=1)) / (h * _FXX_NODES_CIRCLE)
    # ellipse around the segment [0, zeta_-]; overshoot and transverse width
    # bounded by the distance to zeta_+ (which sits on the opposite ray)
    pad = min(0.2 * abs(zm), 0.45 * abs(zp))
    u_hat = zm / abs(zm)
    a_ax, b_ax = 0.5 * abs(zm) + pad, pad
    n = _FXX_NODES_LOOP
    while True:
        _, cos_th, sin_th = _trig_nodes(n)
        loop = 0.5 * zm + (a_ax * cos_th + 1j * b_ax * sin_th) * u_hat
        dlog = (-a_ax * sin_th + 1j * b_ax * cos_th) * u_hat / loop
        eta_l = zb / loop + xs - z * loop
        log_eta = np.log(np.abs(eta_l)) + 1j * np.unwrap(np.angle(eta_l), axis=1)
        terms = eta_l * log_eta * dlog
        # (1/(2 pi i)) oint eta log(eta) dzeta/zeta is -i times the mean of the
        # terms, and the loop with its reality image gives -4 mcharge Re of it;
        # row 0 from the whole loop, row 1 from its even-indexed half
        f = f_quad - 4.0 * mcharge * np.imag([np.mean(terms, axis=1),
                                              np.mean(terms[:, ::2], axis=1)])
        full, half = (f[:, 0] - 2.0 * f[:, 1] + f[:, 2]) / (step * step)
        if abs(full - half) <= _FXX_HALF_GAP * abs(full):
            return FxxValue(full, n)
        if n >= _FXX_NODES_LOOP_MAX:
            raise ConvergenceError(
                f"tn_Fxx_contour_oracle: half-node gap {abs(full - half):.3e} "
                f"of F_xx = {full:.6e} at {n} loop nodes")
        n *= 2


@functools.lru_cache(maxsize=8)
def _trig_nodes(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(i th), cos th and sin th on n equispaced nodes th in [0, 2 pi), read-only.

    Shared by every oracle call with the same node count.
    """
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    nodes = (np.exp(1j * th), np.cos(th), np.sin(th))
    for arr in nodes:
        arr.setflags(write=False)
    return nodes


def ah_In_poles(data: EllipticData, alpha, beta):
    """(X0, Xinf) of multiplets with roots alpha, beta; PoleError where an Xinf is on the cut."""
    cross = (1.0 + np.conjugate(alpha) * beta) / (1.0 + np.abs(alpha) ** 2)
    Xinf = data.e3 + data.rho * cross
    pad = 1e-9 * (data.e2 - data.e3)
    cut = (np.abs(Xinf.imag) < pad) & (data.e3 - pad <= Xinf.real) & (Xinf.real <= data.e2 + pad)
    if mask_any(cut):
        raise PoleError(f"ah_In_contour_oracle: X_inf = {Xinf!r} lies on the cut")
    return data.e3 + data.rho * (alpha / beta) * cross, Xinf


def ah_In_contour_oracle(data: EllipticData, alpha, beta):
    """I_n(Gamma_m) = oint (beta (X - X0)/(X - Xinf))^n dX/Y over the [e3,e2] cut, n = 0, 1, 2.

    Twice the integral along the cut with the positive real branch of Y,
    after the sin^2 substitution, for multiplets with roots alpha, beta on
    their curves (arrays, and an array EllipticData), in one quad_periodic
    pass.  There dX/Y = V dt with V = (e1 - X)^(-1/2); with d = X - Xinf and
    w = beta + c/d, I_n sums the integrals of V, V/d and V/d^2, which the
    kernel takes less their pole parts V(Xinf)/d and V(Xinf)/d^2 +
    V'(Xinf)/d.  Those integrate in closed form, so the kernel converges
    however near the cut Xinf lies.  Returns I_0..I_2, shape (3, samples),
    and the nodes each sample took; I_0 must give 2 omega1.
    """
    if mask_any(data.delta == 0):
        raise DomainError("ah_In_contour_oracle: singular curve (delta = 0)")
    X0, Xinf = ah_In_poles(data, alpha, beta)
    c, lo, hi = beta * (Xinf - X0), data.e3 - Xinf, data.e2 - Xinf
    j1 = math.pi / (2.0 * lo * np.sqrt(hi / lo))                  # int_0^{pi/2} dt / d
    rho, span, s = np.broadcast_arrays(*(np.atleast_1d(v) for v in (
        data.rho, data.e2 - data.e3, np.sqrt(data.e1 - Xinf))))    # 1/V(Xinf), Re s >= 0

    def g(i, s2):
        r = np.sqrt(rho[i] - span[i] * s2)                           # 1 / V, > 0
        p = 1.0 / (r * s[i] * (r + s[i]))                            # (V - V(Xinf)) / d
        q = p * (2.0 * s[i] + r) / (2.0 * s[i] ** 2 * (r + s[i]))    # (p - V'(Xinf)) / d
        return np.stack([1.0 / r + 0j, p, q])

    (v0, v1, v2), nodes = quad_periodic(g, rho.size)
    # add the pole parts back: int dt/d^2 = j1 (lo + hi) / (2 lo hi), V' = V^3 / 2
    v1, v2 = v1 + j1 / s, v2 + j1 * (lo + hi) / (2.0 * lo * hi * s) + j1 / (2.0 * s ** 3)
    i1 = beta * v0 + c * v1
    return 2.0 * np.array([v0, i1, beta * (i1 + c * v1) + c * c * v2]), nodes


def ah_I1_closed_form(z: complex, pi_plus: complex, pi_minus: float,
                      a_int: int) -> complex:
    """Closed form I_1(Gamma_m) = (pi(x+) + pi(x-) + 2 a pi i) / (4 sqrt(z))."""
    return (pi_plus + pi_minus + 2.0 * a_int * math.pi * 1j) / (4.0 * cmath.sqrt(z))


def ah_I2_closed_form(z: complex, v: complex, x: float, data: EllipticData,
                      pi_plus: complex, pi_minus: float, a_int: int) -> complex:
    """Closed form I_2(Gamma_m) built from eta1, omega1 and pi(x_pm)."""
    bracket = pi_plus + pi_minus + 2.0 * a_int * math.pi * 1j
    return -(1.0 / z) * (data.eta1 + data.omega1 * x / 3.0
                         - (v / (8.0 * cmath.sqrt(z))) * bracket)


def best_branch_integer(value: complex, z: complex, pi_plus: complex,
                        pi_minus: float) -> tuple[int, float]:
    """Pick the integer a in [-4, 4] minimizing |value - ah_I1_closed_form(z, pi_pm, a)|.

    Returns (a, residual).  The construction only proves existence of the
    integer, so oracles report the minimizing choice.
    """
    best_a, best_res = 0, math.inf
    for a in range(-4, 5):
        res = abs(value - ah_I1_closed_form(z, pi_plus, pi_minus, a))
        if res < best_res:
            best_a, best_res = a, res
    return best_a, best_res
