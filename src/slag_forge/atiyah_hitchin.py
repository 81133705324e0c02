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
with x_- inside (e3, e2) and x_+ inside (e2, e1).  pi(x_pm) is the cut
integral -2 y_pm int_{e3}^{e2} dX / ((X - x_pm) Y), in closed form
-2 y_pm Pi(n, k) / ((e3 - x_pm) sqrt(rho)) with n = (e2 - e3)/(x_pm - e3);
for x_- inside the cut n > 1 and Pi is the Cauchy principal value.

The chart, state, pi, u coordinate and metric block take one point as
scalars or a batch as equal-length arrays (every field, the curve data and
each result then being arrays); scalar input gives scalars back.  A
degenerate sample in a batch raises for the whole batch.

The metric coefficients A_pm, B_pm blow up on the y_pm -> 0 loci and at
the cut ends.  The state does not carry them: ah_coeffs computes them from
the state where they are read, and raises DegenerateError under a fixed
floor |y_pm| < 1e-12 rho^{3/2}.  Whether a sample is clear of those loci by
a margin is the one rule ah_regular, which the trace sampler and the
check sampler both apply, each at its own y guard.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import (EllipticData, _check_curve, _curve_data, _elliptic_KE,
                       elliptic_Pi, elliptic_Pi_vec)
# unused here: bench/tracing.py wraps them by name, tests/test_bench_bindings.py checks them
from .elliptic import elliptic_data, elliptic_K, quad_adaptive  # noqa: F401
from .errors import ChartError, DegenerateError, DomainError, PoleError
from .masks import mask_all, mask_any
from .taub_nut import MetricBlock


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
        in_k = (0.0 < self.k) & (self.k < 1.0)
        in_theta = (0.0 <= self.theta) & (self.theta <= math.pi)
        in_phi = (0.0 <= self.phi) & (self.phi < 2.0 * math.pi)
        in_psi = (0.0 <= self.psi) & (self.psi < 4.0 * math.pi)
        if mask_all(in_k & in_theta & in_phi & in_psi):
            return
        if not mask_all(in_k):
            raise DomainError(f"k must lie in (0, 1), got {self.k!r}")
        if not mask_all(in_theta):
            raise DomainError(f"theta must lie in [0, pi], got {self.theta!r}")
        if not mask_all(in_phi):
            raise DomainError(f"phi must lie in [0, 2 pi), got {self.phi!r}")
        raise DomainError(f"psi must lie in [0, 4 pi), got {self.psi!r}")


@dataclass(frozen=True)
class AHGeomState:
    """Multiplet coordinates and their Abel-image data at a point or a batch.

    The coefficients A_pm, B_pm and V are not stored: ah_coeffs computes
    them where they are read, and raises on the y_pm -> 0 loci.
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
    elliptic: EllipticData


def ah_zvx_from_spherical(k, theta, phi, psi, h: float):
    """Multiplet coordinates (z, v, x) of spherical chart points (scalars or arrays)."""
    return _zvx(k, theta, phi, psi, h, _elliptic_KE(k)[0])


def _zvx(k, theta, phi, psi, h: float, K):
    """(z, v, x) of spherical chart points with K(k) already at hand."""
    K2 = K ** 2
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


def ah_state_from_zvx(z, v, x, data: EllipticData) -> AHGeomState:
    """Assemble the derived point data from multiplet coordinates and curve data."""
    if mask_any(z == 0):
        raise ChartError("sqrt(z)-based quantities degenerate at z = 0")
    return AHGeomState(z, v, x, np.sqrt(z), *ah_xy_from_zvx(z, v, x), data)


def _rows(batch, rows):
    """A batch state or curve data (a dataclass of equal-length arrays) at the given rows."""
    return type(batch)(*(_rows(v, rows) if dataclasses.is_dataclass(v) else v[rows]
                         for v in (getattr(batch, f.name) for f in dataclasses.fields(batch))))


def _chart(k, theta, phi, psi, h: float, K, E):
    """(z, v, x, curve data) of spherical chart points, rho = 16 h^2 K^2.

    K(k) and E(k) come from the caller (_elliptic_KE, or the cos 2psi level
    set of the same samples) and give rho, the curve data and (z, v, x).
    """
    rho = 16.0 * h * h * K ** 2
    _check_curve(k, rho)
    return (*_zvx(k, theta, phi, psi, h, K), _curve_data(k, rho, K, E))


def ah_from_spherical(pt: AHSphericalPoint, p: AHParams) -> AHGeomState:
    """Chart map: spherical point -> geometric state (rho = 16 h^2 K^2).

    _chart gives (z, v, x) and the curve data from one K and E.
    """
    z, v, x, data = _chart(pt.k, pt.theta, pt.phi, pt.psi, p.h, *_elliptic_KE(pt.k))
    if mask_any(np.abs(z) < 1e-12 * data.rho):
        raise ChartError("chart point has z = 0 (sqrt(z) quantities degenerate)")
    return ah_state_from_zvx(z, v, x, data)


# |y_pm| under this multiple of rho^{3/2} leaves A_pm and B_pm undefined
_Y_FLOOR = 1e-12


def ah_coeffs(state: AHGeomState):
    """A_pm = (x_pm om1 + eta1)/y_pm, B_pm = (x_pm + V om1)/y_pm and the V ratio
    of a state; DegenerateError on the y_pm -> 0 loci."""
    data = state.elliptic
    xp, xm, yp, ym = state.xplus, state.xminus, state.yplus, state.yminus
    den = 12.0 * data.eta1**2 - data.g2 * data.omega1**2
    if mask_any(den == 0):
        raise DegenerateError("ah_coeffs: 12 eta1^2 - g2 omega1^2 vanishes")
    Vcap = (-3.0 * data.g3 * data.omega1 + 2.0 * data.g2 * data.eta1) / den
    guard = _Y_FLOOR * data.rho ** 1.5
    if mask_any((np.abs(yp) < guard) | (np.abs(ym) < guard)):
        raise DegenerateError(
            f"ah_coeffs: y_pm too small (|y+|={np.min(np.abs(yp)):.3e}, "
            f"|y-|={np.min(np.abs(ym)):.3e})")
    Ap = (xp * data.omega1 + data.eta1) / yp
    Am = (xm * data.omega1 + data.eta1) / ym
    Bp = (xp + Vcap * data.omega1) / yp
    Bm = (xm + Vcap * data.omega1) / ym
    return Ap, Am, Bp, Bm, Vcap


def ah_regular(z, v, x, data: EllipticData, y_guard: float):
    """Mask of the points clear of the loci where the metric coefficients blow up.

    A point is regular when |z| >= 1e-10 rho, 12 eta1^2 - g2 omega1^2 != 0,
    x_- lies inside the cut (e3, e2) and x_+ above e2, each by 1e-4 of the
    cut's span, and min |y_pm| > y_guard rho^{3/2}.  Scalars or arrays
    (with data to match); a bool or a bool array, never a warning.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xp, xm, _, _, yp, ym = ah_xy_from_zvx(z, v, x)
        pad = 1e-4 * (data.e2 - data.e3)
        return ((np.abs(z) >= 1e-10 * data.rho)
                & (12.0 * data.eta1**2 - data.g2 * data.omega1**2 != 0)
                & (data.e3 + pad < xm) & (xm < data.e2 - pad) & (xp > data.e2 + pad)
                & (np.minimum(np.abs(yp), np.abs(ym)) > y_guard * data.rho ** 1.5))


# pi(x_pm) raises PoleError this close to the cut ends, as a share of the span
_CUT_END_PAD = 1e-9


def pi_pair_from_zvx(z, v, x, data: EllipticData):
    """pi(x_+) in i R and pi(x_-) in R (principal value when x_- is inside the cut).

    pi(x_pm) = -2 y_pm int_{e3}^{e2} dX / ((X - x_pm) Y)
             = -2 y_pm Pi(n, k) / ((e3 - x_pm) sqrt(rho)),  n = (e2 - e3)/(x_pm - e3).
    Pi is one Bulirsch loop per input kind: a point (0-d x_pm) takes two
    elliptic_Pi calls on floats, a batch one elliptic_Pi_vec call for both
    rows, and every element has its own scalar run's bits either way.
    x_+ must lie off the cut [e3, e2]; x_- generically lies inside it
    (n > 1, the principal value).  Both vanish where v = 0.
    """
    xp, xm, vp, vm, yp, ym = ah_xy_from_zvx(z, v, x)
    e2, e3 = data.e2, data.e3
    span = e2 - e3
    pad = _CUT_END_PAD * span
    live = (vp != 0.0) | (vm != 0.0)
    if mask_any(live & (e3 - pad <= xp) & (xp <= e2 + pad)):
        raise PoleError("pi(x_+): x_+ lies on the integration cut")
    if mask_any(live & ((np.abs(xm - e3) < pad) | (np.abs(xm - e2) < pad))):
        raise PoleError(f"pi(x_-): x_- within {_CUT_END_PAD} of the span of a cut end")
    # y_pm = 0 where v = 0; park those x_pm off the cut so pi is a plain 0
    if np.ndim(xp) == 0:
        sr = math.sqrt(data.rho)
        cut = [elliptic_Pi(span / (xs - e3), data.k) / ((e3 - xs) * sr)
               for xs in ((xp, xm) if live else (e3 - span,) * 2)]
    else:
        xs = np.where(live, [xp, xm], e3 - span)
        cut = elliptic_Pi_vec(span / (xs - e3), data.k) / ((e3 - xs) * np.sqrt(data.rho))
    return -2.0 * yp * cut[0], -2.0 * ym * cut[1]


def ah_pi_xpm(state: AHGeomState):
    """pi(x_pm) of a state; pi(x_+) pure imaginary, pi(x_-) real."""
    return pi_pair_from_zvx(state.z, state.v, state.x, state.elliptic)


def ah_kahler_potential(state: AHGeomState) -> float:
    """K = -8 eta1 + 2 (x_+ + x_-) omega1."""
    d = state.elliptic
    return -8.0 * d.eta1 + 2.0 * (state.xplus + state.xminus) * d.omega1


def ah_u_coordinate(state: AHGeomState, p: AHParams):
    """u = -(pi(x+)+pi(x-))/(2 sqrt z) - pi i (a-1)/sqrt(z); returns (u, U, Z).

    U = u sqrt(z) and Z = 2 sqrt(z) with the principal branch stored in the
    state, so U Z = 2 u z holds identically.
    """
    pi_p, pi_m = ah_pi_xpm(state)
    sq = state.sqrt_z
    u = -0.5 * (pi_p + pi_m) / sq - math.pi * 1j * (p.a_int - 1) / sq
    return u, u * sq, 2.0 * sq


def ah_metric_UZ(state: AHGeomState, p: AHParams) -> MetricBlock:
    """Metric block in (U, Z) coordinates, read as (u, z) by MetricBlock's
    fields; det = 1 by the K_UU closure."""
    Ap, Am, Bp, Bm, _ = ah_coeffs(state)
    den = Am * Bp - Ap * Bm
    if mask_any(np.abs(den) < 1e-14):
        raise DegenerateError("ah_metric_UZ: A_- B_+ - A_+ B_- vanishes")
    om1 = state.elliptic.omega1
    Z = 2.0 * state.sqrt_z
    if mask_any(Z == 0):
        raise ChartError("ah_metric_UZ: Z = 0")
    kZZ = -(2.0 * (Ap * Am) + 2.0 * (Am * Bp + Ap * Bm) * om1) / den
    kUZ = -(1.0 / (2.0 * np.conjugate(Z))) * (Am - Ap + 2.0 * (-Bp + Bm) * om1) / den
    kZU = (1.0 / (2.0 * Z)) * (Am + Ap + 2.0 * (Bp + Bm) * om1) / den
    kUU = (1.0 + kZU * kUZ) / kZZ
    return MetricBlock(kUU, kUZ, kZU, kZZ)


def ah_check_h_constraint(p: AHParams, k) -> float:
    """Worst |1/h - 4 omega1| over the moduli k (a scalar or an array).

    omega1 is read from the curve data of the state the chart map builds at
    a generic (theta, phi, psi) of each k; the chart's rho = 16 h^2 K^2 makes
    the gap vanish up to rounding.
    """
    k = np.asarray(k, dtype=float)
    pt = AHSphericalPoint(k, np.full(k.shape, 1.0), np.full(k.shape, 0.5),
                          np.full(k.shape, 0.3))
    om1 = ah_from_spherical(pt, p).elliptic.omega1
    return float(np.max(np.abs(1.0 / p.h - 4.0 * om1)))
