"""Taub-NUT geometry: charts, holomorphic Kahler metric, spherical closed form.

Holomorphic coordinates (u, z) with the auxiliary real coordinate x solving
the transform condition; the potential V = 1/h + 2m/r with r^2 = x^2 + 4|z|^2
drives every metric component.  The chart to spherical coordinates
(r, theta, phi, psi) is

    z = (r sin(theta)/2) e^{i phi},
    u = -2 i m psi - 2 r cos(theta)/h - 2 m log((1+cos theta)/sin theta),

valid away from the axis sin(theta) = 0.

The parameters, points, potential, forward map Re(u), both chart maps, the
metric block, the x-solve (tn_solve_x, tn_point_from_uz) and the moment maps
built on them take one point as scalars or a batch as equal-length arrays;
scalar input gives scalars back.  The x-solve runs every element of a batch
through the same bracket doubling and Newton steps, each held once it
converges, so an element's iterates do not depend on the batch it is in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartError, ConvergenceError, DomainError
from .masks import mask_all, mask_any


@dataclass(frozen=True)
class TNParams:
    """Scale h > 0 and NUT charge m >= 0 (m = 0 is the flat limit)."""

    h: float = 1.0
    m: float = 1.0

    def __post_init__(self):
        if mask_any(self.h <= 0):
            raise DomainError(f"TNParams requires h > 0, got {self.h!r}")
        if mask_any(self.m < 0):
            raise DomainError(f"TNParams requires m >= 0, got {self.m!r}")


@dataclass(frozen=True)
class TNHoloPoint:
    u: complex
    z: complex
    x: float
    r: float


@dataclass(frozen=True)
class TNSphericalPoint:
    r: float
    theta: float
    phi: float
    psi: float

    def __post_init__(self):
        if mask_any(self.r <= 0):
            raise DomainError(f"r must be positive, got {self.r!r}")
        if not mask_all((0.0 <= self.theta) & (self.theta <= math.pi)):
            raise DomainError(f"theta must lie in [0, pi], got {self.theta!r}")
        if not mask_all((0.0 <= self.phi) & (self.phi < 2.0 * math.pi)):
            raise DomainError(f"phi must lie in [0, 2 pi), got {self.phi!r}")
        if not mask_all((0.0 <= self.psi) & (self.psi < 4.0 * math.pi)):
            raise DomainError(f"psi must lie in [0, 4 pi), got {self.psi!r}")


@dataclass(frozen=True)
class MetricBlock:
    """2x2 Hermitian block of mixed second derivatives of the Kahler potential.

    The fields name the Taub-NUT chart (u, z); the Atiyah-Hitchin block in
    (U, Z) fills the same fields.  The diagonal entries are real; each entry
    is an array for a batch.
    """

    kuubar: complex
    kuzbar: complex
    kzubar: complex
    kzzbar: complex

    def det(self) -> complex:
        return self.kuubar * self.kzzbar - self.kuzbar * self.kzubar


def potential(r: float, p: TNParams) -> float:
    return 1.0 / p.h + 2.0 * p.m / r


def _complex(re, im):
    """re + i im with both parts kept bit for bit (signed zeros too)."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out[()]


def re_u_from_xz(x: float, absz: float, p: TNParams) -> float:
    """Forward map Re(u) = -x/h - 2m log((r+x)/(2|z|)), i.e. u + ubar = F_x.

    This is the transform-consistent chart: d(2 Re u)/dx = -2V and
    d(2 Re u)/dz = 2mx/(rz), matching the closed-form metric block.  For
    x < 0 the equal argument 2|z|/(r-x) is used, since r + x cancels when
    x << -|z|.
    """
    r = np.sqrt(x * x + 4.0 * absz * absz)
    s = r + np.abs(x)
    arg = np.where(x < 0.0, 2.0 * absz / s, s / (2.0 * absz))
    return -x / p.h - 2.0 * p.m * np.log(arg)


def tn_solve_x(re_u: float, absz: float, p: TNParams) -> float:
    """Invert Re(u) = -x/h - 2m log((r+x)/(2|z|)) for x (strictly decreasing).

    Bracket doubling, then Newton with bisection fallback; the derivative is
    exactly -V(r) < 0 so the root is unique.  Arrays run every element
    through these steps at once, each one held once its bracket is found
    and again once it converges, so its iterates are those of a lone solve.
    One element that fails raises for the whole batch.
    """
    if mask_any(absz <= 0):
        raise DomainError(f"tn_solve_x requires |z| > 0, got {absz!r}")
    shape = np.broadcast_shapes(np.shape(re_u), np.shape(absz), np.shape(p.h),
                                np.shape(p.m))
    re_u = np.broadcast_to(np.asarray(re_u, dtype=float), shape)
    absz = np.broadcast_to(np.asarray(absz, dtype=float), shape)

    def f(x):
        return re_u_from_xz(x, absz, p) - re_u

    bound = 10.0 * (np.abs(re_u) * p.h / 2.0 + 2.0 * absz + 1.0)
    lo, hi = -bound, bound
    for _ in range(200):
        found = (f(lo) > 0.0) & (f(hi) <= 0.0)
        if found.all():
            break
        lo, hi = np.where(found, lo, 2.0 * lo), np.where(found, hi, 2.0 * hi)
    else:
        raise ConvergenceError("tn_solve_x: bracket search failed")

    x = np.where((lo < 0.0) & (0.0 < hi), 0.0, 0.5 * (lo + hi))
    fx = f(x)
    tol = 1e-13 * np.maximum(1.0, np.abs(re_u))
    live = np.ones(shape, dtype=bool)
    for _ in range(200):
        up = fx > 0.0
        lo, hi = np.where(live & up, x, lo), np.where(live & ~up, x, hi)
        r = np.sqrt(x * x + 4.0 * absz * absz)
        x_new = x + fx / (1.0 / p.h + 2.0 * p.m / r)
        x_new = np.where((lo < x_new) & (x_new < hi), x_new, 0.5 * (lo + hi))
        f_new = f(x_new)
        x, fx = np.where(live, x_new, x), np.where(live, f_new, fx)
        live &= ~(np.abs(f_new) < tol)
        if not live.any():
            return x[()]
    raise ConvergenceError("tn_solve_x: Newton/bisection did not converge")


def tn_point_from_uz(u: complex, z: complex, p: TNParams) -> TNHoloPoint:
    """Holomorphic-chart point from (u, z); solves the x-condition."""
    if mask_any(z == 0):
        raise ChartError("holomorphic chart excludes z = 0")
    u, z = np.asarray(u, dtype=complex)[()], np.asarray(z, dtype=complex)[()]
    x = tn_solve_x(np.real(u), np.abs(z), p)
    return TNHoloPoint(u, z, x, np.sqrt(x * x + 4.0 * np.abs(z) ** 2))


def tn_point_from_xz(x: float, z: complex, p: TNParams, im_u: float = 0.0) -> TNHoloPoint:
    """Holomorphic-chart point with x given and Re(u) filled in by the forward map."""
    if mask_any(z == 0):
        raise ChartError("holomorphic chart excludes z = 0")
    u = _complex(re_u_from_xz(x, abs(z), p), im_u)
    r = np.sqrt(x * x + 4.0 * abs(z) ** 2)
    return TNHoloPoint(u, np.asarray(z, dtype=complex)[()], x, r)


def tn_chart_spherical_to_holo(pt: TNSphericalPoint, p: TNParams) -> TNHoloPoint:
    st, ct = np.sin(pt.theta), np.cos(pt.theta)
    if mask_any(st == 0.0):
        raise ChartError("holomorphic chart excludes theta in {0, pi}")
    z = 0.5 * pt.r * st * _complex(np.cos(pt.phi), np.sin(pt.phi))
    # (r+x)/(2|z|) = (1+cos theta)/sin theta
    re_u = -pt.r * ct / p.h - 2.0 * p.m * np.log((1.0 + ct) / st)
    u = _complex(re_u, -2.0 * p.m * pt.psi)
    return TNHoloPoint(u, z, pt.r * ct, pt.r)


def tn_chart_holo_to_spherical(pt: TNHoloPoint, p: TNParams) -> TNSphericalPoint:
    if mask_any(pt.z == 0):
        raise ChartError("axis points have no holomorphic representative")
    theta = np.arccos(np.clip(pt.x / pt.r, -1.0, 1.0))
    phi = np.arctan2(np.imag(pt.z), np.real(pt.z)) % (2.0 * math.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = np.where(p.m == 0, 0.0, (-np.imag(pt.u) / (2.0 * p.m)) % (4.0 * math.pi))
    return TNSphericalPoint(pt.r, theta, phi, psi[()])


def tn_metric_holo(pt: TNHoloPoint, p: TNParams) -> MetricBlock:
    """Kahler metric block in (u, z): K_uu = V^{-1}/2, K_zz = 2V + 2m^2x^2 V^{-1}/(r^2|z|^2)."""
    if mask_any(pt.z == 0):
        raise ChartError("tn_metric_holo: chart excludes z = 0")
    V = potential(pt.r, p)
    Vinv = 1.0 / V
    az2 = abs(pt.z) ** 2
    kzz = 2.0 * V + 2.0 * p.m**2 * pt.x**2 * Vinv / (pt.r**2 * az2)
    kzu = -(p.m * pt.x / (pt.r * pt.z)) * Vinv
    kuz = -(p.m * pt.x / (pt.r * np.conjugate(pt.z))) * Vinv
    kuu = 0.5 * Vinv
    return MetricBlock(kuu, kuz, kzu, kzz)


def tn_calabi_yau_residual(pt: TNHoloPoint, p: TNParams) -> float:
    """|det(metric block) - 1|, the coefficient form of the volume-form identity."""
    return abs(tn_metric_holo(pt, p).det() - 1.0)


def tn_metric_spherical(pt: TNSphericalPoint, p: TNParams) -> np.ndarray:
    """The closed-form line element in (r, theta, phi, psi); requires h = 1.

    (1 + 2m/r)(dr^2 + r^2 dtheta^2 + r^2 sin^2(theta) dphi^2)
      + 4m^2 (1 + 2m/r)^{-1} (dpsi + cos(theta) dphi)^2
    """
    if p.h != 1.0:
        raise DomainError("the spherical closed form is stated for h = 1")
    V = 1.0 + 2.0 * p.m / pt.r
    st, ct = math.sin(pt.theta), math.cos(pt.theta)
    g = np.zeros((4, 4))
    g[0, 0] = V
    g[1, 1] = V * pt.r**2
    g[2, 2] = V * pt.r**2 * st**2 + 4.0 * p.m**2 / V * ct**2
    g[3, 3] = 4.0 * p.m**2 / V
    g[2, 3] = g[3, 2] = 4.0 * p.m**2 / V * ct
    return g


def _chart_jacobian(pt: TNSphericalPoint, p: TNParams) -> tuple[np.ndarray, np.ndarray]:
    """du/dq and dz/dq for q = (r, theta, phi, psi), analytic."""
    st, ct = math.sin(pt.theta), math.cos(pt.theta)
    eip = complex(math.cos(pt.phi), math.sin(pt.phi))
    z_q = np.array([0.5 * st * eip,
                    0.5 * pt.r * ct * eip,
                    0.5j * pt.r * st * eip,
                    0.0])
    # d/dtheta of log((1+cos)/sin) = -1/sin
    u_q = np.array([complex(-ct / p.h),
                    complex(pt.r * st / p.h + 2.0 * p.m / st),
                    0.0,
                    complex(0.0, -2.0 * p.m)])
    return u_q, z_q


def tn_metric_spherical_from_holo(pt: TNSphericalPoint, p: TNParams) -> np.ndarray:
    """Holomorphic metric pulled back to (r, theta, phi, psi), times 2.

    The factor 2 matches the stated spherical closed form ("equal, up to an
    overall factor 1/2" between the holomorphic line element and the
    Gibbons-Hawking form).
    """
    hol = tn_chart_spherical_to_holo(pt, p)
    blk = tn_metric_holo(hol, p)
    u_q, z_q = _chart_jacobian(pt, p)
    g = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            val = (blk.kuubar * u_q[a] * np.conjugate(u_q[b])
                   + blk.kuzbar * u_q[a] * np.conjugate(z_q[b])
                   + blk.kzubar * z_q[a] * np.conjugate(u_q[b])
                   + blk.kzzbar * z_q[a] * np.conjugate(z_q[b]))
            g[a, b] = val.real
    return 2.0 * g
