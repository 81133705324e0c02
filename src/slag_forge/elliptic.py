"""Complete elliptic integrals, Jacobi sn, Weierstrass p, quasi-periods, quadrature.

All downstream geometry is driven by the data of the real elliptic curve

    Y^2 = 4 X^3 - g2 X - g3 = 4 (X - e1)(X - e2)(X - e3),   e3 < e2 < e1,

parametrized by a modulus k in (0,1) and a scale rho = e1 - e3 > 0.  The
half-period omega1 and quasi-half-period eta1 are the cycle integrals of
dX/Y and -X dX/Y over the cut [e3, e2]; both admit closed forms in K(k),
E(k) which the quadrature routines here cross-check.  K and E come from one
extended-AGM sequence (DLMF 19.8), one loop per input kind: elliptic_KE for
a scalar, elliptic_KE_vec for an array.  Pi likewise is one Bulirsch loop
per input kind, elliptic_Pi and elliptic_Pi_vec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError
from .masks import bad_entry, mask_all, mask_any

# a stop test below half an ulp (|a - b| < 1e-16 a) never fires where a and b
# settle into a 1-ulp cycle, so the AGM loops stop by the quadratic rule instead
_AGM_TOL = 1e-16
_AGM_CAP = 60

# Gauss-Legendre panel rule for the adaptive integrator, and its bisection cap
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
_QUAD_MAX_DEPTH = 40

# quad_periodic's first and largest node count on [0, pi), and the relative
# half-node gap that stops a row (10x under the 1e-10 eta1-pair gate it serves)
_TRAP_NODES, _TRAP_NODES_MAX, _TRAP_HALF_GAP = 32, 65536, 1e-11


def elliptic_KE(k: float) -> tuple[float, float]:
    """(K(k), E(k)) for a scalar 0 <= k < 1 from one extended-AGM sequence (DLMF 19.8.5-6).

    K = pi/(2a) at the AGM limit a, and E = K (1 - sum 2^(j-1) c_j^2).
    """
    if not 0.0 <= k < 1.0:
        raise DomainError(f"elliptic_KE requires 0 <= k < 1, got k={k!r}")
    a, b, c = 1.0, math.sqrt(1.0 - k * k), k
    csum = 0.5 * c * c
    pow2 = 0.5
    for _ in range(_AGM_CAP):
        # quadratic convergence: a gap under sqrt(_AGM_TOL) before this
        # step leaves the values just updated accurate to _AGM_TOL
        last = abs(a - b) <= math.sqrt(_AGM_TOL) * a
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        pow2 *= 2.0
        csum += pow2 * c * c
        if last:
            break
    K = math.pi / (2.0 * a)
    return K, K * (1.0 - csum)


def elliptic_K(k: float) -> float:
    """Complete elliptic integral of the first kind, read from elliptic_KE."""
    if not 0.0 <= k < 1.0:
        raise DomainError(f"elliptic_K requires 0 <= k < 1, got k={k!r}")
    return elliptic_KE(k)[0]


def elliptic_E(k: float) -> float:
    """Complete elliptic integral of the second kind, read from elliptic_KE (E(1) = 1)."""
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"elliptic_E requires 0 <= k <= 1, got k={k!r}")
    return 1.0 if k == 1.0 else elliptic_KE(k)[1]


def jacobi_sn(u: float, k: float) -> float:
    """Jacobi sn by descending Landen transformation; |sn| <= 1 for real u."""
    if not math.isfinite(u):
        raise DomainError(f"jacobi_sn requires finite u, got {u!r}")
    if not 0.0 <= k < 1.0:
        raise DomainError(f"jacobi_sn requires 0 <= k < 1, got k={k!r}")
    # descend k -> k1 = (1-k')/(1+k') until the modulus is negligible
    ks = []
    while k > 1e-10:
        kp = math.sqrt(1.0 - k * k)
        k1 = (1.0 - kp) / (1.0 + kp)
        ks.append(k1)
        u = u / (1.0 + k1)
        k = k1
    s = math.sin(u) - 0.25 * k * k * (u - math.sin(u) * math.cos(u)) * math.cos(u)
    for k1 in reversed(ks):
        s = (1.0 + k1) * s / (1.0 + k1 * s * s)
    if s > 1.0:
        s = 1.0
    elif s < -1.0:
        s = -1.0
    return s


def elliptic_KE_vec(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (K(k), E(k)) from one extended-AGM sequence (DLMF 19.8.5-6),
    for arrays with 0 <= k < 1.

    Each element takes the steps elliptic_KE takes for it, then holds, so
    every element has the scalar loop's bits whatever batch it is in.
    """
    k = np.asarray(k, dtype=float)
    if mask_any((k < 0.0) | (k >= 1.0)):
        raise DomainError("elliptic_KE_vec requires 0 <= k < 1 elementwise")
    a = np.ones_like(k)
    b = np.sqrt(1.0 - k * k)
    csum = 0.5 * k * k
    pow2 = 0.5
    live = np.ones(k.shape, dtype=bool)
    for _ in range(_AGM_CAP):
        last = np.abs(a - b) <= math.sqrt(_AGM_TOL) * a
        c = 0.5 * (a - b)
        a, b = np.where(live, 0.5 * (a + b), a), np.where(live, np.sqrt(a * b), b)
        pow2 *= 2.0
        csum = np.where(live, csum + pow2 * c * c, csum)
        live &= ~last
        if not live.any():
            break
    K = math.pi / (2.0 * a)
    return K, K * (1.0 - csum)


def elliptic_K_vec(k: np.ndarray) -> np.ndarray:
    """Vectorized K(k) for arrays with 0 <= k < 1, read from elliptic_KE_vec."""
    k = np.asarray(k, dtype=float)
    if mask_any((k < 0.0) | (k >= 1.0)):
        raise DomainError("elliptic_K_vec requires 0 <= k < 1 elementwise")
    return elliptic_KE_vec(k)[0]


def elliptic_E_vec(k: np.ndarray) -> np.ndarray:
    """Vectorized E(k) for arrays with 0 <= k < 1, read from elliptic_KE_vec."""
    return elliptic_KE_vec(k)[1]


def elliptic_Pi(n: float, k: float) -> float:
    """Complete elliptic integral of the third kind Pi(n, k) for scalars 0 <= k < 1, n != 1.

    elliptic_Pi_vec's loop on Python floats, statement for statement, so
    the two give the same bits for every (n, k).
    """
    n, k = float(n), float(k)
    if not 0.0 <= k < 1.0 or n == 1.0:
        raise DomainError(f"elliptic_Pi requires 0 <= k < 1 and n != 1, got n={n!r}, k={k!r}")
    kc = math.sqrt((1.0 - k) * (1.0 + k))
    p = 1.0 - n
    if p > 0.0:
        p = math.sqrt(p)
        a, b = 1.0, 1.0 / p
    else:
        p = math.sqrt((kc * kc - p) / n)
        a, b = 0.0, -(k * k) / (n * p)
    e = qc = kc
    em = 1.0
    for _ in range(_AGM_CAP):
        f = a
        a = a + b / p
        g = e / p
        b = 2.0 * (b + f * g)
        p = g + p
        g = em
        em = em + qc
        # quadratic convergence: a gap under sqrt(_AGM_TOL) before this
        # step leaves the values just updated accurate to _AGM_TOL
        if abs(g - qc) <= math.sqrt(_AGM_TOL) * g:
            break
        qc = 2.0 * math.sqrt(e)
        e = qc * em
    return (0.5 * math.pi) * (b + a * em) / (em * (em + p))


def elliptic_Pi_vec(n, k) -> np.ndarray:
    """Vectorized complete elliptic integral of the third kind Pi(n, k).

    Pi(n, k) = int_0^{pi/2} dt / ((1 - n sin^2 t) sqrt(1 - k^2 sin^2 t)),
    the Cauchy principal value for n > 1, as Bulirsch's general complete
    integral cel(k', p = 1 - n, 1, 1) (Numer. Math. 13 (1969) 305-315;
    Numerical Recipes 6.11).  A p < 0 is first mapped to a positive one,
    then one quadratically convergent AGM-type loop serves both signs.
    n and k broadcast; requires 0 <= k < 1 and n != 1.

    One Bulirsch loop per input kind: elliptic_Pi for a scalar, this for an
    array.  Each element's result is written on the step its stop test
    first fires (the test reads k alone), so every element has elliptic_Pi's
    bits whatever batch it is in; an element that never fires gets its
    value at _AGM_CAP.  0-d input gives a NumPy scalar.
    """
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    if ((k < 0.0) | (k >= 1.0) | (n == 1.0)).any():
        raise DomainError("elliptic_Pi_vec requires 0 <= k < 1 and n != 1 elementwise")
    kc = np.sqrt((1.0 - k) * (1.0 + k))
    p = 1.0 - n
    pos = p > 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = np.where(pos, np.sqrt(p), np.sqrt((kc * kc - p) / n))
        b = np.where(pos, 1.0 / p, -(k * k) / (n * p))
    a = pos * 1.0
    e = qc = kc
    em = 1.0
    out = np.empty(np.broadcast_shapes(n.shape, k.shape))
    live = np.ones(k.shape, dtype=bool)
    for _ in range(_AGM_CAP):
        f = a
        a = a + b / p
        g = e / p
        b = 2.0 * (b + f * g)
        p = g + p
        g = em
        em = em + qc
        # quadratic convergence: a gap under sqrt(_AGM_TOL) before this
        # step leaves the values just updated accurate to _AGM_TOL
        fire = live &(np.abs(g - qc) <= math.sqrt(_AGM_TOL) * g)
        if fire.any():
            np.copyto(out, (0.5 * math.pi) * (b + a * em) / (em * (em + p)), where=fire)
            live &= ~fire
        if not live.any():
            return out[()]
        qc = 2.0 * np.sqrt(e)
        e = qc * em
    np.copyto(out, (0.5 * math.pi) * (b + a * em) / (em * (em + p)), where=live)
    return out[()]


@dataclass(frozen=True)
class EllipticData:
    """Curve data (k, rho, e_j, g_j, discriminant, half- and quasi-half-period).

    Fields are floats, or arrays of one shape for a batch of curves.
    """

    k: float
    rho: float
    e1: float
    e2: float
    e3: float
    g2: float
    g3: float
    delta: float
    omega1: float
    eta1: float

    @property
    def kprime(self) -> float:
        return np.sqrt(1.0 - self.k * self.k)


def _elliptic_KE(k):
    """(K(k), E(k)): the one pick between elliptic_KE (scalar k) and elliptic_KE_vec."""
    return elliptic_KE(float(k)) if np.ndim(k) == 0 else elliptic_KE_vec(k)


def _check_curve(k, rho) -> None:
    """Raise DomainError, naming the bad entry, unless 0 < k < 1 and rho > 0."""
    in_k, in_rho = (0.0 < k) & (k < 1.0), rho > 0.0
    if not mask_all(in_k & in_rho):
        if not mask_all(in_k):
            raise DomainError(f"elliptic_data requires 0 < k < 1, got k={bad_entry(k, in_k)}")
        raise DomainError(f"elliptic_data requires rho > 0, got rho={bad_entry(rho, in_rho)}")


def _curve_data(k, rho, K, E) -> EllipticData:
    """Curve data of a checked (k, rho) from K(k) and E(k) already at hand."""
    sr = math.sqrt(rho) if np.ndim(k) == 0 else np.sqrt(rho)
    k2 = k * k
    e1 = -(rho / 3.0) * (k2 - 2.0)
    e2 = (rho / 3.0) * (2.0 * k2 - 1.0)
    e3 = -(rho / 3.0) * (k2 + 1.0)
    g2 = (4.0 / 3.0) * rho * rho * (1.0 - k2 + k2 * k2)
    g3 = (4.0 / 27.0) * rho**3 * (k2 - 2.0) * (2.0 * k2 - 1.0) * (k2 + 1.0)
    # g2^3 - 27 g3^2 in the cancellation-free product form
    delta = 16.0 * rho**6 * k2 * k2 * (1.0 - k2) ** 2
    omega1 = K / sr
    eta1 = sr * E - e1 * K / sr
    return EllipticData(k, rho, e1, e2, e3, g2, g3, delta, omega1, eta1)


def elliptic_data(k, rho) -> EllipticData:
    """Build the curve data for modulus k in (0,1) and scale rho > 0 (scalars or arrays).

    omega1 = K / sqrt(rho) and eta1 = sqrt(rho) E - e1 K / sqrt(rho), with K
    and E evaluated once; a scalar k takes the scalar AGM and gives floats,
    an array k one elliptic_KE_vec sequence.
    """
    _check_curve(k, rho)
    return _curve_data(k, rho, *_elliptic_KE(k))


def quad_adaptive(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                  tol: float):
    """Adaptive Gauss-Legendre quadrature of a vectorized integrand on (a, b).

    f must accept an ndarray of nodes and return values of the same shape
    (real or complex).  Panels are bisected until the whole-vs-halves
    difference falls under the local tolerance; the tolerance floors at the
    panel sums' machine precision (no refinement can beat roundoff), and
    depth past _QUAD_MAX_DEPTH raises ConvergenceError.
    """
    eps = np.finfo(float).eps

    def panel(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        vals = f(mid + half * _GL_NODES)
        return half * np.sum(vals * _GL_WEIGHTS)

    whole0 = panel(float(a), float(b))
    # roundoff of node placement and summation bounds what refinement can
    # resolve; below this, accept rather than recurse into noise
    floor = 32.0 * eps * (abs(whole0) + abs(tol))

    def recurse(lo, hi, whole, tol_loc, depth):
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        if abs(left + right - whole) <= max(tol_loc, floor):
            return left + right
        if depth >= _QUAD_MAX_DEPTH:
            raise ConvergenceError(
                f"quad_adaptive: panel depth {_QUAD_MAX_DEPTH} exceeded on "
                f"[{lo!r}, {hi!r}]")
        half_tol = 0.5 * tol_loc
        return (recurse(lo, mid, left, half_tol, depth + 1)
                + recurse(mid, hi, right, half_tol, depth + 1))

    return recurse(float(a), float(b), whole0, tol, 0)


def quad_periodic(f: Callable[[np.ndarray, np.ndarray], np.ndarray], rows: int):
    """int_0^{pi/2} f(i, sin^2 t) dt for the rows i of a batch of even, pi-periodic integrands.

    f maps row indices i, shape (m, 1), and sin^2 t at nodes t, shape (n,), to
    values of shape (..., m, n).  The trapezoid rule on [0, pi) converges
    geometrically here (Trefethen & Weideman, SIAM Rev. 56, 2014) and needs
    only its nodes in [0, pi/2].  Each doubling evaluates the new midpoints,
    T_2N = (T_N + M_N) / 2, on the rows not yet converged, and a row stops
    once |T_2N - T_N| <= _TRAP_HALF_GAP max(1, |T_2N|) in every component, so
    its value does not depend on its batch.  Returns the values, shape
    (..., rows), and each row's node count on [0, pi); a row unconverged at
    _TRAP_NODES_MAX raises ConvergenceError.
    """
    idx, nodes = np.arange(rows), np.zeros(rows, dtype=int)
    n, h = _TRAP_NODES, math.pi / _TRAP_NODES
    vals = f(idx[:, None], np.sin(h * np.arange(n // 2 + 1)) ** 2)
    total = h * (np.sum(vals, axis=-1) - 0.5 * (vals[..., 0] + vals[..., -1]))
    while idx.size:
        if n >= _TRAP_NODES_MAX:
            raise ConvergenceError(f"quad_periodic: {idx.size} of {rows} rows unconverged "
                                   f"at {n} nodes")
        old = total[..., idx]
        mid = f(idx[:, None], np.sin(h * (np.arange(n // 2) + 0.5)) ** 2)
        new = 0.5 * (old + h * np.sum(mid, axis=-1))
        n, h, total[..., idx] = 2 * n, 0.5 * h, new
        gap = np.abs(new - old) <= _TRAP_HALF_GAP * np.maximum(1.0, np.abs(new))
        done = gap.reshape(-1, idx.size).all(axis=0)
        nodes[idx[done]] = n
        idx = idx[~done]
    return total, nodes


def _sin2_quadrature(data: EllipticData, m, a, b):
    """int_0^{pi/2} (a + b sin^2 t) dt / (sqrt(rho) sqrt(1 - m sin^2 t)): a cycle integral of
    (affine in X) dX/Y after X = e3 + (e2 - e3) sin^2 t or e1 - (e1 - e2) sin^2 t, which
    removes both endpoint singularities.  A float for one curve, an array for a batch."""
    sr, m, a, b = np.broadcast_arrays(*(np.atleast_1d(v) for v in (np.sqrt(data.rho), m, a, b)))
    vals = quad_periodic(lambda i, s2: (a[i] + b[i] * s2) / (sr[i] * np.sqrt(1.0 - m[i] * s2)),
                         sr.size)[0]
    return float(vals[0]) if np.ndim(data.k) == 0 else vals


def omega1_quadrature(data: EllipticData):
    """Half-period int_{e3}^{e2} dX/Y by quadrature (equals K(k)/sqrt(rho))."""
    return _sin2_quadrature(data, data.k * data.k, 1.0, 0.0)


def eta1_quadrature(data: EllipticData):
    """Quasi-half-period -int_{e3}^{e2} X dX/Y by quadrature."""
    return -_sin2_quadrature(data, data.k * data.k, data.e3, data.e2 - data.e3)


def omega3_quadrature(data: EllipticData):
    """Imaginary half-period i K(k')/sqrt(rho) via the [e2, e1] cycle."""
    return 1j * _sin2_quadrature(data, 1.0 - data.k * data.k, 1.0, 0.0)


def eta3_quadrature(data: EllipticData):
    """Imaginary quasi-half-period -int over the [e2, e1] cycle of X dX/Y.

    The branch of Y on [e2, e1] is fixed so that the companion period comes
    out as +i K(k')/sqrt(rho); with that choice
    eta3 = -(i/sqrt(rho)) (e3 K(k') + rho E(k')), which the Legendre relation
    eta1 omega3 - eta3 omega1 = pi i / 2 pins down.
    """
    return -1j * _sin2_quadrature(data, 1.0 - data.k * data.k, data.e1, data.e2 - data.e1)


def weierstrass_p(u: float, data: EllipticData) -> float:
    """Weierstrass p on the real segment, via p(u) = e3 + rho / sn^2(u sqrt(rho), k).

    Only real u off the lattice are accepted; the real period is 2 omega1.
    """
    if isinstance(u, complex):
        raise DomainError("weierstrass_p evaluates on the real branch only")
    if not math.isfinite(u):
        raise DomainError(f"weierstrass_p requires finite u, got {u!r}")
    period = 2.0 * data.omega1
    ured = math.fmod(u, period)
    if ured < 0.0:
        ured += period
    if min(ured, period - ured) < 1e-12:
        raise PoleError(f"weierstrass_p: u={u!r} is within 1e-12 of a lattice point")
    s = jacobi_sn(ured * math.sqrt(data.rho), data.k)
    return data.e3 + data.rho / (s * s)


def weierstrass_p_half_periods(data: EllipticData) -> tuple[float, float, float]:
    """Numerical p-values at the three half-periods, real-branch machinery only.

    p(omega1) is evaluated directly.  p(omega2) uses the half-period
    translation p(u + omega3) = e3 + (e1-e3)(e2-e3)/(p(u) - e3) at u = omega1,
    and p(omega3) uses the same translation in the u -> 0 limit (u = 1e-6
    omega1, where the correction is O(u^2) ~ 1e-12 relative).
    """
    p1 = weierstrass_p(data.omega1, data)
    shift = (data.e1 - data.e3) * (data.e2 - data.e3)
    p2 = data.e3 + shift / (p1 - data.e3)
    u_small = 1e-6 * data.omega1
    p3 = data.e3 + shift / (weierstrass_p(u_small, data) - data.e3)
    return p1, p2, p3
