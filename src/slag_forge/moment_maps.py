"""Moment maps, fundamental vector fields, and Hamiltonicity verification.

Real coordinates are ordered (re u, im u, re z, im z) (or the (U, Z)
counterparts); the Kahler form

    omega = (i/2) [K_uu du^du_bar + K_uz du^dz_bar + K_zu dz^du_bar
                   + K_zz dz^dz_bar]

is evaluated on pairs of holomorphic components by `kahler_omega`, the one
omega kernel: iota_X omega here and the omega residual of verify_slag both
call it.  The check iota_X omega = d mu is done with the metric block on one
side and finite differences of the scalar moment on the other.

The moment maps, fields and omega take one point or a batch (the real
components of a field then run along its last axis).  verify_hamiltonian_ah
evaluates a batch of Atiyah-Hitchin points together with their perturbed
points as one batch and returns one residual per point; its chart Jacobian
and d mu are differenced from the same perturbed states.
verify_hamiltonian_tn does the same for Taub-NUT points: one x-solve for
all their perturbed points, one residual per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import atiyah_hitchin as ah
from . import taub_nut as tn
from .errors import DomainError

_VALID_ACTIONS = {
    ("TaubNUT", "U1_triholo"),
    ("TaubNUT", "SO2_rot"),
    ("AtiyahHitchin", "SO2_rot"),
}


@dataclass(frozen=True)
class ActionSpec:
    """A Hamiltonian group action on one of the supported manifolds: its
    generator X (field) and moment map mu (moment), with iota_X omega = d mu.

    The one action table: the Hamiltonicity, Lie-derivative and orbit checks
    and verify_slag all read X and mu from it.
    """

    manifold: str
    generator: str

    def __post_init__(self):
        if (self.manifold, self.generator) not in _VALID_ACTIONS:
            raise DomainError(
                f"unsupported action {self.generator!r} on {self.manifold!r}")

    def field(self, w0: complex, w1: complex) -> np.ndarray:
        """Fundamental field at holomorphic coordinates (w0, w1), real components.

        U1_triholo: X = i(d_u - d_ubar)  ->  d/d(im u).
        SO2_rot:    X = -2i(z d_z - zbar d_zbar) (same form in Z), so dz/dt = -2i z.
        Only the second coordinate enters; a batch of w1 gives one row each.
        """
        X = np.zeros(np.shape(w1) + (4,))
        if self.generator == "U1_triholo":
            X[..., 1] = 1.0
        else:
            X[..., 2] = 2.0 * np.imag(w1)
            X[..., 3] = -2.0 * np.real(w1)
        return X

    def moment(self, point, params):
        """mu at a Taub-NUT holomorphic point or an Atiyah-Hitchin state (or a batch).

        params is the manifold's parameter object (only the Taub-NUT SO(2)
        moment reads it).
        """
        if self.manifold == "AtiyahHitchin":
            return moment_ah_so2(point)
        if self.generator == "U1_triholo":
            return moment_tn_u1(point)
        return moment_tn_so2(point, params)


def kahler_omega(block: tn.MetricBlock, v1u, v1z, v2u, v2z):
    """omega(v1, v2) for vectors with holomorphic components (v_u, v_z).

    Re (i/2) sum_ab K_ab (v1_a conj(v2_b) - conj(v1_b) v2_a): antisymmetric
    bit for bit one sample at a time, and to a few ulps over arrays, whose
    vectorized complex products round by operand order.  The block
    (Taub-NUT (u, z) or Atiyah-Hitchin (U, Z)) and the components broadcast.
    """
    c1u, c1z, c2u, c2z = (np.conjugate(v) for v in (v1u, v1z, v2u, v2z))
    return np.real(0.5j * (block.kuubar * (v1u * c2u - c1u * v2u)
                           + block.kuzbar * (v1u * c2z - c1z * v2u)
                           + block.kzubar * (v1z * c2u - c1u * v2z)
                           + block.kzzbar * (v1z * c2z - c1z * v2z)))


def moment_tn_u1(pt: tn.TNHoloPoint) -> float:
    """mu = x / 2 for the tri-holomorphic U(1) (an array for a batch point)."""
    return 0.5 * pt.x


def moment_tn_so2(pt: tn.TNHoloPoint, p: tn.TNParams) -> float:
    """mu = 2 m r + 2 |z|^2 / h for the rotational SO(2) (an array for a batch point)."""
    return 2.0 * p.m * pt.r + 2.0 * abs(pt.z) ** 2 / p.h


def moment_ah_so2(state: ah.AHGeomState) -> float:
    """mu = -4 eta1 - 2 (x_+ + x_-) omega1 (an array for a batch state)."""
    d = state.elliptic
    return -4.0 * d.eta1 - 2.0 * (state.xplus + state.xminus) * d.omega1


def so3_cotangent_moment(q, p) -> np.ndarray:
    """Angular-momentum moment map mu(q, p) = q x p on T*R^3."""
    return np.cross(np.asarray(q, dtype=float), np.asarray(p, dtype=float))


# d/d(re u), d/d(im u), d/d(re z), d/d(im z) as holomorphic components (v_u, v_z)
_REAL_DIRECTIONS = np.array([[1, 0], [1j, 0], [0, 1], [0, 1j]])
# relative step of the d mu central differences in verify_hamiltonian_*
_HAM_EPS = 1e-5


def _iota_omega(action: ActionSpec, block: tn.MetricBlock, w0: complex,
                w1: complex) -> np.ndarray:
    """omega(X, e_a) over the four real directions e_a, along the last axis."""
    X = action.field(w0, w1).view(complex)      # (re, im) pairs read as (v_u, v_z)
    e = _REAL_DIRECTIONS.reshape((4, 2) + (1,) * (X.ndim - 1))
    return np.moveaxis(kahler_omega(block, X[..., 0], X[..., 1], e[:, 0], e[:, 1]), 0, -1)


def verify_hamiltonian_tn(action: ActionSpec, pt: tn.TNHoloPoint, p: tn.TNParams):
    """max-component residual of iota_X omega - d mu at Taub-NUT points.

    d mu is differenced in the real components (re u, im u, re z, im z),
    step max(_HAM_EPS |q_a|, 1e-7) each, and the 8 perturbed points of every
    point go through one x-solve.  A batch point gives one residual per
    point, a scalar point a float.
    """
    if action.manifold != "TaubNUT":
        raise DomainError("verify_hamiltonian_tn expects a Taub-NUT action")
    q = np.array([np.real(pt.u), np.imag(pt.u), np.real(pt.z), np.imag(pt.z)],
                 dtype=float).reshape(4, -1)
    n = q.shape[1]
    step = np.maximum(_HAM_EPS * np.abs(q), 1e-7)
    # q + step e_a for a = 0..3, then q - step e_a
    offsets = np.hstack([np.eye(4), -np.eye(4)])
    batch = q[:, None, :] + offsets[:, :, None] * step[:, None, :]
    moved = tn.tn_point_from_uz(batch[0] + 1j * batch[1], batch[2] + 1j * batch[3], p)
    mu = action.moment(moved, p)
    dmu = ((mu[:4] - mu[4:]) / (2.0 * step)).T
    lhs = _iota_omega(action, tn.tn_metric_holo(pt, p), pt.u, pt.z).reshape(n, 4)
    res = np.max(np.abs(lhs - dmu), axis=-1)
    return float(res[0]) if np.ndim(pt.x) == 0 else res


def verify_hamiltonian_ah(pt: ah.AHSphericalPoint, p: ah.AHParams):
    """max-component residual of iota_X omega - d mu at Atiyah-Hitchin points.

    d mu is differenced in the spherical chart (step max(_HAM_EPS |q_a|, 1e-6) in
    each angle q_a) and pushed to the (U, Z) components through the chart
    Jacobian differenced from the same perturbed states; the metric side is
    evaluated directly from the closed-form block at the centre states.  A
    batch point gives one residual per point, a scalar point a float.
    """
    q = np.array([pt.k, pt.theta, pt.phi, pt.psi], dtype=float).reshape(4, -1)
    n = q.shape[1]
    step = np.maximum(_HAM_EPS * np.abs(q), 1e-6)
    # the centre, then q + step e_a for a = 0..3, then q - step e_a
    offsets = np.hstack([np.zeros((4, 1)), np.eye(4), -np.eye(4)])
    batch = q[:, None, :] + offsets[:, :, None] * step[:, None, :]
    state = ah.ah_from_spherical(ah.AHSphericalPoint(*batch.reshape(4, -1)), p)
    _, U, Z = ah.ah_u_coordinate(state, p)
    action = ActionSpec("AtiyahHitchin", "SO2_rot")
    mu = action.moment(state, p).reshape(9, n)
    chart = np.array([U.real, U.imag, Z.real, Z.imag]).reshape(4, 9, n)
    dmu_ang = (mu[1:5] - mu[5:]) / (2.0 * step)
    J = (chart[:, 1:5] - chart[:, 5:]) / (2.0 * step)       # [i, a, point]
    dmu = np.linalg.solve(J.transpose(2, 1, 0), dmu_ang.T[..., None])[..., 0]
    lhs = _iota_omega(action, ah.ah_metric_UZ(ah._rows(state, slice(n)), p), U[:n], Z[:n])
    res = np.max(np.abs(lhs - dmu), axis=-1)
    return float(res[0]) if np.ndim(pt.k) == 0 else res

