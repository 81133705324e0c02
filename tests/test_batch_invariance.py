"""Batch invariance of the array kernels.

For each kernel f and a seeded batch of 64 inputs, f(batch)[i:i+1] has the
bits of f(batch[i:i+1]) for every i, and f(batch[perm]) has the bits of
f(batch)[perm].  Every loop that runs until a whole batch has converged
holds each element from its own last step, so which batch a point sits in
never moves its result.  Covered: K and E (elliptic_KE_vec), Pi
(elliptic_Pi_vec), the curve data, the Atiyah-Hitchin chart with pi(x_pm),
(u, U, Z) and the metric block, and the Taub-NUT chart, metric block and
x-solve.
"""

import dataclasses
import math

import numpy as np
import pytest

from slag_forge import atiyah_hitchin as ah
from slag_forge import taub_nut as tn
from slag_forge.elliptic import elliptic_data, elliptic_KE_vec, elliptic_Pi_vec
from slag_forge.errors import SlagForgeError

BATCH = 64
SEEDS = [0, 1]
AH_P = ah.AHParams(1.0, 1)
TN_P = tn.TNParams(1.0, 1.0)
# the fig9 box of the ah-points benchmark: k, theta, every phi and psi
AH_BOX = ((0.02, 0.98), (0.02, math.pi - 0.02), (0.0, 2.0 * math.pi), (0.0, 4.0 * math.pi))


def _bits(a: np.ndarray) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()


def assert_batch_invariant(f, columns, seed):
    """f maps equal-length input columns to a tuple of arrays, one row per input."""
    whole = f(*columns)
    for out in whole:
        assert np.shape(out) == (BATCH,)
    for i in range(BATCH):
        one = f(*(c[i:i + 1] for c in columns))
        for j, (w, o) in enumerate(zip(whole, one)):
            assert _bits(o) == _bits(w[i:i + 1]), (i, j)
    perm = np.random.default_rng(seed + 100).permutation(BATCH)
    for j, (w, p) in enumerate(zip(whole, f(*(c[perm] for c in columns)))):
        assert _bits(p) == _bits(w[perm]), j


def _uniform(seed, box, n=BATCH):
    lo, hi = np.array(box).T
    return lo + np.random.default_rng(seed).random((n, len(box))) * (hi - lo)


def _record(*objs) -> tuple:
    return tuple(getattr(o, f.name) for o in objs for f in dataclasses.fields(o)
                 if f.name != "elliptic")


@pytest.mark.parametrize("seed", SEEDS)
def test_elliptic_KE_vec(seed):
    (k,) = _uniform(seed, [(0.0, 0.999)]).T
    assert_batch_invariant(elliptic_KE_vec, [k], seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_elliptic_Pi_vec(seed):
    # n on both sides of the pole n = 1 and in the principal-value range
    n, k = _uniform(seed, [(-3.0, 30.0), (0.0, 0.997)]).T
    assert_batch_invariant(lambda n, k: (elliptic_Pi_vec(n, k),), [n, k], seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_elliptic_data(seed):
    k, rho = _uniform(seed, [(0.01, 0.99), (0.1, 10.0)]).T
    assert_batch_invariant(lambda k, rho: _record(elliptic_data(k, rho)), [k, rho], seed)


def _ah_point(k, theta, phi, psi):
    """Chart state and curve data, pi(x_pm), (u, U, Z) and the metric block."""
    state = ah.ah_from_spherical(ah.AHSphericalPoint(k, theta, phi, psi), AH_P)
    return (_record(state, state.elliptic, ah.ah_metric_UZ(state, AH_P))
            + ah.ah_pi_xpm(state) + ah.ah_u_coordinate(state, AH_P))


@pytest.mark.parametrize("seed", SEEDS)
def test_ah_chart_u_and_metric_block(seed):
    rows = []
    for row in _uniform(seed, AH_BOX, 4 * BATCH):
        try:
            _ah_point(*(np.array([v]) for v in row))
        except SlagForgeError:
            continue
        rows.append(row)
    assert len(rows) >= BATCH
    assert_batch_invariant(_ah_point, list(np.array(rows[:BATCH]).T), seed)


def _tn_point(r, theta, phi, psi):
    pt = tn.tn_chart_spherical_to_holo(tn.TNSphericalPoint(r, theta, phi, psi), TN_P)
    return _record(pt, tn.tn_metric_holo(pt, TN_P))


@pytest.mark.parametrize("seed", SEEDS)
def test_tn_chart_and_metric_block(seed):
    cols = _uniform(seed, [(0.3, 20.0), (0.02, math.pi - 0.02), (0.0, 2.0 * math.pi),
                           (0.0, 4.0 * math.pi)]).T
    assert_batch_invariant(_tn_point, list(cols), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_tn_x_solve(seed):
    # per-element (h, m) as the checks draw them, and Re u far out on both sides
    re_u, absz, h, m = _uniform(seed, [(-200.0, 200.0), (1e-3, 20.0), (0.3, 3.0),
                                       (0.0, 3.0)]).T
    assert_batch_invariant(lambda *c: (tn.tn_solve_x(c[0], c[1], tn.TNParams(c[2], c[3])),),
                           [re_u, absz, h, m], seed)
