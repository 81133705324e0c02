"""Batch invariance of the array kernels.

For each kernel f and a seeded batch of 64 inputs, f(batch)[i:i+1] has the
bits of f(batch[i:i+1]) for every i, and f(batch[perm]) has the bits of
f(batch)[perm].  Every loop that runs until a whole batch has converged
holds each element from its own last step, so which batch a point sits in
never moves its result.  Covered: K and E (elliptic_KE_vec), Pi
(elliptic_Pi_vec), the curve data, the Atiyah-Hitchin chart with pi(x_pm),
(u, U, Z) and the metric block, and the Taub-NUT chart, metric block and
x-solve.  verify_slag_batch gives each trace of a batch the bits of its
own verify_slag report.
"""

import dataclasses
import math

import numpy as np
import pytest

from slag_forge import atiyah_hitchin as ah
from slag_forge import presets
from slag_forge import slag_curves as sc
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


def _short(trace, m=5):
    """The first m samples of a trace: under 7, so _deriv takes np.gradient."""
    return sc.CurveTrace(action=trace.action, t=trace.t[:m].copy(),
                         cols={c: v[:m].copy() for c, v in trace.cols.items()},
                         params=dict(trace.params), tag=trace.tag + "-short")


def _twisted(trace, turn=3.0):
    """The trace with phi turned by up to `turn` along it: Z turns with it and
    leaves the upper half-plane, where a branch continued across the end of
    the trace would flip the next trace's first sample."""
    cols = {c: v.copy() for c, v in trace.cols.items()}
    cols["phi"] = (cols["phi"] + np.linspace(0.0, turn, len(trace.t))) % (2.0 * math.pi)
    return sc.CurveTrace(action=trace.action, t=trace.t.copy(), cols=cols,
                         params=dict(trace.params), tag=trace.tag + "-twisted")


def _verify_batches():
    """(traces, manifold, params) of each batch: the fig8 (k = 0.5) and fig9
    (phi = pi/4) families at c1 = -3, each after a twisted trace, and the
    fig5, fig6 and fig7 traces, the fig7 ones with the Taub-NUT axis traces;
    each batch with a short run."""
    fig8 = sc.ah_traces_theta_phi(0.5, -3.0)
    fig9 = sc.ah_traces_theta_k(math.pi / 4, -3.0)
    tn_by_fig = {name: [tr for _, _, tr, _ in presets.preset_traces(name)]
                 for name in ("fig5", "fig6", "fig7")}
    fig7 = tn_by_fig["fig7"] + sc.tn_so2_curve(3.0, TN_P, branch="axis", n=64)
    return {"fig8": ([_twisted(fig8[1])] + fig8 + [_short(fig8[0])], "ah", AH_P),
            "fig9": ([_twisted(fig9[0])] + fig9 + [_short(fig9[-1])], "ah", AH_P),
            "fig5": (tn_by_fig["fig5"] + [_short(tn_by_fig["fig5"][3])], "tn", TN_P),
            "fig6": (tn_by_fig["fig6"] + [_short(tn_by_fig["fig6"][1])], "tn", TN_P),
            "fig7-axis": (fig7 + [_short(fig7[0])], "tn", TN_P)}


@pytest.mark.parametrize("case", ["fig8", "fig9", "fig5", "fig6", "fig7-axis"])
def test_verify_slag_batch_matches_single_trace_reports(case):
    """Each report of a batch has the bits of the trace's own verify_slag
    report, for every key, whatever traces share the batch."""
    traces, manifold, params = _verify_batches()[case]
    assert len(traces) > 2 and min(len(tr.t) for tr in traces) < 7
    if case == "fig7-axis":
        assert sum(np.all(np.abs(np.sin(tr.cols["theta"])) < 1e-12) for tr in traces) == 2
    batch = sc.verify_slag_batch(traces, manifold, params)
    assert len(batch) == len(traces)
    for trace, got in zip(traces, batch):
        ref = sc.verify_slag(trace, manifold, params)
        assert got.keys() == ref.keys()
        for key in ref:
            assert _bits(got[key]) == _bits(ref[key]), (trace.tag, key)
