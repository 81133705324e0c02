"""Cohomogeneity-one solution-curve generation and residual verification.

Closed-form families (the two tri-holomorphic U(1) cases and the rotational
SO(2) level sets on Taub-NUT), the implicit Atiyah-Hitchin condition in the
(theta, phi) and (theta, k) planes (both sin 2psi signs of a family are the
two layers of one grid), a marching-squares zero-set tracer (one
outer-product evaluation of the condition on the node lattice, crossed edges
refined by vectorized Illinois steps), and the end-to-end Lagrangian /
special-Lagrangian residual report (omega, Im Omega, moment constancy),
one array pass for all traces of a family.

ah_cos2psi_level (cos 2psi on mu = c1, with its K and E) and ah_condition
(NaN where there is no real psi) take scalars or arrays; the tracer maps its
samples by atiyah_hitchin._chart from the level set's K and E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import atiyah_hitchin as ah
from . import moment_maps as mm
from . import taub_nut as tn
from .elliptic import _elliptic_KE
# unused here: bench/tracing.py wraps them by name, tests/test_bench_bindings.py checks them
from .elliptic import elliptic_E_vec, elliptic_K, elliptic_K_vec  # noqa: F401
from .errors import ChartError, DomainError, EmptyDomainError
from .masks import mask_any


@dataclass
class CurveTrace:
    """Ordered samples of one solution curve.

    cols holds the chart columns: Taub-NUT traces carry r/theta/phi/psi,
    Atiyah-Hitchin traces k/theta/phi/psi (the manifold passed alongside the
    trace names the chart).  verify_slag returns the residual report of a
    trace; the CSV writer takes the trace and its report.
    """

    action: str                    # "u1" | "so2"
    t: np.ndarray
    cols: dict[str, np.ndarray]
    params: dict[str, float]
    tag: str = ""

    def __post_init__(self):
        if mask_any(np.diff(self.t) <= 0):
            raise DomainError("CurveTrace requires strictly increasing t")


# ---------------------------------------------------------------------------
# Taub-NUT closed-form families
# ---------------------------------------------------------------------------

def tn_u1_case1(c1: float, c2: float, r_range: tuple[float, float] | None = None,
                n: int = 800) -> list[CurveTrace]:
    """Curves (r, theta(r), phi(r)) with r cos(theta) = c1, cos(phi) = 2c2/sqrt(r^2-c1^2).

    Both arccos branches are emitted, tagged "+" and "-"; psi is recorded as 0.
    The trace parameter is phi of the "+" branch, negated for c2 < 0 (every
    column is smooth in it, including at the turning point
    r = sqrt(c1^2 + 4 c2^2) where dphi/dr diverges); rows run from the
    smallest admissible r upward.
    """
    r0 = math.sqrt(c1 * c1 + 4.0 * c2 * c2)
    if r_range is None:
        r_range = (r0, r0 + 9.0)
    lo, hi = r_range
    if lo < r0 - 1e-12 * max(1.0, r0) or hi <= lo:
        raise EmptyDomainError(
            f"admissible r-range starts at sqrt(c1^2+4c2^2) = {r0!r}, got {r_range!r}")
    if c2 == 0.0 and lo <= abs(c1):
        raise EmptyDomainError("with c2 = 0 the range must satisfy r > |c1|")

    def phi_of_r(r):
        return math.acos(min(1.0, 2.0 * c2 / math.sqrt(max(r * r - c1 * c1, 1e-300))))

    if c2 != 0.0:
        # phi rises with r for c2 > 0 and falls for c2 < 0: t = +-phi increases
        sign = math.copysign(1.0, c2)
        t = sign * np.linspace(phi_of_r(lo), phi_of_r(hi), n)
        r = np.sqrt(c1 * c1 + 4.0 * c2 * c2 / np.cos(t) ** 2)
    else:
        r = np.linspace(lo, hi, n)
        t = r.copy()  # constant-phi curve; parametrize by r itself
    theta = np.arccos(np.clip(c1 / r, -1.0, 1.0))
    phi_plus = np.arccos(np.clip(
        2.0 * c2 / np.sqrt(np.maximum(r * r - c1 * c1, 1e-300)), -1.0, 1.0))
    traces = []
    for tag, phi in (("+", phi_plus), ("-", (2.0 * math.pi - phi_plus) % (2.0 * math.pi))):
        traces.append(CurveTrace(
            action="u1", t=t.copy(),
            cols={"r": r.copy(), "theta": theta.copy(), "phi": phi,
                  "psi": np.zeros_like(r)},
            params={"c1": c1, "c2": c2}, tag=tag))
    return traces


def tn_u1_case2(c: float, n: int = 800) -> list[CurveTrace]:
    """Curves (theta, phi(theta)) with cos(phi) = c / tan(theta).

    The chart lift uses r = 1 / cos(theta) (so x = c1 = 1 along the curve),
    which confines theta to (0, pi/2); theta runs over
    [max(arctan|c|, 0.01), pi/2 - 0.02].  Sampled uniformly in phi, where
    theta(phi) = arctan(c / cos(phi)) is smooth.
    """
    th_min = math.atan(abs(c)) if c != 0.0 else 1e-2
    lo, hi = max(th_min, 1e-2), math.pi / 2.0 - 0.02
    if hi <= lo:
        raise EmptyDomainError(
            f"admissible theta-range [{th_min!r}, pi/2 - 0.02] is empty at c={c!r}")
    if c > 0.0:
        def phi_of_th(th):
            return math.acos(min(1.0, max(-1.0, c / math.tan(th))))

        t = np.linspace(phi_of_th(lo), phi_of_th(hi), n)
        theta = np.arctan2(c, np.cos(t))
    else:
        theta = np.linspace(lo, hi, n)
        t = theta.copy()
    phi_plus = np.arccos(np.clip(c / np.tan(theta), -1.0, 1.0))
    r = 1.0 / np.cos(theta)
    traces = []
    for tag, phi in (("+", phi_plus), ("-", (2.0 * math.pi - phi_plus) % (2.0 * math.pi))):
        traces.append(CurveTrace(
            action="u1", t=t.copy(),
            cols={"r": r.copy(), "theta": theta.copy(), "phi": phi,
                  "psi": np.zeros_like(theta)},
            params={"c": c, "c1": 1.0, "c2": c / 2.0}, tag=tag))
    return traces


def tn_so2_r_of_theta(theta, c1: float, p: tn.TNParams):
    """Positive root of 2mr + r^2 sin^2(theta)/(2h) = c1 (limit c1/(2m) on the axis).

    Uses the rationalized form 2 c1 / (2m + sqrt(4m^2 + 2 c1 sin^2/h)), which
    is cancellation-free and carries the axis limit automatically.
    """
    s2 = np.sin(theta) ** 2
    disc = 4.0 * p.m**2 + 2.0 * c1 * s2 / p.h
    if mask_any(disc < 0):
        raise DomainError("negative discriminant; c1 must be positive")
    return 2.0 * c1 / (2.0 * p.m + np.sqrt(disc))


def tn_so2_curve(c1: float, p: tn.TNParams, branch: str = "plane",
                 psi_rate: float = 0.0, n: int = 800) -> list[CurveTrace]:
    """Level-set curves of 2mr + 2|z|^2/h = c1 for the rotational SO(2).

    plane branch: r(theta) for theta in [0.02, pi - 0.02] at phi in
    {pi/2, 3pi/2} (psi_rate = 0, real case) or phi in {0, pi}
    (psi_rate != 0, imaginary case with psi = -(c/2m) t).
    axis branch: r = c1/(2m), theta in {0, pi}, phi free.
    """
    if not 0.0 < c1 < math.inf:
        raise DomainError(f"tn_so2_curve requires finite c1 > 0, got {c1!r}")
    if not math.isfinite(psi_rate):
        raise DomainError(f"tn_so2_curve requires a finite psi_rate, got {psi_rate!r}")
    if p.m == 0 and (branch == "axis" or psi_rate):
        raise DomainError("the axis branch (r = c1/(2m)) and psi_rate != 0 need m > 0")
    if branch == "axis":
        r_ax = c1 / (2.0 * p.m)
        phis = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        traces = []
        for tag, th in (("axis0", 0.0), ("axispi", math.pi)):
            psi = (-psi_rate / (2.0 * p.m) * phis) % (4.0 * math.pi) \
                if psi_rate else np.zeros_like(phis)
            traces.append(CurveTrace(
                action="so2", t=phis.copy(),
                cols={"r": np.full_like(phis, r_ax), "theta": np.full_like(phis, th),
                      "phi": phis.copy(), "psi": psi},
                params={"c1": c1, "m": p.m, "h": p.h, "psi_rate": psi_rate},
                tag=tag))
        return traces
    if branch != "plane":
        raise DomainError(f"branch must be 'plane' or 'axis', got {branch!r}")
    lo, hi = 0.02, math.pi - 0.02
    # uniform in log tan(theta/2): the chart's log term is exactly linear
    # there, so difference quotients stay accurate toward the axis
    t = np.linspace(math.log(math.tan(lo / 2.0)), math.log(math.tan(hi / 2.0)), n)
    theta = 2.0 * np.arctan(np.exp(t))
    r = tn_so2_r_of_theta(theta, c1, p)
    phis = (math.pi / 2.0, 3.0 * math.pi / 2.0) if psi_rate == 0.0 else (0.0, math.pi)
    psi = (-psi_rate / (2.0 * p.m) * t) % (4.0 * math.pi) if psi_rate \
        else np.zeros_like(theta)
    traces = []
    for phi0 in phis:
        traces.append(CurveTrace(
            action="so2", t=t.copy(),
            cols={"r": r.copy(), "theta": theta.copy(),
                  "phi": np.full_like(theta, phi0), "psi": psi.copy()},
            params={"c1": c1, "m": p.m, "h": p.h, "psi_rate": psi_rate},
            tag=f"plane-phi{phi0:.4f}"))
    return traces


# ---------------------------------------------------------------------------
# Atiyah-Hitchin implicit condition
# ---------------------------------------------------------------------------

def ah_cos2psi_level(theta, k, c1: float, h: float):
    """Unclamped cos(2 psi) of the moment level set mu = c1 at (theta, k), K(k) and E(k).

    cos 2psi = ((2k^2-1)(1-3cos^2 th) + (3h/(4K^2))(c1 + 16hK((k^2-2)K/3 + E)))
    / (3 sin^2 th), affine in c1 with slope h/(4K^2 sin^2 th).  Scalars or
    arrays; K and E come from one extended-AGM run over k as given (a
    (theta, k) grid passes its k row, not the full lattice), each element
    with the bits of its own scalar run.  The K and E returned serve the
    chart and curve data of the same samples.
    The value may leave [-1, 1] (no real psi) and is not finite where
    sin theta = 0.
    """
    K, E = _elliptic_KE(k)
    bracket = (3.0 * h / (4.0 * K * K)) * (
        c1 + 16.0 * h * K * ((k * k - 2.0) * K / 3.0 + E))
    st2 = np.sin(theta) ** 2
    ct = np.cos(theta)
    tk = 2.0 * k * k - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return (tk * (1.0 - 3.0 * ct * ct) + bracket) / (3.0 * st2), K, E


def _in_range(c2p):
    """Where a real psi exists: |cos 2psi| <= 1 up to rounding (False for NaN)."""
    return np.abs(c2p) <= 1.0 + 1e-12


def _at(a: np.ndarray, mask: np.ndarray, shape: tuple):
    """The entries of a, broadcast to shape, where mask holds on its leading
    axes (a 0-d a is returned as is, to broadcast where it is used)."""
    if a.ndim == 0:
        return a
    return (a if a.shape == shape else np.broadcast_to(a, shape))[mask]


def _ah_sqrt_w(c2p, ct, st2, tk):
    """sqrt(w) at s = +1 and where sin 2psi = 0, at points with a real psi.

    w = cos 2psi (1 + cos^2 th) + (2k^2 - 1) sin^2 th + 2i s sin 2psi cos th
    with sin 2psi = sqrt(1 - cos^2 2psi) >= 0; the arguments are the points'
    cos 2psi (a 1-d array, in range up to rounding, clipped here), cos th,
    sin^2 th and 2k^2 - 1 (each of its length, or a scalar).  The second
    result marks where sin 2psi = 0, so that w is the same at both signs.
    """
    c2p = np.clip(c2p, -1.0, 1.0)
    s2p = np.sqrt(np.maximum(1.0 - c2p * c2p, 0.0))
    w = c2p * (1.0 + ct * ct) + tk * st2 + 2j * s2p * ct
    return np.sqrt(w), s2p == 0.0


def _ah_condition_layers(theta, phi, k, c1: float, h: float) -> np.ndarray:
    """Both sign layers of the condition, shape (2, ...) (s = +1, -1); NaN where no psi.

    Each factor is computed on its own broadcast shape: cos 2psi, K and E
    on that of (theta, k), the leading axes of the result, e^{i phi} K on
    that of (phi, k).  The complex part, w and sqrt(w) (_ah_sqrt_w) and the
    two layer products, runs only where a real psi exists: sqrt(w) at the
    in-range entries of cos 2psi (on a (theta, phi) lattice one per theta
    row), each product over the phi values of those entries, scattered into
    a NaN-filled result.  sqrt(w) at s = -1 is the conjugate of sqrt(w) at
    s = +1, except where sin 2psi = 0 (see ah_condition).
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    k = np.asarray(k, dtype=float)
    shape = np.broadcast(theta, phi, k).shape
    lead = np.broadcast(theta, k).shape
    lead = (1,) * (len(shape) - len(lead)) + lead
    while lead and lead[-1] == 1 and shape[len(lead) - 1] != 1:
        lead = lead[:-1]            # the axes phi alone spans, last
    if lead != shape[:len(lead)]:   # phi spans an axis before one of (theta, k)'s
        theta, k = np.broadcast_to(theta, shape), np.broadcast_to(k, shape)
        lead = shape
    c2p, K, _ = ah_cos2psi_level(theta, k, c1, h)
    ok = _in_range(c2p)
    sq, real_w = _ah_sqrt_w(c2p[ok], _at(np.cos(theta), ok, ok.shape),
                            _at(np.sin(theta) ** 2, ok, ok.shape),
                            _at(2.0 * k * k - 1.0, ok, ok.shape))
    rows = ok.reshape(lead)
    sq = sq.reshape((-1,) + (1,) * (len(shape) - len(lead)))
    real_w = real_w.reshape(sq.shape)
    ek = _at(np.exp(1j * phi) * K, rows, shape)
    out = np.full((2,) + shape, np.nan)
    out[0, ...][rows] = 2.0 * np.real(ek * sq)
    out[1, ...][rows] = 2.0 * np.real(ek * np.where(real_w, sq, np.conjugate(sq)))
    return out


def ah_condition(theta, phi, k, c1: float, h: float, sign: int = 1):
    """Condition residual 2 Re(e^{i phi} K sqrt(w)); NaN where there is no real psi.

    Its zero set is {Re sqrt(z) = 0} on mu = c1; scalars or arrays that
    broadcast, a scalar for scalars.  Only sqrt(w) depends on the sign.
    Where sin 2psi != 0, w at s = -1 is the conjugate of w at s = +1 (cos
    theta is never exactly 0 at a float theta) and csqrt commutes with
    conjugation; where sin 2psi = 0 both signs share w, with Im w = +0,
    which a conjugate would move across the cut at cos 2psi = -1.  So both
    signs read one sqrt(w) (_ah_condition_layers), bit for bit the per-sign
    arithmetic (pinned by the per-sign reference tests in
    tests/test_slag_curves.py).
    """
    return _ah_condition_layers(theta, phi, k, c1, h)[int(sign < 0)][()]


# ---------------------------------------------------------------------------
# Implicit zero-set tracing (marching squares + Illinois refinement)
# ---------------------------------------------------------------------------

@dataclass
class ImplicitGrid:
    """Rectangle, resolution and a vectorized condition f(x, y), one layer or several.

    f must broadcast: the node lattice is evaluated in one call with an
    (n+1, 1) column of x and a (1, n+1) row of y, and the result (which may
    be a scalar or any shape that broadcasts to (n+1, n+1)) is read as the
    (n+1) x (n+1) node values; saddle centres and edge refinement call it
    with equal-length 1-d arrays of m points.  A layered f (L conditions on
    one lattice) returns a leading axis: (L, n+1, n+1) and (L, m).
    """

    f: Callable
    rect: tuple[float, float, float, float]   # x0, x1, y0, y1
    n: int = 256

    def __post_init__(self):
        if self.n < 16:
            raise DomainError(f"ImplicitGrid needs n >= 16, got {self.n!r}")
        x0, x1, y0, y1 = self.rect
        if not (x1 > x0 and y1 > y0):
            raise DomainError(f"degenerate rectangle {self.rect!r}")


def _refine_edges(f, p0s: np.ndarray, p1s: np.ndarray, f0s: np.ndarray,
                  f1s: np.ndarray, tol: float) -> np.ndarray:
    """Vectorized Illinois (safeguarded regula falsi) root refinement.

    Each segment p0 -> p1 carries a sign change between its end values f0,
    f1 (already known, so no end is evaluated again).  Its bracket [a, b] in
    the segment parameter starts at [0, 1]; each sweep takes the secant point
    of the bracket, or the midpoint where that point is not strictly inside
    it, and keeps the half with the sign change.  When the same end moves
    twice in a row, the function value kept at the other end is halved (the
    Illinois step), so both ends converge.  A segment stops at |f| < tol, at
    a non-finite value, or when the bracket its point came from is under
    1e-10 of the edge length; f is evaluated only on segments still active,
    for at most 80 sweeps, with one argument per point column (x, y, and a
    layer index equal at both ends).  Returns the last point on each segment.
    """
    m = len(p0s)
    a, b = np.zeros(m), np.ones(m)
    fa, fb = f0s.astype(float), f1s.astype(float)
    moved = np.zeros(m, dtype=np.int8)       # end moved last: -1 a, +1 b
    t = np.full(m, 0.5)
    active = np.arange(m)
    for _ in range(80):
        lo, hi, flo, fhi = a[active], b[active], fa[active], fb[active]
        with np.errstate(all="ignore"):
            x = (lo * fhi - hi * flo) / (fhi - flo)
        x = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))
        t[active] = x
        pts = p0s[active] + x[:, None] * (p1s[active] - p0s[active])
        with np.errstate(all="ignore"):
            fx = np.asarray(f(*pts.T), dtype=float)
        done = ~np.isfinite(fx) | (np.abs(fx) < tol) | ((hi - lo) < 1e-10)
        live = active[~done]
        x, fx = x[~done], fx[~done]
        to_a = (fx > 0.0) == (fa[live] > 0.0)
        ia, ib = live[to_a], live[~to_a]
        fb[ia[moved[ia] == -1]] *= 0.5
        fa[ib[moved[ib] == 1]] *= 0.5
        a[ia], fa[ia], moved[ia] = x[to_a], fx[to_a], -1
        b[ib], fb[ib], moved[ib] = x[~to_a], fx[~to_a], 1
        active = live
        if not len(active):
            break
    return p0s + t[:, None] * (p1s - p0s)


def _nonzero(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.nonzero of a 3-d mask (same indices, same C order), several times faster."""
    rest, j = np.divmod(np.flatnonzero(mask), mask.shape[2])
    return (*np.divmod(rest, mask.shape[1]), j)


_REFINE_TOL = 1e-10   # |f| at which _refine_edges stops refining a crossed edge


def trace_zero_set(grid: ImplicitGrid) -> list[np.ndarray]:
    """Polylines approximating {f = 0} on the grid rectangle, per layer.

    Marching squares on an (n+1) x (n+1) node lattice, whose values come
    from one call f(xs[:, None], ys[None, :]), so a term that depends on one
    coordinate alone is computed once per grid line; each crossed cell edge
    is refined by batched Illinois steps (_refine_edges) to |f| < _REFINE_TOL or
    1e-10 of the edge length, starting from the node values already known.
    A crossed edge is named by its row in the refined-vertex array
    (horizontal edges first, then vertical, each in C order of the
    (layer, lattice) axes).  A two-crossing cell joins its two crossed
    edges; a saddle cell joins two pairs chosen by the sign of f at its
    centre.  Cells with any non-finite corner are skipped (flagged region),
    and a lattice without a finite node returns [] before any refinement.
    A crossing is a sign change between finite node values, so a jump
    without a zero (f changing sign across a branch cut, say) is traced as
    a crossing too; its vertex keeps |f| of the size of the jump.  All
    layers of a layered grid are refined in one run, each edge on its own
    layer, and each polyline is what its layer alone gives, with the layer
    index as a third column.  The output ordering is deterministic: polylines sorted by layer, then
    lexicographically by first vertex, each open one oriented so the first
    vertex is not greater than the last; a closed loop starts and ends at
    its smallest vertex and runs from it toward the neighbour across the
    earlier cell (in C order of the cell lattice).
    """
    x0, x1, y0, y1 = grid.rect
    n = grid.n
    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)
    with np.errstate(all="ignore"):
        F = np.asarray(grid.f(xs[:, None], ys[None, :]), dtype=float)
    layered = F.ndim == 3
    F = np.broadcast_to(F, (len(F) if layered else 1, n + 1, n + 1))
    fin = np.isfinite(F)
    if not fin.any():
        return []

    def f(x, y, layer):   # each point's value on its own layer
        vals = np.broadcast_to(np.asarray(grid.f(x, y), dtype=float), (len(F), len(x)))
        return vals[layer.astype(np.intp), np.arange(len(x))]

    pos = F > 0.0

    # crossed edges with both ends finite, and their ids (-1: not crossed)
    h_cross = (pos[:, :-1, :] != pos[:, 1:, :]) & fin[:, :-1, :] & fin[:, 1:, :]
    v_cross = (pos[:, :, :-1] != pos[:, :, 1:]) & fin[:, :, :-1] & fin[:, :, 1:]
    hl, hi, hj = _nonzero(h_cross)
    vl, vi, vj = _nonzero(v_cross)
    nh, nv = len(hi), len(vi)
    hid = np.full(h_cross.shape, -1, dtype=np.int32)
    hid[hl, hi, hj] = np.arange(nh)
    vid = np.full(v_cross.shape, -1, dtype=np.int32)
    vid[vl, vi, vj] = np.arange(nh, nh + nv)
    layer = np.concatenate([hl, vl]).astype(float)
    p0s = np.column_stack([np.concatenate([xs[hi], xs[vi]]),
                           np.concatenate([ys[hj], ys[vj]]), layer])
    p1s = np.column_stack([np.concatenate([xs[hi + 1], xs[vi]]),
                           np.concatenate([ys[hj], ys[vj + 1]]), layer])
    f0s = np.concatenate([F[hl, hi, hj], F[vl, vi, vj]])
    f1s = np.concatenate([F[hl, hi + 1, hj], F[vl, vi, vj + 1]])
    refined = _refine_edges(f, p0s, p1s, f0s, f1s, _REFINE_TOL) if nh + nv else p0s
    refined = refined if layered else refined[:, :2]

    cell_ok = fin[:, :-1, :-1] & fin[:, 1:, :-1] & fin[:, :-1, 1:] & fin[:, 1:, 1:]
    crossings = (h_cross[:, :, :-1].astype(np.int8) + h_cross[:, :, 1:]
                 + v_cross[:, :-1, :] + v_cross[:, 1:, :]) * cell_ok
    cl, ci, cj = _nonzero((crossings == 2) | (crossings == 4))
    # each cell's edge ids in bottom, top, left, right order, and its one or
    # two segments (a (-1, -1) row pads a two-crossing cell)
    edges = np.column_stack([hid[cl, ci, cj], hid[cl, ci, cj + 1],
                             vid[cl, ci, cj], vid[cl, ci + 1, cj]])
    saddle = crossings[cl, ci, cj] == 4
    segs = np.full((len(ci), 2, 2), -1)
    two = edges[~saddle]
    segs[~saddle, 0] = two[two >= 0].reshape(-1, 2)
    if saddle.any():
        sl, si, sj = cl[saddle], ci[saddle], cj[saddle]
        cx = 0.5 * (xs[si] + xs[si + 1])
        cy = 0.5 * (ys[sj] + ys[sj + 1])
        with np.errstate(all="ignore"):
            fc = f(cx, cy, sl)
        bottom, top, left, right = edges[saddle].T
        same = (fc > 0.0) == pos[sl, si, sj]
        segs[saddle, 0] = np.column_stack([bottom, np.where(same, right, left)])
        segs[saddle, 1] = np.column_stack([top, np.where(same, left, right)])
    segs = segs.reshape(-1, 2)
    segs = segs[segs[:, 0] >= 0]

    # an edge borders at most two cells: its neighbours, in segment order
    ends = segs.ravel()
    order = np.argsort(ends, kind="stable")
    ends = ends[order]
    slot = np.concatenate([[0], ends[1:] == ends[:-1]]).astype(int)
    nbr = np.full((len(refined), 2), -1)
    nbr[ends, slot] = segs[:, ::-1].ravel()[order]
    deg = (nbr >= 0).sum(axis=1)
    n0, n1 = nbr[:, 0].tolist(), nbr[:, 1].tolist()

    def walk(start, stop):
        chain, prev, cur = [start], start, n0[start]
        while cur != stop:
            chain.append(cur)
            prev, cur = cur, (n1[cur] if n0[cur] == prev else n0[cur])
        return chain

    seen = np.zeros(len(refined), dtype=bool)
    chains = []
    for tip in np.flatnonzero(deg == 1).tolist():
        if not seen[tip]:
            chains.append(walk(tip, -1))
            seen[chains[-1]] = True
    # what is left are closed loops, each walked from its smallest vertex
    rest = np.flatnonzero((deg == 2) & ~seen)
    for start in rest[np.lexsort(refined[rest].T[::-1])].tolist():
        if not seen[start]:
            chains.append(walk(start, start) + [start])
            seen[chains[-1]] = True

    polylines = []
    for chain in chains:
        pts = refined[chain]
        if tuple(pts[0]) > tuple(pts[-1]):
            pts = pts[::-1]
        polylines.append(pts)
    polylines.sort(key=lambda p: (tuple(p[0, 2:]), tuple(p[0, :2]), tuple(p[-1, :2]), len(p)))
    return polylines


# ---------------------------------------------------------------------------
# Atiyah-Hitchin trace families (theta-phi and theta-k planes)
# ---------------------------------------------------------------------------

_MAX_SAMPLES = 320   # vertices kept per polyline
_MIN_RUN = 6         # shortest run of good samples emitted as a trace
_Y_GUARD = 1e-7      # ah_regular's min |y_pm| / rho^{3/2} for a traced sample


def _ah_traces_from_polylines(polylines: list[np.ndarray], plane: str, fixed: float,
                              c1: float, h: float) -> list[CurveTrace]:
    """Chart traces from the polylines of _ah_family's grid (layers s = +1, -1).

    Each polyline is thinned to at most _MAX_SAMPLES evenly spaced vertices;
    the level set, psi, ah._chart (with the level set's K and E) and the
    sample mask run once over all vertices.  Samples without a real psi or
    not regular (ah.ah_regular at guard _Y_GUARD: y_pm -> 0, x_pm at the cut
    ends) are removed and their polyline is split there: difference quotients
    must never bridge a locus where the metric coefficients blow up.  Runs
    shorter than _MIN_RUN are dropped.
    """
    parts = []                # (layer, index in the layer, t, vertices)
    count = [0, 0]
    for pts in polylines:
        layer = int(pts[0, 2])
        if len(pts) > _MAX_SAMPLES:
            pts = pts[np.unique(np.linspace(0, len(pts) - 1, _MAX_SAMPLES).astype(int))]
        seg = np.hypot(*np.diff(pts[:, :2], axis=0).T)
        t = np.concatenate([[0.0], np.cumsum(seg)])
        keep = np.concatenate([[True], seg > 0])
        parts.append((layer, count[layer], t[keep], pts[keep]))
        count[layer] += 1
    if not parts:
        return []
    t = np.concatenate([p[2] for p in parts])
    pts = np.concatenate([p[3] for p in parts])
    theta = pts[:, 0]
    if plane == "theta-phi":
        phi = pts[:, 1] % (2.0 * math.pi)
        kcol = np.full_like(theta, fixed)
    else:
        kcol = pts[:, 1]
        phi = np.full_like(theta, fixed % (2.0 * math.pi))
    c2p, K, E = ah_cos2psi_level(theta, kcol, c1, h)
    good = _in_range(c2p)
    half = 0.5 * np.arccos(np.clip(np.where(good, c2p, 1.0), -1.0, 1.0))
    psi = np.where(pts[:, 2] == 0, half, math.pi - half)
    good &= ah.ah_regular(*ah._chart(kcol, theta, phi, psi, h, K, E), _Y_GUARD)
    traces = []
    starts = np.cumsum([0] + [len(p[2]) for p in parts])
    for (layer, index, _, _), start, stop in zip(parts, starts, starts[1:]):
        # runs of good samples: [a, b) from the rising and falling edges
        edges = start + np.flatnonzero(np.diff(np.concatenate([[0], good[start:stop], [0]])))
        runs = [slice(a, b) for a, b in zip(edges[::2], edges[1::2]) if b - a >= _MIN_RUN]
        for r, sl in enumerate(runs):
            traces.append(CurveTrace(
                action="so2", t=t[sl].copy(),
                cols={"k": kcol[sl].copy(), "theta": theta[sl].copy(),
                      "phi": phi[sl].copy(), "psi": psi[sl].copy()},
                params={"c1": c1, "h": h, "sign": float(1 - 2 * layer)},
                tag=f"{'s+' if layer == 0 else 's-'}-part{index}r{r}"))
    return traces


def _ah_family(plane: str, fixed: float, c1: float, h: float, n: int) -> list[CurveTrace]:
    """Solution curves of the implicit condition in one plane, both sin 2psi signs.

    On the theta-phi plane fixed is k, on the theta-k plane it is phi.  One
    two-layer grid (s = +1, -1) reads both layers from one sqrt(w) per
    evaluation, so the node lattice is evaluated once and the crossed edges
    of both signs are refined in one run.
    """
    if plane == "theta-phi":
        def f(th, ph):
            return _ah_condition_layers(th, ph, fixed, c1, h)
        y_range = (0.0, 2.0 * math.pi)
    else:
        def f(th, kk):
            return _ah_condition_layers(th, fixed, kk, c1, h)
        y_range = (0.02, 0.98)
    grid = ImplicitGrid(f=f, rect=(0.02, math.pi - 0.02, *y_range), n=n)
    return _ah_traces_from_polylines(trace_zero_set(grid), plane, fixed, c1, h)


def ah_traces_theta_phi(k: float, c1: float, h: float = 1.0,
                        n: int = 256) -> list[CurveTrace]:
    """Solution curves of the implicit condition in the (theta, phi)-plane at fixed k."""
    return _ah_family("theta-phi", k, c1, h, n)


def ah_traces_theta_k(phi: float, c1: float, h: float = 1.0,
                      n: int = 256) -> list[CurveTrace]:
    """Solution curves of the implicit condition in the (theta, k)-plane at fixed phi."""
    return _ah_family("theta-k", phi, c1, h, n)


# ---------------------------------------------------------------------------
# Residual verification
# ---------------------------------------------------------------------------

def _residuals(block: tn.MetricBlock, v1u, v1z, v2u, v2z):
    """Per-sample omega(v1, v2) and Im Omega(v1, v2), Omega = du ^ dz.

    The block's fields and the vectors' holomorphic components are arrays
    of length n or scalars.  Both residuals are divided by
    max(1, (|v1u| + |v1z|)(|v2u| + |v2z|)).
    """
    scale = np.maximum(1.0, (np.abs(v1u) + np.abs(v1z)) * (np.abs(v2u) + np.abs(v2z)))
    omega = mm.kahler_omega(block, v1u, v1z, v2u, v2z)
    return omega / scale, (v1u * v2z - v1z * v2u).imag / scale


def _segment_deriv(w: np.ndarray, t: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Derivative of each row of w along t, segment by segment.

    Segment j holds samples [ends[j-1], ends[j]) (from 0), at least 3 of
    them.  Each sample i takes the derivative of the polynomial through the
    min(5, n) samples of its segment nearest it, centred where the segment
    allows and one-sided at its ends, on any spacing: with the node offsets
    d_k = t_k - t_i, it is sum_k c_k (w_k - w_i) over the other nodes, with
    the barycentric weights c_k = 1 / (d_k prod_{l != i, k} (1 - d_k / d_l))
    (Berrut & Trefethen, SIAM Rev. 46, 2004).  The stencils are the columns
    of one (node, sample) array; a segment of fewer than 5 samples fills
    its columns with the sample itself, whose 1 / d is taken as 0.  Slot
    k's product runs over slots k + 1, ..., k + 4 (mod 5) in that order, and
    the sum over k = 0, ..., 4; both accumulate in place, so no temporary is
    larger than (5, n).  Each sample's value is the same arithmetic in any
    batch.
    """
    n = np.diff(ends, prepend=0)
    size = np.repeat(np.minimum(n, 5), n)
    i = np.arange(len(t))
    first = np.clip(i - 2, np.repeat(ends - n, n), np.repeat(ends, n) - size)
    node = first + np.arange(5)[:, None]
    node = np.where(node < first + size, node, i)
    d = t.take(node) - t
    r = 1.0 / np.where(d != 0.0, d, np.inf)
    prod = 1.0 - d * np.roll(r, -1, axis=0)
    for shift in range(2, 5):
        prod *= 1.0 - d * np.roll(r, -shift, axis=0)
    c = np.divide(r, prod, out=prod)
    deriv = c[0] * (w.take(node[0], axis=1) - w)
    for k in range(1, 5):
        deriv += c[k] * (w.take(node[k], axis=1) - w)
    return deriv


_MANIFOLDS = {"tn": "TaubNUT", "ah": "AtiyahHitchin"}


def _continue_sqrt_branches(Us: np.ndarray, Zs: np.ndarray, ends: np.ndarray):
    """Continue the sqrt(z) branch along each segment before differentiating.

    U = u sqrt(z) and Z = 2 sqrt(z) come from the principal branch, whose cut
    is the negative real z axis, i.e. the traced locus Re Z = 0 itself: there
    the sign of Im z is tracer noise and (U, Z) jumps to (-U, -Z) between
    samples.  Both name the same point (the metric block is even in the
    branch, and v1 = -2i Z d_Z flips with the tangent, so each sample's
    residuals do not depend on it).  Each sample takes the sign that puts Z
    nearest its predecessor's continued value, and each segment (samples
    [ends[j-1], ends[j]), one trace) the sign that makes Im Z > 0 at its
    first sample: on Re Z = 0, Z ~ +-2i sqrt|z| and the sample mask keeps
    |z| >= 1e-10 rho, so Im Z_0 is never zero and the emitted branch does
    not depend on the sign of the noise in Im z.  The flips are counted by
    one cumulative sum, each segment from its own first sample.
    """
    starts = ends - np.diff(ends, prepend=0)
    seg = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
    flip = np.abs(Zs[1:] + Zs[:-1]) < np.abs(Zs[1:] - Zs[:-1])
    flip[ends[:-1] - 1] = False     # no flip between two segments
    flips = np.concatenate([[0], np.cumsum(flip)])
    sign = np.where((flips - flips[starts][seg]) % 2 == 1, -1.0, 1.0)
    sign[Zs[starts][seg].imag < 0.0] *= -1.0
    return Us * sign, Zs * sign


# From 256 KiB (16 384 complex128 elements) NumPy reuses temporaries in
# place, and the complex products of omega (moment_maps.kahler_omega) round
# differently: verify_slag_batch keeps each of its runs below this size.
_EXACT_BATCH_SAMPLES = 16_384


def verify_slag_batch(traces: list[CurveTrace], manifold: str, params) -> list[dict]:
    """verify_slag's report for each trace of a batch (traces of one action).

    Consecutive traces run together, in runs of fewer than
    _EXACT_BATCH_SAMPLES samples (a trace that reaches it runs alone).  Per
    run, the chart, u coordinate, metric block, mu, action field and
    residuals run once over the concatenated samples, and so does the tail:
    the branch continuation (_continue_sqrt_branches), the tangent
    (_segment_deriv) and each trace's maxima and median (reductions over its
    segment).  So each report is the trace's own bit for bit, in any batch.
    A degenerate sample raises for the whole batch.
    """
    if any(len(trace.t) < 3 for trace in traces):
        raise DomainError("verify_slag needs at least 3 samples")
    if manifold not in _MANIFOLDS:
        raise DomainError(f"manifold must be 'tn' or 'ah', got {manifold!r}")
    if len({trace.action for trace in traces}) != 1:
        raise DomainError("a verify_slag batch needs traces, all of one action")
    spec = mm.ActionSpec(_MANIFOLDS[manifold],
                         "U1_triholo" if traces[0].action == "u1" else "SO2_rot")
    reports, start, size = [], 0, 0
    for j, trace in enumerate(traces):
        if j > start and size + len(trace.t) >= _EXACT_BATCH_SAMPLES:
            reports += _verify_run(traces[start:j], spec, manifold, params)
            start, size = j, 0
        size += len(trace.t)
    return reports + _verify_run(traces[start:], spec, manifold, params)


def _verify_run(traces: list[CurveTrace], spec, manifold: str, params) -> list[dict]:
    """verify_slag_batch's reports for one run of its traces, in one pass."""
    n = np.array([len(trace.t) for trace in traces])
    ends = np.cumsum(n)
    starts = ends - n
    cols = {c: np.concatenate([trace.cols[c] for trace in traces]) for c in traces[0].cols}
    theta = cols["theta"]
    phi, psi = cols["phi"] % (2 * math.pi), cols["psi"] % (4 * math.pi)
    off = slice(None)             # the samples that have a metric block
    if manifold == "ah":
        point = ah.ah_from_spherical(ah.AHSphericalPoint(cols["k"], theta, phi, psi), params)
        _, U, Z = ah.ah_u_coordinate(point, params)
        w0, w1 = _continue_sqrt_branches(U, Z, ends)
        block = ah.ah_metric_UZ(point, params)
    else:
        # axis traces (sin theta = 0 identically): z == 0, so omega(v1,v2),
        # Im Omega and mu - c1 all vanish exactly; Re(u) has no chart value
        on_axis = np.abs(np.sin(theta)) < 1e-12
        axis = np.logical_and.reduceat(on_axis, starts)
        if axis.any():
            off = np.repeat(~axis, n)
        if mask_any(on_axis[off]):
            raise ChartError("trace sample on the axis: holomorphic chart undefined")
        r = cols["r"]
        point = tn.tn_chart_spherical_to_holo(
            tn.TNSphericalPoint(r[off], theta[off], phi[off], psi[off]), params)
        block = tn.tn_metric_holo(point, params)
        w0, w1 = point.u, point.z
        if axis.any():
            w0 = np.full(len(r), math.nan) - 2j * params.m * cols["psi"]
            w1 = np.zeros(len(r), dtype=complex)
            w0[off], w1[off] = point.u, point.z
            point = tn.TNHoloPoint(w0, w1, r * np.cos(theta), r)
    mu = spec.moment(point, params)
    X = spec.field(w0[off], w1[off]).view(complex)   # (re, im) pairs read as (v_u, v_z)
    t = np.concatenate([trace.t for trace in traces])
    v2 = _segment_deriv(np.stack([w0, w1]), t, ends)
    omega, im_omega = residuals = np.zeros((2, len(theta)))
    residuals[:, off] = np.abs(_residuals(block, X[..., 0], X[..., 1], v2[0, off], v2[1, off]))
    # each segment's median as np.median takes it: its middle sorted value,
    # the mean of the middle two for an even count, NaN if it holds a NaN
    ranked = mu[np.lexsort((mu, np.repeat(np.arange(len(n)), n)))]
    mid = ranked[starts + (n - 1) // 2]
    med = np.where(n % 2 == 1, mid, (mid + ranked[starts + n // 2]) / 2)
    med[np.logical_or.reduceat(np.isnan(mu), starts)] = math.nan
    top = np.maximum.reduceat(np.stack([omega, im_omega, np.abs(mu - np.repeat(med, n))]),
                              starts, axis=1)
    return [{"omega_max": float(top[0, j]), "omega": omega[a:b],
             "im_omega_max": float(top[1, j]), "im_omega": im_omega[a:b],
             "mu_max_dev": float(top[2, j]), "mu_median": float(med[j]),
             "mu": mu[a:b], "w0": w0[a:b], "w1": w1[a:b]}
            for j, (a, b) in enumerate(zip(starts.tolist(), ends.tolist()))]


def verify_slag(trace: CurveTrace, manifold: str, params) -> dict:
    """Residual report: max |omega(v1,v2)|, max |Im Omega(v1,v2)|,
    max |mu - median(mu)| along the trace, with the per-sample arrays.

    verify_slag_batch of the one trace.  The chart step is the only part
    that depends on the manifold: it gives the holomorphic coordinates
    (w0, w1) of every sample ((u, z) on Taub-NUT, (U, Z) on Atiyah-Hitchin
    with the sqrt(z) branch continued), the metric block and the point that
    mu is read at.  v2 is the derivative of (w0, w1) along the trace
    parameter (_segment_deriv); v1 and mu are the trace action's
    ActionSpec.field and ActionSpec.moment.  The omega and Im Omega
    residuals are normalized per sample by max(1, |v1| |v2|), making them
    parametrization-invariant misalignment measures.  Taub-NUT axis traces
    (sin theta = 0 identically) are evaluated in spherical terms, where
    z = 0 makes all three residuals vanish identically (w0 has no real part
    there and is reported as nan); generic samples off the chart raise
    ChartError.  The report carries w0 and w1 for the CSV writer.
    """
    return verify_slag_batch([trace], manifold, params)[0]


def transversality_variation(trace: CurveTrace, manifold: str, params) -> float:
    """Total variation of |z| (Taub-NUT) or |Z| (Atiyah-Hitchin) along the trace."""
    if manifold == "tn":
        absz = 0.5 * trace.cols["r"] * np.sin(trace.cols["theta"])
        return float(np.sum(np.abs(np.diff(absz))))
    z, _, _ = ah.ah_zvx_from_spherical(trace.cols["k"], trace.cols["theta"],
                                       trace.cols["phi"], trace.cols["psi"], params.h)
    absZ = 2.0 * np.sqrt(np.abs(z))
    return float(np.sum(np.abs(np.diff(absZ))))


def perturb_phi(trace: CurveTrace, dphi: float) -> CurveTrace:
    """Negative-control helper: offset the phi column (breaks the conditions)."""
    cols = {k: v.copy() for k, v in trace.cols.items()}
    cols["phi"] = (cols["phi"] + dphi) % (2.0 * math.pi)
    return CurveTrace(action=trace.action, t=trace.t.copy(),
                      cols=cols, params=dict(trace.params),
                      tag=trace.tag + f"-perturbed{dphi}")
