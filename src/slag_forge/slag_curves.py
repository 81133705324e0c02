"""Cohomogeneity-one solution-curve generation and residual verification.

Closed-form families (the two tri-holomorphic U(1) cases and the rotational
SO(2) level sets on Taub-NUT), the implicit Atiyah-Hitchin condition in the
(theta, phi) and (theta, k) planes (both sin 2psi signs of a family read one
sign-free evaluation of its node lattice), a marching-squares zero-set
tracer (one outer-product evaluation of the condition on the node lattice,
crossed edges refined by vectorized Illinois steps), and the end-to-end
Lagrangian / special-Lagrangian residual report (omega, Im Omega, moment
constancy) for any emitted trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import atiyah_hitchin as ah
from . import moment_maps as mm
from . import taub_nut as tn
from .elliptic import _elliptic_KE, elliptic_KE_vec
# unused here: bench/tracing.py wraps them by name, tests/test_bench_bindings.py checks them
from .elliptic import elliptic_E_vec, elliptic_K, elliptic_K_vec  # noqa: F401
from .errors import ChartError, DomainError, EmptyDomainError, OutOfRangeError
from .masks import mask_all, mask_any


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


def tn_u1_case2(c: float, theta_range: tuple[float, float] | None = None,
                n: int = 800, c1: float = 1.0) -> list[CurveTrace]:
    """Curves (theta, phi(theta)) with cos(phi) = c / tan(theta).

    The chart lift uses r = c1 / cos(theta) (so x = c1 along the curve),
    which confines theta to (0, pi/2) for c1 > 0.  Sampled uniformly in phi,
    where theta(phi) = arctan(c / cos(phi)) is smooth.
    """
    if c1 <= 0:
        raise DomainError("tn_u1_case2 lift uses c1 > 0 (theta < pi/2)")
    th_min = math.atan(abs(c)) if c != 0.0 else 1e-2
    if theta_range is None:
        theta_range = (max(th_min, 1e-2), math.pi / 2.0 - 0.02)
    lo, hi = theta_range
    if lo < th_min - 1e-12 or hi <= lo or hi >= math.pi / 2.0:
        raise EmptyDomainError(
            f"admissible theta-range is [{th_min!r}, pi/2), got {theta_range!r}")
    if c > 0.0:
        def phi_of_th(th):
            return math.acos(min(1.0, max(-1.0, c / math.tan(th))))

        t = np.linspace(phi_of_th(lo), phi_of_th(hi), n)
        theta = np.arctan2(c, np.cos(t))
    else:
        theta = np.linspace(lo, hi, n)
        t = theta.copy()
    phi_plus = np.arccos(np.clip(c / np.tan(theta), -1.0, 1.0))
    r = c1 / np.cos(theta)
    traces = []
    for tag, phi in (("+", phi_plus), ("-", (2.0 * math.pi - phi_plus) % (2.0 * math.pi))):
        traces.append(CurveTrace(
            action="u1", t=t.copy(),
            cols={"r": r.copy(), "theta": theta.copy(), "phi": phi,
                  "psi": np.zeros_like(theta)},
            params={"c": c, "c1": c1, "c2": c * c1 / 2.0}, tag=tag))
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
                 psi_rate: float = 0.0, n: int = 800,
                 theta_range: tuple[float, float] = (0.02, math.pi - 0.02),
                 ) -> list[CurveTrace]:
    """Level-set curves of 2mr + 2|z|^2/h = c1 for the rotational SO(2).

    plane branch: r(theta) at phi in {pi/2, 3pi/2} (psi_rate = 0, real case)
    or phi in {0, pi} (psi_rate != 0, imaginary case with psi = -(c/2m) t).
    axis branch: r = c1/(2m), theta in {0, pi}, phi free.
    """
    if c1 <= 0:
        raise DomainError(f"tn_so2_curve requires c1 > 0, got {c1!r}")
    if branch == "axis":
        if p.m == 0:
            raise DomainError("axis branch needs m > 0 (r = c1/(2m))")
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
    lo, hi = theta_range
    if not (0.0 < lo < hi < math.pi):
        raise EmptyDomainError(f"theta_range must sit inside (0, pi), got {theta_range!r}")
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
    """Unclamped cos(2 psi) of the moment level set mu = c1 at (theta, k), and K(k).

    cos 2psi = ((2k^2-1)(1-3cos^2 th) + (3h/(4K^2))(c1 + 16hK((k^2-2)K/3 + E)))
    / (3 sin^2 th), affine in c1 with slope h/(4K^2 sin^2 th).  Scalars or
    arrays; K and E come from one extended-AGM run, for an array k once per
    distinct value (a (theta, k) grid has one k per column) and scattered
    back: each element has the bits of its own scalar run.  The K returned
    serves the chart of the same samples (_ah_sample_mask).
    The value may leave [-1, 1] (no real psi) and is not finite where
    sin theta = 0.
    """
    if np.ndim(k) == 0:
        K, E = _elliptic_KE(k)
    else:
        ku, inv = np.unique(k, return_inverse=True)
        K, E = elliptic_KE_vec(ku)
        K, E = K[inv].reshape(np.shape(k)), E[inv].reshape(np.shape(k))
    bracket = (3.0 * h / (4.0 * K * K)) * (
        c1 + 16.0 * h * K * ((k * k - 2.0) * K / 3.0 + E))
    st2 = np.sin(theta) ** 2
    ct = np.cos(theta)
    tk = 2.0 * k * k - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return (tk * (1.0 - 3.0 * ct * ct) + bracket) / (3.0 * st2), K


def _in_range(c2p):
    """Where a real psi exists: |cos 2psi| <= 1 up to rounding (False for NaN)."""
    return np.abs(c2p) <= 1.0 + 1e-12


def ah_cos2psi(theta: float, k: float, c1: float, h: float) -> float:
    """Solve the moment level-set equation for cos(2 psi) at fixed (theta, k).

    Raises OutOfRangeError when no real psi exists (|cos 2psi| > 1).
    """
    if math.sin(theta) == 0.0:
        raise ChartError("ah_cos2psi needs sin(theta) != 0")
    val = float(ah_cos2psi_level(theta, k, c1, h)[0])
    if not _in_range(val):
        raise OutOfRangeError(
            f"no real psi: cos(2 psi) = {val!r} at theta={theta!r}, k={k!r}, c1={c1!r}")
    return min(1.0, max(-1.0, val))


def _ah_condition_root(theta, phi, k, c1: float, h: float):
    """Sign-free part of the condition: (in range, e^{i phi} K, sqrt(w) at s = +1, w real).

    w = cos 2psi (1 + cos^2 th) + (2k^2 - 1) sin^2 th + 2i s sin 2psi cos th
    with sin 2psi = sqrt(1 - cos^2 2psi) >= 0, at s = +1.  The last entry
    marks where sin 2psi = 0, so that w is the same at both signs.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    k = np.asarray(k, dtype=float)
    c2p, K = ah_cos2psi_level(theta, k, c1, h)
    ok = _in_range(c2p)
    c2p = np.clip(c2p, -1.0, 1.0)
    st2 = np.sin(theta) ** 2
    ct = np.cos(theta)
    tk = 2.0 * k * k - 1.0
    s2p = np.sqrt(np.maximum(1.0 - c2p * c2p, 0.0))
    w = c2p * (1.0 + ct * ct) + tk * st2 + 2j * s2p * ct
    return ok, np.exp(1j * phi) * K, np.sqrt(w), s2p == 0.0


def _ah_condition_signed(root, sign: int):
    """Condition residual 2 Re(e^{i phi} K sqrt(w)) at sign s from its sign-free root.

    sqrt(w) at s = -1 is the conjugate of sqrt(w) at s = +1, except where
    sin 2psi = 0 (see _ah_condition_arrays).  NaN where no psi.
    """
    ok, ek, sq, real_w = root
    if sign < 0:
        sq = np.where(real_w, sq, np.conjugate(sq))
    return np.where(ok, 2.0 * np.real(ek * sq), np.nan)


def _ah_condition_arrays(theta, phi, k, c1: float, h: float, sign: int):
    """Vectorized condition residual 2 Re(e^{i phi} K sqrt(w)); NaN where no psi.

    The sign enters only through sqrt(w).  w at s = -1 is the conjugate of
    w at s = +1 wherever sin 2psi != 0 (cos theta is never exactly 0 at a
    float theta, so Im w does not vanish there), and csqrt commutes with
    conjugation.  Where sin 2psi = 0 both signs give the same w, with
    Im w = +0, whose conjugate would flip the branch at cos 2psi = -1.  So
    both signs are read from one root (_ah_condition_root), bit for bit the
    per-sign arithmetic; test_shared_root_matches_per_sign_reference and
    test_ah_families_match_per_sign_reference in tests/test_slag_curves.py
    pin it on the fig8 and fig9 lattices, refine points and both range edges.
    """
    return _ah_condition_signed(_ah_condition_root(theta, phi, k, c1, h), sign)


def ah_condition(theta: float, phi: float, k: float, c1: float, h: float,
                 sign: int = 1) -> float:
    """Scalar residual whose zero set is {Re sqrt(z) = 0} on the moment level set."""
    out = float(_ah_condition_arrays(theta, phi, k, c1, h, sign))
    if math.isnan(out):
        raise OutOfRangeError(
            f"no real psi at theta={theta!r}, k={k!r}, c1={c1!r}")
    return out


# ---------------------------------------------------------------------------
# Implicit zero-set tracing (marching squares + Illinois refinement)
# ---------------------------------------------------------------------------

@dataclass
class ImplicitGrid:
    """Rectangle, resolution and a vectorized scalar condition f(x, y).

    f must broadcast: the node lattice is evaluated in one call with an
    (n+1, 1) column of x and a (1, n+1) row of y, and the result (which may
    be a scalar or any shape that broadcasts to (n+1, n+1)) is read as the
    (n+1) x (n+1) node values; saddle centres and edge refinement call it
    with equal-length 1-d arrays.
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
    for at most 80 sweeps.  Returns the last point taken on each segment.
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
            fx = np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
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


def _nonzero(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.nonzero of a 2-d mask (same indices, same C order), several times faster."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def trace_zero_set(grid: ImplicitGrid, tol: float = 1e-10) -> list[np.ndarray]:
    """Polylines approximating {f = 0} on the grid rectangle.

    Marching squares on an (n+1) x (n+1) node lattice, whose values come
    from one call f(xs[:, None], ys[None, :]), so a term that depends on one
    coordinate alone is computed once per grid line; each crossed cell edge
    is refined by batched Illinois steps (_refine_edges) to |f| < tol or
    1e-10 of the edge length, starting from the node values already known.
    A crossed edge is named by its row in the refined-vertex array
    (horizontal edges first, then vertical, each in C order of the lattice).
    A two-crossing cell joins its two crossed edges; a saddle cell joins two
    pairs chosen by the sign of f at its centre.  Cells with any non-finite
    corner are skipped (flagged region).  A crossing is a sign change
    between finite node values, so a jump without a zero (f changing sign
    across a branch cut, say) is traced as a crossing too; its vertex keeps
    |f| of the size of the jump.  The output ordering is deterministic:
    polylines sorted lexicographically by first vertex, each open one
    oriented so the first vertex is not greater than the last; a closed
    loop starts and ends at its smallest vertex and runs from it toward the
    neighbour across the earlier cell (in C order of the cell lattice).
    """
    x0, x1, y0, y1 = grid.rect
    n = grid.n
    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)
    with np.errstate(all="ignore"):
        F = np.broadcast_to(np.asarray(grid.f(xs[:, None], ys[None, :]), dtype=float),
                            (n + 1, n + 1))

    fin = np.isfinite(F)
    pos = F > 0.0

    # crossed edges with both ends finite, and their ids (-1: not crossed)
    h_cross = (pos[:-1, :] != pos[1:, :]) & fin[:-1, :] & fin[1:, :]
    v_cross = (pos[:, :-1] != pos[:, 1:]) & fin[:, :-1] & fin[:, 1:]
    hi, hj = _nonzero(h_cross)
    vi, vj = _nonzero(v_cross)
    nh, nv = len(hi), len(vi)
    hid = np.full(h_cross.shape, -1, dtype=np.int32)
    hid[hi, hj] = np.arange(nh)
    vid = np.full(v_cross.shape, -1, dtype=np.int32)
    vid[vi, vj] = np.arange(nh, nh + nv)
    p0s = np.concatenate([np.column_stack([xs[hi], ys[hj]]),
                          np.column_stack([xs[vi], ys[vj]])])
    p1s = np.concatenate([np.column_stack([xs[hi + 1], ys[hj]]),
                          np.column_stack([xs[vi], ys[vj + 1]])])
    f0s = np.concatenate([F[hi, hj], F[vi, vj]])
    f1s = np.concatenate([F[hi + 1, hj], F[vi, vj + 1]])
    refined = _refine_edges(grid.f, p0s, p1s, f0s, f1s, tol) if nh + nv else p0s

    cell_ok = fin[:-1, :-1] & fin[1:, :-1] & fin[:-1, 1:] & fin[1:, 1:]
    crossings = (h_cross[:, :-1].astype(np.int8) + h_cross[:, 1:]
                 + v_cross[:-1, :] + v_cross[1:, :]) * cell_ok
    ci, cj = _nonzero((crossings == 2) | (crossings == 4))
    # each cell's edge ids in bottom, top, left, right order, and its one or
    # two segments (a (-1, -1) row pads a two-crossing cell)
    edges = np.column_stack([hid[ci, cj], hid[ci, cj + 1], vid[ci, cj], vid[ci + 1, cj]])
    saddle = crossings[ci, cj] == 4
    segs = np.full((len(ci), 2, 2), -1)
    two = edges[~saddle]
    segs[~saddle, 0] = two[two >= 0].reshape(-1, 2)
    if saddle.any():
        si, sj = ci[saddle], cj[saddle]
        cx = 0.5 * (xs[si] + xs[si + 1])
        cy = 0.5 * (ys[sj] + ys[sj + 1])
        with np.errstate(all="ignore"):
            fc = np.asarray(grid.f(cx, cy), dtype=float)
        bottom, top, left, right = edges[saddle].T
        same = (fc > 0.0) == pos[si, sj]
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
    polylines.sort(key=lambda p: (tuple(p[0]), tuple(p[-1]), len(p)))
    return polylines


# ---------------------------------------------------------------------------
# Atiyah-Hitchin trace families (theta-phi and theta-k planes)
# ---------------------------------------------------------------------------

_MAX_SAMPLES = 320   # vertices kept per polyline
_MIN_RUN = 6         # shortest run of good samples emitted as a trace


def _ah_sample_mask(theta, k, phi, psi, h: float, K) -> np.ndarray:
    """Samples clear of the degenerate loci (x_pm at the cut ends, y_pm -> 0); K is K(k)."""
    z, v, x = ah._zvx(k, theta, phi, psi, h, K)
    rho = 16.0 * h * h * K ** 2
    # the cut [e3, e2] of elliptic_data(k, rho)
    k2 = k * k
    e2 = (rho / 3.0) * (2.0 * k2 - 1.0)
    e3 = -(rho / 3.0) * (k2 + 1.0)
    pad = 1e-4 * (e2 - e3)
    with np.errstate(divide="ignore", invalid="ignore"):
        xp, xm, vp, vm, _, _ = ah.ah_xy_from_zvx(z, v, x)
    ymag = np.minimum(np.abs(vp), np.abs(vm)) * (xp - xm)
    return ((np.abs(z) >= 1e-10 * rho) & (e3 + pad < xm) & (xm < e2 - pad)
            & (xp > e2 + pad) & (ymag > 1e-7 * rho ** 1.5))


def _ah_traces_from_polyline(pts: np.ndarray, plane: str, fixed: float, c1: float,
                             h: float, sign: int, tag: str) -> list[CurveTrace]:
    """Chart traces from a zero-set polyline of _ah_family, split at degenerate samples.

    Samples without a real psi or abutting the degenerate loci (y_pm -> 0,
    x_pm at the cut ends) are removed and the polyline is split there:
    difference quotients must never bridge a locus where the metric
    coefficients blow up.  A polyline is thinned to at most _MAX_SAMPLES
    evenly spaced vertices, and runs shorter than _MIN_RUN are dropped.
    """
    if len(pts) > _MAX_SAMPLES:
        idx = np.unique(np.linspace(0, len(pts) - 1, _MAX_SAMPLES).astype(int))
        pts = pts[idx]
    seg = np.hypot(*np.diff(pts, axis=0).T)
    t = np.concatenate([[0.0], np.cumsum(seg)])
    keep = np.concatenate([[True], seg > 0])
    pts, t = pts[keep], t[keep]
    theta = pts[:, 0]
    if plane == "theta-phi":
        phi = pts[:, 1] % (2.0 * math.pi)
        kcol = np.full_like(theta, fixed)
    else:
        kcol = pts[:, 1]
        phi = np.full_like(theta, fixed % (2.0 * math.pi))
    c2p, K = ah_cos2psi_level(theta, kcol, c1, h)
    good = _in_range(c2p)
    half = 0.5 * np.arccos(np.clip(np.where(good, c2p, 1.0), -1.0, 1.0))
    psi = half if sign > 0 else math.pi - half
    good &= _ah_sample_mask(theta, kcol, phi, psi, h, K)
    # runs of good samples: [starts, ends) from the rising and falling edges
    edges = np.flatnonzero(np.diff(np.concatenate([[0], good, [0]])))
    traces = []
    for a, b in zip(edges[::2], edges[1::2]):
        if b - a < _MIN_RUN:
            continue
        sl = slice(a, b)
        traces.append(CurveTrace(
            action="so2", t=t[sl].copy(),
            cols={"k": kcol[sl].copy(), "theta": theta[sl].copy(),
                  "phi": phi[sl].copy(), "psi": psi[sl].copy()},
            params={"c1": c1, "h": h, "sign": float(sign)},
            tag=f"{tag}r{len(traces)}"))
    return traces


def _lattice_memo(root: Callable) -> Callable:
    """root(x, y) that keeps its last node-lattice evaluation, keyed by the values of x and y.

    A node lattice is evaluated with a 2-d column of x and a 2-d row of y
    (ImplicitGrid); saddle centres and refine points (1-d) are evaluated
    afresh and leave the memo as it is, so the second sign grid of a family
    reads the root the first one computed.
    """
    last = None

    def memo(x, y):
        nonlocal last
        if (last is not None and np.shape(x) == last[0].shape
                and np.shape(y) == last[1].shape
                and np.array_equal(x, last[0]) and np.array_equal(y, last[1])):
            return last[2]
        value = root(x, y)
        if np.ndim(x) == 2:
            last = (np.array(x), np.array(y), value)
        return value
    return memo


def _ah_family(plane: str, fixed: float, c1: float, h: float, n: int) -> list[CurveTrace]:
    """Solution curves of the implicit condition in one plane, both sin 2psi signs.

    On the theta-phi plane fixed is k, on the theta-k plane it is phi.  Both
    sign grids read one sign-free evaluation of the node lattice.
    """
    if plane == "theta-phi":
        root = _lattice_memo(lambda th, ph: _ah_condition_root(th, ph, fixed, c1, h))
        y_range = (0.0, 2.0 * math.pi)
    else:
        root = _lattice_memo(lambda th, kk: _ah_condition_root(th, fixed, kk, c1, h))
        y_range = (0.02, 0.98)
    traces = []
    for sign in (1, -1):
        grid = ImplicitGrid(
            f=lambda x, y, s=sign: _ah_condition_signed(root(x, y), s),
            rect=(0.02, math.pi - 0.02, *y_range), n=n)
        for idx, pts in enumerate(trace_zero_set(grid, tol=1e-10)):
            s_tag = "s+" if sign > 0 else "s-"
            traces.extend(_ah_traces_from_polyline(
                pts, plane, fixed, c1, h, sign, f"{s_tag}-part{idx}"))
    return traces


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


def _deriv(vals: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Derivative along the trace: 4th-order stencils on uniform grids,
    np.gradient (2nd-order) otherwise."""
    dt = np.diff(t)
    if len(vals) < 7 or not mask_all(np.abs(dt - dt[0]) <= 1e-10 * abs(dt[0])):
        return np.gradient(vals, t, edge_order=2)
    h = dt[0]
    d = np.empty_like(vals)
    d[2:-2] = (-vals[4:] + 8.0 * vals[3:-1] - 8.0 * vals[1:-3] + vals[:-4]) / (12 * h)
    f = vals
    d[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * h)
    d[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12 * h)
    d[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / (12 * h)
    d[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12 * h)
    return d


_MANIFOLDS = {"tn": "TaubNUT", "ah": "AtiyahHitchin"}


def _continue_sqrt_branch(Us: np.ndarray, Zs: np.ndarray):
    """Continue the sqrt(z) branch along a trace before differentiating.

    U = u sqrt(z) and Z = 2 sqrt(z) come from the principal branch, whose cut
    is the negative real z axis, i.e. the traced locus Re Z = 0 itself: there
    the sign of Im z is tracer noise and (U, Z) jumps to (-U, -Z) between
    samples.  Both name the same point (the metric block is even in the
    branch, and v1 = -2i Z d_Z flips with the tangent, so each sample's
    residuals do not depend on it).  Each sample takes the sign that puts Z
    nearest its predecessor's continued value, and the whole trace the sign
    that makes Im Z > 0 at its first sample: on Re Z = 0, Z ~ +-2i sqrt|z|
    and the sample mask keeps |z| >= 1e-10 rho, so Im Z_0 is never zero and
    the emitted branch does not depend on the sign of the noise in Im z.
    """
    flip = np.abs(Zs[1:] + Zs[:-1]) < np.abs(Zs[1:] - Zs[:-1])
    sign = np.ones(len(Zs))
    sign[1:] = np.where(np.cumsum(flip) % 2 == 1, -1.0, 1.0)
    if Zs[0].imag < 0.0:
        sign = -sign
    return Us * sign, Zs * sign


def verify_slag(trace: CurveTrace, manifold: str, params) -> dict:
    """Residual report: max |omega(v1,v2)|, max |Im Omega(v1,v2)|,
    max |mu - median(mu)| along the trace, with the per-sample arrays.

    The chart step is the only part that depends on the manifold: it gives
    the holomorphic coordinates (w0, w1) of every sample ((u, z) on
    Taub-NUT, (U, Z) on Atiyah-Hitchin with the sqrt(z) branch continued),
    the metric block and the point that mu is read at.  v2 is the
    sample-to-sample derivative of (w0, w1) (4th-order stencils on uniform
    parameter grids); v1 and mu are the trace action's ActionSpec.field and
    ActionSpec.moment.  The omega and Im Omega residuals are normalized per
    sample by max(1, |v1| |v2|), making them parametrization-invariant
    misalignment measures.  Taub-NUT axis traces (sin theta = 0 identically)
    are evaluated in spherical terms, where z = 0 makes all three residuals
    vanish identically (w0 has no real part there and is reported as nan);
    generic samples off the chart raise ChartError.  The report carries w0
    and w1 for the CSV writer.
    """
    if len(trace.t) < 3:
        raise DomainError("verify_slag needs at least 3 samples")
    if manifold not in _MANIFOLDS:
        raise DomainError(f"manifold must be 'tn' or 'ah', got {manifold!r}")
    spec = mm.ActionSpec(_MANIFOLDS[manifold],
                         "U1_triholo" if trace.action == "u1" else "SO2_rot")
    cols = trace.cols
    theta = cols["theta"]
    phi, psi = cols["phi"] % (2 * math.pi), cols["psi"] % (4 * math.pi)
    block = None
    if manifold == "ah":
        point = ah.ah_from_spherical(ah.AHSphericalPoint(cols["k"], theta, phi, psi), params)
        _, w0, w1 = ah.ah_u_coordinate(point, params)
        w0, w1 = _continue_sqrt_branch(w0, w1)
        block = ah.ah_metric_UZ(point, params)
    elif mask_all(np.abs(np.sin(theta)) < 1e-12):
        # axis: z == 0 identically, so omega(v1,v2), Im Omega and mu - c1 all
        # vanish exactly; Re(u) has no chart value
        r = cols["r"]
        w0 = np.full(len(r), math.nan) - 2j * params.m * cols["psi"]
        w1 = np.zeros(len(r), dtype=complex)
        point = tn.TNHoloPoint(w0, w1, r * np.cos(theta), r)
    else:
        if mask_any(np.abs(np.sin(theta)) < 1e-12):
            raise ChartError("trace sample on the axis: holomorphic chart undefined")
        point = tn.tn_chart_spherical_to_holo(
            tn.TNSphericalPoint(cols["r"], theta, phi, psi), params)
        w0, w1 = point.u, point.z
        block = tn.tn_metric_holo(point, params)
    mu = spec.moment(point, params)
    if block is None:
        omega = im_omega = np.zeros_like(trace.t)
    else:
        X = spec.field(w0, w1).view(complex)        # (re, im) pairs read as (v_u, v_z)
        omega, im_omega = _residuals(block, X[..., 0], X[..., 1],
                                     _deriv(w0, trace.t), _deriv(w1, trace.t))
    med = float(np.median(mu))
    return {
        "omega_max": float(np.max(np.abs(omega))),
        "im_omega_max": float(np.max(np.abs(im_omega))),
        "mu_max_dev": float(np.max(np.abs(mu - med))),
        "mu_median": med,
        "omega": np.abs(omega),
        "im_omega": np.abs(im_omega),
        "mu": mu,
        "w0": w0,
        "w1": w1,
    }


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
