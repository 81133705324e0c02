"""Cohomogeneity-one solution-curve generation and residual verification.

Closed-form families (the two tri-holomorphic U(1) cases and the rotational
SO(2) level sets on Taub-NUT), the implicit Atiyah-Hitchin condition in the
(theta, phi) and (theta, k) planes, a marching-squares zero-set tracer with
bisection refinement, and the end-to-end Lagrangian / special-Lagrangian
residual report (omega, Im Omega, moment constancy) for any emitted trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import atiyah_hitchin as ah
from . import moment_maps as mm
from . import taub_nut as tn
from .elliptic import elliptic_E, elliptic_E_vec, elliptic_K, elliptic_K_vec
from .errors import ChartError, DomainError, EmptyDomainError, OutOfRangeError


@dataclass
class CurveTrace:
    """Ordered samples of one solution curve plus its residual diagnostics.

    cols holds the chart columns: Taub-NUT traces carry r/theta/phi/psi,
    Atiyah-Hitchin traces k/theta/phi/psi.  residuals is filled by
    verify_slag (per-sample arrays and their maxima).
    """

    chart: str                     # "tn-spherical" | "ah-spherical"
    action: str                    # "u1" | "so2"
    t: np.ndarray
    cols: dict[str, np.ndarray]
    params: dict[str, float]
    tag: str = ""
    residuals: dict | None = field(default=None)

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0):
            raise DomainError("CurveTrace requires strictly increasing t")


# ---------------------------------------------------------------------------
# Taub-NUT closed-form families
# ---------------------------------------------------------------------------

def tn_u1_case1(c1: float, c2: float, r_range: tuple[float, float] | None = None,
                n: int = 800) -> list[CurveTrace]:
    """Curves (r, theta(r), phi(r)) with r cos(theta) = c1, cos(phi) = 2c2/sqrt(r^2-c1^2).

    Both arccos branches are emitted, tagged "+" and "-"; psi is recorded as 0.
    The trace parameter is phi (in which every column is smooth, including at
    the turning point r = sqrt(c1^2 + 4 c2^2) where dphi/dr diverges); rows
    still run from the smallest admissible r upward.
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

    if c2 > 0.0:
        t = np.linspace(phi_of_r(lo), phi_of_r(hi), n)
        r = np.sqrt(c1 * c1 + 4.0 * c2 * c2 / np.cos(t) ** 2)
    else:
        t = np.full(n, math.pi / 2.0) if c2 == 0.0 else None
        r = np.linspace(lo, hi, n)
        if c2 == 0.0:
            t = r.copy()  # constant-phi curve; parametrize by r itself
    theta = np.arccos(np.clip(c1 / r, -1.0, 1.0))
    phi_plus = np.arccos(np.clip(
        2.0 * c2 / np.sqrt(np.maximum(r * r - c1 * c1, 1e-300)), -1.0, 1.0))
    traces = []
    for tag, phi in (("+", phi_plus), ("-", (2.0 * math.pi - phi_plus) % (2.0 * math.pi))):
        traces.append(CurveTrace(
            chart="tn-spherical", action="u1", t=t.copy(),
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
            chart="tn-spherical", action="u1", t=t.copy(),
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
    if np.any(disc < 0):
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
                chart="tn-spherical", action="so2", t=phis.copy(),
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
            chart="tn-spherical", action="so2", t=t.copy(),
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
    arrays; a scalar k takes the scalar AGM for K and E.  The value may leave
    [-1, 1] (no real psi) and is not finite where sin theta = 0.
    """
    if np.ndim(k) == 0:
        K, E = elliptic_K(float(k)), elliptic_E(float(k))
    else:
        K, E = elliptic_K_vec(k), elliptic_E_vec(k)
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


def _ah_condition_arrays(theta, phi, k, c1: float, h: float, sign: int):
    """Vectorized condition residual 2 Re(e^{i phi} K sqrt(w)); NaN where no psi."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    k = np.asarray(k, dtype=float)
    c2p, K = ah_cos2psi_level(theta, k, c1, h)
    ok = _in_range(c2p)
    c2p = np.clip(c2p, -1.0, 1.0)
    st2 = np.sin(theta) ** 2
    ct = np.cos(theta)
    tk = 2.0 * k * k - 1.0
    s2p = sign * np.sqrt(np.maximum(1.0 - c2p * c2p, 0.0))
    w = c2p * (1.0 + ct * ct) + tk * st2 + 2j * s2p * ct
    val = 2.0 * np.real(np.exp(1j * phi) * K * np.sqrt(w))
    return np.where(ok, val, np.nan)


def ah_condition(theta: float, phi: float, k: float, c1: float, h: float,
                 sign: int = 1) -> float:
    """Scalar residual whose zero set is {Re sqrt(z) = 0} on the moment level set."""
    out = float(_ah_condition_arrays(theta, phi, k, c1, h, sign))
    if math.isnan(out):
        raise OutOfRangeError(
            f"no real psi at theta={theta!r}, k={k!r}, c1={c1!r}")
    return out


# ---------------------------------------------------------------------------
# Implicit zero-set tracing (marching squares + bisection)
# ---------------------------------------------------------------------------

@dataclass
class ImplicitGrid:
    """Rectangle, resolution and a (vectorized) scalar condition f(x, y)."""

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
                  tol: float, iters: int = 80) -> np.ndarray:
    """Vectorized bisection along segments with a sign change; returns points.

    Each segment is refined until |f| < tol at its midpoint or the bracket
    shrinks below 1e-10 of the edge length.
    """
    a = np.zeros(len(p0s))
    b = np.ones(len(p0s))
    fa = f0s.copy()
    done = np.zeros(len(p0s), dtype=bool)
    mid = 0.5 * np.ones(len(p0s))
    for _ in range(iters):
        mid = np.where(done, mid, 0.5 * (a + b))
        pts = p0s + mid[:, None] * (p1s - p0s)
        with np.errstate(all="ignore"):
            fm = np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
        done = done | ~np.isfinite(fm) | (np.abs(fm) < tol) | ((b - a) < 1e-10)
        if np.all(done):
            break
        towards_a = (fa > 0.0) != (fm > 0.0)
        b = np.where(~done & towards_a, mid, b)
        a = np.where(~done & ~towards_a, mid, a)
        fa = np.where(~done & ~towards_a, fm, fa)
    return p0s + mid[:, None] * (p1s - p0s)


def trace_zero_set(grid: ImplicitGrid, tol: float = 1e-10) -> list[np.ndarray]:
    """Polylines approximating {f = 0} on the grid rectangle.

    Marching squares on an (n+1) x (n+1) node lattice; each crossed cell edge
    is refined by (batched) bisection to |f| < tol or 1e-10 of the edge
    length; the resulting segments are chained into polylines.  Cells with
    any non-finite corner are skipped (flagged region).  The output ordering
    is deterministic: polylines sorted lexicographically by first vertex,
    each oriented so the first vertex is not greater than the last.
    """
    x0, x1, y0, y1 = grid.rect
    n = grid.n
    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    with np.errstate(all="ignore"):
        F = np.asarray(grid.f(X, Y), dtype=float)

    fin = np.isfinite(F)
    pos = F > 0.0

    # crossed edges with both ends finite
    h_cross = (pos[:-1, :] != pos[1:, :]) & fin[:-1, :] & fin[1:, :]
    v_cross = (pos[:, :-1] != pos[:, 1:]) & fin[:, :-1] & fin[:, 1:]
    hi, hj = np.nonzero(h_cross)
    vi, vj = np.nonzero(v_cross)
    p0s = np.concatenate([np.column_stack([xs[hi], ys[hj]]),
                          np.column_stack([xs[vi], ys[vj]])]) \
        if len(hi) + len(vi) else np.zeros((0, 2))
    p1s = np.concatenate([np.column_stack([xs[hi + 1], ys[hj]]),
                          np.column_stack([xs[vi], ys[vj + 1]])]) \
        if len(hi) + len(vi) else np.zeros((0, 2))
    f0s = np.concatenate([F[hi, hj], F[vi, vj]]) if len(hi) + len(vi) else np.zeros(0)
    refined = _refine_edges(grid.f, p0s, p1s, f0s, tol) if len(p0s) else p0s
    verts: dict[tuple, tuple[float, float]] = {}
    for idx in range(len(hi)):
        verts[("h", int(hi[idx]), int(hj[idx]))] = tuple(refined[idx])
    for idx in range(len(vi)):
        verts[("v", int(vi[idx]), int(vj[idx]))] = tuple(refined[len(hi) + idx])

    cell_ok = fin[:-1, :-1] & fin[1:, :-1] & fin[:-1, 1:] & fin[1:, 1:]
    crossings = (h_cross[:, :-1].astype(int) + h_cross[:, 1:]
                 + v_cross[:-1, :] + v_cross[1:, :]) * cell_ok
    # saddle-cell centers evaluated in one batch
    si, sj = np.nonzero(crossings == 4)
    if len(si):
        cx = 0.5 * (xs[si] + xs[si + 1])
        cy = 0.5 * (ys[sj] + ys[sj + 1])
        with np.errstate(all="ignore"):
            fc_vals = np.asarray(grid.f(cx, cy), dtype=float)
        saddle_pos = {(int(a), int(b)): bool(v > 0.0)
                      for a, b, v in zip(si, sj, fc_vals)}
    else:
        saddle_pos = {}

    segments: list[tuple[tuple, tuple]] = []
    ci, cj = np.nonzero((crossings == 2) | (crossings == 4))
    for i_, j_ in zip(ci, cj):
        i, j = int(i_), int(j_)
        crossed = []
        if h_cross[i, j]:
            crossed.append(("h", i, j))
        if h_cross[i, j + 1]:
            crossed.append(("h", i, j + 1))
        if v_cross[i, j]:
            crossed.append(("v", i, j))
        if v_cross[i + 1, j]:
            crossed.append(("v", i + 1, j))
        if len(crossed) == 2:
            segments.append((crossed[0], crossed[1]))
        else:
            bottom, top = ("h", i, j), ("h", i, j + 1)
            left, right = ("v", i, j), ("v", i + 1, j)
            if saddle_pos[(i, j)] == bool(pos[i, j]):
                pairs = [(bottom, right), (top, left)]
            else:
                pairs = [(bottom, left), (top, right)]
            segments.extend(pairs)

    # chain segments into polylines via the edge-key adjacency
    adj: dict[tuple, list[tuple]] = {}
    for a, b in segments:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    unused = {frozenset((a, b)) for a, b in segments if a != b}

    def walk(start):
        chain = [start]
        current = start
        while True:
            nxt = None
            for nb in adj.get(current, ()):
                key = frozenset((current, nb))
                if key in unused:
                    nxt = nb
                    unused.remove(key)
                    break
            if nxt is None:
                return chain
            chain.append(nxt)
            current = nxt

    endpoints = sorted((k for k, nbrs in adj.items() if len(nbrs) == 1),
                       key=lambda k: verts[k])
    chains = []
    for ep in endpoints:
        if any(frozenset((ep, nb)) in unused for nb in adj[ep]):
            chains.append(walk(ep))
    # remaining segments belong to closed loops
    while unused:
        start = min(unused, key=lambda s: sorted(verts[k] for k in s)[0])
        a = min(start, key=lambda k: verts[k])
        chains.append(walk(a))

    polylines = []
    for chain in chains:
        pts = np.array([verts[k] for k in chain])
        if len(pts) < 2:
            continue
        if tuple(pts[0]) > tuple(pts[-1]):
            pts = pts[::-1]
        polylines.append(pts)
    polylines.sort(key=lambda p: (tuple(p[0]), tuple(p[-1]), len(p)))
    return polylines


# ---------------------------------------------------------------------------
# Atiyah-Hitchin trace families (theta-phi and theta-k planes)
# ---------------------------------------------------------------------------

def _ah_sample_mask(theta, k, phi, psi, h: float, K) -> np.ndarray:
    """Samples clear of the degenerate loci (x_pm at the cut ends, y_pm -> 0)."""
    z, v, x = ah.ah_zvx_from_spherical(k, theta, phi, psi, h)
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


def _ah_traces_from_polyline(pts: np.ndarray, plane: str, k_fixed: float | None,
                             phi_fixed: float | None, c1: float, h: float,
                             sign: int, tag: str, max_samples: int = 320,
                             min_run: int = 6) -> list[CurveTrace]:
    """Chart traces from a zero-set polyline, split at degenerate samples.

    Samples without a real psi or abutting the degenerate loci (y_pm -> 0,
    x_pm at the cut ends) are removed and the polyline is split there:
    difference quotients must never bridge a locus where the metric
    coefficients blow up.
    """
    if len(pts) > max_samples:
        idx = np.unique(np.linspace(0, len(pts) - 1, max_samples).astype(int))
        pts = pts[idx]
    seg = np.hypot(*np.diff(pts, axis=0).T)
    t = np.concatenate([[0.0], np.cumsum(seg)])
    keep = np.concatenate([[True], seg > 0])
    pts, t = pts[keep], t[keep]
    theta = pts[:, 0]
    if plane == "theta-phi":
        phi = pts[:, 1] % (2.0 * math.pi)
        kcol = np.full_like(theta, k_fixed)
    else:
        kcol = pts[:, 1]
        phi = np.full_like(theta, phi_fixed % (2.0 * math.pi))
    c2p, K = ah_cos2psi_level(theta, kcol, c1, h)
    good = _in_range(c2p)
    half = 0.5 * np.arccos(np.clip(np.where(good, c2p, 1.0), -1.0, 1.0))
    psi = half if sign > 0 else math.pi - half
    good &= _ah_sample_mask(theta, kcol, phi, psi, h, K)
    # runs of good samples: [starts, ends) from the rising and falling edges
    edges = np.flatnonzero(np.diff(np.concatenate([[0], good, [0]])))
    traces = []
    for a, b in zip(edges[::2], edges[1::2]):
        if b - a < min_run:
            continue
        sl = slice(a, b)
        traces.append(CurveTrace(
            chart="ah-spherical", action="so2", t=t[sl].copy(),
            cols={"k": kcol[sl].copy(), "theta": theta[sl].copy(),
                  "phi": phi[sl].copy(), "psi": psi[sl].copy()},
            params={"c1": c1, "h": h, "sign": float(sign)},
            tag=f"{tag}r{len(traces)}"))
    return traces


def ah_traces_theta_phi(k: float, c1: float, h: float = 1.0, n: int = 256,
                        signs: tuple[int, ...] = (1, -1)) -> list[CurveTrace]:
    """Solution curves of the implicit condition in the (theta, phi)-plane at fixed k."""
    traces = []
    for sign in signs:
        grid = ImplicitGrid(
            f=lambda th, ph, s=sign: _ah_condition_arrays(th, ph, k, c1, h, s),
            rect=(0.02, math.pi - 0.02, 0.0, 2.0 * math.pi), n=n)
        for idx, pts in enumerate(trace_zero_set(grid, tol=1e-10)):
            s_tag = "s+" if sign > 0 else "s-"
            traces.extend(_ah_traces_from_polyline(
                pts, "theta-phi", k, None, c1, h, sign, f"{s_tag}-part{idx}"))
    return traces


def ah_traces_theta_k(phi: float, c1: float, h: float = 1.0, n: int = 256,
                      signs: tuple[int, ...] = (1, -1)) -> list[CurveTrace]:
    """Solution curves of the implicit condition in the (theta, k)-plane at fixed phi."""
    traces = []
    for sign in signs:
        grid = ImplicitGrid(
            f=lambda th, kk, s=sign: _ah_condition_arrays(th, phi, kk, c1, h, s),
            rect=(0.02, math.pi - 0.02, 0.02, 0.98), n=n)
        for idx, pts in enumerate(trace_zero_set(grid, tol=1e-10)):
            s_tag = "s+" if sign > 0 else "s-"
            traces.extend(_ah_traces_from_polyline(
                pts, "theta-k", None, phi, c1, h, sign, f"{s_tag}-part{idx}"))
    return traces


# ---------------------------------------------------------------------------
# Residual verification
# ---------------------------------------------------------------------------

def _residuals(fields: np.ndarray, v1u, v1z, v2u, v2z, phase: float):
    """Per-sample omega(v1, v2) and Im(e^{i phase} Omega(v1, v2)).

    fields stacks the metric blocks (K_uu, K_uz, K_zu, K_zz) as rows of
    length n; the vectors are arrays of length n or scalars.  Both residuals
    are divided by max(1, (|v1u| + |v1z|)(|v2u| + |v2z|)).
    """
    kuu, kuz, kzu, kzz = fields
    omega = np.real(0.5j * (kuu * (v1u * np.conjugate(v2u) - np.conjugate(v1u) * v2u)
                            + kuz * (v1u * np.conjugate(v2z) - np.conjugate(v1z) * v2u)
                            + kzu * (v1z * np.conjugate(v2u) - np.conjugate(v1u) * v2z)
                            + kzz * (v1z * np.conjugate(v2z) - np.conjugate(v1z) * v2z)))
    scale = np.maximum(1.0, (np.abs(v1u) + np.abs(v1z)) * (np.abs(v2u) + np.abs(v2z)))
    ph = complex(math.cos(phase), math.sin(phase))
    im_omega = (ph * (v1u * v2z - v1z * v2u)).imag
    return omega / scale, im_omega / scale


def _deriv(vals: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Derivative along the trace: 4th-order stencils on uniform grids,
    np.gradient (2nd-order) otherwise."""
    dt = np.diff(t)
    if len(vals) < 7 or not np.allclose(dt, dt[0], rtol=1e-10, atol=0.0):
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


def _is_axis_trace(trace: CurveTrace) -> bool:
    th = trace.cols["theta"]
    return bool(np.all(np.abs(np.sin(th)) < 1e-12))


def verify_slag(trace: CurveTrace, manifold: str, params, phase: float = 0.0,
                quad_tol: float = 1e-11) -> dict:
    """Residual report: max |omega(v1,v2)|, max |Im(e^{i phase} Omega(v1,v2))|,
    max |mu - median(mu)| along the trace.

    v2 is the sample-to-sample derivative (4th-order stencils on uniform
    parameter grids), v1 the action generator.  The omega and Im Omega
    residuals are normalized per sample by max(1, |v1| |v2|), making them
    parametrization-invariant misalignment measures.  Axis traces
    (sin theta = 0 identically) are evaluated directly in spherical terms,
    where z = 0 makes all three residuals vanish identically; generic samples
    off the chart raise ChartError.
    """
    if len(trace.t) < 3:
        raise DomainError("verify_slag needs at least 3 samples")
    if manifold == "tn":
        return _verify_tn(trace, params, phase)
    if manifold == "ah":
        return _verify_ah(trace, params, phase, quad_tol)
    raise DomainError(f"manifold must be 'tn' or 'ah', got {manifold!r}")


def _summary(t, omega_arr, im_omega_arr, mu_arr, extra=None) -> dict:
    med = float(np.median(mu_arr))
    mu_dev = np.abs(mu_arr - med)
    out = {
        "omega_max": float(np.max(np.abs(omega_arr))),
        "im_omega_max": float(np.max(np.abs(im_omega_arr))),
        "mu_max_dev": float(np.max(mu_dev)),
        "mu_median": med,
        "omega": np.abs(omega_arr),
        "im_omega": np.abs(im_omega_arr),
        "mu": mu_arr,
    }
    if extra:
        out.update(extra)
    return out


def _verify_tn(trace: CurveTrace, p: tn.TNParams, phase: float) -> dict:
    r = trace.cols["r"]
    theta = trace.cols["theta"]
    phi = trace.cols["phi"]
    psi = trace.cols["psi"]
    if _is_axis_trace(trace):
        # axis handled in spherical terms: z == 0 identically, so omega(v1,v2),
        # Re(z udot) and mu - c1 all vanish exactly; Re(u) has no chart value
        zeros = np.zeros_like(trace.t)
        mu = 2.0 * p.m * r + 0.0
        u_axis = np.full(len(r), math.nan) - 2j * p.m * psi
        return _summary(trace.t, zeros, zeros, mu,
                        extra={"u": u_axis, "z": np.zeros(len(r), dtype=complex)})
    if np.any(np.abs(np.sin(theta)) < 1e-12):
        raise ChartError("trace sample on the axis: holomorphic chart undefined")
    m = len(r)
    us = np.empty(m, dtype=complex)
    zs = np.empty(m, dtype=complex)
    fields = np.empty((4, m), dtype=complex)
    mu_arr = np.empty(m)
    for i in range(m):
        pt = tn.tn_chart_spherical_to_holo(
            tn.TNSphericalPoint(r[i], theta[i], phi[i] % (2 * math.pi),
                                psi[i] % (4 * math.pi)), p)
        us[i], zs[i] = pt.u, pt.z
        blk = tn.tn_metric_holo(pt, p)
        fields[:, i] = (blk.kuubar, blk.kuzbar, blk.kzubar, blk.kzzbar)
        mu_arr[i] = (mm.moment_tn_u1(pt) if trace.action == "u1"
                     else mm.moment_tn_so2(pt, p))
    v1u, v1z = (1j, 0j) if trace.action == "u1" else (0j, -2j * zs)
    omega_arr, im_omega_arr = _residuals(fields, v1u, v1z, _deriv(us, trace.t),
                                         _deriv(zs, trace.t), phase)
    return _summary(trace.t, omega_arr, im_omega_arr, mu_arr,
                    extra={"u": us, "z": zs})


def _continue_sqrt_branch(Us: np.ndarray, Zs: np.ndarray):
    """Continue the sqrt(z) branch along a trace before differentiating.

    U = u sqrt(z) and Z = 2 sqrt(z) come from the principal branch, whose cut
    is the negative real z axis, i.e. the traced locus Re Z = 0 itself: there
    the sign of Im z is tracer noise and (U, Z) jumps to (-U, -Z) between
    samples.  Both name the same point (the metric block is even in the
    branch, and v1 = -2i Z d_Z flips with the tangent, so each sample's
    residuals do not depend on it).  Each sample takes the sign that puts Z
    nearest its predecessor's continued value.
    """
    flip = np.abs(Zs[1:] + Zs[:-1]) < np.abs(Zs[1:] - Zs[:-1])
    sign = np.ones(len(Zs))
    sign[1:] = np.where(np.cumsum(flip) % 2 == 1, -1.0, 1.0)
    return Us * sign, Zs * sign


def _verify_ah(trace: CurveTrace, p: ah.AHParams, phase: float,
               quad_tol: float) -> dict:
    kcol = trace.cols["k"]
    theta = trace.cols["theta"]
    phi = trace.cols["phi"]
    psi = trace.cols["psi"]
    m = len(trace.t)
    Us = np.empty(m, dtype=complex)
    Zs = np.empty(m, dtype=complex)
    fields = np.empty((4, m), dtype=complex)
    mu_arr = np.empty(m)
    for i in range(m):
        pt = ah.AHSphericalPoint(kcol[i], theta[i], phi[i] % (2 * math.pi),
                                 psi[i] % (4 * math.pi))
        state = ah.ah_from_spherical(pt, p)
        _, U, Z = ah.ah_u_coordinate(state, p, tol=quad_tol)
        Us[i], Zs[i] = U, Z
        blk = ah.ah_metric_UZ(state, p)
        fields[:, i] = (blk.kUUbar, blk.kUZbar, blk.kZUbar, blk.kZZbar)
        mu_arr[i] = mm.moment_ah_so2(state)
    Us, Zs = _continue_sqrt_branch(Us, Zs)
    omega_arr, im_omega_arr = _residuals(fields, 0j, -2j * Zs, _deriv(Us, trace.t),
                                         _deriv(Zs, trace.t), phase)
    return _summary(trace.t, omega_arr, im_omega_arr, mu_arr,
                    extra={"U": Us, "Z": Zs})


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
    return CurveTrace(chart=trace.chart, action=trace.action, t=trace.t.copy(),
                      cols=cols, params=dict(trace.params),
                      tag=trace.tag + f"-perturbed{dphi}")
