"""slag-forge command line: metric evaluation, invariant suites, oracles, traces.

Exit codes: 0 all requested checks pass, 1 an invariant or oracle failed,
2 usage or domain error.  All randomness flows from --seed (default 0);
identical invocations produce byte-identical CSV output.  Consecutive
families of one manifold, params value and action are verified by one
verify_slag_batch call (which holds the batch-size rule), in one thread;
the environment variable SLAG_FORGE_THREADS is accepted and ignored.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import atiyah_hitchin as ah
from . import checks
from . import presets
from . import slag_curves as sc
from . import taub_nut as tn
from .csvio import traces_to_csv, write_trace_csv
from .errors import SlagForgeError
from .svg import write_svg


_PM = {"+": "plus", "-": "minus"}
# the family flags of trace: flag -> (manifold, a trace's file stem from the
# arguments a and its tag t, the family's traces from a and the params p)
_FAMILY_FLAGS = {
    "tn_u1_case1": ("tn", lambda a, t: f"tn_u1_case1_c1_{a.c1:g}_c2_{a.c2:g}_{_PM[t]}",
                    lambda a, p: sc.tn_u1_case1(a.c1, a.c2, n=a.samples)),
    "tn_u1_case2": ("tn", lambda a, t: f"tn_u1_case2_c_{a.c:g}_{_PM[t]}",
                    lambda a, p: sc.tn_u1_case2(a.c, n=a.samples)),
    "tn_so2": ("tn", lambda a, t: f"tn_so2_c1_{a.c1:g}_{t}",
               lambda a, p: sc.tn_so2_curve(a.c1, p, a.branch, a.psi_rate, a.samples)),
    "ah_theta_phi": ("ah", lambda a, t: presets.stem(f"ah_thetaphi_k_{a.k:g}_c1_{a.c1:g}_{t}"),
                     lambda a, p: sc.ah_traces_theta_phi(a.k, a.c1, h=a.h, n=a.grid)),
    "ah_theta_k": ("ah", lambda a, t: presets.stem(f"ah_thetak_phi_{a.phi:g}_c1_{a.c1:g}_{t}"),
                   lambda a, p: sc.ah_traces_theta_k(a.phi, a.c1, h=a.h, n=a.grid)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    main() call; parse_args gives each call a fresh namespace."""
    ap = argparse.ArgumentParser(
        prog="slag-forge",
        description="hyperkahler metric evaluation, invariant suites, and "
                    "solution-curve tracing")
    ap.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sub = ap.add_subparsers(dest="command", required=True)

    p_metric = sub.add_parser("metric", help="evaluate a metric block at a point")
    p_metric.add_argument("--manifold", choices=("tn", "ah"), required=True)
    p_metric.add_argument("--r", type=float, default=2.0)
    p_metric.add_argument("--k", type=float, default=0.5)
    p_metric.add_argument("--theta", type=float, default=1.0)
    p_metric.add_argument("--phi", type=float, default=0.0)
    p_metric.add_argument("--psi", type=float, default=0.3)
    p_metric.add_argument("--m", type=float, default=1.0)
    p_metric.add_argument("--h", type=float, default=1.0)
    p_metric.add_argument("--tol", type=float, default=None,
                          help="det residual gate (default 1e-10 tn / 1e-8 ah)")

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument("--only", type=str, default=None,
                          help="run a single named check")
    p_verify.add_argument("--list", action="store_true", help="list check names")

    p_trace = sub.add_parser("trace", help="emit solution-curve CSV (and SVG) files")
    p_trace.add_argument("--preset", choices=presets.PRESET_NAMES)
    for flag in _FAMILY_FLAGS:
        p_trace.add_argument("--" + flag.replace("_", "-"), action="store_true")
    p_trace.add_argument("--c1", type=float, default=1.0)
    p_trace.add_argument("--c2", type=float, default=0.5)
    p_trace.add_argument("--c", type=float, default=1.0)
    p_trace.add_argument("--k", type=float, default=0.5)
    p_trace.add_argument("--phi", type=float, default=math.pi / 4)
    p_trace.add_argument("--m", type=float, default=1.0)
    p_trace.add_argument("--h", type=float, default=1.0)
    p_trace.add_argument("--a-int", type=int, default=1)
    p_trace.add_argument("--branch", choices=("plane", "axis"), default="plane")
    p_trace.add_argument("--psi-rate", type=float, default=0.0)
    p_trace.add_argument("--grid", type=int, default=256)
    p_trace.add_argument("--samples", type=int, default=400)
    p_trace.add_argument("--out", type=str, default="traces")
    p_trace.add_argument("--format", choices=("csv", "svg"), default="csv",
                         help="svg additionally writes the preset's overlay "
                              "(with --preset only)")

    p_oracle = sub.add_parser("oracle", help="run the contour-integral oracles")
    p_oracle.add_argument("--samples", type=int, default=50,
                          help="samples of fxx-contour, ah-i0 and ah-i1-i2-closed "
                               "(default 50); eta1-pair and pi-typing ignore it")
    p_oracle.add_argument("--manifold", choices=("tn", "ah", "all"), default="all")
    return ap


def cmd_metric(args) -> int:
    tol = args.tol
    if args.manifold == "tn":
        tol = 1e-10 if tol is None else tol
        p = tn.TNParams(args.h, args.m)
        sph = tn.TNSphericalPoint(args.r, args.theta,
                                  args.phi % (2 * math.pi), args.psi % (4 * math.pi))
        pt = tn.tn_chart_spherical_to_holo(sph, p)
        blk = tn.tn_metric_holo(pt, p)
        names = ("K_uu", "K_uz", "K_zu", "K_zz")
    else:
        tol = 1e-8 if tol is None else tol
        p = ah.AHParams(args.h)
        sph = ah.AHSphericalPoint(args.k, args.theta,
                                  args.phi % (2 * math.pi), args.psi % (4 * math.pi))
        state = ah.ah_from_spherical(sph, p)
        blk = ah.ah_metric_UZ(state, p)
        names = ("K_UU", "K_UZ", "K_ZU", "K_ZZ")
    residual = abs(blk.det() - 1.0)
    for name, val in zip(names, (blk.kuubar, blk.kuzbar, blk.kzubar, blk.kzzbar)):
        print(f"{name} = {val.real:+.15e} {val.imag:+.15e}j")
    print(f"det = {blk.det().real:.15e}")
    print(f"monge_ampere_residual = {residual:.3e} (tol {tol:.1e})")
    return 0 if residual < tol else 1


def _run_checks(jobs, seed: int) -> int:
    """Run each (name, check) job on a fresh generator at the seed and print
    one PASS or FAIL line for it; a library error is that check's FAIL, and
    the jobs after it still run.  Returns 0 if every check passes, else 1,
    and 2 before any check runs if the seed is negative."""
    if seed < 0:
        print(f"--seed must be non-negative, got {seed}", file=sys.stderr)
        return 2
    failures = 0
    for name, check in jobs:
        rng = np.random.default_rng(seed)
        t0 = time.monotonic()
        try:
            ok, detail = check(rng)
        except SlagForgeError as exc:
            ok, detail = False, f"error: {exc}"
        dt = time.monotonic() - t0
        print(f"{'PASS' if ok else 'FAIL'} {name} {detail} ({dt:.2f}s)")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def cmd_verify(args, seed: int) -> int:
    if args.list:
        for name in checks.VERIFY_CHECKS:
            print(name)
        return 0
    names = list(checks.VERIFY_CHECKS)
    if args.only is not None:
        if args.only not in checks.VERIFY_CHECKS:
            print(f"unknown check {args.only!r}; use --list", file=sys.stderr)
            return 2
        names = [args.only]
    return _run_checks(((name, checks.VERIFY_CHECKS[name]) for name in names), seed)


def _emit_traces(families, out_dir: Path, overlay: str | None) -> int:
    """Write one CSV per trace, and the SVG overlay of the preset named by
    `overlay` unless it is None.  Consecutive non-empty families of one
    manifold, params value and action are verified by one verify_slag_batch
    call, then formatted (one traces_to_csv call per family) and written, so
    a verification error stops its group before any file of it is written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for (manifold, params, _), group in itertools.groupby(
            (family for family in families if family[2]),
            key=lambda family: (family[0], family[1], family[2][0][1].action)):
        group = [items for _, _, items in group]
        reports = sc.verify_slag_batch([trace for items in group for _, trace in items],
                                       manifold, params)
        for items in group:
            family_reports, reports = reports[:len(items)], reports[len(items):]
            texts = traces_to_csv([trace for _, trace in items], manifold, family_reports)
            for (stem, _), res, text in zip(items, family_reports, texts):
                path = out_dir / f"{stem}.csv"
                write_trace_csv(path, text)
                print(f"wrote {path}  omega={res['omega_max']:.2e} "
                      f"imOmega={res['im_omega_max']:.2e} mu_dev={res['mu_max_dev']:.2e}")
    if overlay is not None:
        xcol, ycol = presets.preset_plane_columns(overlay)
        polys = [np.column_stack([tr.cols[xcol], tr.cols[ycol]])
                 for _, _, items in families for _, tr in items]
        svg_path = out_dir / f"{overlay}.svg"
        write_svg(svg_path, polys, xcol, ycol, title=overlay)
        print(f"wrote {svg_path}")
    return 0 if any(items for _, _, items in families) else 2


def cmd_trace(args) -> int:
    out_dir = Path(args.out)
    if args.format == "svg" and not args.preset:
        print("--format svg writes a preset's overlay: pass --preset", file=sys.stderr)
        return 2
    if args.preset:
        families = list(presets.preset_families(args.preset, grid_n=args.grid))
        return _emit_traces(families, out_dir, args.preset if args.format == "svg" else None)
    families = []
    for flag, (manifold, stem, traces) in _FAMILY_FLAGS.items():
        if getattr(args, flag):
            p = (tn.TNParams(args.h, args.m) if manifold == "tn"
                 else ah.AHParams(args.h, args.a_int))
            families.append((manifold, p, [(stem(args, tr.tag), tr) for tr in traces(args, p)]))
    if not any(items for _, _, items in families):
        if families:
            print("no trace found for the given family parameters", file=sys.stderr)
        else:
            print("nothing to trace: pass --preset or a family flag", file=sys.stderr)
        return 2
    return _emit_traces(families, out_dir, None)


def cmd_oracle(args, seed: int) -> int:
    if args.samples < 1:
        print(f"--samples must be at least 1, got {args.samples}", file=sys.stderr)
        return 2
    return _run_checks(((name, functools.partial(fn, samples=args.samples))
                        for name, (fn, manifold) in checks.ORACLE_CHECKS.items()
                        if args.manifold in ("all", manifold)), seed)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "metric":
            return cmd_metric(args)
        if args.command == "verify":
            return cmd_verify(args, args.seed)
        if args.command == "trace":
            return cmd_trace(args)
        if args.command == "oracle":
            return cmd_oracle(args, args.seed)
    except SlagForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
