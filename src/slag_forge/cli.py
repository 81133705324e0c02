"""slag-forge command line: metric evaluation, invariant suites, oracles, traces.

Exit codes: 0 all requested checks pass, 1 an invariant or oracle failed,
2 usage or domain error.  All randomness flows from --seed (default 0);
identical invocations produce byte-identical CSV output.  The traces of
each family are verified in one batch, in one thread; the environment
variable SLAG_FORGE_THREADS is accepted and ignored.
"""

from __future__ import annotations

import argparse
import functools
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
from .csvio import write_trace_csv
from .errors import SlagForgeError
from .svg import write_svg


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
    p_metric.add_argument("--a-int", type=int, default=1)
    p_metric.add_argument("--tol", type=float, default=None,
                          help="det residual gate (default 1e-10 tn / 1e-8 ah)")

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument("--only", type=str, default=None,
                          help="run a single named check")
    p_verify.add_argument("--list", action="store_true", help="list check names")

    p_trace = sub.add_parser("trace", help="emit solution-curve CSV (and SVG) files")
    p_trace.add_argument("--preset", choices=presets.PRESET_NAMES)
    p_trace.add_argument("--tn-u1-case1", action="store_true")
    p_trace.add_argument("--tn-u1-case2", action="store_true")
    p_trace.add_argument("--tn-so2", action="store_true")
    p_trace.add_argument("--ah-theta-phi", action="store_true")
    p_trace.add_argument("--ah-theta-k", action="store_true")
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
                         help="svg additionally writes one overlay per preset")

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
        p = ah.AHParams(args.h, args.a_int)
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
    the jobs after it still run.  Returns 0 if every check passes, else 1."""
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


def _emit_traces(families, out_dir: Path, fmt: str, preset: str | None) -> int:
    """Write one CSV per trace; each family (one manifold, one params) is one batch."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for family in filter(None, families):
        _, manifold, _, params = family[0]
        reports = sc.verify_slag_batch([trace for _, _, trace, _ in family], manifold, params)
        for (stem, _, trace, _), res in zip(family, reports):
            path = out_dir / f"{stem}.csv"
            write_trace_csv(path, trace, manifold, res)
            print(f"wrote {path}  omega={res['omega_max']:.2e} "
                  f"imOmega={res['im_omega_max']:.2e} mu_dev={res['mu_max_dev']:.2e}")
    if fmt == "svg" and preset is not None:
        xcol, ycol = presets.preset_plane_columns(preset)
        polys = [np.column_stack([tr.cols[xcol], tr.cols[ycol]])
                 for family in families for _, _, tr, _ in family]
        svg_path = out_dir / f"{preset}.svg"
        write_svg(svg_path, polys, xcol, ycol, title=preset)
        print(f"wrote {svg_path}")
    return 0 if any(families) else 2


def cmd_trace(args) -> int:
    out_dir = Path(args.out)
    if args.preset:
        families = list(presets.preset_families(args.preset, grid_n=args.grid))
        return _emit_traces(families, out_dir, args.format, args.preset)
    pm = {"+": "plus", "-": "minus"}
    families = []
    if args.tn_u1_case1:
        p = tn.TNParams(args.h, args.m)
        stem = f"tn_u1_case1_c1_{args.c1:g}_c2_{args.c2:g}_"
        families.append([(stem + pm[tr.tag], "tn", tr, p)
                         for tr in sc.tn_u1_case1(args.c1, args.c2, n=args.samples)])
    if args.tn_u1_case2:
        p = tn.TNParams(args.h, args.m)
        families.append([(f"tn_u1_case2_c_{args.c:g}_{pm[tr.tag]}", "tn", tr, p)
                         for tr in sc.tn_u1_case2(args.c, n=args.samples)])
    if args.tn_so2:
        p = tn.TNParams(args.h, args.m)
        families.append([(f"tn_so2_c1_{args.c1:g}_{tr.tag}", "tn", tr, p)
                         for tr in sc.tn_so2_curve(args.c1, p, branch=args.branch,
                                                   psi_rate=args.psi_rate, n=args.samples)])
    if args.ah_theta_phi:
        p = ah.AHParams(args.h, args.a_int)
        stem = f"ah_thetaphi_k_{args.k:g}_c1_{args.c1:g}_"
        families.append([((stem + tr.tag).replace("+", "p").replace("-", "m"), "ah", tr, p)
                         for tr in sc.ah_traces_theta_phi(args.k, args.c1, h=args.h, n=args.grid)])
    if args.ah_theta_k:
        p = ah.AHParams(args.h, args.a_int)
        stem = f"ah_thetak_phi_{args.phi:g}_c1_{args.c1:g}_"
        families.append([((stem + tr.tag).replace("+", "p").replace("-", "m"), "ah", tr, p)
                         for tr in sc.ah_traces_theta_k(args.phi, args.c1, h=args.h, n=args.grid)])
    if not any(families):
        if families:
            print("no trace found for the given family parameters", file=sys.stderr)
        else:
            print("nothing to trace: pass --preset or a family flag", file=sys.stderr)
        return 2
    return _emit_traces(families, out_dir, args.format, None)


def cmd_oracle(args, seed: int) -> int:
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
