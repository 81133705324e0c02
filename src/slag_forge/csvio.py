"""Trace CSV serialization (bit-exact contract) and re-ingestion."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import DomainError
from .slag_curves import CurveTrace

TN_COLUMNS = ("t", "r", "theta", "phi", "psi", "re_u", "im_u", "re_z", "im_z",
              "omega_res", "imOmega_res", "mu")
AH_COLUMNS = ("t", "k", "theta", "phi", "psi", "re_U", "im_U", "re_Z", "im_Z",
              "omega_res", "imOmega_res", "mu")


def trace_to_csv(trace: CurveTrace, manifold: str) -> str:
    """Render a verified trace; floats carry 17 significant digits."""
    if trace.residuals is None:
        raise DomainError("trace_to_csv needs a verified trace (residuals set)")
    res = trace.residuals
    params = ";".join(f"{k}={v:.17g}" for k, v in sorted(trace.params.items()))
    header = f"# slag-forge v1, manifold={manifold}, params={params}"
    m = len(trace.t)
    if manifold == "tn":
        cols = TN_COLUMNS
        u = res.get("u")
        z = res.get("z")
        re_u = np.real(u) if u is not None else np.full(m, math.nan)
        im_u = np.imag(u) if u is not None else np.full(m, math.nan)
        re_z = np.real(z) if z is not None else np.zeros(m)
        im_z = np.imag(z) if z is not None else np.zeros(m)
        table = [trace.t, trace.cols["r"], trace.cols["theta"], trace.cols["phi"],
                 trace.cols["psi"], re_u, im_u, re_z, im_z,
                 res["omega"], res["im_omega"], res["mu"]]
    elif manifold == "ah":
        cols = AH_COLUMNS
        U, Z = res["U"], res["Z"]
        table = [trace.t, trace.cols["k"], trace.cols["theta"], trace.cols["phi"],
                 trace.cols["psi"], np.real(U), np.imag(U), np.real(Z), np.imag(Z),
                 res["omega"], res["im_omega"], res["mu"]]
    else:
        raise DomainError(f"manifold must be 'tn' or 'ah', got {manifold!r}")
    # '%.16e' % v is f"{v:.16e}" for every float, nan, inf and -0.0 included
    row = ",".join(["%.16e"] * len(table))
    lines = [header, ",".join(cols)]
    lines.extend(row % vals for vals in
                 zip(*(np.asarray(col, dtype=float).tolist() for col in table)))
    return "\n".join(lines) + "\n"


def write_trace_csv(path: str | Path, trace: CurveTrace, manifold: str) -> None:
    Path(path).write_text(trace_to_csv(trace, manifold))


def read_trace_csv(path: str | Path) -> tuple[CurveTrace, str]:
    """Rebuild a CurveTrace (chart columns and params) from a written CSV.

    A file without data rows, a row whose length is not the header's, a
    field that is not a number, a params item that is not name=number, a
    missing chart column or a manifold other than 'tn' and 'ah' raises
    DomainError.
    """
    lines = Path(path).read_text().strip().split("\n")
    head = lines[0]
    if not head.startswith("# slag-forge v1, manifold="):
        raise DomainError(f"not a slag-forge trace CSV: {head!r}")
    manifold = head.split("manifold=")[1].split(",")[0]
    if manifold not in ("tn", "ah"):
        raise DomainError(f"manifold must be 'tn' or 'ah', got {manifold!r}")
    params = {}
    pstr = head.split("params=", 1)[1]
    if pstr:
        for item in pstr.split(";"):
            try:
                key, val = item.split("=")
                params[key] = float(val)
            except ValueError:
                raise DomainError(f"trace CSV {str(path)!r}: params item {item!r} "
                                  "is not name=number") from None
    if len(lines) < 3:
        raise DomainError(f"trace CSV {str(path)!r} has no data rows")
    names = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    for n, row in enumerate(rows, start=3):
        if len(row) != len(names):
            raise DomainError(f"trace CSV {str(path)!r} line {n} has {len(row)} "
                              f"fields, the header {len(names)}")
    try:
        data = np.array([[float(x) for x in row] for row in rows])
    except ValueError as exc:
        raise DomainError(f"trace CSV {str(path)!r}: {exc}") from None
    cols = {name: data[:, i] for i, name in enumerate(names)}
    chart_keys = ("r", "theta", "phi", "psi") if manifold == "tn" \
        else ("k", "theta", "phi", "psi")
    missing = [key for key in ("t",) + chart_keys if key not in cols]
    if missing:
        raise DomainError(f"trace CSV {str(path)!r} lacks the columns {missing}")
    action = "u1" if manifold == "tn" and ("c2" in params or "c" in params) else "so2"
    trace = CurveTrace(
        chart="tn-spherical" if manifold == "tn" else "ah-spherical",
        action=action, t=cols["t"],
        cols={k: cols[k] for k in chart_keys}, params=params, tag="reingested")
    return trace, manifold
