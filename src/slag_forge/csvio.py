"""Trace CSV serialization (bit-exact contract) and re-ingestion."""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

from .errors import DomainError
from .slag_curves import CurveTrace

TN_COLUMNS = ("t", "r", "theta", "phi", "psi", "re_u", "im_u", "re_z", "im_z",
              "omega_res", "imOmega_res", "mu")
AH_COLUMNS = ("t", "k", "theta", "phi", "psi", "re_U", "im_U", "re_Z", "im_Z",
              "omega_res", "imOmega_res", "mu")


def trace_to_csv(trace: CurveTrace, manifold: str, report: dict) -> str:
    """Render a trace and its verify_slag report; floats carry 17 significant digits.

    The columns are t, the four chart columns, the real and imaginary parts
    of the report's chart coordinates w0 and w1, and its per-sample omega,
    Im Omega and mu.
    """
    if manifold not in ("tn", "ah"):
        raise DomainError(f"manifold must be 'tn' or 'ah', got {manifold!r}")
    cols = TN_COLUMNS if manifold == "tn" else AH_COLUMNS
    params = ";".join(f"{k}={v:.17g}" for k, v in sorted(trace.params.items()))
    header = f"# slag-forge v1, manifold={manifold}, params={params}"
    w0, w1 = report["w0"], report["w1"]
    table = [trace.t, *(trace.cols[name] for name in cols[1:5]),
             np.real(w0), np.imag(w0), np.real(w1), np.imag(w1),
             report["omega"], report["im_omega"], report["mu"]]
    return f"{header}\n{','.join(cols)}\n" + _format_e16(
        np.column_stack([np.asarray(col, dtype=float) for col in table]))


# '%.16e' by one NumPy pass (Steele & White, PLDI 1990; Gay, AT&T 1990).
# An element x with 1e-300 <= |x| < 1e300 gets e = floor(log10|x|) and
# P = |x| * 10^(16-e) in long double.  With u the long double unit roundoff,
# the table entry and the product each err by at most a factor (1 + u), so
# P lies within (2u + u^2) 10^17 = _SLACK of |x| 10^(16-e) when that is below
# 10^17.  If P is farther than _SLACK from every half-integer and from 10^16,
# round(P) is the correctly rounded 17-digit mantissa of x and e its
# exponent, unless round(P) = 10^17.  Zeros are exact.  Every other element
# (nan, inf, near-ties, decade edges, out of range) is formatted by Python,
# so the output is the same on every platform; where long double is plain
# double, _SLACK > 1/2 and Python formats every nonzero element.  The bound
# needs each operation correctly rounded, which IEEE formats (52, 63 or 112
# stored mantissa bits) give and IBM double-double does not: there u = 1.
_E_MIN, _E_MAX = -301, 300
_LONG = np.finfo(np.longdouble)
_U = _LONG.epsneg if _LONG.nmant in (52, 63, 112) else np.longdouble(1)
_SLACK = (2 * _U + _U * _U) * np.longdouble(10**17)
_TEN16 = np.longdouble(10**16)
# One field, NUL-padded: sign, lead digit, '.', 16 digits, 'e', exponent
# sign, 3 exponent digits, separator.  The longest '%.16e' has 24 bytes.
_FIELD = 25


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """10^(16-e) for e in [_E_MIN, _E_MAX], correctly rounded to long double
    by the string parser, and the four ASCII digits of each n < 10^4 as one
    uint32.  Built by the first CSV, so that importing costs nothing."""
    scale = np.char.add("1e", (16 - np.arange(_E_MIN, _E_MAX + 1)).astype(str)) \
        .astype(np.longdouble)
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
    return scale, np.ascontiguousarray(digits).view(np.uint32)[:, 0]


def _format_e16(table: np.ndarray) -> str:
    """CSV rows of a 2-D float table, every field '%.16e' % v byte for byte."""
    scale, digit4 = _tables()
    m, n = table.shape
    x = table.ravel()
    ax = np.abs(x)
    zero = ax == 0
    fast = (ax >= 1e-300) & (ax < 1e300)
    ax = np.where(fast, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.intp)
    P = ax.astype(np.longdouble) * scale[e - _E_MIN]
    R = np.rint(P)
    fast = (fast & (np.abs(P - R) < 0.5 - _SLACK) & (P >= _TEN16 + _SLACK)
            & (R < 10**17)) | zero
    lead, rest = np.divmod(np.where(zero, 0, R.astype(np.int64)), 10**16)
    hi, lo = np.divmod(rest, 10**8)
    buf = np.zeros((m * n, _FIELD), np.uint8)
    buf[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    buf[:, 1] = lead + ord("0")
    buf[:, 2] = ord(".")
    digits = buf[:, 3:19].view(np.uint32)
    for j, group in enumerate(np.divmod(hi, 10**4) + np.divmod(lo, 10**4)):
        digits[:, j] = digit4[group]
    buf[:, 19] = ord("e")
    ae = np.abs(e)
    buf[:, 20:24].view(np.uint32)[:, 0] = digit4[ae]
    buf[:, 20] = np.where(e < 0, ord("-"), ord("+"))
    buf[:, 21] *= ae >= 100
    slow = np.flatnonzero(~fast)
    buf[slow, :_FIELD - 1] = np.array(
        ["%.16e" % v for v in x[slow].tolist()],
        dtype=f"S{_FIELD - 1}").view(np.uint8).reshape(-1, _FIELD - 1)
    buf = buf.reshape(m, n, _FIELD)
    buf[:, :, -1] = ord(",")
    buf[:, -1, -1] = ord("\n")
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def write_trace_csv(path: str | Path, trace: CurveTrace, manifold: str,
                    report: dict) -> None:
    Path(path).write_text(trace_to_csv(trace, manifold, report))


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
        data = np.array(rows, dtype=float)
    except ValueError as exc:
        raise DomainError(f"trace CSV {str(path)!r}: {exc}") from None
    cols = {name: data[:, i] for i, name in enumerate(names)}
    chart_keys = ("r", "theta", "phi", "psi") if manifold == "tn" \
        else ("k", "theta", "phi", "psi")
    missing = [key for key in ("t",) + chart_keys if key not in cols]
    if missing:
        raise DomainError(f"trace CSV {str(path)!r} lacks the columns {missing}")
    action = "u1" if manifold == "tn" and ("c2" in params or "c" in params) else "so2"
    trace = CurveTrace(action=action, t=cols["t"], cols={k: cols[k] for k in chart_keys},
                       params=params, tag="reingested")
    return trace, manifold
