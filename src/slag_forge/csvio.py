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


def traces_to_csv(traces: list[CurveTrace], manifold: str, reports: list[dict]) -> list[str]:
    """Render each trace with its verify_slag report; floats carry 17 significant digits.

    The columns are t, the four chart columns, the real and imaginary parts
    of the report's chart coordinates w0 and w1, and its per-sample omega,
    Im Omega and mu.  The tables of all traces go through one _format_e16
    call.
    """
    if manifold not in ("tn", "ah"):
        raise DomainError(f"manifold must be 'tn' or 'ah', got {manifold!r}")
    cols = TN_COLUMNS if manifold == "tn" else AH_COLUMNS
    tables = []
    for trace, report in zip(traces, reports):
        w0, w1 = report["w0"], report["w1"]
        tables.append(np.column_stack([np.asarray(col, dtype=float) for col in (
            trace.t, *(trace.cols[name] for name in cols[1:5]),
            np.real(w0), np.imag(w0), np.real(w1), np.imag(w1),
            report["omega"], report["im_omega"], report["mu"])]))
    texts = []
    for trace, rows in zip(traces, _format_e16(tables)):
        params = ";".join(f"{k}={v:.17g}" for k, v in sorted(trace.params.items()))
        texts.append(f"# slag-forge v1, manifold={manifold}, params={params}\n"
                     f"{','.join(cols)}\n" + rows)
    return texts


def trace_to_csv(trace: CurveTrace, manifold: str, report: dict) -> str:
    """The CSV text of one trace and its report (traces_to_csv of the one trace)."""
    return traces_to_csv([trace], manifold, [report])[0]


# '%.16e' by one NumPy pass (Steele & White, PLDI 1990; Gay, AT&T 1990).
# An element x with 1e-300 <= |x| < 1e300 gets e = floor(log10|x|) and
# P = |x| * 10^(16-e) in long double.  With u the long double unit roundoff,
# the table entry and the product each err by at most a factor (1 + u), so
# P lies within (2u + u^2) 10^17 = _SLACK of T = |x| 10^(16-e) when T is
# below 10^17.  If P is farther than _SLACK from every half-integer and at
# least 10^16 - _SLACK, round(P) is the correctly rounded 17-digit mantissa
# of x and e its exponent, unless round(P) = 10^17.  The lower bound admits
# the exact powers of ten (P = 10^16): if the float log10 gave an e one too
# large, then T < 10^16 and 10 T >= 10^17 - 20 _SLACK > 10^17 - 1/2, so x is
# written 1.0000000000000000e at exponent e either way (this needs
# 20 _SLACK < 1/2, which holds for 64- and 113-bit mantissas).  Zeros are
# exact.  Every other element (nan, inf, near-ties, the rest of the decade
# edges, out of range) is formatted by Python,
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


def _format_e16(tables: list[np.ndarray]) -> list[str]:
    """CSV rows of each 2-D float table, every field '%.16e' % v byte for byte.

    The tables (of one column count) are stacked and formatted in one pass,
    and the bytes are cut at the end of each table's last row.
    """
    scale, digit4 = _tables()
    table = np.concatenate(tables)
    m, n = table.shape
    x = table.ravel()
    ax = np.abs(x)
    zero = ax == 0
    fast = (ax >= 1e-300) & (ax < 1e300)
    ax = np.where(fast, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.intp)
    P = ax.astype(np.longdouble) * scale[e - _E_MIN]
    R = np.rint(P)
    fast = (fast & (np.abs(P - R) < 0.5 - _SLACK) & (P >= _TEN16 - _SLACK)
            & (R < 10**17)) | zero
    lead, rest = np.divmod(np.where(zero, 0, R.astype(np.int64)), 10**16)
    # a family's table is large: each temporary is dropped once written
    del ax, P, R, zero
    buf = np.zeros((m * n, _FIELD), np.uint8)
    buf[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    buf[:, 1] = lead + ord("0")
    buf[:, 2] = ord(".")
    digits = buf[:, 3:19].view(np.uint32)
    for j, half in enumerate(np.divmod(rest, 10**8)):    # 8 digits, as two groups of four
        high, low = np.divmod(half, 10**4)
        digits[:, 2 * j], digits[:, 2 * j + 1] = digit4[high], digit4[low]
    del lead, rest
    buf[:, 19] = ord("e")
    buf[:, 20:24].view(np.uint32)[:, 0] = digit4[np.abs(e)]
    buf[:, 20] = np.where(e < 0, ord("-"), ord("+"))
    buf[:, 21] *= (e <= -100) | (e >= 100)
    del e
    slow = np.flatnonzero(~fast)
    buf[slow, :_FIELD - 1] = np.array(
        ["%.16e" % v for v in x[slow].tolist()],
        dtype=f"S{_FIELD - 1}").view(np.uint8).reshape(-1, _FIELD - 1)
    buf = buf.reshape(m, n, _FIELD)
    buf[:, :, -1] = ord(",")
    buf[:, -1, -1] = ord("\n")
    ends = np.cumsum([len(t) for t in tables]).tolist()
    return [buf[a:b].tobytes().translate(None, b"\0").decode("ascii")
            for a, b in zip([0] + ends[:-1], ends)]


def write_trace_csv(path: str | Path, text: str) -> None:
    """Write one trace's CSV text (from traces_to_csv or trace_to_csv) to path."""
    Path(path).write_text(text)


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
