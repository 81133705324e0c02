"""CLI surface: exit codes, CSV schema and determinism, re-ingestion."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from slag_forge import atiyah_hitchin as ah, checks, cli, csvio, presets
from slag_forge import slag_curves as sc
from slag_forge.atiyah_hitchin import AHParams
from slag_forge.cli import build_parser, main
from slag_forge.csvio import (AH_COLUMNS, TN_COLUMNS, read_trace_csv,
                              trace_to_csv, traces_to_csv, write_trace_csv)
from slag_forge.errors import ContourCollisionError, DomainError
from slag_forge.presets import preset_traces
from slag_forge.slag_curves import (CurveTrace, ah_traces_theta_phi, tn_so2_curve,
                                    tn_u1_case1, verify_slag)
from slag_forge.taub_nut import TNParams


def test_metric_tn_exit0(capsys):
    rc = main(["metric", "--manifold", "tn", "--r", "2", "--theta",
               "1.5707963267948966", "--m", "1", "--h", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "K_uu = +2.5" in out
    assert "monge_ampere_residual" in out


def test_metric_ah_exit0(capsys):
    rc = main(["metric", "--manifold", "ah", "--k", "0.5", "--theta", "1.0",
               "--phi", "0.5", "--psi", "0.3"])
    assert rc == 0
    assert "det = 1.0000000" in capsys.readouterr().out


def test_metric_ah_default_point_exit0(capsys):
    """The default point (theta = 1, phi = 0, psi = 0.3) is off the y_pm = 0
    locus, where theta = pi/2 with psi = 0 would put it, so the bare command
    prints a block that passes its gate."""
    assert main(["metric", "--manifold", "ah", "--k", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("K_UU = ") and lines[-1].endswith("(tol 1.0e-08)")


def test_metric_ah_next_to_the_y_pm_locus(capsys):
    """theta = 1e-9 puts |y_pm| at about 2e-10 rho^{3/2}: above the library's
    coefficient floor, so the block is printed and passes its own gate."""
    argv = ["--k", "0.5", "--theta", "1e-9", "--phi", "0.3", "--psi", "0.4"]
    state = ah.ah_from_spherical(ah.AHSphericalPoint(0.5, 1e-9, 0.3, 0.4), AHParams(1.0, 1))
    y_share = min(abs(state.yplus), abs(state.yminus)) / state.elliptic.rho ** 1.5
    assert 1e-10 < y_share < 1e-9
    assert main(["metric", "--manifold", "ah", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["det = 1.000000000000000e+00",
                          "monge_ampere_residual = 0.000e+00 (tol 1.0e-08)"]


def test_metric_bad_domain_exit2(capsys):
    rc = main(["metric", "--manifold", "ah", "--k", "1.2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "k must lie in (0, 1)" in err


def test_metric_rejects_a_int(capsys):
    """metric has no --a-int (the Atiyah-Hitchin chart and metric block do
    not read it); trace keeps it, as U depends on it."""
    with pytest.raises(SystemExit) as exc:
        main(["metric", "--manifold", "ah", "--k", "0.5", "--a-int", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --a-int 1" in capsys.readouterr().err
    assert build_parser().parse_args(["trace", "--a-int", "2"]).a_int == 2


def test_verify_only_and_unknown(capsys):
    assert main(["verify", "--only", "legendre-relation"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS legendre-relation")
    assert main(["verify", "--only", "nope"]) == 2


def test_verify_seed_determinism(capsys):
    main(["--seed", "7", "verify", "--only", "tn-monge-ampere"])
    first = capsys.readouterr().out.split("(")[0]
    main(["--seed", "7", "verify", "--only", "tn-monge-ampere"])
    second = capsys.readouterr().out.split("(")[0]
    assert first == second


def test_oracle_tn_only(capsys):
    rc = main(["oracle", "--samples", "5", "--manifold", "tn"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fxx-contour" in out and "ah-i0" not in out


def test_oracle_error_is_a_fail_line(monkeypatch, capsys):
    """An oracle that raises a library error is reported as its FAIL line,
    as `verify` reports a check's, and the oracles after it still run."""
    def collide(rng, samples=50):
        raise ContourCollisionError("roots too close")

    monkeypatch.setitem(checks.ORACLE_CHECKS, "fxx-contour", (collide, "tn"))
    assert main(["oracle", "--samples", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == list(checks.ORACLE_CHECKS)
    assert lines[0].startswith("FAIL fxx-contour error: roots too close (")
    assert all(line.startswith("PASS ") for line in lines[1:])


def test_trace_requires_family(capsys):
    assert main(["trace"]) == 2


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_oracle_rejects_samples_below_one(samples, monkeypatch, capsys):
    """--samples under 1 would check nothing and print PASS; it is a usage
    error before any oracle runs."""
    def ran(rng, samples):
        raise AssertionError("an oracle ran")

    for name, (_, manifold) in list(checks.ORACLE_CHECKS.items()):
        monkeypatch.setitem(checks.ORACLE_CHECKS, name, (ran, manifold))
    assert main(["oracle", "--samples", samples]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--samples" in err


@pytest.mark.parametrize("argv", [["--seed", "-1", "verify"], ["--seed", "-3", "oracle"],
                                  ["--seed", "-1", "verify", "--only", "legendre-relation"]])
def test_checks_reject_a_negative_seed(argv, monkeypatch, capsys):
    """np.random.default_rng takes no negative seed: a usage error before any
    check runs."""
    def ran(rng, samples=None):
        raise AssertionError("a check ran")

    for name in list(checks.VERIFY_CHECKS):
        monkeypatch.setitem(checks.VERIFY_CHECKS, name, ran)
    for name, (_, manifold) in list(checks.ORACLE_CHECKS.items()):
        monkeypatch.setitem(checks.ORACLE_CHECKS, name, (ran, manifold))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--seed" in err


@pytest.mark.parametrize("argv", [
    ["trace", "--tn-so2", "--c1", "nan"],
    ["trace", "--tn-so2", "--c1", "inf"],
    ["trace", "--tn-so2", "--m", "0", "--psi-rate", "1"],
    ["trace", "--tn-so2", "--m", "nan"],
    ["trace", "--tn-so2", "--psi-rate", "nan"],
    ["trace", "--tn-so2", "--psi-rate", "inf"],
    ["metric", "--manifold", "tn", "--r", "nan"],
    ["metric", "--manifold", "tn", "--r", "inf"],
    ["metric", "--manifold", "tn", "--h", "nan"],
])
def test_taub_nut_nan_and_degenerate_inputs_exit2(argv, tmp_path, capsys):
    """A NaN or infinite parameter, or m = 0 with a psi rate, is a domain
    error: exit 2 with a message, and no CSV written."""
    out = tmp_path / "out"
    assert main(argv + (["--out", str(out)] if argv[0] == "trace" else [])) == 2
    stdout, err = capsys.readouterr()
    assert err.startswith("error: ") and "nan" not in stdout
    assert "array(" not in err and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("flag", ["--tn-u1-case1", "--tn-u1-case2", "--tn-so2",
                                  "--ah-theta-phi", "--ah-theta-k"])
def test_trace_svg_without_preset_is_a_usage_error(flag, tmp_path, monkeypatch, capsys):
    """--format svg writes a preset's overlay, so a family flag with it exits
    2 with a message before anything is traced or written."""
    for family in ("tn_u1_case1", "tn_u1_case2", "tn_so2_curve",
                   "ah_traces_theta_phi", "ah_traces_theta_k"):
        monkeypatch.setattr(cli.sc, family, None)
    out = tmp_path / "out"
    assert main(["trace", flag, "--format", "svg", "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and "--format svg" in err and "--preset" in err
    assert not out.exists()


def test_trace_case1_csv_contract(tmp_path, capsys):
    rc = main(["trace", "--tn-u1-case1", "--c1", "1", "--c2", "0.5",
               "--out", str(tmp_path)])
    assert rc == 0
    path = tmp_path / "tn_u1_case1_c1_1_c2_0.5_plus.csv"
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# slag-forge v1, manifold=tn, params=")
    assert lines[1] == ",".join(TN_COLUMNS)
    row = [float(v) for v in lines[2].split(",")]
    cols = dict(zip(TN_COLUMNS, row))
    assert cols["r"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert cols["phi"] == pytest.approx(0.0, abs=1e-7)
    assert cols["mu"] == pytest.approx(0.5)


def test_trace_case1_negative_c2(tmp_path, capsys):
    rc = main(["trace", "--tn-u1-case1", "--c1", "1", "--c2", "-0.5",
               "--out", str(tmp_path)])
    assert rc == 0
    for tag in ("plus", "minus"):
        trace, _ = read_trace_csv(tmp_path / f"tn_u1_case1_c1_1_c2_-0.5_{tag}.csv")
        assert np.all(np.diff(trace.t) > 0)
        assert trace.cols["phi"][0] == pytest.approx(math.pi, abs=1e-7)


def test_trace_csv_byte_determinism(tmp_path):
    rc1 = main(["trace", "--tn-u1-case2", "--c", "2",
                "--out", str(tmp_path / "a")])
    rc2 = main(["trace", "--tn-u1-case2", "--c", "2",
                "--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    a = (tmp_path / "a" / "tn_u1_case2_c_2_plus.csv").read_bytes()
    b = (tmp_path / "b" / "tn_u1_case2_c_2_plus.csv").read_bytes()
    assert a == b


def test_csv_roundtrip_reverifies(tmp_path):
    p = TNParams(1.0, 1.0)
    trace = tn_u1_case1(1.0, 0.5, n=200)[0]
    path = tmp_path / "case1.csv"
    write_trace_csv(path, trace_to_csv(trace, "tn", verify_slag(trace, "tn", p)))
    back, manifold = read_trace_csv(path)
    assert manifold == "tn"
    res = verify_slag(back, "tn", p)
    assert res["omega_max"] < 1e-5
    assert res["im_omega_max"] < 1e-5
    assert res["mu_max_dev"] < 1e-6


def _drop_fields(line: str) -> str:
    return ",".join(line.split(",")[:3])


def _set_field(line: str, value: str) -> str:
    fields = line.split(",")
    return ",".join(fields[:1] + [value] + fields[2:])


# (edit of the written lines, message): header-only used to raise IndexError,
# a short row and a word ValueError, a missing column KeyError, and an
# unknown manifold was read as 'ah'
MALFORMED_CSV = {
    "header-only": (lambda ls: ls[:2], "has no data rows"),
    "short-row": (lambda ls: ls[:4] + [_drop_fields(ls[4])] + ls[5:],
                  "line 5 has 3 fields, the header 12"),
    "not-a-number": (lambda ls: ls[:4] + [_set_field(ls[4], "abc")] + ls[5:],
                     "could not convert string to float: 'abc'"),
    "missing-column": (lambda ls: [ls[0], ls[1].replace(",r,", ",rr,")] + ls[2:],
                       r"lacks the columns \['r'\]"),
    "unknown-manifold": (lambda ls: [ls[0].replace("manifold=tn", "manifold=xx")] + ls[1:],
                         "manifold must be 'tn' or 'ah', got 'xx'"),
    "param-without-value": (lambda ls: [ls[0].replace("c2=0.5", "c2")] + ls[1:],
                            "params item 'c2' is not name=number"),
    "param-two-values": (lambda ls: [ls[0].replace("c2=0.5", "c2=0.5=1")] + ls[1:],
                         "params item 'c2=0.5=1' is not name=number"),
    "param-not-a-number": (lambda ls: [ls[0].replace("c2=0.5", "c2=abc")] + ls[1:],
                           "params item 'c2=abc' is not name=number"),
}


@pytest.mark.parametrize("case", MALFORMED_CSV)
def test_read_malformed_csv_raises_domain_error(tmp_path, case):
    edit, message = MALFORMED_CSV[case]
    trace = tn_u1_case1(1.0, 0.5, n=50)[0]
    path = tmp_path / "case1.csv"
    write_trace_csv(path, trace_to_csv(trace, "tn", verify_slag(trace, "tn", TNParams(1.0, 1.0))))
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(DomainError, match=message):
        read_trace_csv(path)


def test_csv_seventeen_significant_digits():
    p = TNParams(1.0, 1.0)
    trace = tn_u1_case1(1.0, 0.5, n=16)[0]
    body = trace_to_csv(trace, "tn", verify_slag(trace, "tn", p)).splitlines()[2]
    first = body.split(",")[1]
    assert first == f"{math.sqrt(2.0):.16e}"
    # value survives the round trip exactly
    assert float(first) == math.sqrt(2.0)


def test_percent_format_matches_format_spec():
    """The row template's '%.16e' renders every float as f"{v:.16e}" does."""
    for v in (math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324,
              sys.float_info.max, -2.5, 0.1):
        assert "%.16e" % v == f"{v:.16e}"


def _reference_trace_to_csv(trace, manifold, res):
    """The per-value writer: one f"{v:.16e}" call per table entry."""
    params = ";".join(f"{k}={v:.17g}" for k, v in sorted(trace.params.items()))
    m = len(trace.t)
    cols, chart = (TN_COLUMNS, "r") if manifold == "tn" else (AH_COLUMNS, "k")
    w0, w1 = res["w0"], res["w1"]
    table = [trace.t, trace.cols[chart], trace.cols["theta"], trace.cols["phi"],
             trace.cols["psi"], np.real(w0), np.imag(w0), np.real(w1), np.imag(w1),
             res["omega"], res["im_omega"], res["mu"]]
    lines = [f"# slag-forge v1, manifold={manifold}, params={params}", ",".join(cols)]
    for i in range(m):
        lines.append(",".join(f"{float(col[i]):.16e}" for col in table))
    return "\n".join(lines) + "\n"


def test_trace_to_csv_matches_per_value_writer():
    """Byte for byte on a fig7 trace, a fig7-type axis trace (nan re_u) and
    an Atiyah-Hitchin trace."""
    p = TNParams(1.0, 1.0)
    pa = AHParams(1.0, 1)
    cases = [(tn_so2_curve(3.0, p, branch="plane")[0], "tn", p),
             (tn_so2_curve(3.0, p, branch="axis", n=50)[0], "tn", p),
             (ah_traces_theta_phi(0.5, -3.0)[0], "ah", pa)]
    reports = [verify_slag(trace, manifold, params) for trace, manifold, params in cases]
    for (trace, manifold, _), res in zip(cases, reports):
        got = trace_to_csv(trace, manifold, res).splitlines()
        ref = _reference_trace_to_csv(trace, manifold, res).splitlines()
        # report the first differing line: a diff of whole files is slow
        bad = [i for i, (g, r) in enumerate(zip(got, ref)) if g != r]
        if bad or len(got) != len(ref):
            pytest.fail(f"{manifold} CSV differs: {len(got)} vs {len(ref)} lines, "
                        f"first at {bad[:1]}: {got[bad[0]] if bad else ''!r}")
    assert "nan" in trace_to_csv(cases[1][0], "tn", reports[1])


def test_trace_to_csv_matches_per_value_writer_where_every_element_falls_back(monkeypatch):
    """With the slack of a platform whose long double is plain double, the
    kernel certifies no nonzero element: Python's formatter writes them, and
    the bytes are still the per-value writer's."""
    u = np.finfo(np.float64).epsneg
    monkeypatch.setattr(csvio, "_SLACK", np.longdouble((2 * u + u * u) * 1e17))
    assert csvio._SLACK >= 0.5
    p = TNParams(1.0, 1.0)
    pa = AHParams(1.0, 1)
    cases = [(tn_so2_curve(3.0, p, branch="plane")[0], "tn", p),
             (tn_so2_curve(3.0, p, branch="axis", n=50)[0], "tn", p),
             (ah_traces_theta_phi(0.5, -3.0)[0], "ah", pa)]
    for trace, manifold, params in cases:
        res = verify_slag(trace, manifold, params)
        assert trace_to_csv(trace, manifold, res) == _reference_trace_to_csv(trace, manifold, res)


def test_trace_to_csv_matches_per_value_writer_on_the_presets():
    """Every fig5-fig7 trace and one fig8 family, whole files byte for byte."""
    items = [item for name in ("fig5", "fig6", "fig7")
             for item in preset_traces(name)]
    pa = AHParams(1.0, 1)
    items += [(trace.tag, "ah", trace, pa)
              for trace in ah_traces_theta_phi(0.7, -7.0, h=1.0, n=256)]
    assert len(items) > 25  # the 25 fig5-fig7 traces and the fig8 family
    for stem, manifold, trace, params in items:
        res = verify_slag(trace, manifold, params)
        if trace_to_csv(trace, manifold, res) != _reference_trace_to_csv(trace, manifold, res):
            pytest.fail(f"{stem}: trace_to_csv differs from the per-value writer")


def _fallback_trace(m, rows):
    """A Taub-NUT-shaped trace of m samples and a report whose first and last
    rows hold fields only Python's formatter writes (nan, +-inf, -0.0, 1e300
    and the decade edge 9.999999999999999e99), seeded by the row count."""
    rng = np.random.default_rng(m)
    t = np.cumsum(rng.uniform(0.1, 1.0, m))
    cols = {key: rng.standard_normal(m) * 10.0 ** rng.integers(-200, 200, m)
            for key in ("r", "theta", "phi", "psi")}
    report = {"w0": rng.standard_normal(m) + 1j * rng.standard_normal(m),
              "w1": rng.standard_normal(m) + 1j * rng.standard_normal(m),
              "omega": rng.uniform(0.0, 1e-3, m), "im_omega": rng.uniform(0.0, 1.0, m),
              "mu": rng.standard_normal(m)}
    special = [math.nan, math.inf, -math.inf, -0.0, 1e300, 9.999999999999999e99]
    for row in rows:
        cols["r"][row], cols["theta"][row], cols["phi"][row], cols["psi"][row] = special[:4]
        report["mu"][row], report["omega"][row] = special[4:]
        report["w0"][row] = complex(-0.0, math.nan)
    return CurveTrace(action="u1", t=t, cols=cols, params={"c1": float(m), "c2": 0.5}), report


def test_traces_to_csv_splits_one_table_into_the_per_trace_files():
    """One formatting call per family, split at the row ends, gives each
    trace the bytes of its own trace_to_csv: on the fig8 (k = 0.5) and fig9
    (phi = pi/4) families at c1 = -3, a fig5 family of one trace, and a
    family whose middle trace has Python-fallback fields in its first and
    last rows, between traces of 3 and 5 rows."""
    pa, p = AHParams(1.0, 1), TNParams(1.0, 1.0)
    families = [(ah_traces_theta_phi(0.5, -3.0), "ah", pa),
                (sc.ah_traces_theta_k(math.pi / 4, -3.0), "ah", pa)]
    families = [(traces, manifold, sc.verify_slag_batch(traces, manifold, params))
                for traces, manifold, params in families]
    fig5 = tn_u1_case1(1.0, 0.5)[:1]
    families.append((fig5, "tn", [verify_slag(fig5[0], "tn", p)]))
    odd = [_fallback_trace(3, [0]), _fallback_trace(40, [0, 39]), _fallback_trace(5, [4])]
    families.append(([tr for tr, _ in odd], "tn", [rep for _, rep in odd]))
    rows = trace_to_csv(odd[1][0], "tn", odd[1][1]).splitlines()
    assert all("nan" in row and "-0.0000000000000000e+00" in row for row in (rows[2], rows[-1]))
    for traces, manifold, reports in families:
        texts = traces_to_csv(traces, manifold, reports)
        assert len(texts) == len(traces) > 0
        for trace, report, text in zip(traces, reports, texts):
            assert text == trace_to_csv(trace, manifold, report)
            assert text == _reference_trace_to_csv(trace, manifold, report)
            assert text.count("\n") == len(trace.t) + 2


def test_emit_traces_formats_each_family_once(tmp_path, monkeypatch):
    """The CLI makes one _format_e16 call per family: two for a fig8 family
    and a fig5 family of one trace, one for a fig9 family call."""
    calls = []
    original = csvio._format_e16

    def spy(tables):
        calls.append([len(table) for table in tables])
        return original(tables)

    monkeypatch.setattr(csvio, "_format_e16", spy)
    pa, p = AHParams(1.0, 1), TNParams(1.0, 1.0)
    fig8 = ah_traces_theta_phi(0.5, -3.0)
    families = [("ah", pa, [(f"a{i}", tr) for i, tr in enumerate(fig8)]),
                ("tn", p, [("b", tn_u1_case1(1.0, 0.5)[0])]), ("tn", p, [])]
    assert cli._emit_traces(families, tmp_path, None) == 0
    assert calls == [[len(tr.t) for tr in fig8], [800]]
    assert len(list(tmp_path.glob("*.csv"))) == len(fig8) + 1
    calls.clear()
    assert main(["trace", "--ah-theta-k", "--phi", repr(math.pi / 4), "--c1", "-3",
                 "--out", str(tmp_path / "fig9")]) == 0
    assert len(calls) == 1 and len(list((tmp_path / "fig9").glob("*.csv"))) > 1


def _reference_emit(families, out_dir):
    """The per-family emitter: one verify_slag_batch call, one traces_to_csv
    call and one file per trace, family by family."""
    out_dir.mkdir(parents=True)
    for manifold, params, family in filter(lambda record: record[2], families):
        traces = [trace for _, trace in family]
        reports = sc.verify_slag_batch(traces, manifold, params)
        for (stem, _), res, text in zip(family, reports,
                                        traces_to_csv(traces, manifold, reports)):
            path = out_dir / f"{stem}.csv"
            write_trace_csv(path, text)
            print(f"wrote {path}  omega={res['omega_max']:.2e} "
                  f"imOmega={res['im_omega_max']:.2e} mu_dev={res['mu_max_dev']:.2e}")


def _spy_verify_batches(monkeypatch):
    """Record (samples, manifolds, params objects, actions) of each
    verify_slag_batch call."""
    calls = []
    original = sc.verify_slag_batch

    def spy(traces, manifold, params):
        calls.append((sum(len(tr.t) for tr in traces), manifold, params,
                      {tr.action for tr in traces}))
        return original(traces, manifold, params)

    monkeypatch.setattr(sc, "verify_slag_batch", spy)
    return calls


@pytest.mark.parametrize("name, batches", [("fig5", [8000]), ("fig6", [4000]),
                                           ("fig7", [8000]), ("fig8", [21714]),
                                           ("fig9", [18746])])
def test_emit_batches_families_with_the_per_family_bytes(name, batches, tmp_path,
                                                         monkeypatch, capsys):
    """The CLI verifies consecutive families of one manifold, params value
    and action in one verify_slag_batch call, whatever its size (the call
    keeps each trace's own bits), and writes every preset file and output
    line of the per-family emitter."""
    families = list(presets.preset_families(name))
    _reference_emit(families, tmp_path / "ref")
    want = capsys.readouterr().out.replace(str(tmp_path / "ref"), "OUT")
    calls = _spy_verify_batches(monkeypatch)
    assert cli._emit_traces(families, tmp_path / "new", None) == 0
    assert capsys.readouterr().out.replace(str(tmp_path / "new"), "OUT") == want
    assert [size for size, _, _, _ in calls] == batches
    assert all(len(actions) == 1 for _, _, _, actions in calls)
    assert sum(size for size, _, _, _ in calls) == sum(
        len(trace.t) for _, _, family in families for _, trace in family)
    files = sorted(path.name for path in (tmp_path / "ref").iterdir())
    assert files == sorted(path.name for path in (tmp_path / "new").iterdir())
    for file in files:
        assert (tmp_path / "new" / file).read_bytes() == (tmp_path / "ref" / file).read_bytes()


def test_emit_groups_families_by_action_and_params_value(tmp_path, monkeypatch):
    """--tn-u1-case2 --tn-so2 is two verify_slag_batch calls (two actions)
    and --tn-u1-case1 --tn-u1-case2 one (one action, equal params); other
    consecutive families of one action are one call while their params
    are equal in value, past 16 384 samples too, and a new call where the
    params value changes."""
    calls = _spy_verify_batches(monkeypatch)
    assert main(["trace", "--tn-u1-case2", "--tn-so2", "--out", str(tmp_path / "a")]) == 0
    assert [(size, actions) for size, _, _, actions in calls] == [(800, {"u1"}), (800, {"so2"})]
    calls.clear()
    assert main(["trace", "--tn-u1-case1", "--tn-u1-case2", "--out", str(tmp_path / "a")]) == 0
    assert [(size, actions) for size, _, _, actions in calls] == [(1600, {"u1"})]
    p, q, r = TNParams(1.0, 1.0), TNParams(1.0, 1.0), TNParams(2.0, 1.0)
    trace = tn_u1_case1(1.0, 0.5, n=4096)[0]   # four of them make 16 384 samples
    calls.clear()
    families = [("tn", params, [(f"f{i}", trace)])
                for i, params in enumerate((p, q, q, r, r, r, r, p))]
    assert cli._emit_traces(families, tmp_path / "b", None) == 0
    assert [size for size, _, _, _ in calls] == [12288, 16384, 4096]
    assert [params for _, _, params, _ in calls] == [p, r, p]


def test_emit_verification_error_writes_none_of_its_batch(tmp_path):
    """A trace that fails verification stops its group of families before
    any file of the group is written (main reports the DomainError with
    exit code 2)."""
    p = TNParams(1.0, 1.0)
    good = tn_u1_case1(1.0, 0.5, n=50)[0]
    bad = CurveTrace(action="u1", t=good.t, cols={**good.cols, "r": np.full(50, math.inf)},
                     params=good.params)
    families = [("tn", p, [("good", good)]), ("tn", p, [("bad", bad)])]
    with pytest.raises(DomainError, match="r must be positive and finite"):
        cli._emit_traces(families, tmp_path, None)
    assert list(tmp_path.iterdir()) == []


def test_csv_roundtrip_is_bit_exact(tmp_path):
    """t and the chart columns come back with the written bits: nan, +-inf,
    -0.0, subnormals and the largest double included."""
    rng = np.random.default_rng(3)
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310,
               sys.float_info.max, -sys.float_info.min, 0.1]
    m = 200
    t = np.concatenate([[-0.0, 5e-324], np.sort(rng.uniform(1e-3, 1e3, m - 4)),
                        [1e300, sys.float_info.max]])
    cols = {}
    for j, key in enumerate(("r", "theta", "phi", "psi")):
        col = rng.standard_normal(m) * 10.0 ** rng.integers(-300, 300, m)
        col[j::7][:len(special)] = special[:len(col[j::7])]
        cols[key] = col
    trace = CurveTrace(action="u1", t=t, cols=cols,
                       params={"c1": 1.0, "c2": 0.5})
    report = {"w0": np.full(m, complex(math.nan, math.nan)), "w1": np.zeros(m, dtype=complex),
              "omega": np.zeros(m), "im_omega": np.full(m, -0.0),
              "mu": rng.standard_normal(m)}
    path = tmp_path / "special.csv"
    write_trace_csv(path, trace_to_csv(trace, "tn", report))
    back, manifold = read_trace_csv(path)
    assert manifold == "tn"
    assert back.t.view(np.uint64).tolist() == t.view(np.uint64).tolist()
    for key, col in cols.items():
        assert back.cols[key].view(np.uint64).tolist() == col.view(np.uint64).tolist(), key


def test_trace_preset_fig6_five_files(tmp_path, capsys):
    rc = main(["trace", "--preset", "fig6", "--out", str(tmp_path)])
    assert rc == 0
    files = sorted(f.name for f in tmp_path.glob("*.csv"))
    assert files == [f"fig6_c_{c}.csv" for c in range(1, 6)]


def test_trace_preset_svg(tmp_path):
    rc = main(["trace", "--preset", "fig6", "--out", str(tmp_path),
               "--format", "svg"])
    assert rc == 0
    svg = (tmp_path / "fig6.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_trace_fig7_quadratic_root(tmp_path):
    rc = main(["trace", "--preset", "fig7", "--out", str(tmp_path)])
    assert rc == 0
    for c1 in range(1, 11):
        lines = (tmp_path / f"fig7_c1_{c1}.csv").read_text().splitlines()
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
        cols = {name: rows[:, i] for i, name in enumerate(TN_COLUMNS)}
        i_mid = int(np.argmin(np.abs(cols["theta"] - math.pi / 2)))
        expect = -2.0 + math.sqrt(4.0 + 2.0 * c1)
        assert cols["r"][i_mid] == pytest.approx(expect, rel=1e-3)
        assert np.max(np.abs(cols["mu"] - c1)) < 1e-10


def test_trace_ah_explicit(tmp_path, capsys):
    rc = main(["trace", "--ah-theta-phi", "--k", "0.5", "--c1", "-2",
               "--grid", "128", "--out", str(tmp_path)])
    assert rc == 0
    files = list(tmp_path.glob("ah_thetaphi_*.csv"))
    assert files
    lines = files[0].read_text().splitlines()
    assert lines[1] == ",".join(AH_COLUMNS)
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    cols = dict(zip(AH_COLUMNS, zip(*rows)))
    # Re Z = 0 on the traced locus
    assert np.max(np.abs(np.array(cols["re_Z"]))) < 1e-8
    assert np.max(np.abs(np.array(cols["mu"]) - (-2.0))) < 1e-9


def test_verify_reports_documented_defect(capsys):
    """The one known-red invariant surfaces as an explicit FAIL line."""
    rc = main(["verify", "--only", "slag-ah-traces"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("FAIL slag-ah-traces")
    assert "documented defect" in out


def test_threads_env_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("SLAG_FORGE_THREADS", "2")
    rc = main(["trace", "--preset", "fig6", "--out", str(tmp_path)])
    assert rc == 0
    assert len(list(tmp_path.glob("*.csv"))) == 5


def test_parser_built_once_with_a_fresh_namespace_per_call(monkeypatch):
    """main() reuses one parser, and each call gets its own namespace: a
    --seed or --only of one call does not leak into the next."""
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args, seed: seen.append((args, seed)) or 0)
    assert cli.build_parser() is cli.build_parser()
    main(["--seed", "7", "verify", "--only", "legendre-relation"])
    main(["verify", "--list"])
    (first, seed1), (second, seed2) = seen
    assert first is not second
    assert (seed1, first.only, first.list) == (7, "legendre-relation", False)
    assert (seed2, second.only, second.list) == (0, None, True)


def test_trace_family_without_traces_says_so(tmp_path, capsys):
    """A family flag whose level set is empty exits 2 naming the family, not
    asking for a family flag."""
    rc = main(["trace", "--ah-theta-phi", "--k", "0.5", "--c1", "3", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "no trace found for the given family" in err and "--preset" not in err
    assert main(["trace"]) == 2
    assert "nothing to trace: pass --preset or a family flag" in capsys.readouterr().err


def test_ah_family_flag_writes_the_single_trace_report_bytes(tmp_path):
    """The family flag verifies its traces in one batch; each file has the
    bytes of trace_to_csv with the trace's own verify_slag report."""
    phi = math.pi / 4
    assert main(["trace", "--ah-theta-k", "--phi", repr(phi), "--c1", "-3",
                 "--out", str(tmp_path)]) == 0
    traces = sc.ah_traces_theta_k(phi, -3.0)
    p = AHParams(1.0, 1)
    assert len(list(tmp_path.glob("*.csv"))) == len(traces) > 1
    for tr in traces:
        stem = f"ah_thetak_phi_{phi:g}_c1_-3_{tr.tag}".replace("+", "p").replace("-", "m")
        want = trace_to_csv(tr, "ah", verify_slag(tr, "ah", p))
        assert (tmp_path / f"{stem}.csv").read_bytes() == want.encode()
