"""tools/identity_snapshot.py: the outputs a change with unchanged arithmetic keeps."""

import importlib.util
import math
import re
from pathlib import Path

from slag_forge import checks
from slag_forge.atiyah_hitchin import AHParams
from slag_forge.csvio import trace_to_csv
from slag_forge.slag_curves import ah_traces_theta_k, verify_slag

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity_snapshot.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("identity_snapshot", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_snapshot_writer_on_one_family_and_one_seed(tmp_path):
    """The 126 family calls of fig8 and fig9; one of them written as the CLI
    writes it, and an empty one (fig8, k = 0.5, c1 = 10) that writes no
    file; both calls recorded with their exit code and output lines, the
    --out directory stripped; and the verify and oracle lines of one seed
    without their timings, the same on a second run."""
    tool = _load_tool()
    calls = tool.family_calls()
    assert len(calls) == 126 and len({tuple(c) for c in calls}) == 126
    call = ["--ah-theta-k", "--phi", repr(math.pi / 4), "--c1", "-3.0"]
    empty = ["--ah-theta-phi", "--k", "0.5", "--c1", "10.0"]
    assert call in calls and empty in calls
    tool.write_families(tmp_path, [call, empty])
    traces = ah_traces_theta_k(math.pi / 4, -3.0)
    files = sorted((tmp_path / "families").glob("*.csv"))
    assert len(files) == len(traces) > 1
    want = sorted(trace_to_csv(tr, "ah", verify_slag(tr, "ah", AHParams(1.0, 1)))
                  for tr in traces)
    assert sorted(f.read_text() for f in files) == want
    record = (tmp_path / "calls" / "families.txt").read_text()
    assert str(tmp_path) not in record
    head = f"$ trace {' '.join(call)}\nexit 0\n"
    wrote = [line for line in record.splitlines() if line.startswith("stdout: wrote ")]
    assert record.startswith(head) and len(wrote) == len(traces)
    assert sorted(line.split()[2] for line in wrote) == [f.name for f in files]
    assert record.endswith(f"$ trace {' '.join(empty)}\nexit 2\n"
                           "stderr: no trace found for the given family parameters\n")

    for out in (tmp_path / "a", tmp_path / "b"):
        tool.write_checks(out, [0])
    lines = (tmp_path / "a" / "checks" / "seed_000.txt").read_text().splitlines()
    assert len(lines) == len(checks.VERIFY_CHECKS) + len(checks.ORACLE_CHECKS)
    assert all(re.match(r"(PASS|FAIL) \S+ ", line) for line in lines)
    assert not any(re.search(r"\(\d+\.\d+s\)$", line) for line in lines)
    assert (tmp_path / "b" / "checks" / "seed_000.txt").read_text() == "\n".join(lines) + "\n"


def test_snapshot_writer_records_the_taub_nut_flag_calls(tmp_path):
    """The Taub-NUT flag calls go to tn_flags/ and calls/tn_flags.txt, apart
    from the 126 family calls; a negative c1 keeps its '-' in the stems."""
    tool = _load_tool()
    assert ["--tn-so2", "--branch", "axis"] in tool.TN_CALLS
    tool.write_tn_flags(tmp_path, [["--tn-u1-case1", "--c1", "-2", "--samples", "50"]])
    assert sorted(f.name for f in (tmp_path / "tn_flags").iterdir()) == [
        "tn_u1_case1_c1_-2_c2_0.5_minus.csv", "tn_u1_case1_c1_-2_c2_0.5_plus.csv"]
    assert (tmp_path / "calls" / "tn_flags.txt").read_text().startswith(
        "$ trace --tn-u1-case1 --c1 -2 --samples 50\nexit 0\n")
    assert not (tmp_path / "families").exists()


DIFF_TOOL = TOOL.with_name("snapshot_diff.py")


def _write_tree(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)


def test_snapshot_diff_on_two_synthetic_trees(tmp_path, capsys):
    """Identical trees exit 0; otherwise the tool names the files under one
    tree only, counts the differing files and fields per CSV column with the
    largest relative change (NaN equal to NaN), flags a CSV whose shape
    changed, prints
    the differing calls/ and checks/ lines, and exits 1."""
    spec = importlib.util.spec_from_file_location("snapshot_diff", DIFF_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    head = "# slag-forge v1, manifold=tn, params=c=1\nt,omega_res,mu\n"
    old = {"presets/fig5/a.csv": head + "0.0,1.0e-06,nan\n1.0,2.0e-06,3.0\n",
           "presets/fig5/b.csv": head + "0.0,4.0,nan\n",
           "presets/fig5/c.csv": head + "0.0,4.0,1.0\n",
           "families/gone.csv": head,
           "calls/presets.txt": "$ trace --preset fig5\nexit 0\nstdout: wrote a.csv  omega=2.00e-06\n",
           "checks/seed_000.txt": "PASS x err=1e-16\nFAIL y err=1e-3\n"}
    _write_tree(tmp_path / "old", old)
    _write_tree(tmp_path / "same", old)
    assert tool.main([str(tmp_path / "old"), str(tmp_path / "same")]) == 0
    assert "omega_res" not in capsys.readouterr().out
    new = dict(old)
    del new["families/gone.csv"]
    new.update({"presets/fig5/a.csv": head + "0.0,1.5e-06,nan\n1.0,2.0e-06,3.0\n",
                "presets/fig5/b.csv": head + "0.0,2.0,nan\n",
                "presets/fig5/c.csv": head + "0.0,4.0,1.0\n1.0,4.0,1.0\n",
                "presets/fig5/d.csv": head,
                "calls/presets.txt": old["calls/presets.txt"].replace("2.00e-06", "1.00e-07"),
                "checks/seed_000.txt": "PASS x err=1e-16\nFAIL y err=4e-5\n"})
    _write_tree(tmp_path / "new", new)
    assert tool.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "only in OLD: families/gone.csv" in out and "only in NEW: presets/fig5/d.csv" in out
    assert "csv shape differs: presets/fig5/c.csv" in out
    assert "csv: 3 files under both trees" in out
    rows = {line.split()[0]: line.split()[1:] for line in out if line.startswith("  ")}
    assert rows.keys() == {"column", "omega_res"}
    assert rows["omega_res"] == ["2", "2", "5.000e-01"]   # |2 - 4| / 4
    i = out.index("calls/presets.txt:")
    assert out[i + 1:i + 3] == ["-stdout: wrote a.csv  omega=2.00e-06",
                                "+stdout: wrote a.csv  omega=1.00e-07"]
    i = out.index("checks/seed_000.txt:")
    assert out[i + 1:] == ["-FAIL y err=1e-3", "+FAIL y err=4e-5"]


def test_snapshot_diff_sums_up_the_check_lines(tmp_path, capsys):
    """Per check name, the tool counts the seed files whose line differs,
    lists each seed where the verdict flips between PASS and FAIL, keeps
    the raw line diff, and exits 1; equal check lines give no count."""
    spec = importlib.util.spec_from_file_location("snapshot_diff", DIFF_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    old = {"checks/seed_000.txt": "PASS x err=1e-16\nPASS y err=1e-7\nFAIL z err=0.6\n",
           "checks/seed_001.txt": "PASS x err=2e-16\nPASS y err=2e-7\nFAIL z err=0.6\n",
           "checks/seed_002.txt": "PASS x err=3e-16\nPASS y err=3e-7\nFAIL z err=0.6\n"}
    new = {"checks/seed_000.txt": "PASS x err=1e-16\nPASS y err=5e-8\nFAIL z err=0.6 (text)\n",
           "checks/seed_001.txt": "PASS x err=2e-16\nFAIL y err=2e-4\nFAIL z err=0.6 (text)\n",
           "checks/seed_002.txt": "PASS x err=3e-16\nPASS y err=3e-7\nPASS z err=1e-5\n"}
    _write_tree(tmp_path / "old", old)
    _write_tree(tmp_path / "new", new)
    assert tool.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    out = capsys.readouterr().out.splitlines()
    summary = [line for line in out if line.startswith(("checks:", "verdict flips:"))]
    assert summary == ["checks: 3 files under both trees",
                       "checks: y differs at 2 seeds",
                       "checks: z differs at 3 seeds",
                       "verdict flips: y at seed_001: PASS -> FAIL",
                       "verdict flips: z at seed_002: FAIL -> PASS"]
    i = out.index("checks/seed_002.txt:")
    assert out[i + 1:] == ["-FAIL z err=0.6", "+PASS z err=1e-5"]


def test_snapshot_diff_prints_the_worst_field_values(tmp_path, capsys):
    """For a check whose lines differ, the tool prints the largest value of
    key=value field over all seeds of each side ('-' where a side lacks
    it), leaving out a field with a value that is not a number; a check
    whose lines are equal gets none, and the exit codes hold."""
    spec = importlib.util.spec_from_file_location("snapshot_diff", DIFF_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    old = {"checks/seed_000.txt": "PASS x e=1e-16\nPASS y err=1.006e-10 tol=1e-9/1e-10\n",
           "checks/seed_001.txt": "PASS x e=3e-16\nPASS y err=2e-11 tol=1e-9/1e-10\n"}
    new = {"checks/seed_000.txt": "PASS x e=1e-16\nPASS y err=9e-11 n=64 skip=Pole:2\n",
           "checks/seed_001.txt": "PASS x e=3e-16\nPASS y err=3e-11 n=4096 skip=0\n"}
    _write_tree(tmp_path / "old", old)
    _write_tree(tmp_path / "same", old)
    _write_tree(tmp_path / "new", new)
    assert tool.main([str(tmp_path / "old"), str(tmp_path / "same")]) == 0
    assert not [line for line in capsys.readouterr().out.splitlines() if line.startswith("worst:")]
    assert tool.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    worst = [line for line in capsys.readouterr().out.splitlines() if line.startswith("worst:")]
    assert worst == ["worst: y err 1.006e-10 -> 9e-11", "worst: y n - -> 4096"]
