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
