"""Smoke test of the benchmark harness; exits non-zero on the first failure.

    python3 bench/smoke.py

Runs every workload at a tiny size, timed and traced, and checks that each
emits exactly the metric names BENCHMARK.json lists, with correct outputs.
Then checks that a stalled point and a stalled CLI call are abandoned at
their limit and counted as stalled, not failed, and that the benchmark
refuses to run, without printing a result, in a directory holding only
BENCHMARK.json and bench/.  Takes about 10 s.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = run.SPEC


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}")


def tiny_plan(workload, lib):
    plan = workload.setup(lib, 0)
    if workload.name == "ah-figures":
        plan.families = [plan.families[0], plan.families[len(wl.AH_C1_SET)]]
    elif workload.name == "tn-figures":
        plan.presets = ["fig6"]
    elif workload.name == "checks":
        plan.verify = plan.verify[:3]
    else:
        plan.batch = 40
    return plan


def check_workloads(scratch: Path) -> None:
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layers = [m["name"] for m in SPEC["per_layer"]]
    expect(sorted(w["name"] for w in SPEC["workloads"]) == sorted(wl.WORKLOADS),
           "BENCHMARK.json names the four workloads")
    for name, workload in wl.WORKLOADS.items():
        lib = wl.load_library()
        plan = tiny_plan(workload, lib)
        metrics, passes = run.timed_run(workload, lib, plan, 0.01, [0.05], scratch)
        attempted, failed, correct = run.report(name, passes)
        expect(list(metrics) == e2e, f"{name}: every end-to-end metric, in order")
        expect(all(isinstance(m["value"], float) and m["value"] > 0 for m in metrics.values()),
               f"{name}: end-to-end values are positive numbers")
        expect(correct and attempted > 0, f"{name}: outputs correct, {attempted} operations")
        metrics, passes = run.traced_run(workload, lib, plan, 0.01, scratch)
        expect(sorted(metrics) == sorted(layers), f"{name}: every per-layer metric")
        expect(all(math.isfinite(m["value"]) for m in metrics.values()),
               f"{name}: per-layer values are finite")


def check_stalls() -> None:
    lib = wl.load_library()
    workload = wl.WORKLOADS["ah-points"]
    plan = workload.setup(lib, 0)
    plan.batch = 3
    real = lib.atiyah_hitchin.ah_u_coordinate

    def stuck(*args, **kwargs):
        time.sleep(5.0)
        return real(*args, **kwargs)

    lib.atiyah_hitchin.ah_u_coordinate = stuck
    t0 = time.perf_counter()
    try:
        res = workload.run_pass(lib, plan, 0, Path("."))
    finally:
        lib.atiyah_hitchin.ah_u_coordinate = real
    elapsed = time.perf_counter() - t0
    expect(elapsed < 1.0, f"three stalled points abandoned at the limit ({elapsed:.2f} s)")
    expect(res.stalled == 3 and res.failed == 0 and res.attempted == 3
           and res.latencies == [math.inf] * 3,
           "stalled points count as stalled with infinite latency")
    expect(workload.run_pass(lib, plan, 0, Path(".")).attempted == 3,
           "queries run normally after the stalls")

    real_main = lib.cli.main
    lib.cli.main = lambda argv: time.sleep(5.0)
    try:
        call = wl.call_cli(lib, ["verify"], limit=0.05)
    finally:
        lib.cli.main = real_main
    expect(call.code is None and call.error == "stall" and call.seconds < 1.0,
           "a stalled CLI call is abandoned at its limit")
    res = wl.PassResult()
    wl.check_trace_dir(res, Path("."), "none_", {"a": 3, "b": 4}, "tn", call, "stalled")
    expect(res.stalled == 2 and res.failed == 0 and res.attempted == 2 and not res.problems,
           "traces of a stalled call count as stalled")


def check_bare_directory(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(Path(__file__).resolve().parent, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(wl.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(SPEC["command"] + ["--workload", "checks", "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           f"refuses to run without src/ (exit {proc.returncode})")


def main() -> int:
    out_root = wl.ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="smoke-", dir=out_root))
    try:
        check_workloads(scratch)
        check_stalls()
        check_bare_directory(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke: all checks pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
