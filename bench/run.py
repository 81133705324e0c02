"""Run one slag-forge benchmark workload and print its metrics.

    python3 bench/run.py --workload ah-points --seed 0 --seconds 30 --trace 0

Workloads: ah-figures, ah-points, tn-figures, checks (see bench/README.md).
The run imports slag-forge from src/ of the checkout it sits in, sets it up
several times, then repeats passes of the workload for about --seconds.
It prints the machine facts, a summary and the output-check verdicts, and as
its last line one JSON object

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  A traced run makes untraced passes for half of --seconds, then
the same passes traced, then the pi(x_pm) edge probe.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUPS = 9

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def machine_facts() -> str:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={np.__version__}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; stalled operations sort last as +inf."""
    ordered = np.sort(values)
    return float(ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)])


def request_p50(passes: list) -> float:
    """Median latency of one request, in seconds at the reference speed.

    A request repeated over the passes of a run (a preset, a check call) is
    first reduced to its median, so that the few distinct requests of a
    workload each count once; a point query or trace family runs once.
    """
    by_request = defaultdict(list)
    for p in passes:
        for request, seconds in zip(p.requests.tolist(), p.latencies.tolist()):
            by_request[request].append(seconds / p.slowdown)
    return statistics.median(statistics.median(v) for v in by_request.values())


def run_passes(workload, lib, plan, scratch: Path, budget: float,
               count: int | None = None) -> list:
    """Passes 0, 1, ... until `budget` seconds would be overrun (always at
    least one), or exactly `count` passes when it is given."""
    passes = []
    t0 = time.perf_counter()
    while True:
        pass_dir = scratch / f"pass{len(passes)}"
        try:
            passes.append(workload.run_pass(lib, plan, len(passes), pass_dir))
            passes[-1].pack()
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        elapsed = time.perf_counter() - t0
        if len(passes) == count or (
                count is None and elapsed * (len(passes) + 1) / len(passes) > budget):
            return passes


def report(name: str, passes: list) -> tuple[int, int, bool]:
    """Print the summary and output-check verdicts; returns (attempted, failed, correct)."""
    ops = np.concatenate([p.latencies for p in passes])
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    typed = sum(p.typed for p in passes)
    stalled = sum(p.stalled for p in passes)
    problems = [x for p in passes for x in p.problems]
    maxima: dict[str, float] = {}
    tally: Counter = Counter()
    for p in passes:
        tally.update(p.tally)
        for key, value in p.maxima.items():
            maxima[key] = max(maxima.get(key, 0.0), value)
    walls = ", ".join(f"{p.wall_s:.3f}" for p in passes)
    slowdowns = ", ".join(f"{p.slowdown:.3f}" for p in passes)
    print(f"{name}: {len(passes)} passes, wall s per pass [{walls}]")
    print(f"machine slowdown per pass [{slowdowns}]")
    print(f"raw latency over {len(ops)} ops: p50 {percentile(ops, 50) * 1e3:.3f} ms, "
          f"p90 {percentile(ops, 90) * 1e3:.3f} ms, p99 {percentile(ops, 99) * 1e3:.3f} ms, "
          f"max {max(ops) * 1e3:.3f} ms ({int(np.isinf(ops).sum())} requests "
          f"over the limit, counted as inf)")
    print(f"operations: attempted {attempted}, failed {failed}, typed errors {typed}, "
          f"stalled {stalled}")
    for key in sorted(tally):
        print(f"  {key}: {tally[key]}")
    for key in sorted(maxima):
        print(f"  max {key}: {maxima[key]:.3e}")
    if problems:
        for line in problems[:20]:
            print(f"OUTPUT CHECK FAILED: {line}")
    else:
        print("output checks: all hold")
    return attempted, failed, not problems


def timed_run(workload, lib, plan, seconds, setup_times, scratch) -> tuple[dict, list]:
    passes = run_passes(workload, lib, plan, scratch, seconds)
    # before the metrics below, whose working lists grow with the run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    typed = sum(p.typed for p in passes)
    stalled = sum(p.stalled for p in passes)
    values = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(p.wall_s / p.slowdown for p in passes),
        # when half the requests stalled the median is inf: report the limit
        "op_p50_ms": min(request_p50(passes), workload.limit) * 1e3,
        "in_limit_share": 1.0 - stalled / attempted,
        "answered_share": (attempted - failed - typed - stalled) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}, passes


def traced_run(workload, lib, plan, seconds, scratch) -> tuple[dict, list]:
    cpu0, wall0 = time.process_time(), time.perf_counter()
    plain = run_passes(workload, lib, plan, scratch, seconds / 2.0)
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        traced = run_passes(workload, lib, plan, scratch, 0.0, count=len(plain))
    finally:
        tracer.remove()
    values = tracing.layer_metrics(tracer)
    # request metrics without a bound (see README), from the untraced passes;
    # a p99 past the latency limit reads as the limit
    attempted = sum(p.attempted for p in plain)
    values["op_p99_ms"] = min(percentile(np.concatenate([p.latencies for p in plain]), 99),
                              workload.limit) * 1e3
    # as the issue that defined the benchmark counts it: a stall is a failure
    values["failed_share"] = sum(p.failed + p.stalled for p in plain) / attempted
    values["typed_error_share"] = sum(p.typed for p in plain) / attempted
    # at the reference speed, like run_s, so a change of host speed between
    # the two halves does not show as overhead
    plain_s = sum(p.wall_s / p.slowdown for p in plain)
    values["process.slowdown"] = statistics.median(p.slowdown for p in plain)
    values["process.cpu_s"] = cpu
    values["process.wall_s"] = wall
    values["trace.overhead_s"] = sum(p.wall_s / p.slowdown for p in traced) - plain_s
    probe = wl.excluded_seed_probe(lib)
    for check, seed, verdict in probe:
        print(f"excluded check seed probe: {check} at check seed {seed}: {verdict}")
    values["checks.excluded_seed_fails"] = sum(1 for *_, v in probe if v == "FAIL")
    edge = wl.edge_probe(lib)
    for label, seconds, stalled in edge:
        print(f"pi edge probe {label}: {seconds * 1e3:.1f} ms"
              f"{' (stalled at the limit)' if stalled else ''}")
    values["atiyah_hitchin.pi_pair.edge_max_ms"] = max(s for _, s, _ in edge) * 1e3
    values["atiyah_hitchin.pi_pair.edge_stalls"] = sum(1 for *_, st in edge if st)
    print(f"tracing: {len(tracer.spans)} spans; traced {plain_s + values['trace.overhead_s']:.3f} s"
          f" against untraced {plain_s:.3f} s at the reference speed")
    metrics = {k: {"value": float(v), "unit": UNITS[k]} for k, v in values.items()}
    return metrics, plain + traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # the benchmark measures one thread; the CLI would otherwise start a pool
    threads = os.environ.pop("SLAG_FORGE_THREADS", None)
    workload = wl.WORKLOADS[args.workload]
    setup_times = []
    try:
        for _ in range(SETUPS):
            probe = wl.SpeedProbe()
            probe.sample()
            t0 = time.perf_counter()
            lib = wl.load_library()
            plan = workload.setup(lib, args.seed)
            seconds = time.perf_counter() - t0
            probe.sample()
            setup_times.append(seconds / probe.slowdown)
    except (ImportError, OSError) as exc:
        print(f"bench: cannot load slag-forge from this checkout: {exc}", file=sys.stderr)
        return 2
    print(f"machine: {machine_facts()} SLAG_FORGE_THREADS="
          f"{'unset' if threads is None else repr(threads) + ' (removed for the run)'}")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}; setup s {[round(t, 4) for t in setup_times]}")

    out_root = wl.ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        if args.trace:
            metrics, passes = traced_run(workload, lib, plan, args.seconds, scratch)
        else:
            metrics, passes = timed_run(workload, lib, plan, args.seconds, setup_times,
                                        scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted, failed, correct = report(args.workload, passes)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
