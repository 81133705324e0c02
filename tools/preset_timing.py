"""Time `slag-forge trace --preset fig5..fig9` in this process.

    python3 tools/preset_timing.py [--runs N] [--out DIR]

runs each preset N times (default 5) through `cli.main`, writing its CSVs
under DIR (default: a temporary directory, removed at the end), and prints
one row per preset: the median wall seconds of a call, the median minor
page faults of a call (`resource.getrusage`, so Unix only) and the peak RSS
of the process once the preset's runs are done.  The peak is a high-water
mark of the whole process, so a preset never reads below the one before
it.  It imports slag-forge from src/ of the checkout it sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from slag_forge import cli  # noqa: E402
from slag_forge.presets import PRESET_NAMES  # noqa: E402


def time_preset(name: str, out: Path, runs: int) -> tuple[float, float, float]:
    """Median seconds and minor page faults of one call, and the peak RSS in MB."""
    seconds, faults = [], []
    for _ in range(runs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["trace", "--preset", name, "--out", str(out / name)])
        seconds.append(time.perf_counter() - t0)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        if code != 0:
            raise SystemExit(f"trace --preset {name} exited {code}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux
    return statistics.median(seconds), statistics.median(faults), peak_mb


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5, help="calls per preset (default 5)")
    ap.add_argument("--out", type=Path, default=None,
                    help="directory for the CSVs (default: a temporary one)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error(f"--runs must be at least 1, got {args.runs}")
    with contextlib.ExitStack() as stack:
        out = args.out or Path(stack.enter_context(tempfile.TemporaryDirectory()))
        print(f"{'preset':<8}{'median_s':>10}{'minflt':>10}{'peak_rss_mb':>13}")
        for name in PRESET_NAMES:
            sec, flt, peak = time_preset(name, out, args.runs)
            print(f"{name:<8}{sec:>10.3f}{flt:>10.0f}{peak:>13.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
