"""Write the outputs that a change with unchanged arithmetic must keep byte for byte.

    python3 tools/identity_snapshot.py OUT

writes under OUT:

- presets/<fig>/: every CSV of `slag-forge trace --preset fig5..fig9`
  (481 files);
- families/: every CSV of the 126 Atiyah-Hitchin family-flag calls,
  `trace --ah-theta-phi --k K --c1 C` (fig8) and `trace --ah-theta-k
  --phi PHI --c1 C` (fig9) over the preset parameters (456 files);
- tn_flags/: every CSV of the Taub-NUT family-flag calls of TN_CALLS, whose
  file stems the CLI builds from its flag table (16 files);
- calls/presets.txt, calls/families.txt and calls/tn_flags.txt: for each
  of those trace calls, its arguments, exit code and stdout and stderr
  lines, with the `--out` directory stripped from them (so an empty family
  shows its message and its exit code 2);
- checks/seed_NNN.txt: the `verify` and `oracle` lines at seeds 0-119, with
  the timing at the end of each line removed.

`diff -r` of the snapshots of two checkouts is the identity check, and
`tools/snapshot_diff.py OLD NEW` sums up where they differ.  It
imports slag-forge from src/ of the checkout it sits in and runs the CLI in
this process; the whole snapshot takes about 25 s on a 2-core x86-64 host,
most of it in the check seeds.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from slag_forge import cli  # noqa: E402

PRESETS = ("fig5", "fig6", "fig7", "fig8", "fig9")
C1_SET = tuple(float(c) for c in range(-10, 11))
# (flag, option, values): the fig8 and fig9 families, one CLI call each
FAMILIES = (("--ah-theta-phi", "--k", (0.3, 0.5, 0.7)),
            ("--ah-theta-k", "--phi", (math.pi / 6, math.pi / 4, math.pi / 3)))
# the Taub-NUT family flags: each alone, the SO(2) axis branch and psi rate,
# a negative c1 and one call of all three at other parameters
TN_CALLS = (["--tn-u1-case1"], ["--tn-u1-case2"], ["--tn-so2", "--branch", "axis"],
            ["--tn-so2", "--psi-rate", "1"], ["--tn-u1-case1", "--c1", "-2"],
            ["--tn-u1-case1", "--tn-u1-case2", "--tn-so2", "--c1", "2", "--c", "3"])
SEEDS = range(120)
_TIMING = re.compile(r" \(\d+\.\d+s\)$")


def _run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _trace_calls(out: Path, name: str, calls: list[tuple[list[str], Path]]) -> None:
    """Run each trace call (arguments, --out directory) and write calls/<name>.txt:
    per call its arguments, exit code and output lines, the directory stripped."""
    records = []
    for args, dest in calls:
        code, stdout, stderr = _run(["trace", *args, "--out", str(dest)])
        records.append(f"$ trace {' '.join(args)}\nexit {code}\n"
                       + "".join(f"{stream}: {line}\n"
                                 for stream, text in (("stdout", stdout), ("stderr", stderr))
                                 for line in text.replace(f"{dest}{os.sep}", "").splitlines()))
    (out / "calls").mkdir(parents=True, exist_ok=True)
    (out / "calls" / f"{name}.txt").write_text("".join(records))


def family_calls():
    """CLI arguments of the 126 family-flag calls."""
    return [[flag, option, repr(value), "--c1", repr(c1)]
            for flag, option, values in FAMILIES for value in values for c1 in C1_SET]


def write_presets(out: Path, names=PRESETS) -> None:
    _trace_calls(out, "presets", [(["--preset", name], out / "presets" / name)
                                  for name in names])


def write_families(out: Path, calls=None) -> None:
    _trace_calls(out, "families", [(args, out / "families")
                                   for args in (family_calls() if calls is None else calls)])


def write_tn_flags(out: Path, calls=TN_CALLS) -> None:
    _trace_calls(out, "tn_flags", [(args, out / "tn_flags") for args in calls])


def write_checks(out: Path, seeds=SEEDS) -> None:
    (out / "checks").mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        lines = (_run(["--seed", str(seed), "verify"])[1]
                 + _run(["--seed", str(seed), "oracle"])[1]).splitlines()
        text = "".join(_TIMING.sub("", line) + "\n" for line in lines)
        (out / "checks" / f"seed_{seed:03d}.txt").write_text(text)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    write_presets(out)
    write_families(out)
    write_tn_flags(out)
    write_checks(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
