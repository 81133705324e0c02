"""Write the outputs that a change with unchanged arithmetic must keep byte for byte.

    python3 tools/identity_snapshot.py OUT

writes under OUT:

- presets/<fig>/: every CSV of `slag-forge trace --preset fig5..fig9`
  (481 files);
- families/: every CSV of the 126 Atiyah-Hitchin family-flag calls,
  `trace --ah-theta-phi --k K --c1 C` (fig8) and `trace --ah-theta-k
  --phi PHI --c1 C` (fig9) over the preset parameters (456 files);
- checks/seed_NNN.txt: the `verify` and `oracle` lines at seeds 0-119, with
  the timing at the end of each line removed.

`diff -r` of the snapshots of two checkouts is the identity check.  It
imports slag-forge from src/ of the checkout it sits in and runs the CLI in
this process; the whole snapshot takes about 25 s on a 2-core x86-64 host,
most of it in the check seeds.
"""

from __future__ import annotations

import contextlib
import io
import math
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
SEEDS = range(120)
_TIMING = re.compile(r" \(\d+\.\d+s\)$")


def _run(argv: list[str]) -> str:
    """stdout of one in-process CLI call; stderr is kept out of the snapshot."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    return out.getvalue()


def family_calls():
    """CLI arguments of the 126 family-flag calls."""
    return [[flag, option, repr(value), "--c1", repr(c1)]
            for flag, option, values in FAMILIES for value in values for c1 in C1_SET]


def write_presets(out: Path, names=PRESETS) -> None:
    for name in names:
        _run(["trace", "--preset", name, "--out", str(out / "presets" / name)])


def write_families(out: Path, calls=None) -> None:
    for args in family_calls() if calls is None else calls:
        _run(["trace", *args, "--out", str(out / "families")])


def write_checks(out: Path, seeds=SEEDS) -> None:
    (out / "checks").mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        lines = (_run(["--seed", str(seed), "verify"])
                 + _run(["--seed", str(seed), "oracle"])).splitlines()
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
    write_checks(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
