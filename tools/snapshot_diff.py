"""Compare two snapshot trees written by tools/identity_snapshot.py.

    python3 tools/snapshot_diff.py OLD NEW

prints

- each file that sits under one tree only;
- for the CSVs under both: per column name, the number of files and of
  fields that differ, and the largest |new - old| / max(1, |old|) (a NaN
  field equals a NaN field), and each CSV whose comment line, header or
  row count differs;
- for the checks/ files under both: per check name, the number of seed
  files whose line for it differs and, for each key=value field of its
  lines whose every value is a number, the largest value over all seeds in
  OLD and in NEW; then each seed at which a verdict flips between PASS and
  FAIL;
- the differing lines of the calls/ and checks/ files, each file's name
  followed by its lines from OLD ('-') and from NEW ('+').

It exits 0 when the trees are identical and 1 otherwise.
"""

from __future__ import annotations

import difflib
import math
import re
import sys
from pathlib import Path


_CHECK_LINE = re.compile(r"(PASS|FAIL) (\S+)")
_FIELD = re.compile(r"(\w+)=(\S+)")


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _field_change(old: str, new: str) -> float | None:
    """|new - old| / max(1, |old|) of two differing CSV fields; None if both are NaN."""
    x, y = float(old), float(new)
    if math.isnan(x) and math.isnan(y):
        return None
    if math.isnan(x) or math.isnan(y):
        return math.inf
    return abs(y - x) / max(1.0, abs(x))


def _csv_changes(old: list[str], new: list[str]) -> dict[str, list] | None:
    """Per column name, [differing fields, largest change] of two CSVs of
    one shape; None if the comment line, header or row count differs."""
    if old[:2] != new[:2] or len(old) != len(new):
        return None
    names = old[1].split(",")
    changes: dict[str, list] = {}
    for a, b in zip(old[2:], new[2:]):
        if a == b:
            continue
        for name, x, y in zip(names, a.split(","), b.split(",")):
            if x != y and (change := _field_change(x, y)) is not None:
                entry = changes.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] = max(entry[1], change)
    return changes


def _check_lines(path: Path) -> dict[str, tuple[str, str]]:
    """Check name -> (verdict, line) of one checks/ file."""
    found = {}
    for line in path.read_text().splitlines():
        if m := _CHECK_LINE.match(line):
            found[m.group(2)] = (m.group(1), line)
    return found


def _fold_fields(lines: dict[str, tuple[str, str]], side: int, worst: dict) -> None:
    """Fold each key=value field of one file's check lines into
    worst[check][key][side], the largest value seen on that side; a key
    with a value that is not a number on either side is set to None."""
    for check, (_, line) in lines.items():
        fields = worst.setdefault(check, {})
        for key, text in _FIELD.findall(line):
            try:
                value = float(text)
            except ValueError:
                fields[key] = None
                continue
            entry = fields.setdefault(key, [None, None])
            if entry is not None:
                entry[side] = value if entry[side] is None else max(entry[side], value)


def _checks_summary(old: Path, new: Path, names: list[str]) -> None:
    """Print, per check name, the number of checks/ files whose line for it
    differs and the largest value of each numeric field on either side, and
    then each seed at which its verdict flips."""
    differ: dict[str, int] = {}
    worst: dict[str, dict[str, list]] = {}
    flips = []
    for name in names:
        a, b = _check_lines(old / name), _check_lines(new / name)
        _fold_fields(a, 0, worst)
        _fold_fields(b, 1, worst)
        for check in {**a, **b}:
            if a.get(check) == b.get(check):
                continue
            differ[check] = differ.get(check, 0) + 1
            if check in a and check in b and a[check][0] != b[check][0]:
                flips.append(f"verdict flips: {check} at {Path(name).stem}: "
                             f"{a[check][0]} -> {b[check][0]}")
    print(f"checks: {len(names)} files under both trees")
    for check, seeds in differ.items():
        print(f"checks: {check} differs at {seeds} seeds")
        for key, sides in worst.get(check, {}).items():
            if sides is not None:
                print(f"worst: {check} {key} " + " -> ".join("-" if v is None else f"{v:.4g}"
                                                          for v in sides))
    for line in flips:
        print(line)


def compare(old: Path, new: Path) -> bool:
    """Print the differences of the two trees; True if they are identical."""
    old_files, new_files = _files(old), _files(new)
    same = old_files == new_files
    for name in sorted(old_files - new_files):
        print(f"only in OLD: {name}")
    for name in sorted(new_files - old_files):
        print(f"only in NEW: {name}")
    common = sorted(old_files & new_files)
    columns: dict[str, list] = {}    # name -> [files, fields, largest change]
    csvs = [name for name in common if name.endswith(".csv")]
    for name in csvs:
        changes = _csv_changes((old / name).read_text().splitlines(),
                               (new / name).read_text().splitlines())
        if changes is None:
            print(f"csv shape differs: {name}")
            same = False
            continue
        for column, (fields, change) in changes.items():
            entry = columns.setdefault(column, [0, 0, 0.0])
            entry[0] += 1
            entry[1] += fields
            entry[2] = max(entry[2], change)
    print(f"csv: {len(csvs)} files under both trees")
    if columns:
        same = False
        print(f"  {'column':<14}{'files':>7}{'fields':>9}  max |new-old|/max(1,|old|)")
        for column, (files, fields, change) in columns.items():
            print(f"  {column:<14}{files:>7}{fields:>9}  {change:.3e}")
    _checks_summary(old, new, [name for name in common if name.startswith("checks/")])
    for name in common:
        if name.endswith(".csv"):
            continue
        a, b = (old / name).read_text().splitlines(), (new / name).read_text().splitlines()
        if a != b:
            same = False
            print(f"{name}:")
            for line in list(difflib.unified_diff(a, b, lineterm="", n=0))[2:]:
                if not line.startswith("@@"):
                    print(line)
    return same


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    return 0 if compare(Path(argv[0]), Path(argv[1])) else 1


if __name__ == "__main__":
    sys.exit(main())
