"""Write bench/reference.json: what the presets emit at this commit.

    python3 bench/make_reference.py

Runs `trace --preset fig5` to `fig9` once (about a minute) and records, per
preset family, the rows of every CSV it writes, keyed by the trace tag.  The
ah-figures and tn-figures workloads compare their output against these
counts.  It also checks that the per-family CLI flags that ah-figures uses
write byte-identical CSVs to the preset, and records the size of the check
registries.  Then it runs every check at check seeds 0 to CHECK_SEEDS - 1
(about three minutes) and records the seeds the checks workload uses: those
at which no check FAILs, except the documented one.  The (check, seed) pairs
that FAILed are recorded too, for the traced run's probe.  Regenerate it
only in a change that redefines the benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

CHECK_SEEDS = 120


def _fnum(v: float) -> str:
    return f"{v:g}".replace("-", "m")


def preset_prefix(fig: str, value_label: str, c1: float) -> str:
    """File prefix `trace --preset` uses for one AH family."""
    head = f"fig8_k_{value_label}" if fig == "fig8" else f"fig9_phi_{value_label}"
    return f"{head}_c1_{_fnum(c1)}_".replace("+", "p").replace("-", "m")


def rows_by_tag(out_dir: Path, prefix: str) -> dict[str, int]:
    return {p.name[len(prefix):-len(".csv")]: wl.trace_residuals(p)[0]
            for p in sorted(out_dir.glob(f"{prefix}*.csv"))}


def sweep_check_seeds(lib) -> tuple[list[int], list[dict]]:
    """(clean check seeds, FAILed (check, seed) pairs) over CHECK_SEEDS seeds.

    A stalled check is not a FAIL; it stays in, as in the timed runs.
    """
    workload = wl.WORKLOADS["checks"]
    plan = workload.setup(lib, 0)
    clean, excluded = [], []
    for seed in range(CHECK_SEEDS):
        plan.seeds = [seed]
        res = workload.run_pass(lib, plan, 0, Path("."))
        fails = sorted(key.split()[1] for key in res.tally if key.startswith("FAIL "))
        if res.problems or (res.failed and not fails):
            raise RuntimeError(f"check seed {seed}: {res.problems or dict(res.tally)}")
        excluded += [{"check": name, "seed": seed} for name in fails]
        if not fails:
            clean.append(seed)
        print(f"check seed {seed}: {fails or 'clean'}"
              f"{', stalled ' + str(res.stalled) if res.stalled else ''}", flush=True)
    return clean, excluded


def main() -> int:
    lib = wl.load_library()
    scratch = wl.ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
    try:
        traces = {}
        for preset in ("fig5", "fig6", "fig7", "fig8", "fig9"):
            call = wl.call_cli(lib, ["trace", "--preset", preset, "--out", str(work / preset)],
                               limit=600.0)
            if call.code != 0:
                raise RuntimeError(f"{preset}: exit {call.code} {call.error}")
            print(f"{preset}: {call.seconds:.1f} s", flush=True)
        for preset in wl.TN_PRESETS:
            traces[preset] = rows_by_tag(work / preset, f"{preset}_")
        for fig, values in (("fig8", wl.FIG8_K), ("fig9", wl.FIG9_PHI)):
            for j, (_, label) in enumerate(values):
                for c1 in wl.AH_C1_SET:
                    key, _, _ = wl.ah_family(fig, j, c1)
                    traces[key] = rows_by_tag(work / fig, preset_prefix(fig, label, c1))
        # the family flags must reproduce the preset files byte for byte
        for fig, j, c1 in (("fig8", 1, -2.0), ("fig9", 1, -2.0)):
            key, argv, prefix = wl.ah_family(fig, j, c1)
            fam_dir = work / "family"
            call = wl.call_cli(lib, argv + ["--out", str(fam_dir)], limit=600.0)
            label = (wl.FIG8_K if fig == "fig8" else wl.FIG9_PHI)[j][1]
            pre = preset_prefix(fig, label, c1)
            for tag in traces[key]:
                a = (fam_dir / f"{prefix}{tag}.csv").read_bytes()
                b = (work / fig / f"{pre}{tag}.csv").read_bytes()
                if call.code != 0 or a != b:
                    raise RuntimeError(f"{key} {tag}: family flags differ from the preset")
        reference = {
            "checks": {"verify": len(lib.checks.VERIFY_CHECKS),
                       "oracle": len(lib.checks.ORACLE_CHECKS),
                       "documented_fail": wl.DOCUMENTED_FAIL,
                       "seeds": [], "excluded": []},
            "traces": traces,
        }
        # the checks workload's set-up reads the registry sizes from the file
        wl.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        clean, excluded = sweep_check_seeds(lib)
        reference["checks"].update(seeds=clean, excluded=excluded)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wl.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    n_files = sum(len(v) for v in traces.values())
    n_rows = sum(sum(v.values()) for v in traces.values())
    print(f"wrote {wl.REFERENCE}: {n_files} files, {n_rows} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
