"""The four benchmark workloads: inputs from a seed, one timed pass, output checks.

Every workload drives slag-forge from this one process and thread, through
the CLI entry point `cli.main` or the public library functions, and checks
each output it times.  A pass returns a PassResult; run.py turns the passes
of a run into metrics.

Operations are counted per emitted trace, per point and per check.  An
operation fails when it raises an untyped exception or gives a result that
breaks its gate; it is "typed" when the library answers it with a
SlagForgeError, and "stalled" when it overruns its latency limit and is
abandoned without an answer.  A stall is a latency outcome, not a wrong
answer: it counts against the bounded in_limit_share and answered_share, not
in `failed`.  Broken output checks that are not per-operation (file or row
counts that differ from reference.json, checks that are not reported at all)
go to PassResult.problems and make the run incorrect.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import re
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Latency limits.  A point query takes about 0.6 ms at the median; the
# limit sits far above that and far below the minute-long pi(x_pm) tail.
POINT_LIMIT_S = 0.05
# A trace-family CLI call takes at most about 1.2 s.  A check call takes
# 20 ms at the median and `oracle` 0.35 s, but a few check seeds in a hundred
# hit a slow pi(x_pm) sample (3.5 s at seed 10, over a minute at seed 15).
# A call past its limit is abandoned, so one stall cannot eat the run.
# Timed passes scale every limit by their slowdown (see REFERENCE_KERNEL_S),
# so the same work stalls whether the host runs fast or slow.
CALL_LIMIT_S = 10.0
CHECK_CALL_LIMIT_S = 2.0

AH_MU_GATE = 1e-6       # relative moment deviation along an AH trace
TN_GATE = 1e-5          # omega, Im Omega and relative moment deviation, TN
DET_GATE = 1e-8         # |det - 1| of the AH metric block
PI_TYPING_GATE = 1e-10  # pi(x_+) imaginary, pi(x_-) real
PI_TYPING_EVERY = 8     # every 8th answered point re-evaluates pi(x_pm)
DOCUMENTED_FAIL = "slag-ah-traces"

AH_C1_SET = tuple(float(c) for c in range(-10, 11))
FIG8_K = ((0.3, "0.3"), (0.5, "0.5"), (0.7, "0.7"))
FIG9_PHI = ((math.pi / 6, "pi6"), (math.pi / 4, "pi4"), (math.pi / 3, "pi3"))
TN_PRESETS = ("fig5", "fig6", "fig7")

POINT_BOX = ((0.02, 0.98), (0.02, math.pi - 0.02), (0.0, 2.0 * math.pi),
             (0.0, 4.0 * math.pi))          # k, theta, phi, psi
POINT_BATCH = 1000

# Machine speed.  The shared host's speed drifts by tens of percent over tens
# of seconds to minutes, longer than a run, as other tenants come and go.  A
# fixed reference kernel, timed between the operations of every pass, tracks
# it; a timing divided by the pass's slowdown (kernel time over
# REFERENCE_KERNEL_S) reads as seconds at one fixed reference speed.
REFERENCE_KERNEL_S = 1.25e-3
PROBE_EVERY_S = 0.1     # at most one kernel per 0.1 s of work: about 1 % overhead


# ------------------------------------------------------------------ library

def load_library() -> SimpleNamespace:
    """Import slag-forge from this checkout's src/ afresh; returns its modules.

    Any copy imported earlier is dropped first, so the import cost is paid
    on every call; set-up time is the median over several calls.
    """
    if not (SRC / "slag_forge" / "__init__.py").is_file():
        raise FileNotFoundError(f"no slag_forge package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "slag_forge" or m.startswith("slag_forge.")]:
        del sys.modules[name]
    names = ("cli", "checks", "elliptic", "atiyah_hitchin", "taub_nut",
             "moment_maps", "multiplets", "slag_curves", "csvio", "errors")
    lib = SimpleNamespace(**{n: importlib.import_module(f"slag_forge.{n}") for n in names})
    if not Path(lib.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"slag_forge imported from {lib.cli.__file__}, not {SRC}")
    return lib


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


# ----------------------------------------------------------- latency limit

class Stall(BaseException):
    """An operation overran its latency limit and was abandoned.

    Derived from BaseException so that the library's own `except Exception`
    handlers cannot swallow it and leave the operation running.
    """


def _on_alarm(signum, frame):
    raise Stall()


@contextlib.contextmanager
def deadline(seconds: float):
    """Abandon the enclosed block by raising Stall after `seconds` of wall time."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class CliCall:
    code: int | None        # exit code; None when it stalled or raised
    out: str
    seconds: float
    error: str = ""         # "stall" or the untyped exception

    @property
    def latency(self) -> float:
        """Seconds to the answer; inf when the call stalled or raised."""
        return self.seconds if self.code is not None else math.inf


def call_cli(lib, argv: list[str], limit: float = CALL_LIMIT_S) -> CliCall:
    """Run `slag-forge <argv>` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    t0 = time.perf_counter()
    try:
        # the timer is cancelled before the streams are restored, so a stall
        # cannot leave stdout redirected
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), deadline(limit):
            code = lib.cli.main(argv)
    except Stall:
        error = "stall"
    except Exception as exc:  # an untyped error is a failed operation, not a crash
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return CliCall(code, out.getvalue() + err.getvalue(), seconds, error)


# ------------------------------------------------------------ machine speed

_KERNEL_X = np.linspace(0.0, 1.0, 15)


def reference_kernel() -> float:
    """Fixed work in the style of the library: small numpy calls, float math
    and float formatting in a Python loop.  Takes REFERENCE_KERNEL_S at the
    reference speed."""
    s = 0.0
    for i in range(200):
        s += float(np.dot(np.sin(_KERNEL_X + i), _KERNEL_X))
        s += math.sqrt(i + (s * s) % 7.0)
        f"{s:.16e}"
    return s


class SpeedProbe:
    """Times the reference kernel between operations; see REFERENCE_KERNEL_S.

    Created when the timed work starts; finish() gives the wall time since,
    without the kernel runs, and the slowdown.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0            # seconds inside the kernel, kept out of timings
        self._last = -math.inf
        self._start = time.perf_counter()

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)
        self.spent += self._last - t0

    def tick(self) -> None:
        """Sample unless the last sample is less than PROBE_EVERY_S old."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    @property
    def slowdown(self) -> float:
        return statistics.median(self.samples) / REFERENCE_KERNEL_S

    def finish(self) -> tuple[float, float]:
        """(wall seconds without the kernel runs, slowdown), after a last sample."""
        self.tick()
        return time.perf_counter() - self._start - self.spent, self.slowdown


# ------------------------------------------------------------------ results

@dataclass
class PassResult:
    wall_s: float = 0.0                       # without the speed probe's kernels
    slowdown: float = 1.0                     # SpeedProbe.slowdown during the pass
    requests: list = field(default_factory=list)   # the request of each operation
    latencies: list = field(default_factory=list)  # its seconds; inf when it stalled
    attempted: int = 0
    failed: int = 0
    typed: int = 0
    stalled: int = 0
    problems: list = field(default_factory=list)  # broken output checks
    maxima: dict = field(default_factory=dict)    # largest residuals seen, not gated
    tally: Counter = field(default_factory=Counter)  # outcomes by kind

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0.0), value)

    def add_op(self, request, latency: float) -> None:
        self.requests.append(request)
        self.latencies.append(latency)

    def pack(self) -> None:
        """Hold the operations as arrays once the pass is over.

        As Python lists they hold over 100 bytes per operation, and on
        ah-points peak_rss_mb grew with the number of passes a run fits in:
        by 3 MB from 23 000 to 38 000 points.  As arrays they hold 16.
        """
        self.requests = np.asarray(self.requests)
        self.latencies = np.asarray(self.latencies, dtype=float)


def trace_residuals(path: Path):
    """(rows, omega max, Im Omega max, relative moment deviation) of a trace CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    mu = data[:, 11]
    med = float(np.median(mu))
    mu_rel = float(np.max(np.abs(mu - med))) / max(1.0, abs(med))
    return len(data), float(np.max(data[:, 9])), float(np.max(data[:, 10])), mu_rel


def check_trace_dir(res: PassResult, out_dir: Path, prefix: str, expected: dict,
                    manifold: str, call: CliCall, label: str) -> None:
    """Count and gate the CSVs one CLI call wrote against reference.json."""
    res.attempted += len(expected)
    if call.code is None:
        if call.error == "stall":
            res.stalled += len(expected)
        else:
            res.failed += len(expected)
        res.tally[f"{label}: {call.error}"] += 1
        return
    found = {}
    for path in sorted(out_dir.glob(f"{prefix}*.csv")):
        tag = path.name[len(prefix):-len(".csv")]
        rows, omega, im_omega, mu_rel = trace_residuals(path)
        found[tag] = rows
        if manifold == "ah":
            res.note_max("ah_omega_max", omega)
            res.note_max("ah_im_omega_max", im_omega)
            res.note_max("ah_mu_rel_max", mu_rel)
            broken = not mu_rel <= AH_MU_GATE
        else:
            res.note_max("tn_residual_max", max(omega, im_omega, mu_rel))
            broken = not max(omega, im_omega, mu_rel) <= TN_GATE
        res.failed += int(broken and tag in expected)
        res.tally["traces outside gate" if broken else "traces inside gate"] += 1
        res.tally["samples"] += rows
    if found != expected:
        missing = sorted(set(expected) - set(found))
        res.failed += len(missing)
        res.problems.append(
            f"{label}: {len(found)} files, rows {sum(found.values())}; reference.json has "
            f"{len(expected)} files, rows {sum(expected.values())}")
    if call.code != (0 if expected else 2):   # the CLI exits 2 when it wrote nothing
        res.problems.append(f"{label}: exit code {call.code}")


# ------------------------------------------------------------- ah-figures

def ah_family(fig: str, j: int, c1: float) -> tuple[str, list[str], str]:
    """(reference key, CLI arguments, output file prefix) of one AH preset family.

    The family flags run the same code with the same parameters as
    `trace --preset fig8|fig9`, one family per call.
    """
    if fig == "fig8":
        k, label = FIG8_K[j]
        argv = ["trace", "--ah-theta-phi", "--k", repr(k), "--c1", repr(c1)]
        stem = f"ah_thetaphi_k_{k:g}_c1_{c1:g}_"
        key = f"fig8/k={label}/c1={c1:g}"
    else:
        phi, label = FIG9_PHI[j]
        argv = ["trace", "--ah-theta-k", "--phi", repr(phi), "--c1", repr(c1)]
        stem = f"ah_thetak_phi_{phi:g}_c1_{c1:g}_"
        key = f"fig9/phi={label}/c1={c1:g}"
    return key, argv, stem.replace("+", "p").replace("-", "m")


class AHFigures:
    """fig8 then fig9, a balanced third of their 126 families per pass.

    The whole presets take about 46 s, longer than a run.  The seed picks
    one of nine balanced thirds: every c1 of both figures, with the k (fig8)
    and phi (fig9) values rotating through their three choices.
    """

    name = "ah-figures"
    limit = CALL_LIMIT_S

    def setup(self, lib, seed: int):
        o8, o9 = seed % 3, (seed // 3) % 3
        fams = [ah_family("fig8", (i + o8) % 3, c1) for i, c1 in enumerate(AH_C1_SET)]
        fams += [ah_family("fig9", (i + o9) % 3, c1) for i, c1 in enumerate(AH_C1_SET)]
        return SimpleNamespace(families=fams, reference=load_reference()["traces"])

    def run_pass(self, lib, plan, index: int, out_dir: Path) -> PassResult:
        res = PassResult()
        calls = []
        probe = SpeedProbe()
        for n, (key, argv, prefix) in enumerate(plan.families):
            probe.tick()
            fam_dir = out_dir / f"f{n:03d}"
            call = call_cli(lib, argv + ["--out", str(fam_dir)], self.limit * probe.slowdown)
            res.add_op(key, call.latency)
            calls.append((key, prefix, fam_dir, call))
        res.wall_s, res.slowdown = probe.finish()
        for key, prefix, fam_dir, call in calls:
            check_trace_dir(res, fam_dir, prefix, plan.reference[key], "ah", call, key)
        return res


# ------------------------------------------------------------- tn-figures

class TNFigures:
    """`trace --preset fig5`, `fig6` and `fig7`: closed-form Taub-NUT families.

    The presets have no free inputs; the seed sets the order they run in.
    No elliptic or pi(x_pm) code runs here, so it is the bypass workload for
    changes to those layers.
    """

    name = "tn-figures"
    limit = CALL_LIMIT_S

    def setup(self, lib, seed: int):
        order = np.random.default_rng(seed).permutation(len(TN_PRESETS))
        return SimpleNamespace(presets=[TN_PRESETS[i] for i in order],
                               reference=load_reference()["traces"])

    def run_pass(self, lib, plan, index: int, out_dir: Path) -> PassResult:
        res = PassResult()
        calls = []
        probe = SpeedProbe()
        for preset in plan.presets:
            probe.tick()
            call = call_cli(lib, ["trace", "--preset", preset, "--out", str(out_dir / preset)],
                            self.limit * probe.slowdown)
            res.add_op(preset, call.latency)
            calls.append((preset, call))
        res.wall_s, res.slowdown = probe.finish()
        for preset, call in calls:
            check_trace_dir(res, out_dir / preset, f"{preset}_", plan.reference[preset],
                            "tn", call, preset)
        return res


# ------------------------------------------------------------------ checks

_VERDICT = re.compile(r"^(PASS|FAIL) (\S+) ")


class Checks:
    """`verify --only <check>` for each of the 29 checks, then `oracle` (5 checks).

    Each pass runs at the next check seed of a seeded shuffle of the check
    seeds in reference.json, so one run covers many check seeds and a seed
    with a slow oracle sample moves the median pass little.  reference.json
    leaves out the few check seeds at which a check FAILs (the traced run
    re-runs those as a probe).  A check counts as attempted once it starts:
    when a call is abandoned, the check it was running stalled and the ones
    after it are not attempted.
    """

    name = "checks"
    limit = CHECK_CALL_LIMIT_S

    def setup(self, lib, seed: int):
        listing = call_cli(lib, ["verify", "--list"])
        names = listing.out.split()
        ref = load_reference()["checks"]
        oracle = list(lib.checks.ORACLE_CHECKS)
        if len(names) != ref["verify"] or len(oracle) != ref["oracle"]:
            raise RuntimeError(f"check registry changed: {len(names)} verify and "
                               f"{len(oracle)} oracle checks, reference.json has "
                               f"{ref['verify']} and {ref['oracle']}")
        seeds = np.random.default_rng(seed).permutation(ref["seeds"])
        return SimpleNamespace(seeds=[int(s) for s in seeds], verify=names, oracle=oracle)

    def run_pass(self, lib, plan, index: int, out_dir: Path) -> PassResult:
        res = PassResult()
        seed = str(plan.seeds[index % len(plan.seeds)])
        jobs = [(n, ["--seed", seed, "verify", "--only", n], [n]) for n in plan.verify]
        jobs.append(("oracle", ["--seed", seed, "oracle"], plan.oracle))
        calls = []
        probe = SpeedProbe()
        for request, argv, expected in jobs:
            probe.tick()
            call = call_cli(lib, argv, self.limit * probe.slowdown)
            res.add_op(request, call.latency)
            calls.append((expected, call))
        res.wall_s, res.slowdown = probe.finish()
        for expected, call in calls:
            verdicts = {}
            for line in call.out.splitlines():
                m = _VERDICT.match(line)
                if m:
                    verdicts[m.group(2)] = m.group(1)
            for name in expected:
                verdict = verdicts.get(name)
                res.attempted += 1
                if verdict is None:
                    if call.code is None:
                        # the check running when the call was abandoned; the
                        # ones after it in the registry never started
                        if call.error == "stall":
                            res.stalled += 1
                        else:
                            res.failed += 1
                        res.tally[f"{name}: {call.error}"] += 1
                        break
                    res.failed += 1
                    res.problems.append(f"{name}: no verdict reported")
                elif verdict == "FAIL":
                    if name == DOCUMENTED_FAIL:
                        res.tally[f"documented FAIL {name}"] += 1
                    else:
                        res.failed += 1
                        res.tally[f"FAIL {name} at seed {seed}"] += 1
        return res


# -------------------------------------------------------------- ah-points

@dataclass
class PointOutcome:
    seconds: float
    kind: str               # "ok", "typed", "stall", "error"
    state: object = None
    block: object = None
    detail: str = ""


def point_query(lib, params, point, limit: float = POINT_LIMIT_S) -> PointOutcome:
    """One closed-loop query: chart map, u coordinate (pi(x_pm)), metric block."""
    ah = lib.atiyah_hitchin
    t0 = time.perf_counter()
    try:
        with deadline(limit):
            state = ah.ah_from_spherical(ah.AHSphericalPoint(*point), params)
            ah.ah_u_coordinate(state, params)
            block = ah.ah_metric_UZ(state, params)
    except Stall:
        return PointOutcome(time.perf_counter() - t0, "stall")
    except lib.errors.SlagForgeError as exc:
        return PointOutcome(time.perf_counter() - t0, "typed", detail=type(exc).__name__)
    except Exception as exc:  # untyped: a failed point, reported by name
        return PointOutcome(time.perf_counter() - t0, "error",
                            detail=f"{type(exc).__name__}: {exc}")
    return PointOutcome(time.perf_counter() - t0, "ok", state, block)


def pi_typing_error(pi_plus, pi_minus) -> float:
    """Size of the wrong-typed parts: Re pi(x_+) and Im pi(x_-)."""
    err = abs(complex(pi_plus).real) / abs(pi_plus) if abs(pi_plus) > 0 else 0.0
    return max(err, abs(complex(pi_minus).imag) / max(1.0, abs(pi_minus)))


class AHPoints:
    """A closed loop of single-point AH queries, one client, 1000 points a pass.

    Points cover the fig9 rectangle k in (0.02, 0.98), theta in (0.02,
    pi - 0.02), phi in [0, 2 pi), psi in [0, 4 pi) uniformly: a rank-1
    Kronecker lattice with a seeded random shift, which spreads each pass
    over the whole box more evenly than independent draws.  A query past
    POINT_LIMIT_S is abandoned and counted as stalled.
    """

    name = "ah-points"
    limit = POINT_LIMIT_S
    # R_4 sequence: powers of the inverse of the root of x^5 = x + 1
    _ALPHA = 1.0 / 1.1673039782614187 ** np.arange(1, 5)

    def setup(self, lib, seed: int):
        shift = np.random.default_rng(seed).random(4)
        return SimpleNamespace(shift=shift, batch=POINT_BATCH,
                               params=lib.atiyah_hitchin.AHParams(1.0, 1))

    def points(self, plan, index: int) -> np.ndarray:
        j = np.arange(index * plan.batch, (index + 1) * plan.batch) + 1
        unit = (plan.shift + np.outer(j, self._ALPHA)) % 1.0
        lo = np.array([b[0] for b in POINT_BOX])
        hi = np.array([b[1] for b in POINT_BOX])
        return lo + unit * (hi - lo)

    def run_pass(self, lib, plan, index: int, out_dir: Path) -> PassResult:
        res = PassResult()
        pts = self.points(plan, index)
        outcomes = []
        probe = SpeedProbe()
        for point in pts:
            probe.tick()
            outcomes.append(point_query(lib, plan.params, point, self.limit * probe.slowdown))
        res.wall_s, res.slowdown = probe.finish()
        answered = 0
        for n, oc in enumerate(outcomes):
            res.attempted += 1
            res.add_op(index * plan.batch + n, math.inf if oc.kind == "stall" else oc.seconds)
            if oc.kind == "typed":
                res.typed += 1
                res.tally[f"typed {oc.detail}"] += 1
                continue
            if oc.kind == "stall":
                res.stalled += 1
                res.tally["stall"] += 1
                continue
            if oc.kind != "ok":
                res.failed += 1
                res.tally[f"error {oc.detail}"] += 1
                continue
            det_err = abs(oc.block.det() - 1.0)
            res.note_max("det_err_max", det_err)
            bad = not det_err <= DET_GATE
            if answered % PI_TYPING_EVERY == 0 and not bad:
                bad = self._pi_typing_broken(lib, oc.state, self.limit * res.slowdown, res)
            answered += 1
            res.failed += int(bad)
            res.tally["det or pi typing outside gate"] += int(bad)
        return res

    @staticmethod
    def _pi_typing_broken(lib, state, limit: float, res: PassResult) -> bool:
        try:
            with deadline(limit):
                pi_plus, pi_minus = lib.atiyah_hitchin.ah_pi_xpm(state)
        except Stall:
            res.tally["pi typing unchecked: stall on re-evaluation"] += 1
            return False
        err = pi_typing_error(pi_plus, pi_minus)
        res.note_max("pi_typing_err_max", err)
        res.tally["pi typing checked"] += 1
        return not err <= PI_TYPING_GATE


WORKLOADS = {w.name: w for w in (AHFigures(), AHPoints(), TNFigures(), Checks())}


# ---------------------------------------------------------- check seed probe

def check_verdict(lib, name: str, seed: int) -> str:
    """PASS, FAIL, or the error of the call, for one check at one check seed."""
    argv = (["--seed", str(seed), "oracle"] if name in lib.checks.ORACLE_CHECKS
            else ["--seed", str(seed), "verify", "--only", name])
    call = call_cli(lib, argv, CHECK_CALL_LIMIT_S)
    for line in call.out.splitlines():
        m = _VERDICT.match(line)
        if m and m.group(2) == name:
            return m.group(1)
    return call.error or "no verdict"


def excluded_seed_probe(lib) -> list[tuple[str, int, str]]:
    """Re-run the checks at the check seeds the checks workload leaves out.

    reference.json lists each (check, check seed) that FAILed when it was
    made; the checks workload skips those seeds, so this probe keeps the
    defect visible.  Returns (check, seed, verdict) for each.
    """
    return [(e["check"], e["seed"], check_verdict(lib, e["check"], e["seed"]))
            for e in load_reference()["checks"]["excluded"]]


# -------------------------------------------------------------- edge probe

def edge_probe(lib, limit: float = POINT_LIMIT_S) -> list[tuple[str, float, bool]]:
    """pi(x_pm) at three adversarial points, each under the point latency limit.

    The points sit 1e-8 of the cut span [e3, e2] from a cut end: x_+ just
    above e2 at k = 0.997, and x_- just inside e3 and just inside e2.  Each
    is built from its (x_+, x_-) pair and evaluated through the public
    state constructor and u coordinate.  Returns (label, seconds, stalled).
    """
    ah, ell = lib.atiyah_hitchin, lib.elliptic
    params = ah.AHParams(1.0, 1)
    k = 0.997
    data = ell.elliptic_data(k, 16.0 * ell.elliptic_K(k) ** 2)
    e2, e3 = data.e2, data.e3
    span = e2 - e3
    cases = (("x+ = e2 + 1e-8 span", e2 + 1e-8 * span, e3 + 0.5 * span),
             ("x- = e3 + 1e-8 span", e2 + 0.5 * span, e3 + 1e-8 * span),
             ("x- = e2 - 1e-8 span", e2 + 0.5 * span, e2 - 1e-8 * span))
    out = []
    for label, xp, xm in cases:
        absz = 0.25 * (xp - xm)
        z = complex(absz, 0.0)
        v = math.sqrt(absz) * complex(1.0, 1.0)    # v_- = v_+ = 1
        state = ah.ah_state_from_zvx(z, v, 1.5 * (xp + xm), data)
        t0 = time.perf_counter()
        try:
            with deadline(limit):
                ah.ah_u_coordinate(state, params)
            stalled = False
        except Stall:
            stalled = True
        except lib.errors.SlagForgeError:
            stalled = False
        out.append((label, time.perf_counter() - t0, stalled))
    return out
