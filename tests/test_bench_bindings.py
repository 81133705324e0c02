"""The benchmark tracer (bench/tracing.py) wraps library attributes by name.

A rename or removal of any of them makes `bench/run.py --trace 1` fail with
AttributeError, so each one the tracer names must exist on its module, and
installing and removing the tracer must leave the library as it was.
"""

import importlib
import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

from slag_forge.atiyah_hitchin import AHParams

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("slag_forge_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_bindings_exist():
    tracing = _load_tracing()
    sites = [(mod, attr) for mod, attr, _ in tracing.SPANS]
    sites += [(mod, "elliptic_K") for mod in tracing.K_SITES]
    sites += [("slag_curves", attr) for attr in tracing.AH_TRACE_FAMILIES]
    names = sorted({mod for mod, _ in sites})
    lib = SimpleNamespace(**{n: importlib.import_module(f"slag_forge.{n}") for n in names})
    missing = [f"{mod}.{attr}" for mod, attr in sites if not hasattr(getattr(lib, mod), attr)]
    assert not missing

    before = {(mod, attr): getattr(getattr(lib, mod), attr) for mod, attr in sites}
    tracer = tracing.Tracer(lib)
    try:
        tracer.install()
    finally:
        tracer.remove()
    assert all(getattr(getattr(lib, mod), attr) is fn for (mod, attr), fn in before.items())


def test_bench_tracer_counts_condition_and_polylines(monkeypatch):
    """Under the installed tracer, a fig9 family counts its condition calls
    and exactly the vertices of the polylines trace_zero_set returns, and
    one verify_slag records its span; removing the tracer restores the
    library.  A change to the grid's f(x, y) or to the list-of-polylines
    return shape breaks these counts."""
    import math

    from slag_forge.atiyah_hitchin import AHParams

    tracing = _load_tracing()
    names = sorted({mod for mod, _, _ in tracing.SPANS} | set(tracing.K_SITES))
    lib = SimpleNamespace(**{n: importlib.import_module(f"slag_forge.{n}") for n in names})
    sc = lib.slag_curves
    returned = []
    original = sc.trace_zero_set

    def spy(*args, **kwargs):
        polylines = original(*args, **kwargs)
        returned.append(polylines)
        return polylines

    monkeypatch.setattr(sc, "trace_zero_set", spy)
    sites = [(mod, attr) for mod, attr, _ in tracing.SPANS]
    sites += [(mod, "elliptic_K") for mod in tracing.K_SITES]
    sites += [("slag_curves", attr) for attr in tracing.AH_TRACE_FAMILIES]
    before = {(mod, attr): getattr(getattr(lib, mod), attr) for mod, attr in sites}
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        traces = sc.ah_traces_theta_k(math.pi / 4, -3.0, n=64)
        sc.verify_slag(traces[0], "ah", AHParams(1.0, 1))
    finally:
        tracer.remove()
    assert all(getattr(getattr(lib, mod), attr) is fn for (mod, attr), fn in before.items())

    metrics = tracing.layer_metrics(tracer)
    assert len(returned) == metrics["slag_curves.trace_zero_set.calls"] == 1
    assert metrics["slag_curves.trace_zero_set.condition_evals"] > 0
    assert metrics["slag_curves.trace_zero_set.condition_points"] > 0
    vertices = sum(len(p) for polylines in returned for p in polylines)
    assert vertices > 0
    assert tracer.counts["slag_curves.polyline_vertices"] == vertices
    assert metrics["slag_curves.verify_slag.ah.calls"] == 1
    assert metrics["slag_curves.verify_slag.ah.us_per_sample"] > 0.0
