"""The benchmark tracer (bench/tracing.py) wraps library attributes by name.

A rename or removal of any of them makes `bench/run.py --trace 1` fail with
AttributeError, so each one the tracer names must exist on its module, and
installing and removing the tracer must leave the library as it was.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

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
