"""Source rules for the library: checks report failures, they do not raise,
every raised error is one of the library's typed errors, every guard tests
its mask through slag_forge.masks, and no module keeps an import it does
not read.

An `assert` in src/ is stripped under `python -O` and, where it fires,
escapes `verify` as an AssertionError traceback instead of a FAIL line; a
bare `except:` or `except Exception` hides the typed errors (SlagForgeError
and its subclasses) the library raises on purpose.  Every `raise` of a
call names a class of slag_forge/errors.py (a bare `raise` re-raises), so
that `verify` and `oracle` report it as a FAIL line and the CLI as exit
code 2, not as a traceback.  np.any and np.all cost microseconds of
dispatch on the NumPy bool of a one-point query, so the library calls
masks.mask_any / mask_all, the one mask test, instead.  A
module-level import that nothing in its module reads is dead code, unless
bench/tracing.py wraps that attribute of the module by name.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

from test_bench_bindings import _load_tracing

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "slag_forge").glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TYPED_ERRORS = {node.name for node in ast.walk(ast.parse(
    next(p for p in SOURCES if p.name == "errors.py").read_text()))
    if isinstance(node, ast.ClassDef)}
BROAD = {"Exception", "BaseException"}
MASK_REDUCTIONS = {"any", "all"}


def _violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(f"line {node.lineno}: assert")
        elif isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or any(isinstance(c, ast.Name) and c.id in BROAD
                                        for c in caught):
                found.append(f"line {node.lineno}: broad except")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MASK_REDUCTIONS and isinstance(node.func.value, ast.Name)
              and node.func.value.id in ("np", "numpy")):
            found.append(f"line {node.lineno}: np.{node.func.attr}")
        elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            func = node.exc.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name not in TYPED_ERRORS:
                found.append(f"line {node.lineno}: raise {name}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_or_broad_except(path):
    assert _violations(ast.parse(path.read_text(), filename=str(path))) == []


def test_scan_flags_each_form():
    src = ("assert x\n"
           "try:\n    pass\nexcept:\n    pass\n"
           "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
           "try:\n    pass\nexcept ValueError:\n    pass\n"
           "if np.any(x) or numpy.all(y) or mask.any() or mask_all(y):\n    pass\n")
    assert _violations(ast.parse(src)) == ["line 1: assert", "line 4: broad except",
                                           "line 8: broad except", "line 14: np.any",
                                           "line 14: np.all"]


def test_scan_flags_untyped_raise():
    src = ("raise RuntimeError('no')\n"
           "raise errors.ConvergenceError('no') from None\n"
           "try:\n    pass\nexcept DomainError:\n    raise\n")
    assert _violations(ast.parse(src)) == ["line 1: raise RuntimeError"]


def _unread_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports that nothing in it reads."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def _bench_bound() -> dict[str, set[str]]:
    """The attributes bench/tracing.py wraps on each library module."""
    tracing = _load_tracing()
    bound = defaultdict(set)
    for module, attr, _ in tracing.SPANS:
        bound[module].add(attr)
    for module in tracing.K_SITES:
        bound[module].add("elliptic_K")
    return bound


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_unread_imports_are_bench_bindings(path):
    unread = _unread_imports(ast.parse(path.read_text(), filename=str(path)))
    assert [name for name in unread if name not in _bench_bound()[path.stem]] == []


def test_unread_import_scan():
    src = ("from __future__ import annotations\n"
           "import math\nimport os.path\n"
           "from .x import a, b as c, d\n"
           "def f(y: d) -> None:\n    return a(y)\n")
    assert _unread_imports(ast.parse(src)) == ["c", "math", "os"]
