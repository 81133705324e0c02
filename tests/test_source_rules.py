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
bench/tracing.py wraps that attribute of the module by name; an import
marked `# noqa: F401` binds only such names, so the mark hides no other
unused name.  The moment
kernels (moment_tn_u1, moment_tn_so2, moment_ah_so2) are called only by
ActionSpec.moment, the one table that pairs each action with its mu.  A
defaulted parameter that no call in src/ or bench/ passes is a setting
nobody sets: it is a constant, and is written as one.  Every class of
errors.py but the base SlagForgeError is raised by some `raise` in src/: a
class that nothing raises is a name callers would catch in vain.
"""

import ast
import functools
import math
from collections import defaultdict
from pathlib import Path

import pytest

from test_bench_bindings import _load_tracing

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "slag_forge").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
ERRORS = ast.parse(next(p for p in SOURCES if p.name == "errors.py").read_text())
TYPED_ERRORS = {node.name for node in ast.walk(ERRORS) if isinstance(node, ast.ClassDef)}
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


def _unraised_errors(errors: ast.Module, trees) -> list[str]:
    """Classes of the errors module, but SlagForgeError, that no raise in the
    trees names (as a call's callee or bare; a bare `raise` names none)."""
    raised = {_callee(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
              for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and node.exc is not None}
    return [node.name for node in errors.body if isinstance(node, ast.ClassDef)
            and node.name != "SlagForgeError" and node.name not in raised]


def test_every_error_class_is_raised():
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in SOURCES]
    assert _unraised_errors(ERRORS, trees) == []


def test_unraised_error_scan():
    errors = ast.parse("class SlagForgeError(Exception):\n    pass\n"
                       + "".join(f"class {c}Error(SlagForgeError):\n    pass\n"
                                 for c in "ABCDE"))
    src = ("raise errors.AError('no') from None\n"
           "raise BError\n"
           "try:\n    pass\nexcept CError:\n    raise\n"
           "err = DError('built, not raised')\n")
    assert _unraised_errors(errors, [ast.parse(src)]) == ["CError", "DError", "EError"]


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


def _noqa_imports(tree: ast.Module, source: str) -> list[str]:
    """Names bound by the top-level imports whose lines carry `# noqa: F401`."""
    lines = source.splitlines()
    return sorted((a.asname or a.name).split(".")[0] for node in tree.body
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and any("# noqa: F401" in line
                          for line in lines[node.lineno - 1:node.end_lineno])
                  for a in node.names)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_noqa_imports_are_bench_bindings(path):
    source = path.read_text()
    marked = _noqa_imports(ast.parse(source, filename=str(path)), source)
    assert [name for name in marked if name not in _bench_bound()[path.stem]] == []


def test_noqa_import_scan():
    src = ("import math  # noqa: F401\n"
           "from .x import a, b\n"
           "from .y import (c,\n                d as e)  # noqa: F401\n")
    assert _noqa_imports(ast.parse(src), src) == ["c", "e", "math"]


def test_unread_import_scan():
    src = ("from __future__ import annotations\n"
           "import math\nimport os.path\n"
           "from .x import a, b as c, d\n"
           "def f(y: d) -> None:\n    return a(y)\n")
    assert _unread_imports(ast.parse(src)) == ["c", "math", "os"]


def _moment_calls(tree: ast.AST) -> list[str]:
    """Calls of a moment_* kernel outside the method ActionSpec.moment."""
    table = {id(node) for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) and cls.name == "ActionSpec"
             for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "moment"
             for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in table:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name.startswith("moment_"):
                found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_moment_kernels_called_only_by_the_action_table(path):
    assert _moment_calls(ast.parse(path.read_text(), filename=str(path))) == []


def test_moment_call_scan():
    src = ("class ActionSpec:\n    def moment(self, pt, p):\n        return moment_tn_u1(pt)\n"
           "    def field(self, w0, w1):\n        return mm.moment_ah_so2(w0)\n"
           "mu = moment_tn_so2(pt, p)\n")
    assert _moment_calls(ast.parse(src)) == ["line 5: moment_ah_so2", "line 6: moment_tn_so2"]


def _callee(func: ast.expr) -> str | None:
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _passed(trees) -> tuple[set, defaultdict, set]:
    """What the calls in the trees pass: (callee, keyword) pairs (keyword
    None for a **mapping), the most positional arguments per callee name
    (unbounded for a *sequence), and the keywords of functools.partial calls,
    whose callee is often a variable."""
    keywords, positions, partial = set(), defaultdict(int), set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name, args = _callee(node.func), node.args
            if name == "partial":
                partial |= {k.arg for k in node.keywords}
                name, args = (_callee(args[0]), args[1:]) if args else (None, [])
            keywords |= {(name, k.arg) for k in node.keywords}
            n = math.inf if any(isinstance(a, ast.Starred) for a in args) else len(args)
            positions[name] = max(positions[name], n)
    return keywords, positions, partial


def _unpassed_defaults(tree: ast.AST, calls) -> list[str]:
    """Defaulted parameters of the tree's functions that no call passes by
    keyword, by position or as a functools.partial keyword.  Calls match
    by the callee's name alone; a method's position does not count self."""
    keywords, positions, partial = calls
    methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for fn in cls.body}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        args = fn.args.posonlyargs + fn.args.args
        first = len(args) - len(fn.args.defaults)
        skip = 1 if id(fn) in methods else 0
        params = [(a.arg, i - skip) for i, a in enumerate(args) if i >= first]
        params += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                   if d is not None]
        for arg, pos in params:
            if ((fn.name, arg) in keywords or (fn.name, None) in keywords or arg in partial
                    or (pos is not None and positions[fn.name] > pos)):
                continue
            found.append(f"line {fn.lineno}: {fn.name}({arg})")
    return found


@functools.cache
def _library_calls():
    """What the calls in src/ and bench/ pass (calls in tests do not count)."""
    return _passed(ast.parse(p.read_text(), filename=str(p)) for p in SOURCES + BENCH)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_default_is_passed_by_some_call(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unpassed_defaults(tree, _library_calls()) == []


def test_unpassed_default_scan():
    lib = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
           "class C:\n    def m(self, x=0, y=0):\n        pass\n"
           "def g(p=0, q=0):\n    pass\n"
           "def h(r=0, s=0, t=0):\n    pass\n"
           "def k(u=0):\n    pass\n")
    calls = ("f(1, 2, e=5)\nobj.m(1)\ng(*args)\nfunctools.partial(h, 1, t=2)\n"
             "functools.partial(fn, s=1)\nk(**opts)\n")
    assert _unpassed_defaults(ast.parse(lib), _passed([ast.parse(calls)])) == [
        "line 1: f(c)", "line 1: f(d)", "line 4: m(y)"]
