"""Source rules for the library: checks report failures, they do not raise,
and every guard tests its mask through slag_forge.masks.

An `assert` in src/ is stripped under `python -O` and, where it fires,
escapes `verify` as an AssertionError traceback instead of a FAIL line; a
bare `except:` or `except Exception` hides the typed errors (SlagForgeError
and its subclasses) the library raises on purpose.  np.any and np.all cost
microseconds of dispatch on the NumPy bool of a one-point query, so the
library calls masks.mask_any / mask_all, the one mask test, instead.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "slag_forge").glob("*.py"))
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
