"""Source rules for the library: checks report failures, they do not raise.

An `assert` in src/ is stripped under `python -O` and, where it fires,
escapes `verify` as an AssertionError traceback instead of a FAIL line; a
bare `except:` or `except Exception` hides the typed errors (SlagForgeError
and its subclasses) the library raises on purpose.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "slag_forge").glob("*.py"))
BROAD = {"Exception", "BaseException"}


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
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_or_broad_except(path):
    assert _violations(ast.parse(path.read_text(), filename=str(path))) == []


def test_scan_flags_each_form():
    src = ("assert x\n"
           "try:\n    pass\nexcept:\n    pass\n"
           "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
           "try:\n    pass\nexcept ValueError:\n    pass\n")
    assert _violations(ast.parse(src)) == ["line 1: assert", "line 4: broad except",
                                           "line 8: broad except"]
