"""Invariant checks in the library must survive python -O.

A bare assert statement is compiled away under -O, so the library raises
AssertionError explicitly instead; this test keeps it that way.
"""

import ast
from pathlib import Path

import jorder

SRC = Path(jorder.__file__).resolve().parent


def test_library_has_no_assert_statements():
    sources = sorted(SRC.rglob("*.py"))
    assert sources, "no library sources found"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
