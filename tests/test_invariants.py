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


def test_tensor_and_subquotients_build_no_kronecker_matrix():
    """tensor_over reads its balancing subspace off hom_space, and it,
    submodule and _quotient induce actions by batched products: none of
    them may fall back to a Kronecker matrix."""
    tree = ast.parse((SRC / "modules.py").read_text())
    functions = {
        node.name: node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ("tensor_over", "submodule", "_quotient")
    }
    assert set(functions) == {"tensor_over", "submodule", "_quotient"}
    found = [
        f"{name}:{node.lineno}"
        for name, fn in functions.items()
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("kron", "kronecker_product")
    ]
    assert found == []
