"""Checks on the package source itself."""

import ast
from pathlib import Path

import hgpbarrier


def test_no_bare_assert_in_package():
    # python -O strips assert statements, so no check in the package may use one
    sources = sorted(Path(hgpbarrier.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
