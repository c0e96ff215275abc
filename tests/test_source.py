"""Guards over the package source itself."""

import ast
from pathlib import Path

import condlog

PACKAGE = Path(condlog.__file__).resolve().parent


def test_package_has_no_assert_statements():
    """``python -O`` strips ``assert``, so a runtime invariant must raise a
    real exception instead."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
