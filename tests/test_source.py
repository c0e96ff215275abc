"""Guards over the package source itself."""

import ast
from collections import Counter
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


def _is_command(node: ast.FunctionDef | ast.ClassDef) -> bool:
    """Decorated with ``<group>.command(...)`` or ``<group>.group(...)``:
    Click reaches it, not a name."""
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def _references(tree: ast.AST) -> Counter:
    """The names a tree reads: bare names, attributes and imported names.
    Docstrings and comments are not read."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
    return out


# Read by tests only, and kept.
_TEST_ONLY = {
    # the oracle that the K quantifier clause's stretch table is checked against
    "CountingNormalForm.satisfied",
}


def _definitions(tree: ast.Module):
    """A module's functions and classes, and its classes' methods: (qualified
    name, node).  Dunders, which the language calls, and the methods of a
    subclass of another module's class (``click.Command``), which that
    class calls, are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef) and not any(
            isinstance(base, ast.Attribute) for base in node.bases
        ):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def test_every_module_level_definition_is_read_by_the_program():
    """A module-level function or class of the package, or a method of one
    of its classes, that nothing in the package (its re-exports included)
    or in the benchmark reads, other than its own body, is API that only
    tests reach: an oracle belongs in the test that uses it."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for path in [*sorted(PACKAGE.glob("*.py")), *sorted(bench.rglob("*.py"))]
    }
    program = Counter()
    for tree in trees.values():
        program.update(_references(tree))
    unread = [
        f"{path.name}:{node.lineno} {name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name, node in _definitions(tree)
        if name not in _TEST_ONLY
        and not _is_command(node)
        and program[node.name] == _references(node)[node.name]
    ]
    assert not unread, unread
