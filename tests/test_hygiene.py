"""Source rules the package relies on, checked on its syntax trees."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "conewalk").glob("*.py"))


def _trees():
    assert SOURCES
    for path in SOURCES:
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_no_assert_statements():
    """``python -O`` strips asserts; runtime invariants raise typed errors."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_imports_only_stdlib_and_conewalk():
    """The package declares ``dependencies = []``."""
    allowed = set(sys.stdlib_module_names) | {"conewalk"}
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            found += [f"{name}:{node.lineno}: {top}" for top in tops if top not in allowed]
    assert not found, found
