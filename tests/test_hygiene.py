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


def _public_definitions(tree):
    """(name, line) of public top-level functions and classes and of the
    public methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.lineno


def _used_names(tree):
    """Identifiers a module refers to: names, attributes, imported names,
    and the parts of dotted-identifier string constants (``bench/tracer.py``
    names the functions it patches by string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield from parts


def test_no_public_api_that_nothing_calls():
    """Every public function, class and method of the package is referred
    to somewhere in src/, tests/ or bench/ besides its own definition."""
    root = Path(__file__).resolve().parents[1]
    used = set()
    for folder in ("src", "tests", "bench"):
        for path in (root / folder).rglob("*.py"):
            used.update(_used_names(ast.parse(path.read_text(), filename=str(path))))
    found = [
        f"{name}:{line}: {qualname}"
        for name, tree in _trees()
        for qualname, line in _public_definitions(tree)
        if qualname.split(".")[-1] not in used
    ]
    assert not found, found
