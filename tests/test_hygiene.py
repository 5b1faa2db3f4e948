"""Source rules the package relies on, checked on its syntax trees."""

import ast
import sys
from collections import Counter
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
    """(name, definition node) of public top-level functions and classes
    and of the public methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


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


#: public API that only the README and the tests reach, kept on purpose
DOCUMENTED_API = {
    "univariate_factor": "the README's complete univariate factorization over GF(p)",
    "smoothness_sample": "a README verifier that the verify command is still to wire in",
    "phi_map": "the README's vertex-to-vertex obstruction map",
    "skeleton_to_json": "inverse of skeleton_from_json for the README's graph files",
    "SparsePoly.eval_point": "the README's polynomial evaluation",
    "sandwich_check": "the README's sandwich estimates",
    "step_budget": "the paper's ladder budget, not yet printed by the bounds command",
    "step_budget_closed_form": "its closed form, not yet printed by the bounds command",
}


def test_no_public_api_that_nothing_calls():
    """Every public function, class and method of the package is referred
    to in src/ or bench/ outside its own definition, or is documented API
    listed in ``DOCUMENTED_API``; a reference from tests alone, or from
    the definition's own body (recursion, or a same-named method it
    delegates to), does not count, and every listed name must still be
    defined.  Names are matched bare, so a reference to a same-named
    definition elsewhere still counts for both."""
    root = Path(__file__).resolve().parents[1]
    used = Counter()
    for folder in ("src", "bench"):
        for path in (root / folder).rglob("*.py"):
            used.update(_used_names(ast.parse(path.read_text(), filename=str(path))))
    defined = [
        (f"{name}:{node.lineno}", qualname, node)
        for name, tree in _trees()
        for qualname, node in _public_definitions(tree)
    ]
    found = []
    for where, qualname, node in defined:
        short = qualname.split(".")[-1]
        own = sum(1 for name in _used_names(node) if name == short)
        if used[short] <= own and qualname not in DOCUMENTED_API:
            found.append(f"{where}: {qualname}")
    assert not found, found
    # an allow-list entry whose definition is gone would hide nothing
    stale = sorted(set(DOCUMENTED_API) - {qualname for _, qualname, _ in defined})
    assert not stale, stale


def _dataclass_fields(tree):
    """(Class.field, node) of the public annotated fields of top-level
    ``@dataclass`` classes."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            continue
        for item in node.body:
            if (
                isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and not item.target.id.startswith("_")
            ):
                yield f"{node.name}.{item.target.id}", item


#: dataclass fields that only the tests read, kept on purpose
_EVIDENCE = "verdict evidence that tests read and that the observability aim puts into reports"
UNREAD_FIELDS = {
    "IrreducibilityVerdict.assignment": _EVIDENCE,
    "IrreducibilityVerdict.note": _EVIDENCE,
}


def test_no_dataclass_field_that_nothing_reads():
    """Every public field of a dataclass in the package is read as an
    attribute (``obj.field`` in load context) somewhere in src/ or bench/,
    or is listed in ``UNREAD_FIELDS``; constructor keywords and writes do
    not count.  Names are matched bare, as in the API check above."""
    root = Path(__file__).resolve().parents[1]
    read = set()
    for folder in ("src", "bench"):
        for path in (root / folder).rglob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            read.update(
                node.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            )
    fields = [
        (f"{name}:{node.lineno}", qualname)
        for name, tree in _trees()
        for qualname, node in _dataclass_fields(tree)
    ]
    found = [
        f"{where}: {qualname}"
        for where, qualname in fields
        if qualname.split(".")[-1] not in read and qualname not in UNREAD_FIELDS
    ]
    assert not found, found
    # an allow-list entry whose field is gone would hide nothing
    stale = sorted(set(UNREAD_FIELDS) - {qualname for _, qualname in fields})
    assert not stale, stale
