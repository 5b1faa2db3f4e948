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


def test_no_bare_arithmetic_error():
    """Runtime failures raise ``ConewalkError`` subclasses, which the CLI
    reports in one line, not a bare ``ArithmeticError``."""
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ArithmeticError":
                    found.append(f"{name}:{node.lineno}")
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


def test_no_private_name_imported_from_another_module():
    """A module's underscore names are private to it: no module of the
    package imports one from another."""
    found = [
        f"{name}:{node.lineno}: {alias.name}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("conewalk"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not found, found


def test_report_entries_come_from_check_entry():
    """A report entry has one builder, ``stateio.check_entry``: no other
    code in the package writes a dict literal with a ``"check"`` key."""
    found = []
    for name, tree in _trees():
        builder = {
            id(node)
            for func in tree.body
            if name == "stateio.py" and isinstance(func, ast.FunctionDef) and func.name == "check_entry"
            for node in ast.walk(func)
        }
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Dict) and id(node) not in builder
            and any(isinstance(key, ast.Constant) and key.value == "check" for key in node.keys)
        ]
    assert not found, found


def test_term_keys_are_read_only_in_poly():
    """Term keys are packed ints whose layout is private to ``poly``: the
    rest of the package reads a polynomial's ``terms`` only through
    ``len(...)``, and exponents through ``poly``'s methods."""
    found = []
    for name, tree in _trees():
        if name == "poly.py":
            continue
        counted = {
            id(node.args[0])
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "len" and len(node.args) == 1
        }
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "terms" and id(node) not in counted
        ]
    assert not found, found


def test_exponent_tuples_stay_in_poly():
    """A term's exponents are read as (slot, exponent) pairs of its
    nonzero fields: outside ``poly`` no module calls ``specialize_params``
    or ``to_dict``, the views with one slot per variable of the universe
    (a module's own function of that name, as ``bi.to_dict``, aside)."""
    found = []
    for name, tree in _trees():
        if name == "poly.py":
            continue
        modules = {alias for alias, binding in _module_env(name[:-3], tree).items() if binding[0] == "module"}
        found += [
            f"{name}:{node.lineno}: {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("specialize_params", "to_dict")
            and getattr(node.value, "id", None) not in modules
        ]
    assert not found, found


#: field-protocol arithmetic: one method call per coefficient operation
FIELD_PROTOCOL = {"add", "sub", "mul", "neg", "inv", "scalar", "is_zero", "pow", "random"}
#: the size and characteristic of a field, on which a second field path would branch
FIELD_SIZE = {"q", "char"}


def _callee(call):
    """The name a call is made through: ``f`` of ``f(...)`` and of ``m.f(...)``."""
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)


def _handle_params(func):
    """The parameters of ``func`` (a function or lambda) that take a field
    handle: one named ``F`` or annotated ``PrimeField``."""
    args = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
    return {
        a.arg for a in args
        if a.arg == "F" or (isinstance(a.annotation, ast.Name) and a.annotation.id == "PrimeField")
    }


def _field_handles(func):
    """Names in ``func`` that hold a field handle: a handle parameter
    (``_handle_params``) and a name bound to ``PrimeField(...)``."""
    handles = _handle_params(func)
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) and _callee(node.value) == "PrimeField":
            handles |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return handles


def test_one_field_representation():
    """GF(p) on plain ints mod p is the package's only field
    representation: outside ``gfext``, which defines the handle, no code
    reaches field-protocol arithmetic on a field handle or reads its
    ``q``/``char``, which a second field path would dispatch on.  The
    field protocol, over GF(p) and GF(p^k), lives in the tests'
    reference (``tests/oracles.py``)."""
    found = set()
    for name, tree in _trees():
        if name == "gfext.py":
            continue
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            handles = _field_handles(func)
            found |= {
                f"{name}:{node.lineno}: {node.value.id}.{node.attr}"
                for node in ast.walk(func)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in handles and node.attr in FIELD_PROTOCOL | FIELD_SIZE
            }
    assert not found, sorted(found)


def _calls_in_functions(tree, callee):
    """(innermost enclosing function, or None at module level) of each
    call made through the name ``callee``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _callee(child) == callee:
                found.append(owner)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else owner)

    visit(tree, None)
    return found


def test_one_field_handle_site():
    """The oracle's kernels take the prime p.  In ``unifactor``,
    ``bifactor`` and ``factorizer`` no function or lambda but
    ``bifactor.factor_bivariate`` has a field-handle parameter, and the
    package builds a ``PrimeField`` at one call, in
    ``bifactor.is_absolutely_irreducible``: the handle is kept only
    because the benchmark's tracer names ``factor_bivariate``'s spans by
    it.  Only ``bifactor`` imports ``gfext``."""
    params, sites, importers = [], [], []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if (
                name in ("unifactor.py", "bifactor.py", "factorizer.py")
                and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                and _handle_params(node)
                and getattr(node, "name", "<lambda>") != "factor_bivariate"
            ):
                params.append(f"{name}:{node.lineno}: {getattr(node, 'name', '<lambda>')}")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                # import conewalk.gfext, from .gfext import ..., from . import gfext
                modules = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                if any(m.split(".")[-1] == "gfext" for m in modules):
                    importers.append(name)
        sites += [f"{name}: {owner}" for owner in _calls_in_functions(tree, "PrimeField")]
    assert not params, params
    assert sites == ["bifactor.py: is_absolutely_irreducible"], sites
    assert importers == ["bifactor.py"], importers


MODULES = {path.stem for path in SOURCES}


class _Package:
    """The package's definitions, keyed by owner: a module-level function
    or class is (module, name), a method or dataclass field is
    ("module.Class", name)."""

    def __init__(self):
        trees = dict(_trees())
        self.defs = {}  # key -> definition node
        self.classes = {}  # "module.Class" -> ClassDef
        self.env = {}  # module -> {top-level name: binding}
        for name, tree in trees.items():
            stem = name[:-3]
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    self.defs[stem, node.name] = node
                if isinstance(node, ast.ClassDef):
                    owner = f"{stem}.{node.name}"
                    self.classes[owner] = node
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            self.defs[owner, item.name] = item
                        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                            self.defs[owner, item.target.id] = item
        for name, tree in trees.items():
            self.env[name[:-3]] = _module_env(name[:-3], tree)

    def binding(self, module, name):
        """``module.name`` as a package function or class, or None."""
        return ("def", (module, name)) if (module, name) in self.defs else None

    def member(self, owner, name):
        """(owner, name) for ``name`` defined on the class ``owner`` or on
        one of its bases in the package, else None."""
        while owner in self.classes:
            if (owner, name) in self.defs:
                return owner, name
            cls, module = self.classes[owner], owner.split(".")[0]
            bases = [self.as_class(_resolve(b, self.env[module], self)) for b in cls.bases]
            owner = next((b for b in bases if b), None)
        return None

    def as_class(self, binding):
        if binding and binding[0] == "def" and ".".join(binding[1]) in self.classes:
            return ".".join(binding[1])
        return None

    def annotation(self, node, env):
        """The package class an annotation names (``C``, ``"C"``, ``C | None``), or None."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.BinOp):
            found = {self.annotation(n, env) for n in (node.left, node.right)} - {None}
            return found.pop() if len(found) == 1 else None
        return self.as_class(_resolve(node, env, self))


def _module_env(stem, tree):
    """{name: binding} of a module's top level: its own definitions and
    what it imports from the package."""
    env = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            env[node.name] = ("def", (stem, node.name))
        _bind_imports(node, env)
    return env


def _bind_imports(node, env):
    """Bind in ``env`` what an import statement takes from the package."""
    if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("conewalk")):
        source = (node.module or "").replace("conewalk", "").strip(".") or "__init__"
        for alias in node.names:
            bound = alias.asname or alias.name
            env[bound] = ("module", alias.name) if alias.name in MODULES else ("def", (source, alias.name))
    elif isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name.startswith("conewalk.") and alias.asname:
                env[alias.asname] = ("module", alias.name.split(".")[1])


def _resolve(node, env, package):
    """What an expression is, without recording references: ("module", m),
    ("def", key) for a package function or class, ("instance", class), or
    None when unknown."""
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, env, package)
        if base is None:
            # bench reaches modules through a namespace: ``cw.bifactor``
            return ("module", node.attr) if node.attr in MODULES else None
        if base[0] == "module":
            return package.binding(base[1], node.attr)
        owner = base[1] if base[0] == "instance" else package.as_class(base)
        key = owner and package.member(owner, node.attr)
        if key and isinstance(package.defs[key], ast.AnnAssign):
            field = package.annotation(package.defs[key].annotation, package.env[key[0].split(".")[0]])
            return field and ("instance", field)
        return None
    if isinstance(node, ast.Call):
        callee = _resolve(node.func, env, package)
        if package.as_class(callee):
            return ("instance", package.as_class(callee))
        if isinstance(node.func, ast.Attribute):
            base = _resolve(node.func.value, env, package)
            owner = base and (base[1] if base[0] == "instance" else package.as_class(base))
            key = owner and package.member(owner, node.func.attr)
            if key and isinstance(package.defs[key], ast.FunctionDef) and package.defs[key].returns:
                result = package.annotation(package.defs[key].returns, package.env[key[0].split(".")[0]])
                return result and ("instance", result)
    return None


class _References(ast.NodeVisitor):
    """Owner-qualified references of one source file.

    Each reference is (key, read, enclosing definitions), where key is a
    definition key, or ("?", name) for an attribute on a receiver whose
    class is unknown, and read says the reference is an attribute load.
    Receivers are typed by ``self``/``cls``, parameter and field
    annotations, construction ``C(...)``, annotated method returns, and
    module aliases (``bi.f``, ``cw.bifactor.f``); a name bound in a
    function shadows the module's binding.
    """

    def __init__(self, package, stem, tree):
        self.package = package
        self.scopes = [package.env.get(stem) or _module_env(stem, tree)]
        self.stack = []  # keys of the definitions being visited
        self.owner = None  # class whose body is being visited
        self.stem = stem
        self.found = []

    def _env(self):
        env = {}
        for scope in self.scopes:
            env.update(scope)
        return env

    def _add(self, key, read=False):
        self.found.append((key, read, tuple(self.stack)))

    def visit_ClassDef(self, node):
        outer = self.owner
        self.owner = f"{self.stem}.{node.name}" if len(self.scopes) == 1 else None
        self.stack.append((self.stem, node.name))
        self.generic_visit(node)
        self.stack.pop()
        self.owner = outer

    def visit_FunctionDef(self, node):
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        outside = node.decorator_list + node.args.defaults + node.args.kw_defaults
        for child in outside + [arg.annotation for arg in args] + [node.returns]:
            if child is not None:
                self.visit(child)
        env, package = self._env(), self.package
        scope = {}
        for arg in args:
            cls = arg.annotation is not None and package.annotation(arg.annotation, env)
            scope[arg.arg] = ("instance", cls) if cls else None
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        if self.owner and args and not static:
            scope[args[0].arg] = ("instance", self.owner)
        bound = {}
        for child in ast.walk(node):
            if isinstance(child, ast.Assign):
                targets = [t for t in child.targets if isinstance(t, ast.Name)]
                value = _resolve(child.value, env, package)
            elif isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
                targets = [child.target]
                cls = package.annotation(child.annotation, env)
                value = ("instance", cls) if cls else None
            elif isinstance(child, ast.For):
                targets, value = [t for t in ast.walk(child.target) if isinstance(t, ast.Name)], None
            else:
                continue
            for t in targets:
                bound.setdefault(t.id, set()).add(value)
        for name, values in bound.items():
            if name not in scope:
                scope[name] = values.pop() if len(values) == 1 else None
        for child in ast.walk(node):
            _bind_imports(child, scope)
        key = (self.owner or self.stem, node.name) if len(self.scopes) == 1 or self.owner else None
        outer = self.owner
        self.owner = None
        self.scopes.append(scope)
        self.stack.append(key)
        for child in node.body:
            self.visit(child)
        self.stack.pop()
        self.scopes.pop()
        self.owner = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        binding = self._env().get(node.id)
        if isinstance(node.ctx, ast.Load) and binding and binding[0] == "def":
            self._add(binding[1])

    def visit_Attribute(self, node):
        base = _resolve(node.value, self._env(), self.package)
        read = isinstance(node.ctx, ast.Load)
        if base is None:
            if node.attr not in MODULES:
                self._add(("?", node.attr), read)
        elif base[0] == "module":
            if (base[1], node.attr) in self.package.defs:
                self._add((base[1], node.attr), read)
        else:
            owner = base[1] if base[0] == "instance" else self.package.as_class(base)
            key = owner and self.package.member(owner, node.attr)
            if key:
                self._add(key, read)
        self.generic_visit(node)

    def visit_Constant(self, node):
        # a name the module dispatches on, e.g. ``set_defaults(func="cmd_bounds")``
        if isinstance(node.value, str) and (self.stem, node.value) in self.package.defs:
            self._add((self.stem, node.value))

    def visit_Tuple(self, node):
        # ``bench/tracer.py`` names what it patches as ("module", "Class.func")
        names = [e.value for e in node.elts[:2] if isinstance(e, ast.Constant) and isinstance(e.value, str)]
        if len(names) == 2 and names[0] in MODULES:
            head, _, rest = names[1].partition(".")
            self._add((names[0], head))
            if rest and f"{names[0]}.{head}" in self.package.classes:
                self._add((f"{names[0]}.{head}", rest))
        self.generic_visit(node)


def _references(package):
    """Every reference made in src/ and bench/."""
    root = Path(__file__).resolve().parents[1]
    found = []
    for folder in ("src", "bench"):
        for path in sorted((root / folder).rglob("*.py")):
            stem = path.stem if folder == "src" else f"bench/{path.stem}"
            tree = ast.parse(path.read_text(), filename=str(path))
            visitor = _References(package, stem, tree)
            visitor.visit(tree)
            found += visitor.found
    return found


def _used(package, references, reads_only=False):
    """Definition keys referred to outside their own definition.  An
    attribute on a receiver of unknown class counts for a same-named
    member of each class that is itself used.  With ``reads_only`` only
    attribute loads count for members; any reference uses a class."""
    used, unknown = set(), set()
    for key, read, stack in references:
        counts = read or not reads_only
        if key[0] == "?":
            if counts:
                unknown.add(key[1])
        elif key not in stack and (counts or ".".join(key) in package.classes):
            used.add(key)
    classes = {key for key in used if ".".join(key) in package.classes}
    for owner, name in package.defs:
        if name in unknown and owner in package.classes and tuple(owner.split(".")) in classes:
            used.add((owner, name))
    return used


def _public(package, kind):
    """(where, qualname, key) of the public definitions of one kind:
    "api" for functions, classes and methods, "field" for annotated fields
    of dataclasses; qualname is "Class.name" for a member, else "name"."""
    for (owner, name), node in sorted(package.defs.items(), key=lambda kv: (kv[0][0], kv[1].lineno)):
        if name.startswith("_"):
            continue
        module, _, cls = owner.partition(".")
        where = f"{module}.py:{node.lineno}"
        qualname = f"{cls}.{name}" if cls else name
        if kind == "api" and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield where, qualname, (owner, name)
        if kind == "field" and isinstance(node, ast.AnnAssign) and _is_dataclass(package.classes[owner]):
            yield where, qualname, (owner, name)


def _is_dataclass(cls):
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


#: public API that only the README and the tests reach, kept on purpose
DOCUMENTED_API = {
    "univariate_factor": "the README's complete univariate factorization over GF(p)",
    "smoothness_sample": "a README verifier that the verify command is still to wire in",
    "phi_map": "the README's vertex-to-vertex obstruction map",
    "skeleton_to_json": "inverse of skeleton_from_json for the README's graph files",
    "SparsePoly.to_dict": "the README's exponent-tuple view, the inverse of the constructor",
    "sandwich_check": "the README's sandwich estimates",
    "step_budget": "the paper's ladder budget, not yet printed by the bounds command",
    "step_budget_closed_form": "its closed form, not yet printed by the bounds command",
}


def test_no_public_api_that_nothing_calls():
    """Every public function, class and method of the package is referred
    to in src/ or bench/ outside its own definition, or is documented API
    listed in ``DOCUMENTED_API``; a reference from tests alone, or from
    the definition's own body, does not count, and every listed name must
    still be defined.  References are matched by owner: ``bi.deg_u`` is
    bifactor's ``deg_u`` and nothing else, ``self.f`` and an annotated or
    constructed receiver name their class's member, and only an attribute
    on a receiver of unknown class counts for a same-named member of
    every used class (see ``_References``)."""
    package = _Package()
    used = _used(package, _references(package))
    defined = list(_public(package, "api"))
    found = [
        f"{where}: {qualname}"
        for where, qualname, key in defined
        if key not in used and qualname not in DOCUMENTED_API
    ]
    assert not found, found
    # an allow-list entry whose definition is gone would hide nothing
    stale = sorted(set(DOCUMENTED_API) - {qualname for _, qualname, _ in defined})
    assert not stale, stale


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
    not count.  Reads are matched by owner, as in the API check above."""
    package = _Package()
    read = _used(package, _references(package), reads_only=True)
    fields = list(_public(package, "field"))
    found = [
        f"{where}: {qualname}"
        for where, qualname, key in fields
        if key not in read and qualname not in UNREAD_FIELDS
    ]
    assert not found, found
    # an allow-list entry whose field is gone would hide nothing
    stale = sorted(set(UNREAD_FIELDS) - {qualname for _, qualname, _ in fields})
    assert not stale, stale
