"""State files and check reports as deterministic JSON.

A state file round-trips losslessly through the polynomial text
grammar; its provenance log is append-only.  Every check entry of a
report is built by ``check_entry``; a report lists its entries in a
fixed order with summary counts.  Every state, report and ``--json``
result is written by ``dumps_canonical``: sorted keys and a two-space
indent, so identical runs produce identical bytes.  It writes exactly
what ``json.dumps(obj, indent=2, sort_keys=True)`` writes, without the
pure-Python encoder that any ``indent`` sends ``json`` to.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _string

from .basecase import BaseParams, HypersurfaceState, check_walk_size, z_product
from .errors import InputTooLarge, ParseError
from .poly import coordinate_universe, parse_poly

SCHEMA_VERSION = 1
STATE_KEYS = ("p", "dims", "params", "f0", "a0", "a", "e", "h_poly", "provenance")
DIMS_KEYS = ("n", "m", "r", "s", "d")
# a key "i,j" of a: decimal ints with no sign and no leading zero
_A_KEY = re.compile(r"([1-9][0-9]{0,8}),([1-9][0-9]{0,8})")


# the text of a scalar of exactly one of these types
_SCALAR = {
    str: _string,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def dumps_canonical(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    It writes dicts with str keys, lists and tuples, str, int, float,
    bool and None, as ``json`` does; any other type, or a key that is no
    str, raises TypeError.  The program writes neither."""
    return _value(obj, "\n") + "\n"


def _value(o, nl):
    """The text of ``o``, whose nested lines start with ``nl``.  A type
    derives from at most one of dict, list or tuple, str, int and float,
    so the containers, which reach here most, are tested first; bool is
    tested before int, of which it is a subclass."""
    inner = nl + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        # _string refuses a key that is no str
        items = [
            f"{_string(k)}: {f(v) if (f := _SCALAR.get(type(v := o[k]))) else _value(v, inner)}"
            for k in sorted(o)
        ]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        items = [f(v) if (f := _SCALAR.get(type(v))) else _value(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(o, str):
        return _string(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        # NaN and +-Infinity as json writes them
        return json.dumps(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def state_to_dict(state: HypersurfaceState) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "p": state.p,
        "dims": {"n": state.n, "m": state.m, "r": state.r, "s": state.s, "d": state.d},
        "params": dict(state.params),
        "f0": state.f0.canonical_string(),
        "a0": state.a0.canonical_string(),
        "a": {
            f"{i},{j}": state.a[(i, j)].canonical_string()
            for j in range(1, state.r + 1)
            for i in range(1, state.m + 1)
        },
        "e": list(state.e),
        "h_poly": state.h_poly.canonical_string(),
        "provenance": list(state.provenance),
    }


def _require_keys(d, keys, where):
    if not isinstance(d, dict):
        raise ValueError(f"{where} is not a JSON object")
    for key in keys:
        if key not in d:
            raise ValueError(f"{where} lacks key {key!r}")


def _require_type(value, kind, where):
    # bool is an int subclass, but true/false is not a JSON integer
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        name = {int: "an integer", str: "a string", list: "a list"}[kind]
        raise ValueError(f"state {where} must be {name}, got {type(value).__name__}")


def _parse_field(text, universe, where, allowed):
    """The polynomial of one state field; it may use only the first
    ``allowed`` variables of the walk's universe, x0..xn, y1..y{r+1},
    z1..zs."""
    try:
        poly = parse_poly(text, universe)
    except ParseError as ex:
        raise ValueError(f"state {where} does not parse: {ex}") from None
    if poly.variable_span() > allowed:
        extra = [name for name in poly.variables() if universe.index(name) >= allowed]
        raise ValueError(f"state {where} uses {', '.join(extra)}, outside x0..xn, y1..y(r+1), z1..zs")
    return poly


def state_from_dict(d: dict) -> HypersurfaceState:
    _require_keys(d, ("schema_version",), "state")
    _require_type(d["schema_version"], int, "schema_version")
    if d["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {d['schema_version']!r}")
    _require_keys(d, STATE_KEYS, "state")
    dims = d["dims"]
    _require_keys(dims, DIMS_KEYS, "state dims")
    _require_keys(d["a"], (), "state a")
    _require_keys(d["params"], (), "state params")
    _require_type(d["p"], int, "p")
    for key in DIMS_KEYS:
        _require_type(dims[key], int, f"dims.{key}")
    _require_type(d["e"], list, "e")
    for k, v in enumerate(d["e"]):
        _require_type(v, int, f"e[{k}]")
        if v < 0:
            raise ValueError(f"state e[{k}] must be >= 0, got {v}")
    for key in ("f0", "a0", "h_poly"):
        _require_type(d[key], str, key)
    for key, text in d["a"].items():
        _require_type(text, str, f"a[{key!r}]")
    _require_type(d["provenance"], list, "provenance")
    m, r, s = dims["m"], dims["r"], dims["s"]
    if s < 0:
        raise ValueError(f"state dims.s must be >= 0, got {s}")
    if len(d["e"]) != r:
        raise ValueError(f"state e has {len(d['e'])} entries, dims.r is {r}")
    # the slots are read from the keys, so that a file's m cannot make a
    # list of all m * r of them as long as it likes
    slots = {}
    for key in d["a"]:
        match = _A_KEY.fullmatch(key)
        i, j = map(int, match.groups()) if match else (0, 0)
        if not (1 <= i <= m and 1 <= j <= r):
            raise ValueError(f"state a key {key!r} is not i,j with 1 <= i <= {m}, 1 <= j <= {r}")
        slots[key] = i, j
    if len(slots) < m * r:
        # one of the first len(slots) + 1 slots is missing
        missing = next(k for j in range(1, r + 1) for i in range(1, m + 1) if (k := f"{i},{j}") not in slots)
        raise ValueError(f"state a lacks key {missing!r}")
    bp = BaseParams(n=dims["n"], m=m, r=r, d=dims["d"], p=d["p"])
    # The walk's universe: z1..zs are taken, one z per step left is for
    # later steps.  A ladder value of a valid state is below d, so each
    # e_j counts at most d: the file's e cannot make the universe, whose
    # packed keys grow with it, as large as it likes.
    later = sum(min(ej, dims["d"]) for ej in d["e"])
    check_walk_size(dims["n"], r, s + later)
    universe = coordinate_universe(dims["n"], r, s + later, bp.ring())
    ring = universe.ring
    if sorted(d["params"]) != sorted(ring.names):
        raise ValueError(f"state params keys are {sorted(d['params'])}, expected {sorted(ring.names)}")
    for name, v in d["params"].items():
        # bool is an int subclass, but true/false is not a parameter value
        if v != "symbolic" and type(v) is not int:
            raise ValueError(f'state params.{name} must be "symbolic" or an integer, got {v!r}')
        if name in ring.invertible and v != "symbolic" and v % ring.p == 0:
            raise ValueError(f"state params.{name} is invertible, but {v} is 0 mod {ring.p}")
    allowed = dims["n"] + r + 2 + s
    h_poly = _parse_field(d["h_poly"], universe, "h_poly", allowed)
    pivot = z_product(universe, s)
    if h_poly != pivot:
        want = pivot.canonical_string()
        raise ValueError(f"state h_poly is {d['h_poly']!r}, but dims.s = {s} needs {want!r}")
    return HypersurfaceState(
        bp=bp,
        s=s,
        universe=universe,
        f0=_parse_field(d["f0"], universe, "f0", allowed),
        a0=_parse_field(d["a0"], universe, "a0", allowed),
        a={slots[key]: _parse_field(text, universe, f'a["{key}"]', allowed) for key, text in d["a"].items()},
        e=list(d["e"]),
        h_poly=h_poly,
        params=dict(d["params"]),
        provenance=list(d["provenance"]),
    )


def save_state(state: HypersurfaceState, path: str):
    write_json(path, state_to_dict(state), "state file")


def read_json(path: str, kind: str):
    """The JSON document in a file; an unreadable or non-JSON file raises
    ValueError naming the path and what ``kind`` of file it should be."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as ex:
        raise ValueError(f"cannot read {kind} {path}: {ex.strerror}") from None
    except ValueError as ex:
        raise ValueError(f"{kind} {path} is not valid JSON: {ex}") from None


def write_json(path: str, obj, kind: str):
    """Write ``obj`` to a file as canonical JSON; an unwritable path raises
    ValueError naming it and what ``kind`` of file it should be."""
    text = dumps_canonical(obj)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as ex:
        raise ValueError(f"cannot write {kind} {path}: {ex.strerror}") from None


def load_state(path: str) -> HypersurfaceState:
    """Read a state file; an unreadable, non-JSON or incomplete file
    raises ValueError naming the path."""
    data = read_json(path, "state file")
    try:
        return state_from_dict(data)
    except InputTooLarge as ex:
        raise InputTooLarge(f"state file {path}: {ex}") from None
    except ValueError as ex:
        raise ValueError(f"state file {path}: {ex}") from None


def check_entry(check: str, ref: str, expected, got, **evidence) -> dict:
    """One report entry: it passes when ``got`` equals ``expected``, and
    carries any ``evidence`` (as ``failure_bound``) as further keys."""
    return {"check": check, "ref": ref, "expected": expected, "got": got, "pass": expected == got, **evidence}


def make_report(checks: list) -> dict:
    """The entries with their summary counts; ``dumps_canonical`` writes
    a tuple in an entry as a JSON array."""
    passed = sum(1 for c in checks if c["pass"])
    return {
        "checks": checks,
        "summary": {"total": len(checks), "passed": passed, "failed": len(checks) - passed},
    }
