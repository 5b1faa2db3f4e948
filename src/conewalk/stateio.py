"""State files and check reports as deterministic JSON.

A state file round-trips losslessly through the polynomial text
grammar; its provenance log is append-only.  Reports list check
entries in a fixed order with summary counts.  All dumps use sorted
keys and a fixed layout so identical runs produce identical bytes.
"""

from __future__ import annotations

import json

from .basecase import BaseParams, HypersurfaceState
from .poly import coordinate_universe, parse_poly

SCHEMA_VERSION = 1
STATE_KEYS = ("p", "dims", "params", "f0", "a0", "a", "e", "h_poly", "provenance")
DIMS_KEYS = ("n", "m", "r", "s", "d")


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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


def state_from_dict(d: dict) -> HypersurfaceState:
    _require_keys(d, ("schema_version",), "state")
    if d["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {d['schema_version']!r}")
    _require_keys(d, STATE_KEYS, "state")
    dims = d["dims"]
    _require_keys(dims, DIMS_KEYS, "state dims")
    bp = BaseParams(n=dims["n"], m=dims["m"], r=dims["r"], d=dims["d"], p=d["p"])
    universe = coordinate_universe(dims["n"], dims["r"], dims["s"], bp.ring())
    a = {}
    for key, text in d["a"].items():
        i, j = (int(x) for x in key.split(","))
        a[(i, j)] = parse_poly(text, universe)
    return HypersurfaceState(
        bp=bp,
        s=dims["s"],
        universe=universe,
        f0=parse_poly(d["f0"], universe),
        a0=parse_poly(d["a0"], universe),
        a=a,
        e=list(d["e"]),
        h_poly=parse_poly(d["h_poly"], universe),
        params=dict(d["params"]),
        provenance=list(d["provenance"]),
    )


def save_state(state: HypersurfaceState, path: str):
    with open(path, "w") as fh:
        fh.write(dumps_canonical(state_to_dict(state)))


def load_state(path: str) -> HypersurfaceState:
    """Read a state file; an unreadable, non-JSON or incomplete file
    raises ValueError naming the path."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as ex:
        raise ValueError(f"cannot read state file {path}: {ex.strerror}") from None
    except ValueError as ex:
        raise ValueError(f"state file {path} is not valid JSON: {ex}") from None
    try:
        return state_from_dict(data)
    except ValueError as ex:
        raise ValueError(f"state file {path}: {ex}") from None


def make_report(checks: list) -> dict:
    def jsonable(v):
        if isinstance(v, tuple):
            return [jsonable(x) for x in v]
        if isinstance(v, list):
            return [jsonable(x) for x in v]
        return v

    entries = []
    for c in checks:
        entry = {k: jsonable(v) for k, v in c.items()}
        entries.append(entry)
    passed = sum(1 for c in checks if c["pass"])
    return {
        "checks": entries,
        "summary": {"total": len(checks), "passed": passed, "failed": len(checks) - passed},
    }
