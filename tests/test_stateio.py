"""State files round-trip bit-exactly through the text grammar."""

import hashlib
import json
import math

import pytest

from conewalk.basecase import BaseParams, build_base_state
from conewalk.cli import main
from conewalk.doublecone import induct_step
from conewalk.poly import SparsePoly, _parse_canonical, parse_poly
from conewalk.stateio import (
    dumps_canonical,
    make_report,
    state_from_dict,
    state_to_dict,
)

BP = BaseParams(n=3, m=2, r=6, d=5, p=101)


def test_roundtrip_base_state():
    st = build_base_state(BP)
    d = state_to_dict(st)
    back = state_from_dict(json.loads(json.dumps(d)))
    assert back.f0 == st.f0
    assert back.a0 == st.a0
    assert back.a == st.a
    assert back.e == st.e
    assert back.h_poly == st.h_poly
    assert state_to_dict(back) == d


def test_roundtrip_after_steps():
    st = build_base_state(BP)
    for k in range(3):
        st = induct_step(st, seed=70 + k)
        d = state_to_dict(st)
        back = state_from_dict(json.loads(json.dumps(d)))
        assert back.defining_polynomial() == st.defining_polynomial()
        assert state_to_dict(back) == d


def test_ladder_values_size_the_universe_at_most_d_each():
    """A valid ladder value is below d, so a file's e counts at most d per
    column towards the walk's universe: a corrupt e still loads (verify
    then reports the ladder), in a universe of bounded size."""
    st = build_base_state(BP)
    d = state_to_dict(st)
    d["e"][0] = 500
    back = state_from_dict(json.loads(json.dumps(d)))
    assert back.e[0] == 500
    assert len(back.universe) == len(st.universe) - st.e[0] + BP.d


def test_provenance_appends():
    st = build_base_state(BP)
    n0 = len(st.provenance)
    st1 = induct_step(st, seed=1)
    assert len(st1.provenance) > n0
    assert st1.provenance[:n0] == st.provenance[:n0]


def test_dumps_deterministic():
    st = build_base_state(BP)
    assert dumps_canonical(state_to_dict(st)) == dumps_canonical(state_to_dict(st))


def _json_dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_dumps_canonical_writes_what_json_writes():
    """Byte for byte ``json.dumps(indent=2, sort_keys=True)``, on nested
    dicts, lists and tuples of unicode and control-character strings,
    ints of every size, floats with NaN, +-inf and -0.0, bools, None and
    empty containers."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    text = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF))
    scalar = (
        text
        | st.integers()
        | st.integers(-(10**300), 10**300)
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, True, False, None, "", "\x00\x1f\x7f\"\\"])
    )
    values = st.recursive(
        scalar,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(text, inner, max_size=4),
        max_leaves=30,
    )

    @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @hypothesis.given(values)
    def check(obj):
        assert dumps_canonical(obj) == _json_dumps(obj)

    check()
    for obj in ({}, [], (), {"": {}}, [[], {}, ()], "\u2603\U0001f600"):
        assert dumps_canonical(obj) == _json_dumps(obj)


@pytest.mark.parametrize("obj", [{1: "x"}, {"a": {2: 3}}, {None: 0}, {1, 2}, [frozenset()], {"a": object()}])
def test_dumps_canonical_refuses_what_the_program_never_writes(obj):
    """A key that is no str, or a value of no JSON type, raises TypeError."""
    with pytest.raises(TypeError):
        dumps_canonical(obj)


def test_d8_witness_end_state_loads_with_pinned_terms_and_texts(tmp_path, capsys):
    """The d = 8 witness end state, (n, r, s) = (6, 62, 77): every field
    loads through the strict reader with the general loop's terms, in the
    same order, and carries the file's text; the terms and texts hash as
    they did before the reader kept a table of factor texts."""
    s0, s77 = tmp_path / "s0.json", tmp_path / "s77.json"
    assert main(["construct", "base", "--n", "6", "--m", "2", "--r", "62", "--d", "8",
                 "--p", "101", "--seed", "1", "--out", str(s0)]) == 0
    assert main(["induct", "--state", str(s0), "--steps", "77", "--seed", "2", "--out", str(s77)]) == 0
    capsys.readouterr()
    data = json.loads(s77.read_text())
    st = state_from_dict(data)
    fields = {"f0": st.f0, "a0": st.a0, "h_poly": st.h_poly, **{f"{i},{j}": f for (i, j), f in st.a.items()}}
    texts = _fields(data)
    digest = hashlib.sha256()
    for where, f in fields.items():
        text = texts[where]
        assert f.canonical_string() is text
        general = parse_poly(" " + text, st.universe)
        assert list(f.terms.items()) == list(general.terms.items()), where
        digest.update(repr((where, list(f.terms.items()), f._text)).encode())
    assert sum(len(f.terms) for f in fields.values()) == 429
    assert digest.hexdigest() == "d392eb2538e90c95077f384fa153ce9ad3c4ef0977372327abca6495de5cb979"


def test_report_shape():
    checks = [
        {"check": "a", "ref": "r", "expected": (1, True), "got": (1, True), "pass": True},
        {"check": "b", "ref": "r", "expected": 0, "got": 1, "pass": False},
    ]
    rep = make_report(checks)
    assert rep["summary"] == {"total": 2, "passed": 1, "failed": 1}
    # a tuple in an entry is written as a JSON array
    assert json.loads(dumps_canonical(rep))["checks"][0]["expected"] == [1, True]


def test_roundtrip_symbolic_step_state():
    """States written after a symbolic step carry Laurent coefficients;
    the grammar must carry them losslessly."""
    st = build_base_state(BP)
    st1 = induct_step(st, j0=1, seed=3, symbolic=True)
    assert st1.a0.uses_param("lam")
    d = state_to_dict(st1)
    back = state_from_dict(json.loads(json.dumps(d)))
    assert back.a0 == st1.a0
    assert back.a == st1.a
    assert back.defining_polynomial() == st1.defining_polynomial()


def _fields(data):
    return {"f0": data["f0"], "a0": data["a0"], "h_poly": data["h_poly"], **data["a"]}


def _loads_with_every_text_carried(data, monkeypatch):
    """Every field of a written state is canonical text, which the strict
    reader accepts; so the loaded state is written again, byte for byte,
    with no polynomial emitted."""
    back = state_from_dict(json.loads(json.dumps(data)))
    for where, text in _fields(data).items():
        assert _parse_canonical(text, back.universe) is not None, (where, text)
    with monkeypatch.context() as m:
        m.setattr(SparsePoly, "_emit", lambda f: pytest.fail(f"emitted {f.terms}"))
        assert dumps_canonical(state_to_dict(back)) == dumps_canonical(data)


def test_every_state_the_cli_writes_loads_with_its_texts_carried(tmp_path, capsys, monkeypatch):
    """``construct`` with symbolic and with sampled parameters, then
    ``induct`` one step at a time to the end of the ladder and along an
    explicit column: each state written reads back through the strict
    reader alone.  This keeps the reader in step with the emitter."""
    written = []
    for seed in (None, 4):
        path = tmp_path / f"s0-{seed}.json"
        argv = ["construct", "base", "--n", "3", "--m", "2", "--r", "6", "--d", "5", "--p", "101", "--out", str(path)]
        assert main(argv + ([] if seed is None else ["--seed", str(seed)])) == 0
        written.append(path)
        for k in range(1, 4):
            out = tmp_path / f"s{k}-{seed}.json"
            assert main(["induct", "--state", str(written[-1]), "--seed", str(k), "--out", str(out)]) == 0
            written.append(out)
    out = tmp_path / "j.json"
    assert main(["induct", "--state", str(written[0]), "--j", "4", "--out", str(out)]) == 0
    written.append(out)
    capsys.readouterr()
    for path in written:
        _loads_with_every_text_carried(json.loads(path.read_text()), monkeypatch)


def test_a_symbolic_step_state_loads_with_its_texts_carried(monkeypatch):
    st = induct_step(build_base_state(BP), j0=1, seed=3, symbolic=True)
    _loads_with_every_text_carried(state_to_dict(st), monkeypatch)
