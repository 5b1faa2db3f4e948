"""State files round-trip bit-exactly through the text grammar."""

import json

import pytest

from conewalk.basecase import BaseParams, build_base_state
from conewalk.cli import main
from conewalk.doublecone import induct_step
from conewalk.poly import SparsePoly, _parse_canonical
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
