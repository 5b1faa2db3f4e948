"""CLI surface: flags, exit codes, determinism."""

import json

import pytest

from conewalk import cli
from conewalk.cli import main
from conewalk.skeleton import ChainSkeleton, DualGraph, FgModule, skeleton_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bounds_applicable(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "5", "--N", "10", "--m", "2")
    assert code == 0
    assert out.strip() == "applicable: yes, witness n=3 r=6 s=1"


def test_bounds_not_applicable(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "5", "--N", "13", "--m", "2")
    assert code == 0
    assert out.strip() == "applicable: no"


def test_bounds_sum(capsys):
    code, out, _ = run(capsys, "bounds", "--sum", "4", "2")
    assert code == 0
    assert out.strip() == "S(4,2) = 10 (closed form 10)"


def test_bounds_table(capsys):
    code, out, _ = run(capsys, "bounds", "--table", "5:6", "--m", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d\tm\tmax_N\tn\tr\ts"
    assert lines[1] == "5\t2\t12\t3\t6\t3"
    assert lines[2] == "6\t2\t28\t4\t14\t10"


def test_bounds_missing_flags(capsys):
    code, _, err = run(capsys, "bounds")
    assert code == 2


def test_construct_induct_verify_pipeline(tmp_path, capsys):
    s0 = tmp_path / "s0.json"
    code, _, _ = run(
        capsys,
        "construct", "base", "--n", "3", "--m", "2", "--r", "6", "--d", "5",
        "--p", "101", "--out", str(s0),
    )
    assert code == 0
    data = json.loads(s0.read_text())
    assert data["e"] == [1, 1, 0, 1, 0, 0]
    assert data["dims"] == {"n": 3, "m": 2, "r": 6, "s": 0, "d": 5}

    s3 = tmp_path / "s3.json"
    code, _, _ = run(
        capsys, "induct", "--state", str(s0), "--steps", "3", "--seed", "5", "--out", str(s3)
    )
    assert code == 0
    data3 = json.loads(s3.read_text())
    assert data3["dims"]["s"] == 3
    assert data3["e"] == [0, 0, 0, 0, 0, 0]
    assert data3["h_poly"] == "z1*z2*z3"

    # the budget is exhausted: one more step must fail with exit 1
    s4 = tmp_path / "s4.json"
    code, _, err = run(
        capsys, "induct", "--state", str(s3), "--steps", "1", "--seed", "6", "--out", str(s4)
    )
    assert code == 1
    assert "EjExhausted" in err

    # rejecting an explicitly dead column
    code, _, err = run(
        capsys, "induct", "--state", str(s0), "--j", "3", "--seed", "6", "--out", str(s4)
    )
    assert code == 1
    assert "EjTooSmall" in err

    report = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify", "--state", str(s0), "--trials", "8", "--seed", "7",
        "--report", str(report), "--json",
    )
    assert code == 0
    rep = json.loads(report.read_text())
    assert rep["summary"]["failed"] == 0
    names = {c["check"] for c in rep["checks"]}
    assert {"state-homogeneous", "irreducible-f0a0", "minor-det-tz"} <= names
    # an Irreducible pivot rests on a certified slice: it cannot be wrong
    [pivot] = [c for c in rep["checks"] if c["check"] == "irreducible-f0a0"]
    assert pivot["got"] == "Irreducible" and pivot["failure_bound"] == 0.0
    assert '"failure_bound": 0.0' in out


def test_verify_json_requires_seed(tmp_path, capsys):
    s0 = tmp_path / "s0.json"
    run(
        capsys,
        "construct", "base", "--n", "2", "--m", "2", "--r", "2", "--d", "5",
        "--p", "101", "--out", str(s0),
    )
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--state", str(s0), "--json"])
    assert exc.value.code == 2


def test_json_outputs_byte_identical(tmp_path, capsys):
    s0 = tmp_path / "s0.json"
    run(
        capsys,
        "construct", "base", "--n", "2", "--m", "2", "--r", "2", "--d", "5",
        "--p", "101", "--out", str(s0),
    )
    code1, out1, _ = run(capsys, "verify", "--state", str(s0), "--seed", "3", "--trials", "6", "--json")
    code2, out2, _ = run(capsys, "verify", "--state", str(s0), "--seed", "3", "--trials", "6", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def _write_graph(tmp_path):
    mod = FgModule(ring=2, rank=1)
    e = (0, 1)
    sk = ChainSkeleton(
        graph=DualGraph((0, 1), (e,)),
        ch1={0: mod, 1: mod},
        ch0_vertex={0: mod, 1: mod},
        ch0_edge={e: mod},
        inter={(e, v): [[1]] for v in e},
        push={(e, v): [[1]] for v in e},
    )
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(skeleton_to_json(sk)))
    return path


def test_skeleton_subdivide(tmp_path, capsys):
    path = _write_graph(tmp_path)
    code, out, _ = run(capsys, "skeleton", "subdivide", "--graph", str(path), "--r", "3")
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == 4 and data["edges"] == 3 and data["pass"]


def test_skeleton_telescope(capsys):
    code, out, _ = run(
        capsys, "skeleton", "telescope", "--c", "2", "--r", "2", "--k", "1",
        "--trials", "10", "--seed", "7",
    )
    assert code == 0
    assert "10/10" in out


def test_skeleton_telescope_divisibility(capsys):
    code, _, err = run(
        capsys, "skeleton", "telescope", "--c", "3", "--r", "4", "--trials", "2", "--seed", "1"
    )
    assert code == 1
    assert "RDivisibilityViolated" in err


def test_skeleton_coker(capsys):
    code, out, _ = run(capsys, "skeleton", "coker", "--map", "[[2]]", "--m", "2")
    assert code == 0
    assert out.strip() == "2-torsion: yes"
    code, out, _ = run(capsys, "skeleton", "coker", "--map", "[[2]]", "--m", "3")
    assert out.strip() == "3-torsion: no"


@pytest.mark.parametrize(
    "argv",
    [
        ["--map", "[[1,2],[3]]"],  # ragged
        ["--map", '[["a"]]'],
        ["--map", "[[1.5]]"],
        ["--map", "[[true]]"],
        ["--map", "[1, 2]"],  # not a list of rows
        ["--map", "[[2]]", "--c", "-4"],
        ["--map", "[[1.5]]", "--c", "4"],  # the mod-q path does not run on floats
    ],
)
def test_skeleton_coker_rejects_malformed_input(capsys, argv):
    code, out, err = run(capsys, "skeleton", "coker", "--m", "2", *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


def test_skeleton_transfer(tmp_path, capsys):
    path = _write_graph(tmp_path)
    code, out, _ = run(
        capsys, "skeleton", "transfer", "--graph", str(path), "--c", "2", "--r", "2",
        "--trials", "10", "--seed", "3",
    )
    assert code == 0


def test_verify_exit_one_on_corrupted_state(tmp_path, capsys):
    s0 = tmp_path / "s0.json"
    run(
        capsys,
        "construct", "base", "--n", "2", "--m", "2", "--r", "2", "--d", "5",
        "--p", "101", "--out", str(s0),
    )
    data = json.loads(s0.read_text())
    data["e"] = [0, 1]  # wrong ladder value for column 1
    s0.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--state", str(s0), "--seed", "3", "--trials", "4")
    assert code == 1
    assert "FAIL" in out


def test_construct_rejects_bad_parameters(capsys):
    code, _, err = run(
        capsys,
        "construct", "base", "--n", "2", "--m", "2", "--r", "9", "--d", "5",
        "--p", "101", "--out", "/tmp/never.json",
    )
    assert code == 2


def test_verify_reports_family_error_on_symbolic_state(tmp_path, capsys):
    """A hand-saved symbolic-step state cannot host the next family until
    its lam/t are absorbed; verify reports that as a failed check."""
    from conewalk.basecase import BaseParams, build_base_state
    from conewalk.doublecone import induct_step
    from conewalk.stateio import save_state

    st = build_base_state(BaseParams(n=3, m=2, r=6, d=5, p=101))
    st1 = induct_step(st, j0=1, seed=3, symbolic=True)
    path = tmp_path / "sym.json"
    save_state(st1, path)
    code, out, _ = run(capsys, "verify", "--state", str(path), "--seed", "2", "--trials", "4")
    assert code == 1
    assert "family-construction" in out


def _assert_one_error_line(err, *needles):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    for needle in needles:
        assert needle in lines[0], err


@pytest.mark.parametrize("cmd", ["verify", "induct"])
def test_missing_state_file_is_a_usage_error(tmp_path, capsys, cmd):
    missing = tmp_path / "missing.json"
    argv = [cmd, "--state", str(missing), "--seed", "1"]
    if cmd == "induct":
        argv += ["--out", str(tmp_path / "out.json")]
    code, _, err = run(capsys, *argv)
    assert code == 2
    _assert_one_error_line(err, str(missing))


@pytest.mark.parametrize("drop", [("dims",), ("f0",), ("dims", "s"), ("a", "1,1")])
def test_state_without_a_key_is_a_usage_error(tmp_path, capsys, drop):
    path = tmp_path / "s0.json"
    run(
        capsys,
        "construct", "base", "--n", "3", "--m", "2", "--r", "6", "--d", "5",
        "--p", "101", "--out", str(path),
    )
    data = json.loads(path.read_text())
    holder = data
    for key in drop[:-1]:
        holder = holder[key]
    del holder[drop[-1]]
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", "--state", str(path), "--seed", "1")
    assert code == 2
    _assert_one_error_line(err, str(path), repr(drop[-1]))


def test_state_that_is_not_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", "--state", str(path), "--seed", "1")
    assert code == 2
    _assert_one_error_line(err, str(path))


@pytest.mark.parametrize(
    "path, value, needle",
    [
        (("e",), 5, "state e must be a list"),
        (("e", 0), "2", "state e[0] must be an integer"),
        (("dims", "n"), "3", "state dims.n must be an integer"),
        (("dims", "d"), True, "state dims.d must be an integer"),
        (("p",), 101.0, "state p must be an integer"),
        (("f0",), 7, "state f0 must be a string"),
        (("h_poly",), None, "state h_poly must be a string"),
        (("a", "1,1"), ["x0"], "state a['1,1'] must be a string"),
        (("a",), [], "state a is not a JSON object"),
        # values of the right type that disagree with dims (r = 6, m = 2, s = 0)
        (("e",), [1, 1], "state e has 2 entries, dims.r is 6"),
        (("a", "x,1"), "x0", "state a key 'x,1' is not i,j"),
        (("a", "3,1"), "x0", "state a key '3,1' is not i,j"),
        (("dims", "s"), 3, "state h_poly is '1', but dims.s = 3 needs 'z1*z2*z3'"),
        (("dims", "s"), -1, "state dims.s must be >= 0, got -1"),
    ],
)
def test_state_with_a_mistyped_value_is_a_usage_error(tmp_path, capsys, path, value, needle):
    state = tmp_path / "s0.json"
    run(
        capsys,
        "construct", "base", "--n", "3", "--m", "2", "--r", "6", "--d", "5",
        "--p", "101", "--out", str(state),
    )
    data = json.loads(state.read_text())
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    state.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", "--state", str(state), "--seed", "1")
    assert code == 2
    _assert_one_error_line(err, str(state), needle)


def test_cached_parser_carries_no_option_into_the_next_call(monkeypatch):
    cli.build_parser()  # the parser exists before the handler is replaced
    seen = []
    monkeypatch.setattr(cli, "cmd_induct", lambda args: seen.append((args.j, args.steps)) or 0)
    assert main(["induct", "--state", "s.json", "--j", "1", "--steps", "3", "--out", "t.json"]) == 0
    assert main(["induct", "--state", "s.json", "--out", "t.json"]) == 0
    assert seen == [(1, 3), (None, 1)]


def test_usage_error_then_valid_command(capsys):
    with pytest.raises(SystemExit) as ex:
        main(["bounds", "--sum", "4"])
    assert ex.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "bounds", "--sum", "4", "2")
    assert code == 0
    assert out.strip() == "S(4,2) = 10 (closed form 10)"
