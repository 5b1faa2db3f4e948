"""CLI surface: flags, exit codes, determinism."""

import hashlib
import json
import random

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


def test_bounds_table_without_m_is_a_usage_error(capsys):
    code, out, err = run(capsys, "bounds", "--table", "4:10")
    assert code == 2 and out == ""
    assert err == "error: --table needs --m\n"


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


def test_skeleton_transfer_on_rank_zero_zero_cycles(tmp_path, capsys):
    """Zero-cycle modules of rank 0 leave the subdivided map without rows;
    every target is then trivially solvable."""
    zero, one = {"ring": 2, "rank": 0}, {"ring": 2, "rank": 1}
    path = tmp_path / "rank0.json"
    path.write_text(json.dumps({
        "vertices": [0, 1], "edges": [[0, 1]],
        "ch1": {"0": one, "1": one}, "ch0_vertex": {"0": zero, "1": zero},
        "ch0_edge": {"0|1": zero},
        "inter": {"0|1@0": [], "0|1@1": []}, "push": {"0|1@0": [], "0|1@1": []},
    }))
    code, out, err = run(
        capsys, "skeleton", "transfer", "--graph", str(path), "--c", "2", "--r", "2",
        "--trials", "3", "--seed", "1", "--json",
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {"pass": True, "solved": 3, "trials": 3, "verified": 3}


def test_skeleton_transfer_rejects_a_modulus_other_than_the_graph_ring(tmp_path, capsys):
    path = _write_graph(tmp_path)  # over Z/2
    code, out, err = run(
        capsys, "skeleton", "transfer", "--graph", str(path), "--c", "4", "--r", "4",
        "--trials", "3", "--seed", "3",
    )
    assert code == 2 and out == ""
    _assert_one_error_line(err, "ring 2", "c=4")


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
        # params: exactly the ring's names, each "symbolic" or an integer
        (("params", "pi"), "oops", 'state params.pi must be "symbolic" or an integer'),
        (("params", "pi"), 1.5, 'state params.pi must be "symbolic" or an integer'),
        (("params", "rho"), True, 'state params.rho must be "symbolic" or an integer'),
        (("params", "lam"), None, 'state params.lam must be "symbolic" or an integer'),
        (("params", "mu"), 3, "state params keys are ['lam', 'mu', 'pi', 'rho', 't']"),
        (("params", "lam"), 202, "state params.lam is invertible, but 202 is 0 mod 101"),
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


@pytest.mark.parametrize(
    "path, text, needle",
    [
        (("f0",), "x0 + q9", "state f0 does not parse: unknown name 'q9' (at position 5)"),
        (("a0",), "x0*", "state a0 does not parse: expected a factor after '*' (at position 3)"),
        (("h_poly",), "1 +", "state h_poly does not parse: empty term (at position 3)"),
        (("a", "2,1"), "x0^-1", "state a[\"2,1\"] does not parse: negative exponent at variable 'x0'"),
        # an exponent that leaves its packed field never carries into the next one
        (("f0",), "x1 + x0^70000", "state f0 does not parse: exponent or degree out of range at 'x0' (at position 5)"),
        (("a0",), "x0^32767*x1", "state a0 does not parse: exponent or degree out of range in this term (at position 0)"),
    ],
)
def test_state_with_unparsable_text_is_a_usage_error(tmp_path, capsys, path, text, needle):
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
    holder[path[-1]] = text
    state.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", "--state", str(state), "--seed", "1")
    assert code == 2
    _assert_one_error_line(err, str(state), needle)


@pytest.mark.parametrize(
    "flags, needle",
    [
        (["--steps", "0"], "--steps must be at least 1, got 0"),
        (["--steps", "-1"], "--steps must be at least 1, got -1"),
        (["--j", "0"], "--j must lie in 1..r = 1..6, got 0"),
        (["--j", "99"], "--j must lie in 1..r = 1..6, got 99"),
    ],
)
def test_induct_flag_out_of_range_is_a_usage_error(tmp_path, capsys, flags, needle):
    s0, out = tmp_path / "s0.json", tmp_path / "s1.json"
    run(
        capsys,
        "construct", "base", "--n", "3", "--m", "2", "--r", "6", "--d", "5",
        "--p", "101", "--out", str(s0),
    )
    code, stdout, err = run(capsys, "induct", "--state", str(s0), *flags, "--seed", "1", "--out", str(out))
    assert code == 2 and stdout == ""
    _assert_one_error_line(err, needle)
    assert not out.exists()


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


def _random_graph_file(tmp_path, seed, c, nvertices, ranks):
    """A seeded path graph over Z/c with random ranks and matrices."""
    rng = random.Random(seed)
    vertices = list(range(nvertices))
    edges = [[v, v + 1] for v in vertices[:-1]]

    def module():
        return {"ring": c, "rank": rng.randint(*ranks)}

    def matrix(rows, cols):
        return [[rng.randrange(c) for _ in range(cols)] for _ in range(rows)]

    ch1 = {str(v): module() for v in vertices}
    ch0v = {str(v): module() for v in vertices}
    ch0e = {f"{v}|{w}": module() for v, w in edges}
    inter, push = {}, {}
    for v, w in edges:
        e = f"{v}|{w}"
        for x in (v, w):
            inter[f"{e}@{x}"] = matrix(ch0e[e]["rank"], ch1[str(x)]["rank"])
            push[f"{e}@{x}"] = matrix(ch0v[str(x)]["rank"], ch0e[e]["rank"])
    path = tmp_path / f"g{seed}.json"
    path.write_text(json.dumps({
        "vertices": vertices, "edges": edges, "ch1": ch1, "ch0_vertex": ch0v,
        "ch0_edge": ch0e, "inter": inter, "push": push,
    }))
    return path


@pytest.mark.parametrize(
    "graph, r, m, seed, solved",
    [
        ((5, 4, 3, (1, 2)), 4, 1, 1, 7),
        ((5, 4, 3, (1, 2)), 4, 1, 2, 6),
        ((6, 6, 4, (1, 3)), 6, 1, 1, 0),
        ((6, 6, 4, (1, 3)), 6, 1, 2, 1),
        ((7, 4, 3, (1, 2)), 4, 2, 1, 12),
        ((8, 2, 2, (1, 1)), 2, 1, 1, 6),
        ((8, 2, 2, (1, 1)), 2, 1, 2, 7),
        ((9, 6, 3, (0, 2)), 12, 3, 1, 2),
        ((9, 6, 3, (0, 2)), 12, 3, 2, 5),
    ],
)
def test_skeleton_transfer_json_pinned(tmp_path, capsys, graph, r, m, seed, solved):
    path = _random_graph_file(tmp_path, *graph)
    code, out, _ = run(
        capsys, "skeleton", "transfer", "--graph", str(path), "--c", str(graph[1]),
        "--r", str(r), "--m", str(m), "--trials", "12", "--seed", str(seed), "--json",
    )
    assert code == 0
    assert json.loads(out) == {"pass": True, "solved": solved, "trials": 12, "verified": solved}


@pytest.mark.parametrize(
    "c, r, k, seed, digest",
    [
        (2, 2, 1, 7, "20b7c89630156d839e78991b03e8b2cfc9cf01a2ca6ce32982e34534b187eab7"),
        (4, 8, 2, 3, "51e0f571b1f7b0899e7aa45b0647ca2d6e82e4eb80bb38e5401049c15786cc0b"),
        (6, 6, 3, 11, "9e4a59405eb65d59d8aabdfcfbbc796359966b8e10ba30f51cac72f6a5ddad3b"),
    ],
)
def test_skeleton_telescope_json_pinned(capsys, c, r, k, seed, digest):
    code, out, _ = run(
        capsys, "skeleton", "telescope", "--c", str(c), "--r", str(r), "--k", str(k),
        "--trials", "5", "--seed", str(seed), "--json",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _broken_graph(tmp_path, case):
    data = json.loads(_write_graph(tmp_path).read_text())
    if case == "unknown-vertex":
        data["ch1"]["9"] = data["ch1"]["0"]
    elif case == "module-without-rank":
        del data["ch1"]["0"]["rank"]
    else:
        del data[case[3:]]  # no-<key>
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    return path


TRANSFER = ["transfer", "--c", "2", "--r", "2", "--seed", "1", "--graph"]


@pytest.mark.parametrize(
    "case, argv, needles",
    [
        ("missing", ["subdivide", "--r", "2", "--graph"], ["{path}"]),
        ("missing", TRANSFER, ["{path}"]),
        ("missing", ["coker", "--m", "2", "--map"], ["{path}"]),
        ("not-json", ["subdivide", "--r", "2", "--graph"], ["{path}", "not valid JSON"]),
        ("no-vertices", ["subdivide", "--r", "2", "--graph"], ["{path}", "'vertices'"]),
        ("no-push", TRANSFER, ["push map missing for ((0, 1), 0)"]),
        ("unknown-vertex", ["subdivide", "--r", "2", "--graph"], ["{path}", "'9'"]),
        ("module-without-rank", TRANSFER, ["{path}", "'rank'"]),
    ],
)
def test_skeleton_bad_input_file_is_a_usage_error(tmp_path, capsys, case, argv, needles):
    path = tmp_path / "missing.json"
    if case == "not-json":
        path = tmp_path / "bad.json"
        path.write_text("{not json")
    elif case != "missing":
        path = _broken_graph(tmp_path, case)
    # --map takes JSON: a string names the file
    arg = json.dumps(str(path)) if argv[0] == "coker" else str(path)
    code, out, err = run(capsys, "skeleton", *argv, arg)
    assert code == 2 and out == ""
    _assert_one_error_line(err, *(n.format(path=path) for n in needles))


def test_state_and_report_bytes_pinned(tmp_path, capsys):
    """construct, a baked induct, verify --json, and one symbolic cone step
    (lam^-1, t*lam and multi-parameter terms) write these exact bytes."""
    from conewalk.doublecone import induct_step
    from conewalk.stateio import load_state, save_state

    s0, s2, sym = (tmp_path / name for name in ("s0.json", "s2.json", "sym.json"))
    reports = [tmp_path / "r2.json", tmp_path / "rsym.json"]
    run(
        capsys,
        "construct", "base", "--n", "3", "--m", "2", "--r", "6", "--d", "5",
        "--p", "101", "--seed", "4", "--out", str(s0),
    )
    assert run(capsys, "induct", "--state", str(s0), "--steps", "2", "--seed", "5",
               "--out", str(s2))[0] == 0
    save_state(induct_step(load_state(s0), j0=1, seed=3, symbolic=True), sym)
    assert "lam^-1*" in sym.read_text() and "lam*t*" in sym.read_text()
    codes = []
    for state, report in zip((s2, sym), reports):
        code, out, _ = run(capsys, "verify", "--state", str(state), "--seed", "3",
                           "--trials", "6", "--report", str(report), "--json")
        assert out == report.read_text()
        codes.append(code)
    assert codes == [0, 1]  # the symbolic state cannot host the next family
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (s0, s2, sym, *reports)}
    assert digests == {
        "s0.json": "38062fe4e887ecdbab31eb62b559f14416d3e81921be18e1bdc0ec9d65db6c4e",
        "s2.json": "acb3d67b7c151d736d4d43d3dea2c78b40cf8cd8c99004f7d079fac394163bc9",
        "sym.json": "24033fe944e50cafe93c6b968fa0b7afe5b3b68fa59e4feb546945049b0b7562",
        "r2.json": "289f7b3aa8404a0c3fea9cb1ffff887597a84af1a50eb8b7a53509812dd446cc",
        "rsym.json": "fefed867f8f7fce18b3b436582c354157f261947ab3400bb80bee6bd28a02e67",
    }


def test_ladder_station_bytes_pinned(tmp_path, capsys):
    """A (4,2,14,12,103) ladder, two runs of 26 one-at-a-time cone steps,
    writes these exact state bytes at stations 0, 26 and 52; station 52
    has 72 variables and 4 parameters, more slots than a 64-bit word has
    bits.  The same shape at p = 149 > d^2 passes verify at station 26."""
    paths = {}
    for p in (103, 149):
        s0, s26, s52 = (tmp_path / f"{p}-s{k}.json" for k in (0, 26, 52))
        assert run(capsys, "construct", "base", "--n", "4", "--m", "2", "--r", "14", "--d", "12",
                   "--p", str(p), "--seed", "9", "--out", str(s0))[0] == 0
        assert run(capsys, "induct", "--state", str(s0), "--steps", "26", "--seed", "31",
                   "--out", str(s26))[0] == 0
        paths[p] = [s0, s26, s52]
    s0, s26, s52 = paths[103]
    assert run(capsys, "induct", "--state", str(s26), "--steps", "26", "--seed", "57",
               "--out", str(s52))[0] == 0
    assert json.loads(s52.read_text())["e"] == [0] * 14
    code, out, _ = run(capsys, "verify", "--state", str(paths[149][1]), "--trials", "4",
                       "--seed", "5", "--json")
    assert code == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (s0, s26, s52)}
    digests["verify-149-s26"] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == {
        "103-s0.json": "d7df3dfa0b580feaaa2089e575f2caf28c26217ff1bf70aab1363cd25ac0bcd6",
        "103-s26.json": "8cfbf5a6fb0abccfaaadcdb2f950fe5215c49cdf637f7edaec479512298dc0d5",
        "103-s52.json": "1a7b00f912372671f7c69a440299f40680fa5461f8a1f8106450c5bedfa734c0",
        "verify-149-s26": "ff9a777739c3a7a0035a8a1f5bc63b2f9cb0a95d67e5ca241480cb8067cb73ac",
    }
