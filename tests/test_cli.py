"""CLI surface: flags, exit codes, determinism."""

import hashlib
import json
import random

import pytest

from conewalk import cli
from conewalk.cli import main
from conewalk.skeleton import ChainSkeleton, DualGraph, FgModule, skeleton_to_json
from conewalk.stateio import load_state


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


def test_bounds_table_with_an_empty_range_is_a_usage_error(capsys):
    code, out, err = run(capsys, "bounds", "--table", "9:8", "--m", "2")
    assert code == 2 and out == ""
    assert err == "error: --table needs D1 <= D2, got 9:8\n"


def _table_usage_error(capsys, value):
    """The last stderr line of ``bounds --table value --m 2``, which must
    exit 2 through argparse with no output."""
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--table", value, "--m", "2"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    return out.err.splitlines()[-1]


def test_bounds_table_with_one_degree_is_a_usage_error(capsys):
    assert _table_usage_error(capsys, "5") == (
        "conewalk bounds: error: argument --table: expected D1:D2, two integers, got '5'"
    )


def test_bounds_table_with_three_degrees_is_a_usage_error(capsys):
    assert _table_usage_error(capsys, "5:6:7") == (
        "conewalk bounds: error: argument --table: expected D1:D2, two integers, got '5:6:7'"
    )


def test_bounds_table_with_a_non_integer_is_a_usage_error(capsys):
    assert _table_usage_error(capsys, "5:x") == (
        "conewalk bounds: error: argument --table: expected D1:D2, two integers, got '5:x'"
    )


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


def test_skeleton_coker_bare_path_is_a_usage_error(tmp_path, capsys):
    """--map takes JSON: a file path is read only as a JSON string."""
    path = tmp_path / "m.json"
    path.write_text("[[2]]")
    code, out, err = run(capsys, "skeleton", "coker", "--map", str(path), "--m", "2")
    assert code == 2 and out == ""
    _assert_one_error_line(err, "--map is not JSON")
    code, out, _ = run(capsys, "skeleton", "coker", "--map", json.dumps(str(path)), "--m", "2")
    assert (code, out.strip()) == (0, "2-torsion: yes")


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


def test_skeleton_transfer_with_an_edge_without_generators(tmp_path, capsys):
    """The edge 1|2 has no zero-cycle generators, so it adds nothing to
    the subdivided map: it must not cut vertex 1's diagonal block."""
    path = tmp_path / "empty-edge.json"
    path.write_text(json.dumps({
        "vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]],
        "ch1": {v: {"ring": 6, "rank": 1} for v in "012"},
        "ch0_vertex": {"0": {"ring": 6, "rank": 1}, "1": {"ring": 6, "rank": 1}, "2": {"ring": 6, "rank": 2}},
        "ch0_edge": {"0|1": {"ring": 6, "rank": 2}, "1|2": {"ring": 6, "rank": 0}},
        "inter": {"0|1@0": [[0], [4]], "0|1@1": [[2], [1]], "1|2@1": [], "1|2@2": []},
        "push": {"0|1@0": [[1, 5]], "0|1@1": [[1, 1]], "1|2@1": [[]], "1|2@2": [[], []]},
    }))
    code, out, err = run(
        capsys, "skeleton", "transfer", "--graph", str(path), "--c", "6", "--r", "6",
        "--trials", "6", "--seed", "11", "--json",
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {"pass": True, "solved": 1, "trials": 6, "verified": 1}


def test_skeleton_transfer_rejects_a_modulus_other_than_the_graph_ring(tmp_path, capsys):
    path = _write_graph(tmp_path)  # over Z/2
    code, out, err = run(
        capsys, "skeleton", "transfer", "--graph", str(path), "--c", "4", "--r", "4",
        "--trials", "3", "--seed", "3",
    )
    assert code == 2 and out == ""
    _assert_one_error_line(err, "ring 2", "c=4")


@pytest.mark.parametrize("trials", ["0", "-1"])
@pytest.mark.parametrize("cmd", ["telescope", "transfer"])
def test_skeleton_trials_below_one_is_a_usage_error(tmp_path, capsys, cmd, trials):
    graph = ["--graph", str(_write_graph(tmp_path))] if cmd == "transfer" else []
    code, out, err = run(
        capsys, "skeleton", cmd, *graph, "--c", "2", "--r", "2", "--trials", trials, "--seed", "1"
    )
    assert code == 2 and out == ""
    assert err == f"error: --trials must be at least 1, got {trials}\n"


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


@pytest.mark.parametrize("case", ["p-below-d-squared", "zero-pivot"])
def test_verify_decides_a_pivot_the_oracle_cannot_take(tmp_path, capsys, case):
    """A zero pivot f0 + a0, or one of degree d over p <= d^2, is decided
    before the oracle is called: ``irreducible-f0a0`` is Inconclusive, the
    full report is written, and verify exits 1."""
    state, report = tmp_path / "s0.json", tmp_path / "r.json"
    p = "31" if case == "p-below-d-squared" else "101"
    assert run(capsys, "construct", "base", "--n", "3", "--m", "2", "--r", "6", "--d", "7",
               "--p", p, "--seed", "1", "--out", str(state))[0] == 0
    if case == "zero-pivot":
        data = json.loads(state.read_text())
        data["a0"] = (-load_state(str(state)).f0).canonical_string()
        state.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--state", str(state), "--seed", "3", "--report", str(report))
    assert (code, err) == (1, "")
    checks = {c["check"]: c for c in json.loads(report.read_text())["checks"]}
    pivot = checks.pop("irreducible-f0a0")
    assert (pivot["got"], pivot["pass"], pivot["failure_bound"]) == ("Inconclusive", False, 1.0)
    assert "h-poly-shape" in checks and "minor-det-tz" in checks
    assert all(c["pass"] for c in checks.values()), [k for k, c in checks.items() if not c["pass"]]
    assert out.endswith("18/19 checks passed\n")


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
        (("e", 2), -1, "state e[2] must be >= 0, got -1"),
        (("schema_version",), True, "state schema_version must be an integer, got bool"),
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
    "flags, needle",
    [
        (["--p", "4099"], "p = 4099 is not below the limit 4096"),
        (["--p", str(2**61 - 1)], f"p = {2**61 - 1} is not below the limit 4096"),
        (["--n", "14", "--r", "16367", "--d", "16", "--p", "17"], "universe of 16385 variables"),
        # n + r + 4 fits, but not with one z per step the ladder allows
        (["--n", "14", "--r", "16000", "--d", "16", "--p", "17"], "above the limit 16384"),
    ],
)
def test_construct_past_a_size_limit_is_a_usage_error(tmp_path, capsys, flags, needle):
    dims = {"--n": "3", "--m": "2", "--r": "6", "--d": "5", "--p": "101"}
    dims.update(zip(flags[::2], flags[1::2]))
    out = tmp_path / "s0.json"
    code, stdout, err = run(capsys, "construct", "base", *(x for kv in dims.items() for x in kv), "--out", str(out))
    assert code == 2 and stdout == ""
    _assert_one_error_line(err, "InputTooLarge", needle)
    assert not out.exists()


def test_construct_past_the_coefficient_limit_is_refused_in_little_memory(tmp_path, capsys):
    """m * r = 16 million passes the p and universe limits, but is refused
    before one of its coefficients is built: exit 2, one error line, a
    few kB traced."""
    import tracemalloc

    out = tmp_path / "s0.json"
    flags = ["--n", "14", "--m", "2000", "--r", "8000", "--d", "4014", "--p", "4019"]
    tracemalloc.start()
    try:
        code, stdout, err = run(capsys, "construct", "base", *flags, "--out", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and stdout == ""
    _assert_one_error_line(err, "InputTooLarge", "m * r = 16000000 coefficients, above the limit 32768")
    assert peak < 100_000, peak
    assert not out.exists()


@pytest.mark.parametrize(
    "path, value, needle",
    [
        (("dims", "n"), 10**9, "InputTooLarge: state file"),
        (("dims", "s"), 16384 - 3 - 6 - 4 - 2, "universe of 16385 variables"),
        (("p",), 4099, "p = 4099 is not below the limit 4096"),
        (("p",), 2**61 - 1, "is not below the limit 4096"),
        # no list of all m * r slots is made to find the one that is missing
        (("dims", "m"), 10**12, "state a lacks key '3,1'"),
    ],
)
def test_state_file_past_a_size_limit_is_a_usage_error(tmp_path, capsys, path, value, needle):
    """A state file of a few kB whose dims or p would build a universe,
    run a trial division or list slots past their limits is refused in
    one error line, exit 2, before any of that is built."""
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
    "path, text, position",
    [(("f0",), "1" * 5000, 0), (("a", "2,1"), "x0^" + "1" * 5000, 3), (("a0",), "x1 + " + "7" * 4301, 5)],
    ids=["scalar", "exponent", "second-term"],
)
def test_state_with_a_number_too_long_is_a_usage_error(tmp_path, capsys, path, text, position):
    """A number of more than 4300 digits in a field is one error line
    naming the field and the number's position, exit 2."""
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
    code, out, err = run(capsys, "verify", "--state", str(state), "--seed", "1")
    assert code == 2 and out == ""
    field = path[0] if len(path) == 1 else f'a["{path[1]}"]'
    needle = f"state {field} does not parse: number of "
    _assert_one_error_line(err, str(state), needle, f"(at position {position})")


@pytest.mark.parametrize(
    "path, name",
    [(("f0",), "z2"), (("f0",), "z"), (("f0",), "w"), (("a", "1,2"), "z2"), (("h_poly",), "w")],
)
def test_state_naming_a_variable_beyond_its_station_is_a_usage_error(tmp_path, capsys, path, name):
    """At s = 1 a state's polynomials may use x0..xn, y1..y(r+1) and z1
    only: the next step's z2 and the family's z, w are not state variables,
    although the walk's universe holds them."""
    s0, s1 = tmp_path / "s0.json", tmp_path / "s1.json"
    run(
        capsys,
        "construct", "base", "--n", "3", "--m", "2", "--r", "6", "--d", "5",
        "--p", "101", "--out", str(s0),
    )
    run(capsys, "induct", "--state", str(s0), "--seed", "1", "--out", str(s1))
    data = json.loads(s1.read_text())
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] += f" + x0^4*{name}"
    s1.write_text(json.dumps(data))
    field = path[0] if len(path) == 1 else f'a["{path[1]}"]'
    for cmd in (["verify", "--seed", "1"], ["induct", "--seed", "1", "--out", str(tmp_path / "s2.json")]):
        code, out, err = run(capsys, cmd[0], "--state", str(s1), *cmd[1:])
        assert code == 2 and out == ""
        _assert_one_error_line(err, str(s1), f"state {field} ", name)
    assert not (tmp_path / "s2.json").exists()


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


def test_absorbed_symbolic_state_bytes_pinned(tmp_path, capsys):
    """A state left symbolic by the library's cone step, then stepped by
    ``induct --steps 1``, which absorbs its lam and t first, writes these
    exact bytes."""
    from conewalk.doublecone import induct_step
    from conewalk.stateio import load_state, save_state

    s0, sym, out = (tmp_path / name for name in ("s0.json", "sym.json", "absorbed.json"))
    assert run(capsys, "construct", "base", "--n", "3", "--m", "2", "--r", "6", "--d", "5",
               "--p", "101", "--seed", "4", "--out", str(s0))[0] == 0
    save_state(induct_step(load_state(s0), j0=1, seed=3, symbolic=True), sym)
    assert run(capsys, "induct", "--state", str(sym), "--steps", "1", "--seed", "8",
               "--out", str(out))[0] == 0
    ops = [entry["op"] for entry in json.loads(out.read_text())["provenance"]]
    assert ops[-3:] == ["induct", "absorb", "induct"]
    state = load_state(out)
    for poly in [state.f0, state.a0, *state.a.values()]:
        assert not poly.uses_param("lam") and not poly.uses_param("t")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c0a286deb38f17b056375c98baab68de89178ec6bbbfdc553cd647117de85fc5"
    )


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


def test_paper_bound_d8_walk_bytes_pinned(tmp_path, capsys):
    """The d = 8 witness of ``bounds --table``, (n, r, s) = (6, 62, 77):
    one construct, 77 cone steps in one induct, then verify at the end
    station, write these exact state and report bytes."""
    s0, s77 = tmp_path / "s0.json", tmp_path / "s77.json"
    assert run(capsys, "construct", "base", "--n", "6", "--m", "2", "--r", "62", "--d", "8",
               "--p", "101", "--seed", "1", "--out", str(s0))[0] == 0
    assert run(capsys, "induct", "--state", str(s0), "--steps", "77", "--seed", "2",
               "--out", str(s77))[0] == 0
    code, out, _ = run(capsys, "verify", "--state", str(s77), "--trials", "3", "--seed", "3", "--json")
    assert code == 0
    assert json.loads(s77.read_text())["e"] == [0] * 62
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (s0, s77)}
    digests["report"] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == {
        "s0.json": "d9e9860bbc6655b42bc437efff8b3a1c5b9c3dfca4448521ceb30aced6d15390",
        "s77.json": "2412d96b1771962a76f68cb9d46ce6720637ce3e54d7b907bfd2dd3af763a9dc",
        "report": "a6cc95659e6d6ed8e5cbef903856533bbe5fa812d031ebadc89d32ab25b6bc1a",
    }


def test_paper_bound_d9_walk_bytes_pinned(tmp_path, capsys):
    """The d = 9 witness of ``bounds --table``, (n, r, s) = (7, 126, 189):
    one construct, 189 cone steps in one induct, then verify at the end
    station, write these exact state and report bytes."""
    s0, s189 = tmp_path / "s0.json", tmp_path / "s189.json"
    assert run(capsys, "construct", "base", "--n", "7", "--m", "2", "--r", "126", "--d", "9",
               "--p", "101", "--seed", "1", "--out", str(s0))[0] == 0
    assert run(capsys, "induct", "--state", str(s0), "--steps", "189", "--seed", "2",
               "--out", str(s189))[0] == 0
    code, out, _ = run(capsys, "verify", "--state", str(s189), "--trials", "3", "--seed", "3", "--json")
    assert code == 0
    assert json.loads(s189.read_text())["e"] == [0] * 126
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (s0, s189)}
    digests["report"] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == {
        "s0.json": "febb4590cdee713b9af254168e61c1f6c6d1d3da805f76e7766ca7ab462d7f1e",
        "s189.json": "fe093838894a94b7b0672f745d684cf79eaaee4c80d833574b12886ce30a8e7f",
        "report": "f67e71a721c68c758600766a93ab0ece4cdfe71fcc4853874fd5df859ffeefc1",
    }


def _canonical(obj):
    """The bytes of ``--json`` output: sorted keys, indent 2, one newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


VERIFY_CHECKS = [
    "state-homogeneous", "state-y-free",
    *(f"ladder-{kind}-j{j}" for j in range(1, 7) for kind in ("divisibility", "maximal")),
    "irreducible-f0a0", "h-poly-shape", "minor-det-tz", "y0-z-derivative", "y1-w-derivative",
]


def _verify_text(failed=()):
    marks = "".join(f"[{'FAIL' if c in failed else 'ok '}] {c}\n" for c in VERIFY_CHECKS)
    return marks + f"{len(VERIFY_CHECKS) - len(failed)}/{len(VERIFY_CHECKS)} checks passed\n"


WITNESS_5_10 = {"n": 3, "r": 6, "s": 1}
TABLE_5_6 = [
    {"d": 5, "m": 2, "max_N": 12, "n": 3, "r": 6, "s": 3},
    {"d": 6, "m": 2, "max_N": 28, "n": 4, "r": 14, "s": 10},
]
CONSTRUCT = "construct base --n 3 --m 2 --r 6 --d 5 --p 101 --seed 4 --out new.json"
INDUCT = "induct --state s0.json --steps 2 --seed 5 --out new.json"
TELESCOPE = "skeleton telescope --c 2 --r 2 --trials 3 --seed 7"
TRANSFER_G = "skeleton transfer --graph graph.json --c 2 --r 2 --trials 4 --seed 3"

# (argv, exit code, stdout, stderr) of every command output, in text mode
# and under --json; the states s0.json (construct seed 4) and s2.json (two
# induct steps, seed 5) and bad.json (s0 with e_1 lowered to 0) are given
PINNED_OUTPUTS = [
    ("bounds --sum 5 4", 0, "S(5,4) = 5\n", ""),
    ("bounds --sum 5 4 --json", 0, _canonical({"m": 4, "n": 5, "sum": 5}), ""),
    ("bounds --sum 4 2", 0, "S(4,2) = 10 (closed form 10)\n", ""),
    ("bounds --sum 4 2 --json", 0, _canonical({"closed_form": 10, "m": 2, "n": 4, "sum": 10}), ""),
    ("bounds --d 5 --N 10 --m 2", 0, "applicable: yes, witness n=3 r=6 s=1\n", ""),
    ("bounds --d 5 --N 10 --m 2 --json", 0, _canonical(
        {"N": 10, "applicable": True, "char": 0, "d": 5, "m": 2, "witness": WITNESS_5_10}), ""),
    ("bounds --d 5 --N 10 --m 2 --char 5 --json", 0, _canonical(
        {"N": 10, "applicable": True, "char": 5, "d": 5, "m": 2, "witness": WITNESS_5_10}), ""),
    ("bounds --d 5 --N 13 --m 2", 0, "applicable: no\n", ""),
    ("bounds --d 5 --N 13 --m 2 --json", 0, _canonical(
        {"N": 13, "applicable": False, "char": 0, "d": 5, "m": 2}), ""),
    ("bounds --table 5:6 --m 2", 0, "d\tm\tmax_N\tn\tr\ts\n5\t2\t12\t3\t6\t3\n6\t2\t28\t4\t14\t10\n", ""),
    ("bounds --table 5:6 --m 2 --json", 0, _canonical(TABLE_5_6), ""),
    ("bounds", 2, "", "error: need --d, --N, --m (or --sum / --table)\n"),
    ("bounds --json", 2, "", "error: need --d, --N, --m (or --sum / --table)\n"),
    ("bounds --table 4:10 --json", 2, "", "error: --table needs --m\n"),
    (CONSTRUCT, 0, "wrote new.json (s=0, e=[1, 1, 0, 1, 0, 0])\n", ""),
    (CONSTRUCT + " --json", 0, _canonical({"e": [1, 1, 0, 1, 0, 0], "out": "new.json", "s": 0}), ""),
    (INDUCT, 0, "wrote new.json (s=2, e=[0, 0, 0, 1, 0, 0])\n", ""),
    (INDUCT + " --json", 0, _canonical({"e": [0, 0, 0, 1, 0, 0], "out": "new.json", "s": 2, "steps": 2}), ""),
    ("induct --state s0.json --steps 9 --seed 5 --out new.json", 1, "",
     "stopped after 3 step(s): EjExhausted: no column has ladder value >= 1\n"),
    ("verify --state s2.json --trials 6 --seed 3", 0, _verify_text(), ""),
    ("verify --state s2.json --trials 6", 0, _verify_text(), ""),
    ("verify --state bad.json --trials 6 --seed 3", 1, _verify_text({"ladder-maximal-j1"}), ""),
    (TELESCOPE, 0, "telescope c=2 r=2: 3/3 pass\n", ""),
    ("skeleton coker --map [[2]] --m 2", 0, "2-torsion: yes\n", ""),
    ("skeleton coker --map [[2]] --m 3 --json", 0, _canonical({"m": 3, "torsion": False}), ""),
    (TRANSFER_G, 0, "transfer: 2/4 solvable, 2 verified\n", ""),
    (TRANSFER_G + " --json", 0, _canonical({"pass": True, "solved": 2, "trials": 4, "verified": 2}), ""),
    ("skeleton subdivide --graph graph.json --r 3", 0, _canonical(
        {"edges": 3, "edges_expected": 3, "pass": True, "r": 3, "vertices": 4, "vertices_expected": 4}), ""),
]


@pytest.mark.parametrize("argv, code, out, err", PINNED_OUTPUTS, ids=[case[0] for case in PINNED_OUTPUTS])
def test_command_outputs_pinned(tmp_path, monkeypatch, capsys, argv, code, out, err):
    monkeypatch.chdir(tmp_path)
    _write_graph(tmp_path)
    if argv.split()[0] in ("induct", "verify"):
        run(capsys, *CONSTRUCT.replace("new.json", "s0.json").split())
        run(capsys, *INDUCT.replace("new.json", "s2.json").split())
        data = json.loads((tmp_path / "s0.json").read_text())
        data["e"][0] = 0
        (tmp_path / "bad.json").write_text(json.dumps(data))
    assert run(capsys, *argv.split()) == (code, out, err)


@pytest.mark.parametrize("target", ["no-such-dir/out.json", "."])
@pytest.mark.parametrize(
    "cmd",
    [
        "construct base --n 3 --m 2 --r 6 --d 5 --p 101 --out",
        "induct --state s0.json --seed 5 --out",
        "verify --state s0.json --trials 2 --seed 3 --report",
    ],
)
def test_unwritable_output_is_a_usage_error(tmp_path, monkeypatch, capsys, cmd, target):
    """An output path in a missing directory, or naming a directory, gets
    one error line naming it and exit 2, as an unreadable input does."""
    monkeypatch.chdir(tmp_path)
    run(capsys, *"construct base --n 3 --m 2 --r 6 --d 5 --p 101 --out s0.json".split())
    code, out, err = run(capsys, *cmd.split(), target)
    assert code == 2 and out == ""
    _assert_one_error_line(err, "cannot write", target)
