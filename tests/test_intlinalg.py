"""Normal forms verified against the determinantal-divisor oracle and,
where it is installed, sympy's Smith form."""

import json
import random

import pytest

from conewalk.cli import main
from conewalk.coeffs import prime_powers
from conewalk.intlinalg import (
    invariant_factors,
    matmul,
    matvec,
    smith_normal_form,
    solve_mod,
)
from conewalk.skeleton import (
    ChainSkeleton,
    DualGraph,
    FgModule,
    cokernel_torsion,
    phi_map_subdivided,
    subdivide,
)

from oracles import gf_rank, max_abs_minor_gcd


def test_transforms_and_divisibility_randomized():
    rng = random.Random(303)
    for _ in range(250):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        U, D, V, rank = smith_normal_form(A)
        assert matmul(matmul(U, A), V) == D
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert D[i][j] == 0
        diag = [D[i][i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0


def test_matmul_of_empty_operands():
    """A product with inner dimension 0 has rows of width 0: it cannot
    show the width of B's columns."""
    assert matmul([], [[1, 2]]) == []
    assert matmul([[], []], []) == [[], []]
    assert matmul([[1], [2]], [[]]) == [[], []]
    assert matmul([[1, 2]], [[3], [4]]) == [[11]]


def test_invariant_factors_match_determinantal_divisors():
    rng = random.Random(304)
    for _ in range(200):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        facs = invariant_factors(A)
        prev = 1
        for k, f in enumerate(facs, start=1):
            dk = max_abs_minor_gcd(A, k)
            assert dk == prev * f
            prev = dk
        if len(facs) < min(rows, cols):
            assert max_abs_minor_gcd(A, len(facs) + 1) == 0


def test_solve_consistency():
    rng = random.Random(305)
    for _ in range(200):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        x = [rng.randint(-3, 3) for _ in range(cols)]
        for c in (0, 2, 3, 4, 6, 8, 9, 12):
            b = matvec(A, x)
            if c:
                b = [v % c for v in b]
            sol = solve_mod(A, cols, [b], c)[0]
            assert sol is not None
            got = matvec(A, sol)
            if c:
                got = [v % c for v in got]
            assert got == b


def _is_solution(A, x, b, c):
    return [v % c for v in matvec(A, x)] == [v % c for v in b]


def test_large_maps_mod_c_against_residue_field_ranks():
    """Big maps over Z/c, solved by the elimination over each Z/q, not
    through the Smith form over Z.

    By Nakayama, a map over Z/c is onto iff it is onto over GF(p) for
    every p dividing c.  Half the maps are made rank-deficient mod one p
    (a row that is a sum of two others plus p times anything), which
    also makes some targets unsolvable."""
    rng = random.Random(306)
    seen = set()
    for rows, cols in ((26, 30), (40, 48)):
        for c in (4, 8, 6, 12):
            for deficient in (False, True):
                A = [[rng.randrange(c) for _ in range(cols)] for _ in range(rows)]
                if deficient:
                    p = rng.choice([p for p, _ in prime_powers(c)])
                    i, j, k = rng.sample(range(rows), 3)
                    A[i] = [(a + b + p * rng.randrange(c)) % c for a, b in zip(A[j], A[k])]
                onto = all(gf_rank(A, p) == rows for p, _ in prime_powers(c))
                assert not (deficient and onto)
                seen.add(onto)
                assert cokernel_torsion(A, 1, ring=c) == onto
                x = [rng.randrange(c) for _ in range(cols)]
                b = [v % c for v in matvec(A, x)]
                sol = solve_mod(A, cols, [b], c)[0]
                assert sol is not None and all(0 <= v < c for v in sol)
                assert _is_solution(A, sol, b, c)
                # an onto map reaches every target; otherwise a random target
                # may or may not be reached, and any answer must solve it
                b = [rng.randrange(c) for _ in range(rows)]
                sol = solve_mod(A, cols, [b], c)[0]
                if onto:
                    assert sol is not None
                if sol is not None:
                    assert _is_solution(A, sol, b, c)
    assert seen == {False, True}


def test_solve_mod_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def systems(draw):
        rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        c = draw(st.sampled_from([2, 3, 4, 6, 8, 9, 12, 16, 18, 36]))
        entry = st.integers(-3 * c, 3 * c)
        A = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
        x = draw(st.lists(entry, min_size=cols, max_size=cols))
        return A, x, c

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(systems())
    def check(system):
        A, x, c = system
        b = matvec(A, x)
        sol = solve_mod(A, len(x), [b], c)[0]
        assert sol is not None and all(0 <= v < c for v in sol)
        assert _is_solution(A, sol, b, c)
        # b + e_0 may or may not be reachable; the Smith form over Z of
        # [A | c*I] decides that independently of the Z/q elimination
        b2 = [b[0] + 1] + b[1:]
        rows = len(A)
        full = [A[i] + [c if k == i else 0 for k in range(rows)] for i in range(rows)]
        reachable = solve_mod(full, len(x) + rows, [b2], 0)[0] is not None
        sol2 = solve_mod(A, len(x), [b2], c)[0]
        assert (sol2 is not None) == reachable
        if sol2 is not None:
            assert _is_solution(A, sol2, b2, c)

    check()


def test_solve_detects_unsolvable():
    # 2x = 1 has no solution over Z or mod 4
    assert solve_mod([[2]], 1, [[1]], 0)[0] is None
    assert solve_mod([[2]], 1, [[1]], 4)[0] is None
    assert solve_mod([[2]], 1, [[1]], 3)[0] is not None  # 2*2 = 4 = 1 (mod 3)


def test_known_snf():
    # the entries have gcd 2 and det = 2*8 - 4*6 = -8 = -2*4: diag(2, 4)
    A = [[2, 4], [6, 8]]
    assert invariant_factors(A) == [2, 4]
    d1d2 = invariant_factors(A)
    assert d1d2[0] * d1d2[1] == abs(2 * 8 - 4 * 6)
    assert d1d2[0] == max_abs_minor_gcd(A, 1)


def test_solve_mod_many_targets_match_one_at_a_time():
    """One reduction for a list of targets answers each as a call with
    that target alone does, reachable or not."""
    rng = random.Random(307)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        for c in (0, 2, 4, 6, 12):
            targets = [[rng.randint(-6, 6) for _ in range(rows)] for _ in range(4)]
            targets.append(matvec(A, [rng.randint(-3, 3) for _ in range(cols)]))
            assert solve_mod(A, cols, targets, c) == [solve_mod(A, cols, [b], c)[0] for b in targets]
    assert solve_mod([[1, 2]], 2, [], 4) == []
    assert solve_mod([], 0, [[], []], 6) == [[], []]
    # a map with no rows still has columns, and every x has one entry per column
    assert solve_mod([], 3, [[], []], 6) == [[0, 0, 0], [0, 0, 0]]
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_mod([[1, 2]], 3, [[1]], 4)


def _dense_map(seed, rows, cols):
    rng = random.Random(seed)
    return [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]


def _phi_map_over_z(seed):
    """The subdivided obstruction map of a seeded path skeleton over Z:
    2-5 vertices, module ranks 1-3, entries in [-3, 3], r = 2-4."""
    rng = random.Random(seed)
    nv, r = rng.randint(2, 5), rng.randint(2, 4)
    vertices = tuple(range(nv))
    edges = tuple((v, v + 1) for v in vertices[:-1])

    def module():
        return FgModule(ring=0, rank=rng.randint(1, 3))

    def matrix(rows, cols):
        return [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]

    ch1 = {v: module() for v in vertices}
    ch0v = {v: module() for v in vertices}
    ch0e = {e: module() for e in edges}
    inter = {(e, v): matrix(ch0e[e].ngens, ch1[v].ngens) for e in edges for v in e}
    push = {(e, v): matrix(ch0v[v].ngens, ch0e[e].ngens) for e in edges for v in e}
    sk = ChainSkeleton(DualGraph(vertices, edges), ch1, ch0v, ch0e, inter, push)
    return phi_map_subdivided(subdivide(sk, r)).matrix


def _check_against_sympy(A):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    U, D, V, rank = smith_normal_form(A)
    assert matmul(matmul(U, A), V) == D
    S = sympy_snf(sympy.Matrix(A), domain=sympy.ZZ)
    expected = [abs(int(S[i, i])) for i in range(min(S.shape)) if S[i, i]]
    assert [D[i][i] for i in range(rank)] == expected


def test_smith_form_of_dense_maps_matches_sympy():
    for n in range(2, 31):
        for s in range(2):
            _check_against_sympy(_dense_map(1000 * n + s, n, n - 1))
            _check_against_sympy(_dense_map(1000 * n + s, n, n))


def test_smith_form_of_subdivided_obstruction_maps_matches_sympy():
    for seed in range(40):
        _check_against_sympy(_phi_map_over_z(seed))


def test_skeleton_coker_over_z_pinned(tmp_path, capsys):
    """An 18 x 21 subdivided obstruction map over Z with cokernel
    Z/2 + Z/2 + Z/6 (invariant factors from sympy): 6 kills it, 3 does
    not."""
    A = _phi_map_over_z(2380)
    assert (len(A), len(A[0])) == (18, 21)
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(A))
    for m, torsion in ((6, True), (3, False)):
        argv = ["skeleton", "coker", "--map", json.dumps(str(path)), "--m", str(m), "--c", "0", "--json"]
        assert main(argv) == 0
        assert capsys.readouterr().out == json.dumps({"m": m, "torsion": torsion}, indent=2) + "\n"


def test_solve_mod_over_z_reaches_m_e_i_iff_m_kills_the_cokernel():
    """A 20 x 20 map of rank 20 has a finite cokernel, killed by its
    largest invariant factor m and by no proper divisor of it."""
    A = _dense_map(20, 20, 20)
    m = invariant_factors(A)[-1]
    divisor = m // next(q for q in range(2, m + 1) if m % q == 0)
    for k, kills in ((m, True), (divisor, False)):
        assert cokernel_torsion(A, k, ring=0) == kills
        targets = [[k if i == j else 0 for j in range(20)] for i in range(20)]
        xs = solve_mod(A, 20, targets, 0)
        assert all(x is not None for x in xs) == kills
        for b, x in zip(targets, xs):
            if x is not None:
                assert matvec(A, x) == b
