"""Normal forms verified against the determinantal-divisor oracle."""

import random

from conewalk.intlinalg import (
    invariant_factors,
    matmul,
    matvec,
    smith_normal_form,
    solve_mod,
)

from oracles import max_abs_minor_gcd


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
        for c in (0, 2, 3, 4, 6):
            b = matvec(A, x)
            if c:
                b = [v % c for v in b]
            sol = solve_mod(A, b, c)
            assert sol is not None
            got = matvec(A, sol)
            if c:
                got = [v % c for v in got]
            assert got == b


def test_solve_detects_unsolvable():
    # 2x = 1 has no solution over Z or mod 4
    assert solve_mod([[2]], [1], 0) is None
    assert solve_mod([[2]], [1], 4) is None
    assert solve_mod([[2]], [1], 3) is not None  # 2*2 = 4 = 1 (mod 3)


def test_known_snf():
    # the classical example diag(2, 6) from [[2,4],[4,8],[2,8]] style inputs
    A = [[2, 4], [6, 8]]
    assert invariant_factors(A) == [2, 4] or invariant_factors(A) == [2, 4]
    d1d2 = invariant_factors(A)
    assert d1d2[0] * d1d2[1] == abs(2 * 8 - 4 * 6)
    assert d1d2[0] == max_abs_minor_gcd(A, 1)
