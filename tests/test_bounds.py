"""Floor sums, closed forms, sandwich estimates, witnesses."""

import pytest

from conewalk.bounds import (
    BoundWitness,
    applicable,
    closed_form_S,
    max_N,
    sum_S,
)

from oracles import sandwich_check, step_budget, step_budget_closed_form


def test_sum_values():
    assert sum_S(2, 2) == 0
    assert sum_S(4, 2) == 10  # 4*1 + 6*1
    assert sum_S(5, 3) == 15  # 5*1 + 10*1
    assert sum_S(6, 2) == 77


def test_closed_form_values():
    assert closed_form_S(4, 2) == 3 * 4 - 2 == 10
    assert closed_form_S(5, 3) == 15  # 16 - 5/3 + 2/3
    assert closed_form_S(2, 2) == 0


def test_closed_form_matches_sum():
    for n in range(1, 41):
        for m in (2, 3):
            assert closed_form_S(n, m) == sum_S(n, m), (n, m)


def test_closed_form_unknown_m():
    with pytest.raises(ValueError):
        closed_form_S(5, 4)


def test_sandwich_values():
    assert sandwich_check(6, 2)  # 62 <= 77 <= 93
    assert sandwich_check(2, 2)  # 0 <= 0 <= 1
    assert sandwich_check(5, 3)  # 0 <= 15 <= 15


def test_applicable_examples():
    assert applicable(5, 10, 2) == BoundWitness(3, 6, 1)
    assert applicable(5, 13, 2) is None
    assert applicable(5, 12, 2) == BoundWitness(3, 6, 3)
    assert applicable(5, 4, 3) == BoundWitness(2, 2, 0)
    assert applicable(5, 5, 3) is None


def test_applicable_matches_exhaustive_search():
    for d in (4, 5, 6, 7):
        for m in (2, 3):
            if d < m + 2:
                continue
            for N in range(3, 40):
                found = None
                for n in range(2, d - m + 1):
                    for r in range(0, 2**n - 1):
                        s = N - n - r
                        if s < 0 or s > sum_S(n, m):
                            continue
                        found = (n, r, s)
                if (applicable(d, N, m) is None) != (found is None):
                    raise AssertionError((d, N, m, found, applicable(d, N, m)))


def test_witness_satisfies_constraints():
    for d in (5, 6, 8):
        for N in range(3, 30):
            w = applicable(d, N, 2)
            if w is None:
                continue
            assert w.n >= 2 and w.n <= d - 2
            assert 0 <= w.r <= 2**w.n - 2
            assert 0 <= w.s <= sum_S(w.n, 2)
            assert w.n + w.r + w.s == N


def test_max_N_values():
    assert max_N(5, 2) == 12
    assert max_N(4, 2) == 4
    assert max_N(6, 2) == 28


def test_threshold_reproduction():
    for d in range(5, 17):
        assert max_N(d, 2) >= (d + 1) * 2 ** (d - 4), d
        assert max_N(d, 3) >= (d + 1) * 2 ** (d - 4) // 3, d


def test_step_budget_identity():
    # the closed count over pattern weights 1..n-1 is exact on the sweep
    for n in range(2, 13):
        for m in (2, 3, 4, 5):
            for d in range(m + n, 21):
                assert step_budget(m, d, 2**n - 2) == step_budget_closed_form(n, m, d)


def test_step_budget_published_variant_in_valid_range():
    # including the weight-n term agrees exactly when d < 2m + n
    from math import comb

    for n in range(2, 13):
        for m in (2, 3):
            for d in range(m + n, min(2 * m + n, 21)):
                full = sum(comb(n, l) * ((d - m - l) // m) for l in range(1, n + 1))
                assert step_budget(m, d, 2**n - 2) == full, (n, m, d)
