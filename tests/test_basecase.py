"""Seed constructions: g, the pattern monomials, F, h, and the base state."""

import pytest

from conewalk.basecase import (
    BaseParams,
    build_base_state,
    build_cj,
    build_g,
    build_h,
    cj_degree,
)
from conewalk.errors import IndexOutOfRange
from conewalk.poly import SparsePoly, coordinate_universe, parse_poly

from oracles import build_F, defining_polynomial_by_fold

BP32 = BaseParams(n=3, m=2, r=6, d=5, p=101)
BP22 = BaseParams(n=2, m=2, r=2, d=4, p=101)


def test_base_params_validation():
    with pytest.raises(ValueError):
        BaseParams(n=1, m=2, r=1, d=4, p=101)
    with pytest.raises(ValueError):
        BaseParams(n=2, m=2, r=3, d=4, p=101)  # r > 2^n - 2
    with pytest.raises(ValueError):
        BaseParams(n=2, m=2, r=2, d=3, p=101)  # d < m + n
    with pytest.raises(ValueError):
        BaseParams(n=2, m=2, r=2, d=4, p=100)  # p not prime
    with pytest.raises(ValueError):
        BaseParams(n=2, m=2, r=2, d=4, p=3)  # p <= d


def test_g_n2_m2():
    u = coordinate_universe(2, 2, 0, BP22.ring())
    g = build_g(BP22, u)
    expected = (
        SparsePoly.param(u, "pi")
        * (
            SparsePoly.variable(u, "x0", 2)
            + SparsePoly.variable(u, "x1", 2)
            + SparsePoly.variable(u, "x2", 2)
        )
        ** 2
        - SparsePoly.variable(u, "x0", 2)
        * SparsePoly.variable(u, "x1")
        * SparsePoly.variable(u, "x2")
    )
    assert g == expected
    assert g.degree_info() == (4, True)


def test_g_n3_sign_flips():
    u = coordinate_universe(3, 6, 0, BP32.ring())
    g = build_g(BP32, u)
    # (-1)^3 flips the tail sign: + x0 * x1x2x3
    tail = (
        SparsePoly.variable(u, "x0")
        * SparsePoly.variable(u, "x1")
        * SparsePoly.variable(u, "x2")
        * SparsePoly.variable(u, "x3")
    )
    pi = SparsePoly.param(u, "pi")
    quad = sum(
        (SparsePoly.variable(u, f"x{i}", 2) for i in range(1, 4)),
        SparsePoly.variable(u, "x0", 2),
    )
    assert g == pi * quad**2 + tail


def test_g_degree_formula():
    from math import ceil

    for n, m in [(2, 2), (3, 2), (4, 3), (5, 2), (3, 3)]:
        bp = BaseParams(n=n, m=m, r=1, d=n + m, p=101 if n + m < 101 else 211)
        g = build_g(bp, coordinate_universe(n, 1, 0, bp.ring()))
        assert g.degree_info() == (m * ceil((n + 1) / m), True)
        assert bp.deg_g <= n + m


def test_cj_values():
    u = coordinate_universe(3, 6, 0, BP32.ring())
    assert build_cj(1, 3, u) == -SparsePoly.variable(u, "x1")
    assert build_cj(2, 3, u) == -SparsePoly.variable(u, "x2")
    assert build_cj(3, 3, u) == SparsePoly.variable(u, "x1") * SparsePoly.variable(u, "x2")
    assert cj_degree(3) == 2
    with pytest.raises(IndexOutOfRange):
        build_cj(7, 3, u)  # 2^3 - 2 = 6 is the last
    with pytest.raises(IndexOutOfRange):
        build_cj(0, 3, u)


def test_F_shape():
    F = build_F(BP32)
    assert F.degree_info() == (BP32.m + BP32.n, True)
    u = F.universe
    # coefficient of y_{r+1}^m is (-1)^n x1...xn
    i_last = u.index(f"y{BP32.r + 1}")
    collected = {}
    for exps, c in F.to_dict().items():
        if exps[i_last] == BP32.m:
            rest = list(exps)
            rest[i_last] = 0
            collected[tuple(rest)] = c
    expected = -(
        SparsePoly.variable(u, "x1") * SparsePoly.variable(u, "x2") * SparsePoly.variable(u, "x3")
    )
    assert collected == expected.to_dict()


def test_F_yj_cofactor_divisibility():
    F = build_F(BP32)
    u = F.universe
    for j in range(1, BP32.r + 1):
        ij = u.index(f"y{j}")
        cofactor_terms = {}
        for exps, c in F.to_dict().items():
            if exps[ij] == BP32.m:
                rest = list(exps)
                rest[ij] = 0
                cofactor_terms[tuple(rest)] = c
        cof = SparsePoly(u, cofactor_terms)
        assert cof.monomial_divides("x0", BP32.n - cj_degree(j))


def test_h_choices():
    u = coordinate_universe(3, 6, 0, BP32.ring())
    h = build_h(BP32, "default", u)
    assert h == parse_poly("x0^5 + x1^5 + x2^5 + x3^5", u)
    hc = build_h(BP32, "char-divides-d", u)
    assert hc == parse_poly("x0^5 + x0*x1^4 + x1*x2^4 + x2*x3^4", u)
    assert hc.degree_info() == (5, True)
    with pytest.raises(ValueError):
        build_h(BP32, "bogus", u)


def test_base_state_e_values():
    st = build_base_state(BP32)
    assert st.e == [1, 1, 0, 1, 0, 0]
    # e_1 = floor((5-2-1)/2) = 1, e_3 = floor((5-2-2)/2) = 0
    assert st.e[0] == (5 - 2 - 1) // 2 == 1
    assert st.e[2] == (5 - 2 - 2) // 2 == 0
    for j in range(1, 7):
        assert st.recompute_e(j) == st.e[j - 1]


def test_base_state_shape():
    st = build_base_state(BP32)
    assert st.s == 0
    assert st.a0.is_zero()
    for j in range(1, st.r + 1):
        assert st.a[(1, j)].is_zero()
        top = st.a[(2, j)]
        assert top.degree_info() == (st.d - st.m, True)
    full = st.defining_polynomial()
    assert full.degree_info() == (st.d, True)
    assert st.h_poly == SparsePoly.constant(st.universe, 1)


def test_base_state_matches_regrouped_F():
    """The defining polynomial equals rho*h + x0^(d-m-n) * F with F's
    reserved last-pattern term removed (it has no slot in the state)."""
    st = build_base_state(BP32)
    u = st.universe
    F = build_F(BP32, u)
    # strip the y_{r+1}^m term from F
    i_last = u.index(f"y{BP32.r + 1}")
    stripped = SparsePoly(u, {e: c for e, c in F.to_dict().items() if e[i_last] == 0})
    expected = SparsePoly.param(u, "rho") * build_h(BP32, "default", u) + SparsePoly.variable(
        u, "x0", BP32.d - BP32.m - BP32.n
    ) * stripped
    assert st.defining_polynomial() == expected


def test_step_budget_matches_state():
    from conewalk.bounds import step_budget

    st = build_base_state(BP32)
    assert sum(st.e) == step_budget(BP32.n, BP32.m, BP32.d, BP32.r) == 3


def test_ladder_values_match_formula_at_n4():
    """All 14 columns at n = 4: ladder values equal the closed formula
    and their sum equals the step budget."""
    from conewalk.bounds import step_budget

    bp = BaseParams(n=4, m=2, r=14, d=8, p=101)
    st = build_base_state(bp)
    for j in range(1, 15):
        assert st.e[j - 1] == (8 - 2 - cj_degree(j)) // 2
        assert st.recompute_e(j) == st.e[j - 1]
    assert sum(st.e) == step_budget(4, 2, 8, 14)
    assert st.defining_polynomial().degree_info() == (8, True)


def test_base_universe_holds_the_whole_walk():
    """x0..xn, y1..y{r+1}, then one z per step the ladder allows
    (z1..z{sum e}), then the family's z, w."""
    st = build_base_state(BP32)
    names = st.universe.names
    assert names[:BP32.n + BP32.r + 2] == ("x0", "x1", "x2", "x3") + tuple(f"y{j}" for j in range(1, 8))
    assert names[BP32.n + BP32.r + 2:] == tuple(f"z{k}" for k in range(1, sum(st.e) + 1)) + ("z", "w")
    assert st.universe == coordinate_universe(BP32.n, BP32.r, sum(st.e), BP32.ring())


def test_defining_polynomial_is_the_repeated_addition_fold():
    """The one-dict sum gives the terms, in order, of adding f0, a0 and
    each a[(i, j)] * y_j^i one at a time: along seeded walks, symbolic
    steps among them, at every station of the d = 8 witness walk, and on
    states with zero columns and an a0 that cancels terms of f0."""
    import dataclasses

    from conewalk.doublecone import induct_step

    def same(state):
        got, want = state.defining_polynomial(), defining_polynomial_by_fold(state)
        assert list(got.to_dict().items()) == list(want.to_dict().items())
        return got

    for seed in (1, 2, 3):
        st = build_base_state(BP32)
        same(st)
        for k in range(sum(st.e)):
            st = induct_step(st, seed=100 * seed + k, symbolic=k == seed - 1)
            same(st)
    st = build_base_state(BaseParams(n=6, m=2, r=62, d=8, p=101))  # the d = 8 witness
    same(st)
    for k in range(77):
        st = induct_step(st, seed=2 + k)
        same(st)
    # zero columns 1 and 3, and an a0 that cancels f0 but for one monomial, or wholly
    a = dict(st.a)
    for i in (1, 2):
        a[i, 1] = a[i, 3] = SparsePoly.zero(st.universe)
    for a0 in (SparsePoly.variable(st.universe, "x0", 8) - st.f0, -st.f0):
        same(dataclasses.replace(st, a0=a0, a=a))


def raises_in_little_memory(error, fn, limit=100_000):
    """Assert that ``fn()`` raises ``error`` while less than ``limit``
    bytes are traced at the peak."""
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(error):
            fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, peak


def test_size_limits_raise_before_the_work_they_bound(monkeypatch):
    """A p at or past ``P_LIMIT`` is refused before trial division, and a
    walk past ``VARIABLE_LIMIT`` variables before 2^n or the universe is
    built: each is an ``InputTooLarge``, a usage error, raised in a few
    kB.  The largest prime below the limit is accepted."""
    from conewalk import basecase
    from conewalk.errors import InputTooLarge

    VARIABLE_LIMIT = basecase.VARIABLE_LIMIT
    assert basecase.P_LIMIT == 4096 and VARIABLE_LIMIT == 16384
    assert BaseParams(n=3, m=2, r=6, d=5, p=4093).p == 4093
    assert issubclass(InputTooLarge, ValueError)
    monkeypatch.setattr(basecase, "is_prime", lambda p: pytest.fail(f"is_prime({p}) ran"))
    too_large = [
        lambda: BaseParams(n=3, m=2, r=6, d=5, p=4096),
        lambda: BaseParams(n=3, m=2, r=6, d=5, p=4099),
        lambda: BaseParams(n=3, m=2, r=6, d=5, p=2**61 - 1),
        # n + r + 4 one past the limit, and a huge n
        lambda: BaseParams(n=14, m=2, r=VARIABLE_LIMIT - 3 - 14, d=16, p=17),
        lambda: BaseParams(n=10**9, m=2, r=1, d=10**9 + 2, p=101),
    ]
    for make in too_large:
        raises_in_little_memory(InputTooLarge, make)
    monkeypatch.undo()
    # n + r + 4 fits, but not with one z per step the ladder allows
    bp = BaseParams(n=14, m=2, r=16000, d=16, p=17)
    with pytest.raises(InputTooLarge, match="above the limit 16384"):
        build_base_state(bp)
