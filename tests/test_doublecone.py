"""The cone family, the dimension-raising step, and the verifiers."""

import random

import pytest

from conewalk.basecase import BaseParams, HypersurfaceState, build_base_state
from conewalk.doublecone import (
    absorb_step_params,
    build_family,
    choose_j0,
    induct_step,
    smoothness_sample,
    split_column,
    transformed_column,
    verify_singular_minors,
    verify_state,
    verify_station,
)
from conewalk.errors import EjExhausted, EjTooSmall, IndexOutOfRange, SamplingExhausted
from conewalk.poly import SparsePoly, parse_poly
from oracles import set_param_zero

BP = BaseParams(n=3, m=2, r=6, d=5, p=101)


@pytest.fixture(scope="module")
def base_state():
    return build_base_state(BP)


@pytest.fixture(scope="module")
def family(base_state):
    return build_family(base_state, 1)


def test_family_equation_shapes(family):
    assert family.F1.degree_info() == (5, True)
    assert family.F2.degree_info() == (2, True)
    assert family.Y0_eq.degree_info() == (5, True)
    assert family.Y1_eq.degree_info() == (5, True)
    assert family.Z_eq.degree_info() == (5, True)
    u = family.state.universe
    t = SparsePoly.param(u, "t")
    x0 = SparsePoly.variable(u, "x0")
    z = SparsePoly.variable(u, "z")
    w = SparsePoly.variable(u, "w")
    assert family.F2 == t * x0**2 + z * w
    # F1 = Z_eq + x0^(d-1) z + x0^(d-2)(lam y_{j0} + x0) w and the component
    # equations drop exactly one of the two tails
    lam = SparsePoly.param(u, "lam")
    yj = SparsePoly.variable(u, "y1")
    ztail = x0**4 * z
    wtail = x0**3 * (lam * yj + x0) * w
    assert family.F1 == family.Z_eq + ztail + wtail
    assert family.Y0_eq == family.Z_eq + ztail
    assert family.Y1_eq == family.Z_eq + wtail


def test_regroup_round_trip(family, base_state):
    assert family.Z_eq == base_state.defining_polynomial()


def test_split_column_degrees(base_state):
    subs = split_column(base_state, 1)
    for i, ai in enumerate(subs):
        if not ai.is_zero():
            assert ai.degree_info() == (base_state.d - 2 * i, True)


def test_minor_identities(family):
    report = verify_singular_minors(family)
    assert all(c["pass"] for c in report)
    minor = next(c for c in report if c["check"] == "minor-det-tz")
    assert minor["got"] == "100*x0^6"  # -x0^(d+1) at d = 5


@pytest.mark.parametrize(
    "n,m,r,steps,d",
    [
        (2, 2, 2, 0, 5),
        (2, 2, 2, 1, 5),
        (3, 2, 6, 0, 5),
        (3, 2, 6, 1, 5),
        (4, 3, 2, 0, 7),
        (3, 2, 4, 2, 7),
    ],
)
def test_minor_identities_configuration_sweep(n, m, r, steps, d):
    bp = BaseParams(n=n, m=m, r=r, d=d, p=101)
    state = build_base_state(bp)
    for k in range(steps):
        state = induct_step(state, seed=500 + k)
    fam = build_family(state, choose_j0(state))
    report = verify_singular_minors(fam)
    assert all(c["pass"] for c in report), report
    minor = next(c for c in report if c["check"] == "minor-det-tz")
    expected = (-SparsePoly.variable(fam.state.universe, "x0", d + 1)).canonical_string()
    assert minor["got"] == expected


def test_top_coefficient_identity(base_state):
    """a'_l = z_{s+1}^l a_l for l >= 2: single summand, both deltas vanish."""
    st1 = induct_step(base_state, j0=1, seed=1, symbolic=True)
    a_sub = [base_state.a0] + [base_state.a[(i, 1)].divide_by_monomial("x0", i) for i in (1, 2)]
    z1 = SparsePoly.variable(st1.universe, "z1")
    assert st1.a[(2, 1)] == z1**2 * a_sub[2]


def test_expanded_low_coefficients_l2(base_state):
    """For l = 2:
    a'_0 = a_0 - lam^-1 x0^2 a_1 + lam^-2 x0^4 a_2 + x0^(d-1) z_{s+1}
    a'_1 = z_{s+1} (a_1 - 2 lam^-1 x0^2 a_2) + t lam x0^(d-1)
    """
    st1 = induct_step(base_state, j0=1, seed=1, symbolic=True)
    u = st1.universe
    a0, a1, a2 = (
        base_state.a0,
        base_state.a[(1, 1)].divide_by_monomial("x0", 1),
        base_state.a[(2, 1)].divide_by_monomial("x0", 2),
    )
    x0 = SparsePoly.variable(u, "x0")
    z1 = SparsePoly.variable(u, "z1")
    lam_inv = SparsePoly.param(u, "lam", -1)
    t_lam = SparsePoly.param(u, "t") * SparsePoly.param(u, "lam")

    expected_a0 = (
        a0
        - x0**2 * a1 * lam_inv
        + x0**4 * a2 * lam_inv * lam_inv
        + x0**4 * z1
    )
    assert st1.a0 == expected_a0

    expected_a1 = z1 * (a1 - (x0**2 * a2 * lam_inv).scale(2)) + x0**4 * t_lam
    assert st1.a[(1, 1)] == expected_a1


def test_divisibility_transport_symbolic():
    """If x0^(i e) | a_i for all i then x0^(i e) divides the sum part of
    the transformed coefficient, before the delta terms are added.

    With t*lam = 0 the column builder gives a'_i = z^i * (sum part) for
    i >= 1, and z is not x0, so the sum part's x0-divisibility is that
    of a'_i.  The split-level ladder value is one below the state-level
    one, so a state with e_j = 2 makes the transport statement
    non-vacuous.
    """
    bp = BaseParams(n=3, m=2, r=6, d=7, p=101)
    st = build_base_state(bp)
    assert st.e[0] == 2
    st1 = induct_step(st, j0=1, seed=1, symbolic=True)
    u = st1.universe
    a_sub = [st.a0] + [st.a[(i, 1)].divide_by_monomial("x0", i) for i in (1, 2)]
    e = st.e[0] - 1
    assert e >= 1
    assert all(a_sub[i].monomial_divides("x0", i * e) for i in range(3))
    z1 = SparsePoly.variable(u, "z1")
    lam_inv = SparsePoly.param(u, "lam", -1)
    column = transformed_column(a_sub, bp.d, z1, lam_inv, SparsePoly.zero(u))
    for i in (1, 2):
        assert column[i].monomial_divides("x0", i * e)
    # and the full transformed column keeps the state-level ladder at e_j - 1
    for i in (1, 2):
        assert st1.a[(i, 1)].monomial_divides("x0", i * e)


@pytest.mark.parametrize(
    "n,m,r,d,steps",
    [(3, 2, 6, 5, 0), (3, 2, 6, 7, 3), (2, 2, 2, 5, 1), (3, 3, 6, 9, 2), (4, 3, 2, 7, 0), (4, 2, 14, 12, 5)],
)
def test_baked_step_is_the_symbolic_step_at_its_drawn_values(n, m, r, d, steps):
    """A baked step is the symbolic step with the provenance's lam and t
    substituted into a0 and column j0; nothing else differs."""
    st = build_base_state(BaseParams(n=n, m=m, r=r, d=d, p=101))
    for k in range(steps):
        st = induct_step(st, seed=900 + k)
    for seed in (1, 2, 3):
        baked = induct_step(st, seed=seed)
        sym = induct_step(st, seed=seed, symbolic=True)
        step = baked.provenance[-1]
        j0 = step["j0"]

        def bake(poly):
            return poly.substitute({"lam": step["lam"]}).substitute({"t": step["t"]})

        assert baked.a0 == bake(sym.a0)
        for i in range(1, m + 1):
            assert baked.a[(i, j0)] == bake(sym.a[(i, j0)])
        assert baked.a == {**sym.a, **{(i, j0): baked.a[(i, j0)] for i in range(1, m + 1)}}
        assert (baked.f0, baked.h_poly, baked.e, baked.s) == (sym.f0, sym.h_poly, sym.e, sym.s)


def test_untouched_columns_bit_identical(base_state):
    st1 = induct_step(base_state, j0=1, seed=1)
    for j in range(2, base_state.r + 1):
        for i in (1, 2):
            assert st1.a[(i, j)] is base_state.a[(i, j)]
    assert st1.f0 is base_state.f0


def test_walk_and_families_share_one_universe(base_state):
    """Every station of a walk, and every family built on one, lives in
    the universe sized at construction: no step re-embeds."""
    states = _walk(base_state, 3, seed=40)
    for st in states:
        assert st.universe is base_state.universe
        for j in range(1, st.r + 1):
            if st.e[j - 1] >= 1:
                fam = build_family(st, j)
                for poly in (fam.F1, fam.F2, fam.Y0_eq, fam.Y1_eq, fam.Z_eq):
                    assert poly.universe is st.universe


def test_ladder_decrement_and_h_growth(base_state):
    st1 = induct_step(base_state, j0=1, seed=1)
    assert st1.e == [0, 1, 0, 1, 0, 0]
    assert st1.recompute_e(1) == 0
    assert st1.h_poly == SparsePoly.variable(st1.universe, "z1")
    st2 = induct_step(st1, seed=2)
    assert st2.e == [0, 0, 0, 1, 0, 0]
    assert st2.h_poly == parse_poly("z1*z2", st2.universe)


def _walk(state, steps, seed):
    """The states of ``steps`` cone steps from ``state``, seeds counting up."""
    states = [state]
    for k in range(steps):
        states.append(induct_step(states[-1], seed=seed + k))
    return states


def test_pipeline_exhausts_after_budget(base_state):
    states = _walk(base_state, 3, seed=40)
    assert [s.s for s in states] == [0, 1, 2, 3]
    assert states[-1].e == [0] * 6
    with pytest.raises(EjExhausted):
        induct_step(states[-1], seed=99)


def test_j0_errors(base_state):
    with pytest.raises(IndexOutOfRange):
        build_family(base_state, 7)
    with pytest.raises(EjTooSmall):
        build_family(base_state, 3)  # e_3 = 0
    with pytest.raises(EjTooSmall):
        induct_step(base_state, j0=3, seed=0)


def test_verify_state_passes_on_pipeline(base_state):
    for idx, st in enumerate(_walk(base_state, 3, seed=60)):
        checks = verify_state(st, irreducibility_trials=6, seed=11)
        assert all(c["pass"] for c in checks), (idx, [c for c in checks if not c["pass"]])


@pytest.mark.parametrize("h_text", ["1", "z", "w", "z2", "z1*z3", "z1^2", "2*z1", "z1 + z2"])
def test_verify_state_h_poly_is_exactly_the_walk_coordinates(base_state, h_text):
    """At station s = 1 the pivot product is z1 and nothing else: not the
    family's z, not a later step's z2, z3, not z1 times one of them."""
    st1 = induct_step(base_state, j0=1, seed=1)
    st1.h_poly = parse_poly(h_text, st1.universe)
    check = next(c for c in verify_state(st1, irreducibility_trials=2, seed=1) if c["check"] == "h-poly-shape")
    assert check["pass"] is False


def test_verify_state_catches_corruption(base_state):
    """Dropping one x0 factor from a top coefficient breaks the ladder."""
    bad = HypersurfaceState(
        bp=base_state.bp,
        s=0,
        universe=base_state.universe,
        f0=base_state.f0,
        a0=base_state.a0,
        a=dict(base_state.a),
        e=list(base_state.e),
        h_poly=base_state.h_poly,
        params=dict(base_state.params),
    )
    bad.a[(2, 1)] = bad.a[(2, 1)].divide_by_monomial("x0", 1)
    checks = verify_state(bad, irreducibility_trials=4, seed=11)
    failed = {c["check"] for c in checks if not c["pass"]}
    assert "ladder-maximal-j1" in failed or "ladder-divisibility-j1" in failed
    # also homogeneity breaks, since the term lost a degree
    assert "state-homogeneous" in failed


def _with_field(state, label, poly):
    """A copy of ``state`` with one field replaced: "f0", "a0" or (i, j)."""
    a = dict(state.a)
    fields = {"f0": state.f0, "a0": state.a0}
    if label in fields:
        fields[label] = poly
    else:
        a[label] = poly
    return HypersurfaceState(
        bp=state.bp,
        s=state.s,
        universe=state.universe,
        a=a,
        e=list(state.e),
        h_poly=state.h_poly,
        params=dict(state.params),
        **fields,
    )


def _homogeneity(state):
    check = verify_state(state, irreducibility_trials=2, seed=1)[0]
    assert check["check"] == "state-homogeneous" and check["expected"] == (state.d, True)
    return check["got"], check["pass"]


def test_state_homogeneous_names_the_first_field_off_its_degree(base_state):
    """A passing state reads (d, True); a failing one reads the label of
    the first field off its degree, in the order f0, a0, a[i,j] by column
    then row, with that field's degree and homogeneity."""
    st1 = induct_step(base_state, j0=1, seed=1)
    assert _homogeneity(st1) == ((5, True), True)
    x0 = SparsePoly.variable(st1.universe, "x0")
    low = _with_field(st1, (2, 3), st1.a[(2, 3)].divide_by_monomial("x0", 1))
    assert _homogeneity(low) == (("a[2,3]", 2, True), False)
    raised = _with_field(low, (1, 1), st1.a[(1, 1)] * x0)
    assert _homogeneity(raised) == (("a[1,1]", 5, True), False)
    mixed = _with_field(raised, "f0", st1.f0 + x0)
    assert _homogeneity(mixed) == (("f0", 5, False), False)
    # the oracle takes forms only: the pivot check fails, undecided
    checks = verify_state(mixed, irreducibility_trials=2, seed=1)
    pivot = next(c for c in checks if c["check"] == "irreducible-f0a0")
    assert (pivot["got"], pivot["pass"], pivot["failure_bound"]) == ("Inconclusive", False, 1.0)
    assert _homogeneity(_with_field(st1, "a0", st1.a0 + x0**2)) == (("a0", 5, False), False)


def test_symbolic_state_must_absorb_before_next_family(base_state):
    st1 = induct_step(base_state, j0=1, seed=1, symbolic=True)
    with pytest.raises(ValueError):
        build_family(st1, 2)
    st1a = absorb_step_params(st1, seed=5)
    fam = build_family(st1a, 2)
    assert all(c["pass"] for c in verify_singular_minors(fam))


def test_verify_station_on_a_symbolic_state_fails_family_construction(base_state):
    """A state left symbolic by a step cannot carry a family: its one
    failing entry is the last, ``family-construction``, naming the error."""
    st1 = induct_step(base_state, j0=1, seed=1, symbolic=True)
    checks = verify_station(st1, trials=4, seed=7)
    failed = [c for c in checks if not c["pass"]]
    assert failed == [checks[-1]]
    assert failed[0]["check"] == "family-construction"
    assert failed[0]["got"].startswith("ValueError: ")


def test_verify_station_on_an_exhausted_ladder_skips_the_family(base_state):
    st = _walk(base_state, 3, seed=40)[-1]
    assert st.e == [0] * 6
    checks = verify_station(st, trials=4, seed=7)
    assert checks[-1]["check"] == "family-minors-skipped"
    assert all(c["pass"] for c in checks)


def test_verify_station_mid_walk_ends_with_the_minor_checks(base_state):
    st = _walk(base_state, 1, seed=40)[-1]
    checks = verify_station(st, trials=4, seed=7)
    assert checks[:-3] == verify_state(st, irreducibility_trials=4, seed=7)
    assert [c["check"] for c in checks[-3:]] == ["minor-det-tz", "y0-z-derivative", "y1-w-derivative"]
    assert all(c["pass"] for c in checks)


def test_absorption_is_idempotent(base_state):
    st1 = induct_step(base_state, j0=1, seed=1)
    again = absorb_step_params(st1, seed=9)
    assert again.a0 == st1.a0 and again.f0 == st1.f0


def test_smoothness_sampling(family):
    params = {"pi": 3, "rho": 7, "lam": 5, "t": 11}
    rep = smoothness_sample(family, 50, params, seed=9)
    assert rep["pass"] and rep["rank2"] == 50
    rep2 = smoothness_sample(family, 20, params, seed=10)
    assert rep2["pass"]


def test_smoothness_parameter_gate(family):
    with pytest.raises(ValueError):
        smoothness_sample(family, 5, {"pi": 1, "rho": 1, "lam": 0, "t": 1})


def test_smoothness_budget_exhaustion(family):
    params = {"pi": 3, "rho": 7, "lam": 5, "t": 11}
    with pytest.raises(SamplingExhausted):
        smoothness_sample(family, 10**6, params, seed=9, budget_factor=0)


def test_lambda_zero_specialization(family):
    """The Y1 equation after clearing lam-denominators and sending lam to 0."""
    y10 = set_param_zero(family.Y1_eq, "lam")
    u = family.state.universe
    assert not y10.uses_param("lam")
    # the cleared equation keeps the x0^(d-1) w tail
    d = family.state.d
    w_tail = SparsePoly.variable(u, "x0", d - 1) * SparsePoly.variable(u, "w")
    diff = y10 - family.Z_eq - w_tail
    assert diff.is_zero()


def test_fresh_parameters_per_step(base_state):
    """After a default (absorbing) step, the state mentions neither lam
    nor t, so the next family's derivative identities stay exact."""
    st1 = induct_step(base_state, seed=77)
    for poly in [st1.f0, st1.a0, *st1.a.values()]:
        assert not poly.uses_param("lam") and not poly.uses_param("t")
    fam = build_family(st1, choose_j0(st1))
    assert all(c["pass"] for c in verify_singular_minors(fam))


def test_division_failure_on_inconsistent_state(base_state):
    """A ladder value claiming more x0-divisibility than the column has
    surfaces as DivisionFailure from the split."""
    from conewalk.errors import DivisionFailure

    bad = HypersurfaceState(
        bp=base_state.bp,
        s=0,
        universe=base_state.universe,
        f0=base_state.f0,
        a0=base_state.a0,
        a=dict(base_state.a),
        e=list(base_state.e),
        h_poly=base_state.h_poly,
        params=dict(base_state.params),
    )
    bad.e[2] = 1  # column 3 has e = 0 in truth: x0^2 does not divide a[2,3]
    with pytest.raises(DivisionFailure):
        build_family(bad, 3)


def test_long_walk_d7_exhausts_budget_exactly():
    """Nine steps at (n, m, d) = (3, 2, 7): the ladder budget is met
    exactly and the structural checks hold at every station."""
    from conewalk.bounds import step_budget

    bp = BaseParams(n=3, m=2, r=6, d=7, p=101)
    st = build_base_state(bp)
    budget = step_budget(3, 2, 7, 6)
    assert budget == 9 and st.e == [2, 2, 1, 2, 1, 1]
    states = [st]
    while True:
        try:
            states.append(induct_step(states[-1], seed=7000 + len(states)))
        except EjExhausted:
            break
    assert len(states) - 1 == budget
    assert states[-1].e == [0] * 6
    for idx, s in enumerate(states):
        checks = [
            c
            for c in verify_state(s, irreducibility_trials=1, seed=3)
            if c["check"] != "irreducible-f0a0"
        ]
        assert all(c["pass"] for c in checks), idx
    # the final pivot is still certified irreducible, at a loose bound
    final = verify_state(states[-1], irreducibility_trials=8, seed=5)
    assert all(c["pass"] for c in final)


def test_walk_pivots_after_the_base_are_certified_by_their_linear_variable(monkeypatch):
    """On the (n, m, r, d, p) = (3, 2, 6, 7, 101) walk every station
    s >= 1 has the pivot x0^6*z_s + B with z_s absent from B: its verify
    certifies it from the terms, with no slice.  The base pivot has no
    such variable and is certified by a slice."""
    from conewalk import doublecone, factorizer

    verdicts = []

    def recording(*args, **kwargs):
        verdicts.append(factorizer.probably_irreducible(*args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(doublecone, "probably_irreducible", recording)
    states = _walk(build_base_state(BaseParams(n=3, m=2, r=6, d=7, p=101)), 9, seed=7001)
    for st in states:
        assert all(c["pass"] for c in verify_station(st, trials=3, seed=st.s))
    base, *later = verdicts
    assert base.verdict == "Irreducible" and base.trials >= 1 and base.note == ""
    assert [(v.verdict, v.trials, v.note, v.failure_bound) for v in later] == [
        ("Irreducible", 0, "linear variable", 0.0)
    ] * 9


def test_walk_with_modulus_three():
    """(n, m, d) = (3, 3, 9): l = 3 exercises the full binomial-weighted
    transform; six steps of budget, exact spot identity at i = 2."""
    from conewalk.bounds import step_budget

    bp = BaseParams(n=3, m=3, r=6, d=9, p=101)
    st = build_base_state(bp)
    assert step_budget(3, 3, 9, 6) == 6 and st.e == [1] * 6
    states = [st]
    while True:
        try:
            states.append(induct_step(states[-1], seed=8000 + len(states)))
        except EjExhausted:
            break
    assert len(states) - 1 == 6
    for idx, s in enumerate(states):
        checks = [
            c
            for c in verify_state(s, irreducibility_trials=1, seed=3)
            if c["check"] != "irreducible-f0a0"
        ]
        assert all(c["pass"] for c in checks), idx

    st1 = induct_step(st, j0=1, seed=1, symbolic=True)
    u = st1.universe
    z1 = SparsePoly.variable(u, "z1")
    x0 = SparsePoly.variable(u, "x0")
    a3 = st.a[(3, 1)].divide_by_monomial("x0", 3)
    a2 = st.a[(2, 1)].divide_by_monomial("x0", 2)
    lam_inv = SparsePoly.param(u, "lam", -1)
    assert st1.a[(3, 1)] == z1**3 * a3
    assert st1.a[(2, 1)] == z1**2 * (a2 + (x0**2 * a3 * lam_inv).scale(-3))


@pytest.mark.parametrize("n,m,r,d", [(3, 2, 6, 5), (3, 3, 6, 9), (2, 2, 2, 5), (3, 2, 6, 7)])
def test_transform_agrees_with_closed_substitution(n, m, r, d):
    """Two independent routes to the new defining polynomial must agree:
    the binomial-weighted coefficient assembly used by induct_step, and
    the direct substitution y_j -> y_j z_{s+1} - lam^-1 x0^2 applied to
    the old column sum (with the two tail terms), expanded by plain
    polynomial powering."""
    bp = BaseParams(n=n, m=m, r=r, d=d, p=101)
    st = build_base_state(bp)
    j0 = choose_j0(st)
    st1 = induct_step(st, j0=j0, seed=3, symbolic=True)
    u = st1.universe
    zs = SparsePoly.variable(u, f"z{st1.s}")
    x0 = SparsePoly.variable(u, "x0")
    yj = SparsePoly.variable(u, f"y{j0}")
    lam_inv = SparsePoly.param(u, "lam", -1)
    t_lam = SparsePoly.param(u, "t") * SparsePoly.param(u, "lam")

    target = yj * zs - lam_inv * x0**2
    rhs = st.f0
    for j in range(1, r + 1):
        if j == j0:
            continue
        for i in range(1, m + 1):
            rhs = rhs + st.a[(i, j)] * SparsePoly.variable(u, f"y{j}", i)
    a_sub = [st.a0] + [st.a[(i, j0)].divide_by_monomial("x0", i) for i in range(1, m + 1)]
    for i, ai in enumerate(a_sub):
        rhs = rhs + ai * target**i
    rhs = rhs + x0 ** (d - 1) * zs + x0 ** (d - 1) * yj * t_lam
    assert st1.defining_polynomial() == rhs
