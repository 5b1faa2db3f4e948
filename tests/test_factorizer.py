"""The irreducibility oracle surface."""

import random

import pytest

from conewalk.coeffs import ParamCoeff, ParamRing
from conewalk.errors import DegreeTooLargeForPrime, ZeroPolynomial
from conewalk.factorizer import (
    INCONCLUSIVE,
    IRREDUCIBLE,
    REDUCIBLE,
    probably_irreducible,
    trials_for_failure_bound,
    univariate_factor,
)
from conewalk.poly import SparsePoly, VarUniverse, parse_poly

RING101 = ParamRing(101)
U3 = VarUniverse(("x0", "x1", "x2"), RING101)
U1_7 = VarUniverse(("x0",), ParamRing(7))
U1_5 = VarUniverse(("x0",), ParamRing(5))


def test_univariate_examples():
    unit, fs = univariate_factor(parse_poly("x0^2 + 6", U1_7))
    assert unit == 1
    assert sorted(f.canonical_string() for f, _ in fs) == ["x0 + 1", "x0 + 6"]

    unit, fs = univariate_factor(parse_poly("x0^2 + 1", U1_7))
    assert len(fs) == 1 and fs[0][1] == 1  # irreducible

    unit, fs = univariate_factor(parse_poly("x0^3", U1_5))
    assert fs == [(parse_poly("x0", U1_5), 3)]


def test_univariate_zero_raises():
    with pytest.raises(ZeroPolynomial):
        univariate_factor(SparsePoly.zero(U1_7))


def test_univariate_remultiplication_exact():
    rng = random.Random(0)
    for _ in range(60):
        terms = {
            (k,): rng.randrange(7) for k in range(rng.randint(1, 6) + 1)
        }
        f = SparsePoly(
            U1_7,
            {e: ParamCoeff.from_int(ParamRing(7), c) for e, c in terms.items() if c},
        )
        if f.is_zero():
            continue
        unit, fs = univariate_factor(f, seed=rng.randrange(1000))
        prod = SparsePoly.constant(U1_7, unit)
        for g, m in fs:
            prod = prod * g**m
        assert prod == f


def test_conic_irreducible():
    f = parse_poly("x0^2 + x1^2 + x2^2", U3)
    v = probably_irreducible(f, trials=8, seed=3)
    assert v.verdict == IRREDUCIBLE
    assert 0 < v.failure_bound <= (4.0 / 101) ** 8 * (25.0 / 4.0) ** 8  # (d^2/p)^8


def test_visible_monomial_factor():
    f = parse_poly("x0*x1", U3)
    v = probably_irreducible(f, trials=4, seed=1)
    assert v.verdict == REDUCIBLE
    assert v.witness.canonical_string() == "x0"
    # re-multiplication: the witness really divides
    assert f.divide_by_monomial("x0", 1) * v.witness == f


def test_closed_monomial_family_always_reducible():
    for d in range(2, 7):
        for a in range(0, d + 1):
            b = d - a
            terms = f"x0^{a}*x1^{b}" if a and b else (f"x0^{a}" if a else f"x1^{b}")
            v = probably_irreducible(parse_poly(terms, U3), trials=2, seed=0)
            assert v.verdict == REDUCIBLE, (a, b)


def test_degree_gate():
    # p = 101 <= deg^2 at deg 11; build x0^11 + ... in a universe mod 101
    f = parse_poly("x0^11 + x1^11 + x2^11", U3)
    with pytest.raises(DegreeTooLargeForPrime):
        probably_irreducible(f, trials=2, seed=0)


def test_binary_form_rational_split_has_witness():
    f = parse_poly("x0^2 + 100*x1^2", U3)  # (x0-x1)(x0+x1)
    v = probably_irreducible(f, trials=4, seed=2)
    assert v.verdict == REDUCIBLE
    assert v.witness is not None


def test_binary_form_without_rational_witness_is_inconclusive():
    # x0^2 + x1^2 is irreducible over GF(7) but splits over the closure
    u = VarUniverse(("x0", "x1", "x2"), ParamRing(7))
    f = parse_poly("x0^2 + x1^2", u)
    v = probably_irreducible(f, trials=4, seed=2)
    assert v.verdict == INCONCLUSIVE


def test_three_variable_product_witness_lifts():
    f = parse_poly("x0^2 + x1^2 + x2^2", U3) * parse_poly("x0^2 + 2*x1^2 + 3*x2^2", U3)
    v = probably_irreducible(f, trials=8, seed=5)
    assert v.verdict == REDUCIBLE
    assert v.witness is not None
    # verify: witness divides the (parameter-free) polynomial
    from conewalk.factorizer import _exact_divide

    q = _exact_divide(U3, f.specialize_params({}), v.witness.specialize_params({}), 101)
    assert q is not None


def test_four_variable_product_is_inconclusive_not_wrong():
    u4 = VarUniverse(("x0", "x1", "x2", "x3"), RING101)
    f = parse_poly("x0^2 + x1^2 + x2^2 + x3^2", u4) * parse_poly(
        "x0^2 + 5*x1^2 + 7*x2^2 + 11*x3^2", u4
    )
    v = probably_irreducible(f, trials=8, seed=4)
    assert v.verdict in (REDUCIBLE, INCONCLUSIVE)
    assert v.verdict != IRREDUCIBLE


def test_symbolic_pivot_polynomial_is_irreducible():
    # rho*h + x0^(d-deg g)*g with random nonzero rho, pi at d=5, n=3, m=2
    from conewalk.basecase import BaseParams, build_base_state

    st = build_base_state(BaseParams(n=3, m=2, r=6, d=5, p=101))
    v = probably_irreducible(st.f0 + st.a0, trials=20, seed=7)
    assert v.verdict == IRREDUCIBLE
    assert v.failure_bound <= 2**-40


def test_trials_for_failure_bound():
    t = trials_for_failure_bound(5, 101, 2**-40)
    assert (25 / 101) ** t <= 2**-40
    assert (25 / 101) ** (t - 1) > 2**-40


def test_linear_form_certain():
    v = probably_irreducible(parse_poly("x0 + 2*x1", U3), trials=3, seed=0)
    assert v.verdict == IRREDUCIBLE and v.failure_bound == 0.0


def test_unspecialized_parameter_error():
    from conewalk.errors import UnspecializedParameter

    f = SparsePoly.param(U1_7, "pi") * SparsePoly.variable(U1_7, "x0") + SparsePoly.constant(
        U1_7, 1
    )
    with pytest.raises(UnspecializedParameter):
        univariate_factor(f)
    # with an assignment it factors fine
    unit, fs = univariate_factor(f, assignment={"pi": 2})
    assert unit == 2


def test_reducible_always_carries_verified_factor():
    """Randomized: whenever the verdict is Reducible, the witness divides
    the polynomial at the recorded assignment."""
    from conewalk.factorizer import _exact_divide

    rng = random.Random(71)
    for _ in range(40):
        deg = rng.randint(2, 4)
        nfactors = rng.randint(1, 2)
        poly = SparsePoly.constant(U3, 1)
        total = 0
        while total < deg:
            k = rng.randint(1, deg - total)
            terms = {}
            for _ in range(rng.randint(1, 3)):
                cuts = sorted(rng.randint(0, k) for _ in range(2))
                e = (cuts[0], cuts[1] - cuts[0], k - cuts[1])
                terms[e] = ParamCoeff.from_int(RING101, rng.randrange(1, 101))
            factor_poly = SparsePoly(U3, terms)
            poly = poly * factor_poly
            total += k
        if poly.is_zero():
            continue
        v = probably_irreducible(poly, trials=4, seed=rng.randrange(10**6))
        if v.verdict == REDUCIBLE:
            spec_terms = poly.specialize_params(v.assignment or {})
            q = _exact_divide(U3, spec_terms, v.witness.specialize_params({}), 101)
            assert q is not None


def test_fermat_cubic_never_inconclusive():
    """A rank-deficient slice map sends the plane onto a line, where any
    form splits; the sampler rejects such maps, so the smooth Fermat cubic
    is decided Irreducible on every seed (it was Inconclusive on 2/40
    seeds at one trial and 6/40 at twenty)."""
    f = parse_poly("x0^3 + x1^3 + x2^3", U3)
    for trials in (1, 20):
        for seed in range(40):
            v = probably_irreducible(f, trials=trials, seed=seed)
            assert v.verdict == IRREDUCIBLE, (trials, seed)
