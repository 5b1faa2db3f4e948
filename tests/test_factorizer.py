"""The irreducibility oracle surface."""

import random
import sys
import time
from collections import Counter

import pytest

from conewalk import unifactor as uni
from conewalk.coeffs import ParamCoeff, ParamRing
from conewalk.errors import DegreeTooLargeForPrime, DivisionFailure, InputTooLarge, ZeroPolynomial
from conewalk.factorizer import (
    INCONCLUSIVE,
    IRREDUCIBLE,
    REDUCIBLE,
    probably_irreducible,
    univariate_factor,
)
from conewalk.poly import SparsePoly, VarUniverse, parse_poly
from oracles import exact_divide, horner_slice

RING101 = ParamRing(101)
U3 = VarUniverse(("x0", "x1", "x2"), RING101)
U4 = VarUniverse(("x0", "x1", "x2", "x3"), RING101)
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
    f = parse_poly("x0^2 + x1^2 + x2^2 + x3^2", U4)
    v = probably_irreducible(f, trials=8, seed=3)
    assert v.verdict == IRREDUCIBLE
    # the first certified slice decides, and a certificate cannot be wrong
    assert v.failure_bound == 0.0 and v.trials == 1


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
    assert v.failure_bound == 1.0


def test_exact_verdicts_report_no_failure_probability():
    """Reducible rests on an exact division, so like Irreducible it
    reports failure_bound 0.0."""
    v = probably_irreducible(parse_poly("x0*x1", U3), trials=4, seed=1)
    assert v.verdict == REDUCIBLE and v.failure_bound == 0.0
    v = probably_irreducible(parse_poly("x0^2 + 100*x1^2", U3), trials=4, seed=2)
    assert v.verdict == REDUCIBLE and v.failure_bound == 0.0


def test_three_variable_product_witness_lifts():
    f = parse_poly("x0^2 + x1^2 + x2^2", U3) * parse_poly("x0^2 + 2*x1^2 + 3*x2^2", U3)
    v = probably_irreducible(f, trials=8, seed=5)
    assert v.verdict == REDUCIBLE
    assert v.witness is not None
    # verify: witness divides the (parameter-free) polynomial
    q = exact_divide(f.specialize_params({}), v.witness.specialize_params({}), 101)
    assert q is not None


def test_a_chart_factor_that_does_not_divide_is_a_division_failure(monkeypatch):
    """A Reducible verdict rests on an exact division: a chart factor
    that does not divide the input, rehomogenized, raises
    ``DivisionFailure`` instead of becoming a witness."""
    from conewalk import bifactor as bi

    line = bi.from_dict(101, {(1, 0): 1, (0, 1): 2, (0, 0): 3})  # u + 2v + 3
    monkeypatch.setattr(bi, "is_absolutely_irreducible", lambda p, f, rng: (False, line))
    with pytest.raises(DivisionFailure, match="x0 \\+ 2\\*x1 \\+ 3\\*x2"):
        probably_irreducible(parse_poly("x0^3 + x1^3 + x2^3", U3), trials=1, seed=0)


def test_p_at_the_limit_is_refused_at_the_oracle():
    """p at or past ``P_LIMIT`` raises ``InputTooLarge`` from ``ParamRing``,
    before its trial division, so no polynomial reaches the oracle with
    it; 4093, the largest prime below the limit, decides."""
    from conewalk.coeffs import P_LIMIT

    with pytest.raises(InputTooLarge, match="p = 4099 is not below the limit 4096"):
        ParamRing(P_LIMIT + 3)
    start = time.perf_counter()
    with pytest.raises(InputTooLarge, match=f"p = {2**61 - 1} is not below the limit 4096"):
        ParamRing(2**61 - 1)
    assert time.perf_counter() - start < 1.0
    cubic = "x0^3 + x1^3 + pi*x2^3"
    v = probably_irreducible(parse_poly(cubic, VarUniverse(("x0", "x1", "x2"), ParamRing(4093))), trials=1, seed=0)
    assert v.verdict == IRREDUCIBLE and v.failure_bound == 0.0


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
    assert v.failure_bound == 0.0


def test_linear_form_certain():
    v = probably_irreducible(parse_poly("x0 + 2*x1", U3), trials=3, seed=0)
    assert v.verdict == IRREDUCIBLE and v.failure_bound == 0.0


def test_linear_monomial_is_irreducible():
    """A linear form is absolutely irreducible; its variable is the input
    itself, not a proper factor."""
    for text in ("x0", "5*x1", "pi*x0"):
        v = probably_irreducible(parse_poly(text, U3), trials=3, seed=0)
        assert v.verdict == IRREDUCIBLE and v.failure_bound == 0.0, text
        assert v.witness is None


def test_unspecialized_parameter_error():
    from conewalk.errors import UnassignedParameter

    f = SparsePoly.param(U1_7, "pi") * SparsePoly.variable(U1_7, "x0") + SparsePoly.constant(
        U1_7, 1
    )
    with pytest.raises(UnassignedParameter):
        univariate_factor(f)
    # with an assignment it factors fine
    unit, fs = univariate_factor(f, assignment={"pi": 2})
    assert unit == 2


def test_reducible_always_carries_verified_factor():
    """Randomized, plus linear monomials: whenever the verdict is
    Reducible, the witness is a proper factor of the polynomial at the
    recorded assignment."""
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
        _check_reducible_witness(poly, v)
    for text in ("x0", "5*x1", "pi*x2"):
        poly = parse_poly(text, U3)
        _check_reducible_witness(poly, probably_irreducible(poly, trials=4, seed=0))


def _check_reducible_witness(poly, v):
    """A Reducible verdict carries a proper factor of ``poly`` at the
    recorded assignment."""
    if v.verdict == REDUCIBLE:
        assert 0 < v.witness.total_degree() < poly.total_degree()
        spec_terms = poly.specialize_params(v.assignment or {})
        q = exact_divide(spec_terms, v.witness.specialize_params({}), 101)
        assert q is not None


def test_fermat_cubic_never_inconclusive():
    """A rank-deficient slice map sends the plane onto a line, where any
    form splits; the sampler rejects such maps, so the smooth Fermat cubic
    surface is decided Irreducible on every seed (the Fermat cubic curve
    was Inconclusive on 2/40 seeds at one trial and 6/40 at twenty when
    it was sliced), and so is the curve, on its chart."""
    for f in (parse_poly("x0^3 + x1^3 + x2^3 + x3^3", U4), parse_poly("x0^3 + x1^3 + x2^3", U3)):
        for trials in (1, 20):
            for seed in range(40):
                v = probably_irreducible(f, trials=trials, seed=seed)
                assert v.verdict == IRREDUCIBLE, (f, trials, seed)


def _exponents(n, degree):
    if n == 1:
        yield (degree,)
        return
    for k in range(degree + 1):
        for rest in _exponents(n - 1, degree - k):
            yield (k,) + rest


def _form(universe, idx, degree, rng):
    """A random form of ``degree`` in the variables at positions ``idx``,
    with at least two terms."""
    ring = universe.ring
    while True:
        terms = {}
        for e in _exponents(len(idx), degree):
            c = rng.randrange(ring.p)
            if c:
                full = [0] * len(universe)
                for i, k in zip(idx, e):
                    full[i] = k
                terms[tuple(full)] = ParamCoeff.from_int(ring, c)
        if len(terms) > 1:
            return SparsePoly(universe, terms)


def _parity_cases():
    """(label, polynomial, params) over GF(101) and GF(103): monomials
    c*x^d, dense and product binary forms, three-variable products A*B,
    and variable factors visible symbolically or only at the assignment."""
    cases = []
    for p in (101, 103):
        u = VarUniverse(("x0", "x1", "x2"), ParamRing(p))
        x0, x1, x2 = (SparsePoly.variable(u, x) for x in u.names)
        rng = random.Random(p)
        for d in range(2, 6):
            f = SparsePoly.variable(u, u.names[rng.randrange(3)], d) * SparsePoly.constant(u, rng.randrange(1, p))
            cases.append((f"{p} monomial {d}", f, "random"))
        cases.append((f"{p} closed monomial", x1**2 * x2**3, "random"))
        for d in range(2, 7):
            idx = [(0, 1), (0, 2), (1, 2)][d % 3]
            cases.append((f"{p} binary dense {d}", _form(u, idx, d, rng), "random"))
            k = rng.randint(1, d - 1)
            cases.append((f"{p} binary product {d}", _form(u, idx, k, rng) * _form(u, idx, d - k, rng), "random"))
        cases.append((f"{p} binary without rational factor", x0**2 + SparsePoly.constant(u, 2) * x1**2, "random"))
        for d in range(2, 7):
            for n in range(2):
                k = rng.randint(1, d - 1)
                f = _form(u, (0, 1, 2), k, rng) * _form(u, (0, 1, 2), d - k, rng)
                cases.append((f"{p} ternary product {d}.{n}", f, "random"))
        cases.append((f"{p} variable times ternary", x2 * _form(u, (0, 1, 2), 3, rng), "random"))
        # x0 divides only at pi = 3; x1^2 + 2*x2^2 has no rational factor
        pi = SparsePoly.param(u, "pi")
        f = x0 * (x1**2 + SparsePoly.constant(u, 2) * x2**2) + (pi - SparsePoly.constant(u, 3)) * x1**3
        cases.append((f"{p} variable factor at pi=3", f, {"pi": 3}))
    return cases


PINNED = {
    '101 monomial 2': ('Reducible', 'x2'),
    '101 monomial 3': ('Reducible', 'x2'),
    '101 monomial 4': ('Reducible', 'x1'),
    '101 monomial 5': ('Reducible', 'x2'),
    '101 closed monomial': ('Reducible', 'x1'),
    '101 binary dense 2': ('Reducible', 'x1 + 64*x2'),
    '101 binary product 2': ('Reducible', 'x1 + 3*x2'),
    '101 binary dense 3': ('Reducible', 'x0 + 3*x1'),
    '101 binary product 3': ('Reducible', 'x0 + 11*x1'),
    '101 binary dense 4': ('Reducible', 'x0 + 58*x2'),
    '101 binary product 4': ('Reducible', 'x0 + 61*x2'),
    '101 binary dense 5': ('Reducible', 'x1 + 70*x2'),
    '101 binary product 5': ('Reducible', 'x1 + 6*x2'),
    '101 binary dense 6': ('Reducible', 'x0^2 + 35*x0*x1 + 20*x1^2'),
    '101 binary product 6': ('Reducible', 'x0 + x1'),
    '101 binary without rational factor': ('Inconclusive', None),
    '101 ternary product 2.0': ('Reducible', '64*x0 + x1 + 41*x2'),
    '101 ternary product 2.1': ('Reducible', '70*x0 + x1 + 27*x2'),
    '101 ternary product 3.0': ('Reducible', 'x1 + 89*x2'),
    '101 ternary product 3.1': ('Reducible', '94*x0 + x1 + 2*x2'),
    '101 ternary product 4.0': ('Reducible', '57*x0 + x1 + 3*x2'),
    '101 ternary product 4.1': ('Reducible', '27*x0 + x1 + 73*x2'),
    '101 ternary product 5.0': ('Reducible', '32*x0^2 + 50*x0*x1 + 46*x0*x2 + x1^2 + 86*x1*x2 + 38*x2^2'),
    '101 ternary product 5.1': ('Reducible', '88*x0^2 + 87*x0*x1 + 48*x0*x2 + x1^2 + 5*x1*x2 + 5*x2^2'),
    '101 ternary product 6.0': ('Reducible', '99*x0 + x1 + 38*x2'),
    '101 ternary product 6.1': ('Reducible', '18*x0^3 + 15*x0^2*x1 + 53*x0^2*x2 + 36*x0*x1^2 + 99*x0*x1*x2 + 92*x0*x2^2 + x1^3 + 90*x1^2*x2 + 17*x1*x2^2 + 5*x2^3'),
    '101 variable times ternary': ('Reducible', 'x2'),
    '101 variable factor at pi=3': ('Reducible', 'x0'),
    '103 monomial 2': ('Reducible', 'x2'),
    '103 monomial 3': ('Reducible', 'x2'),
    '103 monomial 4': ('Reducible', 'x2'),
    '103 monomial 5': ('Reducible', 'x2'),
    '103 closed monomial': ('Reducible', 'x1'),
    '103 binary dense 2': ('Inconclusive', None),
    '103 binary product 2': ('Reducible', 'x1 + 90*x2'),
    '103 binary dense 3': ('Reducible', 'x0 + 48*x1'),
    '103 binary product 3': ('Reducible', 'x0 + 48*x1'),
    '103 binary dense 4': ('Reducible', 'x0^2 + 19*x0*x2 + 41*x2^2'),
    '103 binary product 4': ('Reducible', 'x0 + 31*x2'),
    '103 binary dense 5': ('Reducible', 'x1 + 31*x2'),
    '103 binary product 5': ('Reducible', 'x1 + 6*x2'),
    '103 binary dense 6': ('Reducible', 'x0^3 + 69*x0^2*x1 + 88*x0*x1^2 + 12*x1^3'),
    '103 binary product 6': ('Reducible', 'x0 + x1'),
    '103 binary without rational factor': ('Inconclusive', None),
    '103 ternary product 2.0': ('Reducible', '10*x0 + x1 + 23*x2'),
    '103 ternary product 2.1': ('Reducible', '13*x0 + x1 + 92*x2'),
    '103 ternary product 3.0': ('Reducible', 'x0 + x1 + 68*x2'),
    '103 ternary product 3.1': ('Reducible', '102*x0 + x1 + 86*x2'),
    '103 ternary product 4.0': ('Reducible', '76*x0 + x1 + 89*x2'),
    '103 ternary product 4.1': ('Reducible', '31*x0 + x1 + 8*x2'),
    '103 ternary product 5.0': ('Reducible', '2*x0^2 + 80*x0*x1 + 31*x0*x2 + x1^2 + 83*x1*x2 + 85*x2^2'),
    '103 ternary product 5.1': ('Reducible', '5*x0 + x1 + 50*x2'),
    '103 ternary product 6.0': ('Reducible', '80*x0^2 + 65*x0*x1 + 11*x0*x2 + x1^2 + 46*x1*x2 + 71*x2^2'),
    '103 ternary product 6.1': ('Reducible', '3*x0^2 + 26*x0*x1 + 30*x0*x2 + x1^2 + 59*x1*x2 + 22*x2^2'),
    '103 variable times ternary': ('Reducible', 'x2'),
    '103 variable factor at pi=3': ('Reducible', 'x0'),
}


def test_verdicts_and_witnesses_pinned():
    """(verdict, witness) pairs for seeded inputs stay fixed, so a change
    to the oracle's structure cannot move a verdict or a witness."""
    got = {}
    for label, f, params in _parity_cases():
        v = probably_irreducible(f, params=params, trials=3, seed=len(label))
        got[label] = (v.verdict, v.witness.canonical_string() if v.witness is not None else None)
    assert got == PINNED


def test_no_irreducible_without_a_certified_slice():
    """The square of a form in four variables has no squarefree slice, so
    no slice is certified and the oracle never answers Irreducible; with
    no rational witness recovered in four variables it is Inconclusive."""
    f = parse_poly("x0^2 + x1^2 + 3*x2^2 + 5*x3^2", U4) ** 2
    for trials in (1, 2, 3):
        v = probably_irreducible(f, trials=trials, seed=0)
        assert v.verdict == INCONCLUSIVE, trials
        assert v.witness is None and v.failure_bound == 1.0, trials


def test_first_certified_slice_decides(monkeypatch):
    """The Fermat cubic surface's first slice is certified: a budget of
    twenty trials draws one slice."""
    calls = _count_calls(monkeypatch)
    v = probably_irreducible(parse_poly("x0^3 + x1^3 + x2^3 + x3^3", U4), trials=20, seed=0)
    assert v.verdict == IRREDUCIBLE and v.failure_bound == 0.0
    assert calls["_sample_slice"] == 1 and v.trials == 1


def _count_calls(monkeypatch):
    """Count calls to ``bifactor.factor_bivariate`` and
    ``factorizer._sample_slice`` for the rest of the test."""
    from conewalk import bifactor, factorizer

    calls = Counter()
    for module, name in ((bifactor, "factor_bivariate"), (factorizer, "_sample_slice")):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


Q3 = parse_poly("x0^2 + x1^2 + 3*x2^2", U3)
TWIST_A = parse_poly("x0^2 + x1*x2", U3)
TWIST_B = parse_poly("x1^2 + 3*x0*x2", U3)
# 2 is a non-residue mod 101 (101 = 5 mod 8)
CHART_CASES = {
    "ternary product": (Q3 * parse_poly("x0 + 2*x1 + 3*x2", U3), REDUCIBLE),
    "twisted": (TWIST_A**2 - parse_poly("2", U3) * TWIST_B**2, INCONCLUSIVE),
    "fermat cubic": (parse_poly("x0^3 + x1^3 + x2^3", U3), IRREDUCIBLE),
    "square": (Q3**2, REDUCIBLE),
}


@pytest.mark.parametrize("label", sorted(CHART_CASES))
def test_ternary_form_is_decided_on_its_chart(monkeypatch, label):
    """A form in three used variables is decided by one factorization of
    its chart and draws no slice: a certificate gives Irreducible with
    trials 0, a rational factor that divides exactly gives Reducible (the
    repeated factor Q of Q^2 among them), and the twisted A^2 - 2*B^2,
    irreducible over GF(101) but not over the closure, is Inconclusive."""
    f, want = CHART_CASES[label]
    calls = _count_calls(monkeypatch)
    v = probably_irreducible(f, trials=20, seed=1)
    assert v.verdict == want
    assert calls == {"factor_bivariate": 1}
    assert v.trials == 0
    if want == REDUCIBLE:
        assert exact_divide(f.specialize_params({}), v.witness.specialize_params({}), 101) is not None
    if label == "square":
        assert v.witness == Q3


def _sweep_cases():
    """(d, kind, form, seed) for d = 3..9 over GF(p), p the first prime
    above d^2, 16 of each kind: dense ternary forms, diagonal forms
    a*x0^d + b*x1^d + c*x2^d (at such small p some have no smooth point
    off x2 = 0), products A*B, and for even d twisted A^2 - nu*B^2 with
    nu a non-residue."""
    cases = []
    for d in range(3, 10):
        p = next(q for q in range(d * d + 1, 2 * d * d) if all(q % k for k in range(2, q)))
        u = VarUniverse(("x0", "x1", "x2"), ParamRing(p))
        rng = random.Random(d)
        nu = SparsePoly.constant(u, next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1))
        for _ in range(16):
            k = rng.randint(1, d - 1)
            a, b = _form(u, (0, 1, 2), d // 2, rng), _form(u, (0, 1, 2), d // 2, rng)
            diagonal = SparsePoly.zero(u)
            for name in u.names:
                diagonal = diagonal + SparsePoly.constant(u, rng.randrange(1, p)) * SparsePoly.variable(u, name, d)
            kinds = [
                ("dense", _form(u, (0, 1, 2), d, rng)),
                ("diagonal", diagonal),
                ("product", _form(u, (0, 1, 2), k, rng) * _form(u, (0, 1, 2), d - k, rng)),
            ]
            if d % 2 == 0:
                kinds.append(("twisted", a * a - nu * b * b))
            cases += [(d, kind, f, rng.randrange(1 << 30)) for kind, f in kinds]
    return cases


# (Irreducible, Reducible, Inconclusive) per degree, as measured when
# ternary forms were still decided on random plane slices
SWEEP_COUNTS = {
    3: (32, 16, 0),
    4: (32, 16, 16),
    5: (32, 16, 0),
    6: (32, 16, 16),
    7: (32, 16, 0),
    8: (32, 16, 16),
    9: (32, 16, 0),
}


def test_chart_route_does_not_under_claim():
    """On the seeded sweep the chart route certifies at least as many
    forms per degree as the slice route did, and a product or a twisted
    form is never Irreducible."""
    got = {}
    for d, kind, f, seed in _sweep_cases():
        v = probably_irreducible(f, params={}, trials=3, seed=seed)
        if kind == "product":
            assert v.verdict == REDUCIBLE, (d, f)
        if kind == "twisted":
            assert v.verdict == INCONCLUSIVE, (d, f)
        counts = got.setdefault(d, [0, 0, 0])
        counts[(IRREDUCIBLE, REDUCIBLE, INCONCLUSIVE).index(v.verdict)] += 1
    got = {d: tuple(counts) for d, counts in got.items()}
    for d, (irreducible, _, _) in SWEEP_COUNTS.items():
        assert got[d][0] >= irreducible, (d, got[d])
    assert got == SWEEP_COUNTS


def test_slice_is_the_input_on_the_sampled_plane():
    """The slice is f(a*u + b*v + c) for the first drawn map (a, b, c)
    of rank 3 whose v^d coefficient f(b) is nonzero: replay the
    sampler's draws and compare at random points (u0, v0)."""
    from conewalk import bifactor as bi
    from conewalk.factorizer import _sample_slice

    checked = 0
    for p in (101, 103):
        u = VarUniverse(("x0", "x1", "x2", "x3"), ParamRing(p))
        rng = random.Random(p + 1)
        for idx in ((0, 1, 2), (0, 2, 3), (0, 1, 2, 3)):
            for d in range(2, 8):
                f = _form(u, idx, d, rng)
                int_terms = f.specialize_params({})
                used = [i for i in range(len(u)) if any(e[i] for e in int_terms)]
                seed = rng.randrange(10**6)
                slice_poly = _sample_slice(p, f.exponent_items(), used, d, len(u), random.Random(seed))
                replay = random.Random(seed)
                while True:
                    a, b, c = ([replay.randrange(p) for _ in u.names] for _ in range(3))
                    rows = [{k: vec[i] for k, i in enumerate(used)} for vec in (a, b, c)]
                    if bi.rank_mod_p(rows, p) == 3 and f.eval_point(b):
                        break
                for _ in range(6):
                    u0, v0 = rng.randrange(p), rng.randrange(p)
                    point = [a[i] * u0 + b[i] * v0 + c[i] for i in range(len(u))]
                    got = uni.eval_at(p, bi.eval_u(p, slice_poly, u0), v0)
                    assert got == f.eval_point(point), (p, idx, d)
                checked += 1
    assert checked == 36


def _sparse_form(n, idx, d, rng, p):
    """{e: c} with at least six random terms of degree d in the positions
    ``idx`` of n slots, every position of ``idx`` used."""
    terms = {}
    while len(terms) < 6 or not all(any(e[i] for e in terms) for i in idx):
        e = [0] * n
        for _ in range(d):
            e[rng.choice(idx)] += 1
        terms[tuple(e)] = rng.randrange(1, p)
    return terms


def _assert_slices_agree(terms, d, p, rng, draws):
    from conewalk import bifactor as bi
    from conewalk.factorizer import _slice

    n = max(len(e) for e in terms)
    used = [i for i in range(n) if any(e[i] for e in terms)]
    items = [(tuple((i, k) for i, k in enumerate(e) if k), c) for e, c in terms.items()]
    for _ in range(draws):
        maps = tuple([rng.randrange(p) for _ in range(n)] for _ in range(3))
        want = bi.vnormalize(p, horner_slice(terms, used, maps, p))
        assert bi.vnormalize(p, _slice(items, maps, d, p)) == want, (p, d, len(used))
    return used


def test_slice_agrees_with_the_horner_reference():
    """The lattice slice equals the nested-Horner reference on seeded
    forms in 4 to 8 used variables, d = 2..9, p = 101 and 103."""
    rng = random.Random(19)
    for p in (101, 103):
        for d in range(2, 10):
            for k in range(4, 9):
                idx = sorted(rng.sample(range(k + 2), k))
                used = _assert_slices_agree(_sparse_form(k + 2, idx, d, rng, p), d, p, rng, 2)
                assert used == idx


def test_slice_agrees_with_the_horner_reference_on_a_walk_station():
    """The end station of the d = 8 witness walk of ``bounds --table``,
    (n, r, s) = (6, 62, 77), whose f0 + a0 uses 84 variables."""
    from conewalk.basecase import BaseParams, build_base_state
    from conewalk.doublecone import induct_step

    state = build_base_state(BaseParams(n=6, m=2, r=62, d=8, p=101))
    for k in range(77):
        state = induct_step(state, seed=2 + k)
    rng = random.Random(8)
    f = state.f0 + state.a0
    terms = f.specialize_params({name: rng.randrange(1, 101) for name in f.universe.ring.names})
    assert len(_assert_slices_agree(terms, 8, 101, rng, 3)) == 84


def test_slices_have_no_limit_on_the_used_variables():
    """A diagonal cubic in more variables than the interpreter's recursion
    limit is certified by a slice."""
    n, rng = sys.getrecursionlimit() + 100, random.Random(1)
    universe = VarUniverse(tuple(f"x{i}" for i in range(n)), RING101)
    terms = {tuple(3 * (j == i) for j in range(n)): rng.randrange(1, 101) for i in range(n)}
    v = probably_irreducible(SparsePoly.from_residues(universe, terms), trials=3, seed=1)
    assert v.verdict == IRREDUCIBLE and v.trials >= 1 and v.failure_bound == 0.0
