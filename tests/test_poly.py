"""Sparse polynomials: arithmetic, degrees, calculus, canonical text form."""

import random

import pytest

from conewalk.coeffs import ParamCoeff, ParamRing
from conewalk.errors import (
    DivisionFailure,
    ParseError,
    UniverseMismatch,
    UnknownVariable,
    ZeroPolynomial,
)
from conewalk.poly import SparsePoly, VarUniverse, coordinate_universe, parse_poly
from oracles import canonical_string, clear_param_denominators, min_param_exp, set_param_zero

RING = ParamRing(101)
U3 = VarUniverse(("x0", "x1", "x2"), RING)


def P(text, universe=U3):
    return parse_poly(text, universe)


def V(name, exp=1, universe=U3):
    return SparsePoly.variable(universe, name, exp)


def test_product_difference_of_squares():
    assert (V("x0") + V("x1")) * (V("x0") - V("x1")) == P("x0^2 + 100*x1^2")


def test_single_term_product():
    u = VarUniverse(("x0", "z"), RING)
    # x0^(d-1) * z at d = 5
    got = SparsePoly.variable(u, "x0", 4) * SparsePoly.variable(u, "z")
    assert got == parse_poly("x0^4*z", u)


def test_add_zero_identity():
    f = P("x0^2 + 3*x1*x2")
    assert f + SparsePoly.zero(U3) == f


def test_universe_mismatch():
    other = VarUniverse(("x0", "x1"), RING)
    with pytest.raises(UniverseMismatch):
        P("x0") + parse_poly("x0", other)


def test_degree_info():
    assert P("x0^2 + x1").degree_info() == (2, False)
    assert P("x0^2 + x1*x2").degree_info() == (2, True)
    with pytest.raises(ZeroPolynomial):
        SparsePoly.zero(U3).degree_info()


def test_monomial_divides():
    f = P("x0^2*x1 + x0^3")
    assert f.monomial_divides("x0", 2)
    assert not f.monomial_divides("x0", 3)
    assert SparsePoly.zero(U3).monomial_divides("x0", 5)  # vacuous
    with pytest.raises(UnknownVariable):
        f.monomial_divides("y1", 1)


def test_divide_by_monomial():
    f = P("x0^2*x1 + x0^3")
    assert f.divide_by_monomial("x0", 2) == P("x1 + x0")
    with pytest.raises(DivisionFailure):
        f.divide_by_monomial("x0", 3)


def test_partial_derivative_char_kills_exponent():
    u = VarUniverse(("x0",), ParamRing(7))
    f = SparsePoly.variable(u, "x0", 7)
    assert f.partial_derivative("x0").is_zero()


def test_leibniz_randomized():
    rng = random.Random(5)
    for _ in range(60):
        a = _random_poly(rng)
        b = _random_poly(rng)
        v = rng.choice(U3.names)
        lhs = (a * b).partial_derivative(v)
        rhs = a * b.partial_derivative(v) + b * a.partial_derivative(v)
        assert lhs == rhs


def test_homogeneous_product_degree_adds():
    rng = random.Random(6)
    for _ in range(40):
        a = _random_homogeneous(rng, rng.randint(1, 3))
        b = _random_homogeneous(rng, rng.randint(1, 3))
        if a.is_zero() or b.is_zero():
            continue
        da, ha = a.degree_info()
        db, hb = b.degree_info()
        d, h = (a * b).degree_info()
        assert h and d == da + db


def test_eval_point():
    u = VarUniverse(("x0", "x1"), ParamRing(7))
    f = parse_poly("x0*x1", u)
    assert f.eval_point((2, 3)) == 6


def test_eval_commutes_with_arithmetic():
    rng = random.Random(7)
    for _ in range(50):
        a, b = _random_poly(rng), _random_poly(rng)
        pt = [rng.randrange(101) for _ in U3.names]
        params = {n: rng.randrange(1, 101) for n in RING.names}
        ea, eb = a.eval_point(pt, params), b.eval_point(pt, params)
        assert (a * b).eval_point(pt, params) == ea * eb % 101
        assert (a + b).eval_point(pt, params) == (ea + eb) % 101


def test_membership_evaluation():
    # a point on {f = 0} evaluates to zero
    f = P("x0 + 100*x1")
    assert f.eval_point((5, 5, 17)) == 0


def test_minus_one_displays_as_p_minus_one():
    f = -V("x0", 6)
    # at x0 = 1 the value is p - 1
    assert f.eval_point((1, 0, 0)) == 100


def test_canonical_string_examples():
    assert P("x0^2 + 100*x1*x2").canonical_string() == "x0^2 + 100*x1*x2"
    assert (V("x0") * V("x0") - V("x1") * V("x2")).canonical_string() == "x0^2 + 100*x1*x2"
    assert SparsePoly.zero(U3).canonical_string() == "0"
    lam = SparsePoly.param(U3, "lam", -1)
    assert (lam * V("x0")).canonical_string() == "lam^-1*x0"


def test_parse_empty_raises():
    with pytest.raises(ParseError):
        parse_poly("", U3)


def test_parse_unknown_name_raises():
    with pytest.raises(ParseError):
        parse_poly("q7 + x0", U3)


def test_parse_negative_var_exponent_raises():
    with pytest.raises(ParseError):
        parse_poly("x0^-1", U3)


def test_parse_negative_exponent_only_for_invertible():
    with pytest.raises(ParseError):
        parse_poly("pi^-1*x0", U3)
    parse_poly("lam^-2*x0", U3)  # fine


def test_roundtrip_randomized():
    rng = random.Random(8)
    for _ in range(120):
        f = _random_poly(rng)
        assert parse_poly(f.canonical_string(), U3) == f


def test_roundtrip_zero():
    assert parse_poly("0", U3).is_zero()


def test_param_coefficient_splits_into_terms():
    f = P("pi*x0 + x0")
    assert f.canonical_string() == "pi*x0 + x0"
    pi = SparsePoly.param(U3, "pi")
    one = SparsePoly.constant(U3, 1)
    assert f == (pi + one) * V("x0")


def test_embed():
    small = VarUniverse(("x0", "x1"), RING)
    big = coordinate_universe(1, 1, 2, RING)  # x0 x1 y1 y2 z1 z2
    f = parse_poly("x0^2 + x0*x1", small)
    g = f.embed(big)
    assert g.canonical_string() == "x0^2 + x0*x1"
    assert g.universe is big


def test_embed_missing_used_variable_raises():
    small = VarUniverse(("x0", "q1"), RING)
    with pytest.raises(UnknownVariable):
        parse_poly("q1", small).embed(U3)


def test_param_derivative():
    f = SparsePoly.param(U3, "t") * V("x0", 2) + V("x1", 2)
    assert f.param_derivative("t") == V("x0", 2)


def test_lambda_zero_path():
    lam = SparsePoly.param(U3, "lam")
    lam_inv = SparsePoly.param(U3, "lam", -1)
    f = lam_inv * V("x0") + lam * V("x1") + V("x2")
    cleared = clear_param_denominators(f, "lam")
    assert min_param_exp(cleared, "lam") == 0
    got = set_param_zero(f, "lam")
    # multiplying by lam then killing lam > 0 keeps only the lam^-1 slot
    assert got == V("x0")


def _random_poly(rng, max_terms=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, 3) for _ in U3.names)
        pexp = [0] * RING.nparams
        pexp[rng.randrange(RING.nparams)] = rng.randint(0, 1)
        coeff = ParamCoeff(RING, {tuple(pexp): rng.randrange(101)})
        if exps in terms:
            continue
        terms[exps] = coeff
    return SparsePoly(U3, terms)


def _random_homogeneous(rng, degree):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        cuts = sorted(rng.randint(0, degree) for _ in range(2))
        exps = (cuts[0], cuts[1] - cuts[0], degree - cuts[1])
        terms[exps] = ParamCoeff.from_int(RING, rng.randrange(1, 101))
    return SparsePoly(U3, terms)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_poly("x0 + q9", U3)
    assert exc.value.position == 5


def test_parse_whitespace_insensitive():
    a = parse_poly("x0^2+100*x1*x2", U3)
    b = parse_poly("  x0^2  +  100 * x1 * x2 ", U3)
    c = parse_poly("x0^2 + 100*x1*x2", U3)
    assert a == b == c


def test_eval_unassigned_parameter_raises():
    from conewalk.errors import UnassignedParameter

    f = SparsePoly.param(U3, "rho") * V("x0")
    with pytest.raises(UnassignedParameter):
        f.eval_point((1, 0, 0), {})


def test_partial_derivative_unknown_variable():
    with pytest.raises(UnknownVariable):
        P("x0").partial_derivative("w")


def test_roundtrip_laurent_and_multiparam():
    rng = random.Random(404)
    for _ in range(80):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            exps = tuple(rng.randint(0, 4) for _ in U3.names)
            pexps = [rng.randint(0, 2) for _ in RING.names]
            pexps[RING.names.index("lam")] = rng.randint(-3, 3)
            key = exps + tuple(pexps)
            terms[key] = (terms.get(key, 0) + rng.randrange(1, 101)) % 101
        f = SparsePoly(U3, {e: c for e, c in terms.items() if c})
        assert parse_poly(f.canonical_string(), U3) == f


# -- constructor checks --


def test_constructor_rejects_wrong_exponent_length():
    one = ParamCoeff.from_int(RING, 1)
    for exps in [(), (1, 0), (1, 0, 0, 0)]:
        with pytest.raises(ValueError, match="exponent tuple length mismatch"):
            SparsePoly(U3, {exps: one})
    # a full key has 3 variable slots and 4 parameter slots
    for exps in [(1, 0, 0), (1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0)]:
        with pytest.raises(ValueError, match="exponent tuple length mismatch"):
            SparsePoly(U3, {exps: 1})


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_constructor_rejects_negative_exponent(slot):
    exps = [2, 2, 2]
    exps[slot] = -1
    with pytest.raises(ValueError, match="negative variable exponent"):
        SparsePoly(U3, {tuple(exps): ParamCoeff.from_int(RING, 1)})
    with pytest.raises(ValueError, match="negative variable exponent"):
        SparsePoly(U3, {tuple(exps) + (0, -1, 0, 0): 1})


def test_constructor_rejects_negative_exponent_at_non_invertible_parameter():
    with pytest.raises(ValueError, match="non-invertible parameter 'pi'"):
        SparsePoly(U3, {(1, 0, 0, -1, 0, 0, 0): 1})
    with pytest.raises(ValueError, match="non-invertible parameter 't'"):
        SparsePoly(U3, {(1, 0, 0): ParamCoeff(RING, {(0, 0, 0, -2): 1})})
    assert SparsePoly(U3, {(1, 0, 0, 0, -1, 0, 0): 1}) == SparsePoly.param(U3, "lam", -1) * V("x0")


def test_constructor_rejects_non_int_coefficient():
    with pytest.raises(TypeError, match="coefficients must be int residues or ParamCoeff"):
        SparsePoly(U3, {(1, 0, 0, 0, 0, 0, 0): 5.0})


def test_constant_over_zero_variable_universe():
    u0 = VarUniverse((), RING)
    c = SparsePoly.constant(u0, 7)
    assert list(c.terms) == [(0, 0, 0, 0)]
    assert c.canonical_string() == "7"
    assert parse_poly("3*lam^-1 + 4", u0).canonical_string() == "4 + 3*lam^-1"


# -- parse semantics: one sum per monomial --


def test_parse_cancelling_terms_give_zero():
    f = P("x0 + 100*x0")
    assert f.is_zero()
    assert f == SparsePoly.zero(U3)


def test_parse_sums_per_monomial():
    f = P("x0*lam + 2*x0*lam^-1 + x0*lam")
    lam = SparsePoly.param(U3, "lam")
    lam_inv = SparsePoly.param(U3, "lam", -1)
    assert f == (lam.scale(2) + lam_inv.scale(2)) * V("x0")
    assert list(f.terms) == [(1, 0, 0, 0, 1, 0, 0), (1, 0, 0, 0, -1, 0, 0)]


def test_parse_keeps_first_appearance_order():
    f = P("x2 + x0^2 + 3*x1 + x0*x1 + 5*x2")
    assert list(f.terms) == [
        (0, 0, 1, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0)
    ]
    assert f.terms[(0, 0, 1, 0, 0, 0, 0)] == 6


def test_parse_is_the_sum_of_single_term_parses():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # few monomials and residues near 0 and p, so terms repeat and cancel
    factor = st.sampled_from(["x0", "x1", "x1^2", "x2^3", "pi", "t^2", "lam", "lam^-1", "lam^-3"])
    scalar = st.sampled_from([None, "0", "1", "2", "50", "51", "99", "100", "101", "203"])
    term = st.tuples(st.sampled_from(["+", "-"]), scalar, st.lists(factor, max_size=3))

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.lists(term, min_size=1, max_size=10))
    def check(terms):
        pieces, expected = [], SparsePoly.zero(U3)
        for k, (sign, c, factors) in enumerate(terms):
            words = ([c] if c is not None else []) + factors
            text = "*".join(words) if words else "1"
            single = P(text)
            expected = expected + single if sign == "+" else expected - single
            pieces.append(text if k == 0 and sign == "+" else f"{sign} {text}")
        if terms[0][0] == "-":
            pieces[0] = "0 " + pieces[0]
        f = P(" ".join(pieces))
        assert f == expected
        assert P(f.canonical_string()) == f

    check()


def test_flat_terms_properties():
    """On random polynomials with negative lam exponents: the text round
    trip, ``specialize_params`` as a ring homomorphism, substitution
    before specialization, and ``embed`` commuting with products."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    big = VarUniverse(("w", "x2", "x0", "v", "x1"), RING)  # reordered and larger
    small = st.integers(0, 3)
    key = st.tuples(small, small, small, st.integers(0, 2), st.integers(-3, 3), small, small)
    poly = st.dictionaries(key, st.integers(0, 202), max_size=6).map(lambda t: SparsePoly(U3, t))
    assignment = st.fixed_dictionaries({name: st.integers(1, 100) for name in RING.names})

    @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @hypothesis.given(poly, poly, assignment)
    def check(a, b, values):
        assert parse_poly(a.canonical_string(), U3) == a

        def spec(f):
            return SparsePoly.from_residues(U3, f.specialize_params(values))

        assert spec(a * b) == spec(a) * spec(b)
        assert spec(a + b) == spec(a) + spec(b)
        assert spec(-a) == -spec(a)
        for name in RING.names:
            baked = a.substitute_param(name, values[name])
            assert not baked.uses_param(name)
            assert baked.specialize_params(values) == a.specialize_params(values)
        assert (a * b).embed(big) == a.embed(big) * b.embed(big)
        assert a.embed(big).embed(U3) == a

    check()


def test_canonical_string_matches_the_sort_key_reference():
    """On random polynomials with negative lam exponents, over the
    coordinate universe and one with no parameters: the one-pass sort of
    ``canonical_string`` gives the same bytes as ordering terms by
    ``term_sort_key`` on the variable part, then on the parameter part."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    bare = VarUniverse(("x0", "x1", "x2"), ParamRing(101, names=(), invertible=frozenset()))
    small = st.integers(0, 3)
    scalar = st.integers(1, 100)
    key = st.tuples(small, small, small, st.integers(0, 2), st.integers(-3, 3), small, small)
    poly = st.dictionaries(key, scalar, max_size=8).map(lambda t: SparsePoly(U3, t))
    bare_poly = st.dictionaries(st.tuples(small, small, small), scalar, max_size=8)

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(poly, bare_poly.map(lambda t: SparsePoly(bare, t)))
    def check(a, b):
        assert a.canonical_string() == canonical_string(a)
        assert b.canonical_string() == canonical_string(b)

    check()
