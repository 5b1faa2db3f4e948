"""Sparse polynomials: arithmetic, degrees, calculus, canonical text form."""

import functools
import operator
import random
import re

import pytest

from conewalk.basecase import BaseParams, build_base_state, z_product
from conewalk.coeffs import ParamCoeff, ParamRing
from conewalk.doublecone import induct_step
from conewalk.errors import (
    DivisionFailure,
    ExponentOverflow,
    ParseError,
    UniverseMismatch,
    UnknownVariable,
    ZeroPolynomial,
)
from conewalk.poly import SparsePoly, VarUniverse, _parse_canonical, parse_poly
from oracles import (
    TuplePoly,
    canonical_string,
    clear_param_denominators,
    exact_divide,
    min_param_exp,
    parse_poly_scanner,
    set_param_zero,
)

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
        ea, eb = a.specialize(params).eval_point(pt), b.specialize(params).eval_point(pt)
        assert (a * b).specialize(params).eval_point(pt) == ea * eb % 101
        assert (a + b).specialize(params).eval_point(pt) == (ea + eb) % 101


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


def test_variables_in_universe_order():
    assert P("x2^3 + lam^-1*x0*x2 + pi").variables() == ("x0", "x2")
    assert P("lam*t + 5").variables() == ()
    assert SparsePoly.zero(U3).variables() == ()


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


PARSE_ERRORS = [
    # (text, position, message): one pinned position per error class
    ("x0 + q9", 5, "unknown name 'q9'"),
    ("x0 + + x1", 5, "empty term"),
    ("x0 +", 4, "empty term"),
    ("x0^y1 + x1", 2, "expected integer exponent after '^'"),
    ("x0 + x1^", 7, "expected integer exponent after '^'"),
    ("x1 + x0^-1", 5, "negative exponent at variable 'x0'"),
    ("x0 + pi^-1*x1", 5, "negative exponent at parameter 'pi'"),
    ("   x0 + q9", 8, "unknown name 'q9'"),
    ("x0*", 3, "expected a factor after '*'"),
    ("x0* + x1", 4, "expected a factor after '*'"),
    ("x0**x1", 3, "expected a factor after '*'"),
    ("*x0", 0, "empty term"),
    ("-3*x0", 0, "empty term"),
    ("x0 + -3", 5, "empty term"),
    ("x0^- 1", 2, "expected integer exponent after '^'"),
    ("3^2*x0", 1, "'^' must follow a name"),
    ("x0 + x 1", 5, "missing operator in 'x 1'"),
    ("1 2*x0", 0, "missing operator in '1 2'"),
]


def test_parse_error_carries_position():
    for text, position, message in PARSE_ERRORS:
        with pytest.raises(ParseError) as exc:
            parse_poly(text, U3)
        assert exc.value.position == position, text
        assert str(exc.value) == f"{message} (at position {position})"


def test_a_number_past_the_digit_limit_is_a_positioned_parse_error():
    """int refuses more than 4300 digits at Python's default limit; the
    parser refuses them itself, at the number, as a scalar and as an
    exponent, and still reads 4300 digits (leading zeros included)."""
    for text, position, digits in (
        ("1" * 5000, 0, 5000),
        ("x0^" + "1" * 5000, 3, 5000),
        ("x1 - 2*" + "3" * 4301 + "*x0", 7, 4301),
    ):
        with pytest.raises(ParseError) as exc:
            parse_poly(text, U3)
        assert exc.value.position == position, text
        assert str(exc.value) == f"number of {digits} digits, more than 4300 (at position {position})"
    assert parse_poly("2" * 4300, U3) == SparsePoly.constant(U3, int("2" * 4300) % 101)
    assert parse_poly("x0^" + "0" * 4299 + "2", U3) == V("x0") ** 2


def test_parse_whitespace_insensitive():
    a = parse_poly("x0^2+100*x1*x2", U3)
    b = parse_poly("  x0^2  +  100 * x1 * x2 ", U3)
    c = parse_poly("x0^2 + 100*x1*x2", U3)
    assert a == b == c
    assert parse_poly("lam^-1*x0", U3) == parse_poly("lam ^ -1 * x0", U3)
    # '-' subtracts however it is spaced
    for text in ("x0-3", "x0 -3", "x0 - 3", "x0- 3", "x0 + 98"):
        assert parse_poly(text, U3) == V("x0") - SparsePoly.constant(U3, 3), text


def _random_text(rng):
    pieces = ["x0", "x1", "pi", "lam", "t", "q9", "0", "3", "102", "-1", "+", "-", "*", "^", " ", "  "]
    return "".join(rng.choice(pieces) for _ in range(rng.randint(0, 10)))


def _parse_or_error(parse, text):
    try:
        return list(parse(text, U3).to_dict().items())
    except ParseError as ex:
        assert 0 <= ex.position <= len(text), (text, ex.position)
        return None


def _minus_spaced(text):
    """``text`` with every '-' not after '^' made a spaced operator, which
    the scanner reads as ``parse_poly`` reads the unspaced one."""
    return re.sub(r"(\^\s*)?-", lambda m: m.group(0) if m.group(1) else " - ", text)


def test_parse_agrees_with_the_token_scanner():
    """On random texts both parsers give the same terms in the same order,
    except that a dangling '*' is an error and a '-' subtracts however it
    is spaced; every error position lies in the text."""
    rng = random.Random(13)
    accepted = 0
    for _ in range(4000):
        text = _random_text(rng)
        got = _parse_or_error(parse_poly, text)
        old = _parse_or_error(parse_poly_scanner, text)
        spaced = _minus_spaced(text)
        if re.search(r"\*\s*([-+]|$)", spaced):
            assert got is None, text  # a dangling '*'
        elif old is not None:
            assert got == old, text
        else:  # rejected by the scanner, unless a '-' it took for a sign subtracts
            assert got == _parse_or_error(parse_poly_scanner, spaced), text
        accepted += got is not None
    assert accepted > 200


def test_ladder_state_round_trips_through_both_parsers():
    state = build_base_state(BaseParams(n=3, m=2, r=6, d=5, p=101))
    for k in range(2):
        state = induct_step(state, seed=40 + k)
    state = induct_step(state, seed=50, symbolic=True)  # lam^-1 and t stay symbolic
    polys = [state.f0, state.a0, state.h_poly, *state.a.values()]
    assert any(f.uses_param("lam") for f in polys)
    for f in polys:
        text = f.canonical_string()
        got = parse_poly(text, state.universe)
        assert got == f
        want = parse_poly_scanner(text, state.universe)
        assert list(got.to_dict().items()) == list(want.to_dict().items())


def test_eval_unassigned_parameter_raises():
    from conewalk.errors import UnassignedParameter

    f = SparsePoly.param(U3, "rho") * V("x0")
    with pytest.raises(UnassignedParameter):
        f.eval_point((1, 0, 0))


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
    assert list(c.to_dict()) == [(0, 0, 0, 0)]
    assert c.canonical_string() == "7"
    assert parse_poly("3*lam^-1 + 4", u0).canonical_string() == "4 + 3*lam^-1"


@pytest.mark.parametrize("nv", [3, 3072])
def test_constant_is_the_tuple_built_constant(nv):
    """``constant`` writes the residue at the all-zero monomial's key
    directly: it equals the constant packed from an all-zero exponent
    tuple, on a small universe and on one of thousands of variables, and
    c = 0 mod p gives the zero polynomial."""
    u = VarUniverse(tuple(f"v{i}" for i in range(nv)), RING)
    zero = (0,) * (nv + RING.nparams)
    for c in (0, 1, -1, 101, 2 * 101 + 3):
        got = SparsePoly.constant(u, c)
        assert got == SparsePoly(u, {zero: c}), c
        assert got.terms == SparsePoly(u, {zero: c}).terms, c
    assert SparsePoly.constant(u, 202).is_zero()
    f = SparsePoly.variable(u, "v1") + SparsePoly.constant(u, 5)
    assert f**0 == SparsePoly.constant(u, 1) == SparsePoly(u, {zero: 1})
    with pytest.raises(TypeError):
        SparsePoly.constant(u, 5.0)


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
    assert list(f.to_dict()) == [(1, 0, 0, 0, 1, 0, 0), (1, 0, 0, 0, -1, 0, 0)]


def test_parse_keeps_first_appearance_order():
    f = P("x2 + x0^2 + 3*x1 + x0*x1 + 5*x2")
    assert list(f.to_dict()) == [
        (0, 0, 1, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0)
    ]
    assert f.to_dict()[(0, 0, 1, 0, 0, 0, 0)] == 6


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
    trip, ``specialize_params`` as a ring homomorphism, and substitution
    before specialization."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

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
            baked = a.substitute({name: values[name]})
            assert not baked.uses_param(name)
            assert baked.specialize_params(values) == a.specialize_params(values)

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


# -- packed keys against the tuple-keyed reference --


def test_packed_keys_match_the_tuple_reference():
    """On random universes of 0 to 80 variables, with negative ``lam``
    exponents, every operation on packed keys gives the terms that the
    tuple-keyed reference gives: sums, products, powers, both
    derivatives, substitution, specialization, the variables used, the
    canonical text and its round trip."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def cases(draw):
        nv = draw(st.integers(0, 80))
        universe = VarUniverse(tuple(f"v{i}" for i in range(nv)), RING)

        def terms():
            out = {}
            for _ in range(draw(st.integers(0, 5))):
                exps = [0] * nv
                for i, e in draw(st.lists(st.tuples(st.integers(0, max(nv - 1, 0)), st.integers(1, 3)),
                                          max_size=4 if nv else 0)):
                    exps[i] = e
                pexps = [draw(st.integers(0, 2)), draw(st.integers(-3, 3)), draw(st.integers(0, 2)),
                         draw(st.integers(0, 2))]
                out[tuple(exps + pexps)] = draw(st.integers(0, 202))
            return out

        return universe, terms(), terms(), draw(st.randoms(use_true_random=False))

    @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        u, ta, tb, rng = case
        a, b = SparsePoly(u, ta), SparsePoly(u, tb)
        ra, rb = TuplePoly(u, ta), TuplePoly(u, tb)
        assert a.to_dict() == ra.terms
        for got, want in [(a + b, ra + rb), (a - b, ra - rb), (-a, -ra), (a * b, ra * rb)]:
            assert got.to_dict() == want.terms
        k = rng.randrange(4)
        assert (b ** k).to_dict() == (rb ** k).terms
        for name in u.names[:3] + u.names[-2:]:
            assert a.partial_derivative(name).to_dict() == ra.partial_derivative(name).terms
        values = {name: rng.randrange(1, 101) for name in RING.names}
        for name in RING.names:
            assert a.param_derivative(name).to_dict() == ra.param_derivative(name).terms
            assert a.substitute({name: values[name]}).to_dict() == ra.substitute_param(name, values[name]).terms
        assert a.specialize_params(values) == ra.specialize_params(values)
        assert a.variables() == ra.variables()
        assert (a * b).variables() == (ra * rb).variables()
        assert a.canonical_string() == canonical_string(ra)
        assert parse_poly(a.canonical_string(), u) == a

    check()


def test_exponent_out_of_its_field_is_a_typed_error():
    # the largest exponents that fit, and one past them
    assert V("x0", 32767).total_degree() == 32767
    assert SparsePoly.param(U3, "lam", -16384).uses_param("lam")
    for make in [
        lambda: SparsePoly.variable(U3, "x0", 32768),
        lambda: SparsePoly.variable(U3, "x0", 70000),
        lambda: SparsePoly.param(U3, "lam", -16385),
        lambda: SparsePoly.param(U3, "pi", 16384),
        lambda: SparsePoly(U3, {(30000, 2768, 0, 0, 0, 0, 0): 1}),  # the degree leaves its field
        lambda: SparsePoly(U3, {(1, 0, 0): ParamCoeff(RING, {(16000, 0, 384, 0): 1})}),
        lambda: V("x0", 30000) * V("x1", 2768),
        lambda: V("x0", 16384) ** 2,
        lambda: SparsePoly.param(U3, "lam", -16384) * SparsePoly.param(U3, "lam", -1),
        lambda: SparsePoly.param(U3, "lam", -16384).param_derivative("lam"),
        lambda: (SparsePoly.param(U3, "pi", 16383) * SparsePoly.param(U3, "rho") *
                 SparsePoly.param(U3, "lam", -1)).substitute({"lam": 3}),
    ]:
        with pytest.raises(ExponentOverflow):
            make()
    # no field carries into the next: the product next to the limit is exact
    f = V("x0", 32766) * V("x1")
    assert f.to_dict() == {(32766, 1, 0, 0, 0, 0, 0): 1}
    assert f.canonical_string() == "x0^32766*x1"
    assert parse_poly("*".join(["x1"] * 32767), U3) == V("x1", 32767)


@pytest.mark.parametrize(
    "text, position, name",
    [
        ("x0^70000", 0, "'x0'"),
        ("x1 + 3*x0^32768", 7, "'x0'"),
        ("lam^-16385*x0", 0, "'lam'"),
        ("x0^32767*x1*x1*x2^32767", 15, "'x2'"),
        ("x0^32767*x1", 0, None),
        ("x2 + pi^16383*rho", 5, None),
        ("*".join(["x1"] * 32768), 0, None),
    ],
)
def test_parse_exponent_out_of_its_field_is_a_positioned_error(text, position, name):
    with pytest.raises(ParseError) as exc:
        parse_poly(text, U3)
    where = f"at {name}" if name else "in this term"
    assert str(exc.value) == f"exponent or degree out of range {where} (at position {position})"


# -- sparse emission, the n-ary sum and the tokenizer against their references --


WIDE = VarUniverse(tuple(f"v{i}" for i in range(320)), RING)


def test_sparse_emitter_matches_the_reference_on_a_wide_universe():
    """Over 320 variables, ``canonical_string`` reads only the nonzero
    fields of each key and gives the bytes of the dense reference: sparse
    terms at either end of the universe, variable exponents 1, 2 and
    2^15 - 1, lam^-16384 and lam^16383, and terms with no variable.
    ``variable_span`` ends at the last variable that ``variables`` names,
    and ``exponent_items`` reads the variable part of ``to_dict``."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    slot = st.sampled_from([0, 1, 2, 159, 160, 317, 318, 319]) | st.integers(0, 319)

    @st.composite
    def term(draw):
        exps = [0] * 320
        if draw(st.booleans()):  # one variable at the top of its field
            exps[draw(slot)] = 32767
        else:
            for i in draw(st.lists(slot, max_size=5)):
                exps[i] = draw(st.sampled_from([1, 2]))
        lam = draw(st.sampled_from([-16384, 16383, -1, 0, 1, 2]))
        others = [0, 0, 0] if abs(lam) > 2 else [draw(st.integers(0, 2)) for _ in range(3)]
        return tuple(exps + [others[0], lam] + others[1:])

    poly = st.dictionaries(term(), st.integers(1, 100), max_size=8).map(lambda t: SparsePoly(WIDE, t))

    @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @hypothesis.given(poly)
    def check(f):
        assert f.canonical_string() == canonical_string(f)
        assert f.exponent_items() == [
            (tuple((i, e) for i, e in enumerate(exps[:320]) if e), c) for exps, c in f.to_dict().items()
        ]
        used = f.variables()
        assert f.variable_span() == (WIDE.index(used[-1]) + 1 if used else 0)

    check()
    fixed = SparsePoly(WIDE, {
        (0,) * 319 + (32767,) + (0, 0, 0, 0): 3,
        (1,) + (0,) * 318 + (2,) + (0, -16384, 0, 0): 1,
        (0,) * 320 + (0, 16383, 0, 0): 5,
        (0,) * 324: 7,
    })
    assert fixed.canonical_string() == canonical_string(fixed) == (
        "3*v319^32767 + lam^-16384*v0*v319^2 + 5*lam^16383 + 7"
    )
    assert fixed.variable_span() == 320 and SparsePoly.constant(WIDE, 4).variable_span() == 0


def _quotient_agrees(f, g):
    """``f.exact_quotient(g)`` is the dense long division's answer; the
    quotient of f / g, or None."""
    got, want = f.exact_quotient(g), exact_divide(f.specialize_params({}), g.specialize_params({}), 101)
    assert (got is None) == (want is None), (f, g)
    if got is not None:
        assert got.specialize_params({}) == want and got * g == f, (f, g)
    return got


def _residue_poly(rng, degree, terms=4):
    """A parameter-free form of ``degree`` in U3 with 1 to ``terms`` terms."""
    out = {}
    for _ in range(rng.randint(1, terms)):
        cuts = sorted(rng.randint(0, degree) for _ in range(2))
        out[cuts[0], cuts[1] - cuts[0], degree - cuts[1]] = rng.randrange(1, 101)
    return SparsePoly.from_residues(U3, out)


def test_exact_quotient_matches_the_long_division_reference():
    """``exact_quotient`` agrees with the dense long division of
    ``tests/oracles.py`` on seeded products (where it returns the
    cofactor) and on non-divisors, and is None for the zero divisor, a
    divisor that exceeds the dividend in one variable (a borrow between
    packed fields), and one of larger total degree."""
    rng = random.Random(22)
    divided = 0
    for _ in range(300):
        a, b = _residue_poly(rng, rng.randint(0, 3)), _residue_poly(rng, rng.randint(0, 3))
        divided += _quotient_agrees(a * b, b) == a
        _quotient_agrees(a * b + _residue_poly(rng, rng.randint(0, 6), 2), b)
        _quotient_agrees(a, b)
    assert divided == 300
    for f, g in [("x0^3*x1", "x0*x1^2"), ("x0*x2^4", "x2^5"), ("x1^2", "x0*x1"), ("x0^2", "x0^3"), ("1", "x2")]:
        assert _quotient_agrees(P(f), P(g)) is None, (f, g)
    assert _quotient_agrees(P("x0^2 + x1"), SparsePoly.zero(U3)) is None
    assert SparsePoly.zero(U3).exact_quotient(P("x0 + x1")).is_zero()
    with pytest.raises(UniverseMismatch):
        P("x0").exact_quotient(SparsePoly.variable(WIDE, "v0"))


def test_specialize_is_the_parameter_free_polynomial():
    """``specialize`` equals the polynomial built from the dense
    ``specialize_params``, uses no parameter, evaluates as the input does
    at the assignment, and is the input itself when no term uses a
    parameter."""
    rng = random.Random(23)
    texts = ["lam^-2*x0 + t*x1^2 + 3", "pi*rho*x2 - x2 + lam^3", "x0*x1 + 5", "lam*x0 - lam*x0"]
    for f in [P(text) for text in texts] + [_random_poly(rng) for _ in range(200)]:
        values = {name: rng.randrange(1, 101) for name in RING.names}
        g = f.specialize(values)
        assert g == SparsePoly.from_residues(U3, f.specialize_params(values))
        assert not any(map(g.uses_param, RING.names)) and g.specialize({}) is g
        point = [rng.randrange(101) for _ in U3.names]
        assert g.eval_point(point) == f.specialize(values).eval_point(point)
        assert (g is f) == (not any(map(f.uses_param, RING.names)))


def test_substitute_of_several_parameters_is_one_name_at_a_time():
    """``substitute`` of two to four parameters at once, on seeded
    polynomials with negative ``lam`` exponents, gives the terms of the
    tuple-keyed reference substituting one name at a time, and the
    polynomial itself when no term uses a name it is given.  A parameter
    degree that leaves its field once lam^-1 is dropped is an
    ``ExponentOverflow``."""
    rng = random.Random(29)
    negative = 0
    for _ in range(300):
        terms = {}
        for _ in range(rng.randint(0, 8)):
            pexps = (rng.randint(0, 2), rng.randint(-3, 3), rng.randint(0, 2), rng.randint(0, 2))
            terms[tuple(rng.randint(0, 3) for _ in U3.names) + pexps] = rng.randrange(1, 101)
            negative += pexps[1] < 0
        f = SparsePoly(U3, terms)
        values = {name: rng.randrange(1, 101) for name in rng.sample(RING.names, rng.randint(2, 4))}
        want = TuplePoly(U3, terms)
        for name, v in values.items():
            want = want.substitute_param(name, v)
        assert f.substitute(values).to_dict() == want.terms, (terms, values)
    assert negative > 100
    for f in [P("pi*x0 + rho^2*x1 + 3"), P("x0*x1"), SparsePoly.zero(U3)]:
        assert f.substitute({"lam": 5, "t": 7}) is f
    f = SparsePoly.param(U3, "pi", 16383) * P("rho*lam^-1")  # parameter degree 16383
    assert f.substitute({"rho": 2}).to_dict() == {(0, 0, 0, 16383, -1, 0, 0): 2}
    with pytest.raises(ExponentOverflow):
        f.substitute({"lam": 3, "t": 7})


def test_eval_point_runs_no_specialize(monkeypatch):
    """``eval_point`` reads the keys of a parameter-free polynomial
    itself: with ``specialize`` patched to fail it still gives the value
    of the terms at the point."""
    rng = random.Random(31)
    fs = [_residue_poly(rng, rng.randint(0, 4)) for _ in range(50)]
    monkeypatch.setattr(SparsePoly, "specialize", lambda f, assignment: pytest.fail("specialize ran"))
    for f in fs:
        point = [rng.randrange(101) for _ in U3.names]
        want = sum(c * point[0] ** e[0] * point[1] ** e[1] * point[2] ** e[2] for e, c in f.to_dict().items())
        assert f.eval_point(point) == want % 101


def test_exact_quotient_of_a_walk_pivot_times_a_linear_form():
    """The pivot z1*...*z77 of the d = 8 witness's end station, in the
    walk's universe, times a linear form in 40 of its variables: each
    factor divides the product exactly, with the other as quotient, and
    neither divides the product plus a monomial of its degree."""
    universe = build_base_state(BaseParams(n=6, m=2, r=62, d=8, p=101)).universe
    rng = random.Random(8)
    pivot = z_product(universe, 77)
    linear = SparsePoly.sum_of(universe, [
        SparsePoly.variable(universe, name).scale(rng.randrange(1, 101)) for name in rng.sample(universe.names, 40)
    ])
    f = pivot * linear
    assert _quotient_agrees(f, pivot) == linear and _quotient_agrees(f, linear) == pivot
    g = f + SparsePoly.variable(universe, "x1", 78)
    assert _quotient_agrees(g, pivot) is None and _quotient_agrees(g, linear) is None


def _fold(universe, polys):
    total = SparsePoly.zero(universe)
    for f in polys:
        total = total + f
    return total


def test_sum_of_is_the_repeated_addition_fold():
    """``SparsePoly.sum_of`` gives the terms, in order, of adding its
    operands one at a time, also when terms cancel and come back, and
    rejects an operand from another universe."""
    rng = random.Random(21)
    for _ in range(300):
        pool = [SparsePoly(U3, {(rng.randrange(3), rng.randrange(3), 0, 0, rng.randrange(-1, 2), 0, 0):
                                rng.randrange(101) for _ in range(rng.randrange(5))})
                for _ in range(3)]
        polys = [rng.choice(pool + [-f for f in pool]) for _ in range(rng.randrange(6))]
        got, want = SparsePoly.sum_of(U3, polys), _fold(U3, polys)
        assert list(got.to_dict().items()) == list(want.to_dict().items())
    a, b = P("x0 + x1"), P("x2 - x0")
    assert list(SparsePoly.sum_of(U3, [a, b, a]).to_dict()) == list((a + b + a).to_dict())
    assert SparsePoly.sum_of(U3, [a, -a]).is_zero()
    with pytest.raises(UniverseMismatch):
        SparsePoly.sum_of(U3, [a, SparsePoly.variable(WIDE, "v0")])


def test_split_lookahead_keeps_every_split_and_span():
    """The tokenizer's leading lookahead changes no match: on texts with
    arbitrary whitespace, '^ -' and stray operators, ``split`` and the
    ``finditer`` spans that place a ``ParseError`` are those of the
    pattern without it."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from conewalk import poly as poly_mod

    old = re.compile(r"\s*(\^\s*-(?=\d)|[-+*^])\s*")
    assert poly_mod._SPLIT.pattern != old.pattern
    piece = st.sampled_from(["x0", "lam", "12", "0", "-", "+", "*", "^", "^ -", "^-", "-3", " ", "\t", "\n",
                             "\u00a0", "  ", "q9", "2x", "**", "++", "^^"])
    text = st.lists(piece, max_size=16).map("".join)

    @hypothesis.settings(max_examples=500, deadline=None, database=None, derandomize=True)
    @hypothesis.given(text | st.text(alphabet=" \t\n^*+-x0123", max_size=24))
    def check(t):
        assert poly_mod._SPLIT.split(t) == old.split(t)
        spans = [(m.span(), m.span(1)) for m in poly_mod._SPLIT.finditer(t)]
        assert spans == [(m.span(), m.span(1)) for m in old.finditer(t)]

    check()


# -- the strict reader of canonical text and the carried text --


def _general(text, universe):
    """The general loop's polynomial of ``text``: a leading space is not
    canonical, so the strict reader leaves the text to the loop."""
    return parse_poly(" " + text, universe)


def _reads_back(f):
    """The canonical text of ``f`` is read by the strict reader into the
    general loop's terms, in its order, and the polynomial carries it:
    ``canonical_string`` returns that very text, which a fresh emission
    (a copy with no text kept) and the dense reference give too."""
    text = f.canonical_string()
    g = parse_poly(text, f.universe)
    assert _parse_canonical(text, f.universe) is not None, text
    assert list(g.terms.items()) == list(_general(text, f.universe).terms.items()), text
    assert g == f and g.canonical_string() is text
    assert SparsePoly(f.universe, f.to_dict()).canonical_string() == canonical_string(f) == text


def test_strict_reader_gives_the_general_loops_terms():
    """On random polynomials with negative ``lam`` exponents, every
    parameter, constants and zero, and over the 320-variable universe."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    small = st.integers(0, 3)
    key = st.tuples(small, small, small, small, st.integers(-3, 3), small, small)
    scalar = st.integers(1, 100)
    narrow = st.dictionaries(key, scalar, max_size=8).map(lambda t: SparsePoly(U3, t))
    constant = st.integers(0, 100).map(lambda c: SparsePoly.constant(U3, c))

    @st.composite
    def wide_term(draw):
        exps = [0] * 320
        for i in draw(st.lists(st.integers(0, 319), max_size=5)):
            exps[i] = draw(st.sampled_from([1, 2, 7, 300]))
        lam = draw(st.sampled_from([-16384, -1, 0, 1, 16383]))
        others = [0, 0, 0] if abs(lam) > 1 else [draw(small) for _ in range(3)]
        return tuple(exps + [others[0], lam] + others[1:])

    wide = st.dictionaries(wide_term(), scalar, max_size=6).map(lambda t: SparsePoly(WIDE, t))

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(narrow | constant | wide)
    def check(f):
        _reads_back(f)

    check()
    _reads_back(SparsePoly.zero(U3))
    _reads_back(P("x0^32767") - P("lam^-16384*pi^16383"))


@pytest.mark.parametrize(
    "text, canonical",
    [
        ("x1*x0", "x0*x1"),
        ("1*x0", "x0"),
        ("x0^1", "x0"),
        ("x0^05", "x0^5"),
        ("007", "7"),
        ("3*1", "3"),
        ("x0 +  x1", "x0 + x1"),
        (" x0", "x0"),
        ("x0 ", "x0"),
        ("x0+x1", "x0 + x1"),
        ("x0 - x1", "x0 + 100*x1"),
        ("x2 - 1", "x2 + 100"),
        ("x1 + x0^2", "x0^2 + x1"),
        ("x0 + x0", "2*x0"),
        ("x0*lam", "lam*x0"),
        ("lam*pi*x0", "pi*lam*x0"),
        ("lam^-0", "1"),
        ("lam^- 2", None),
        ("x0^0", "1"),
        ("101*x0 + x1", "x1"),
        ("0 + x0", "x0"),
        ("x0*x0", "x0^2"),
        ("2*3*x0", "6*x0"),
        ("x0^+2", None),
        ("٣*x0", "3*x0"),
        ("x0^٣", "x0^3"),
    ],
)
def test_non_canonical_text_carries_no_text(text, canonical):
    """A valid text that is not the emitter's is left to the general loop,
    and its polynomial's ``canonical_string`` is the emitter's output."""
    assert _parse_canonical(text, U3) is None
    if canonical is None:  # not valid text either
        with pytest.raises(ParseError):
            parse_poly(text, U3)
        return
    f = parse_poly(text, U3)
    assert f.canonical_string() == canonical == canonical_string(f) != text
    assert _parse_canonical(canonical, U3) == f


@pytest.mark.parametrize(
    "text",
    [
        "x0^-1", "pi^-2", "x0^32768", "lam^-16385", "x0^32767*x1", "pi^16383*rho", "x0 + x9", "x0*",
        "x0 + ", "2*", "x0^", "0*x0", "101", "x0 + + x1",
    ],
)
def test_strict_reader_leaves_every_error_to_the_general_loop(text):
    """Near-canonical texts that do not parse raise the general loop's
    ``ParseError``: its message, at the position it gives the text after
    a leading space, one place earlier."""
    assert _parse_canonical(text, U3) is None
    try:
        want = _general(text, U3)
    except ParseError as ex:
        with pytest.raises(ParseError) as exc:
            parse_poly(text, U3)
        assert exc.value.position == ex.position - 1
        assert str(exc.value).split(" (at")[0] == str(ex).split(" (at")[0]
    else:  # valid, but not canonical
        assert parse_poly(text, U3) == want


def test_strict_reader_keeps_each_power_it_reads_in_the_universe():
    """A text that repeats its factors gives the general loop's terms.  The
    universe's table of factor texts then holds each power read, with its
    name's rank and e times its unit, and nothing else new; a second
    reading in the same universe gives the same terms and carried text."""
    u = VarUniverse(("x0", "x1", "x2"), RING)
    names = dict(u._factors)
    f = P("3*x0^3*x1^2 + x0^3*x1*x2 + x0^2*x1^2*x2 - x0^2*x2^3 + lam^-2*x0^3*x1^2 + lam^-2*x1^2*x2^3 + lam^2*x2^3")
    text = f.canonical_string()
    assert text == (
        "3*x0^3*x1^2 + lam^-2*x0^3*x1^2 + x0^3*x1*x2 + x0^2*x1^2*x2 + 100*x0^2*x2^3"
        " + lam^-2*x1^2*x2^3 + lam^2*x2^3"
    )
    for _ in range(2):
        g = parse_poly(text, u)
        assert g.canonical_string() is text
        assert list(g.terms.items()) == list(_general(text, u).terms.items())
    powers = {k: v for k, v in u._factors.items() if k not in names}
    assert set(powers) == {"lam^-2", "lam^2", "x0^2", "x0^3", "x1^2", "x2^3"}
    for power, (rank, step) in powers.items():
        name, e = power.split("^")
        assert (rank, step) == (names[name][0], int(e) * names[name][1])
    assert u._factors.keys() - powers.keys() == names.keys()


@pytest.mark.parametrize("text, factor", [
    ("x0^1*x1", "x0^1"), ("x0^01*x1", "x0^01"), ("pi^-1*x0", "pi^-1"), ("x0^-2", "x0^-2"),
    ("x0^2*x1^1", "x1^1"), ("x0^32768", "x0^32768"), ("x0^+2", "x0^+2"),
])
def test_a_refused_factor_text_is_refused_again(text, factor):
    """A factor text the strict reader refuses never enters the table, so
    its second appearance in the same universe is refused as the first
    was, and the general loop reads or refuses it as before."""
    def outcome(universe):
        try:
            return parse_poly(text, universe).to_dict()
        except ParseError as ex:
            return ex.position

    u = VarUniverse(("x0", "x1", "x2"), RING)
    for _ in range(2):
        assert _parse_canonical(text, u) is None
        assert factor not in u._factors
        assert outcome(u) == outcome(U3)


def test_a_one_term_power_is_repeated_multiplication():
    """A one-term power, one key computed at once, gives the terms of
    repeated multiplication on random monomials with negative ``lam``
    exponents, and raises ``ExponentOverflow`` exactly where it does."""
    rng = random.Random(41)
    overflowed = 0
    for _ in range(400):
        exps = [rng.choice([0, 1, 2, 5, 700, 9000]) for _ in range(3)]
        pexps = [rng.choice([0, 1, 3, 2000, 5000]), rng.choice([-3000, -5, -1, 0, 1, 4000]),
                 rng.choice([0, 2, 6000]), rng.choice([0, 1])]
        if sum(exps) >= 32768 or sum(pexps) >= 16384:
            continue
        f = SparsePoly(U3, {tuple(exps + pexps): rng.randrange(1, 101)})
        k = rng.choice([0, 1, 2, 3, 4, 7, 11])
        try:
            want = functools.reduce(operator.mul, [f] * k, SparsePoly.constant(U3, 1))
        except ExponentOverflow:
            overflowed += 1
            with pytest.raises(ExponentOverflow):
                f ** k
            continue
        assert (f ** k).to_dict() == want.to_dict(), (exps, pexps, k)
    assert overflowed > 50
    assert V("x0", 16383) ** 2 == V("x0", 32766)
    with pytest.raises(ExponentOverflow):
        V("x0", 16384) ** 2
    assert (SparsePoly.param(U3, "lam", -1) ** 16384).to_dict() == {(0, 0, 0, 0, -16384, 0, 0): 1}
    with pytest.raises(ExponentOverflow):
        SparsePoly.param(U3, "lam", -1) ** 16385
    assert (P("3*x0*lam^-2") ** 5).canonical_string() == "41*lam^-10*x0^5"  # 3^5 = 243 = 41 mod 101
