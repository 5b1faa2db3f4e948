"""Coefficient ring: GF(p) inverses, and Laurent parameter arithmetic on
parameter-only polynomials."""

import random

import pytest

from conewalk.coeffs import ParamCoeff, ParamRing, ff_inv_int
from conewalk.errors import InvertibleAssignedZero, ModulusMismatch, UnassignedParameter, ZeroInverse
from conewalk.poly import SparsePoly, VarUniverse
from oracles import to_dict

RING = ParamRing(101)
RING7 = ParamRing(7)
# no variables: every polynomial is a parameter-only value
U0 = VarUniverse((), RING)
U07 = VarUniverse((), RING7)


def par(universe, name, exp=1):
    return SparsePoly.param(universe, name, exp)


def one(universe):
    return SparsePoly.constant(universe, 1)


def value(f, assignment):
    """f at a total parameter assignment, an int in [0, p)."""
    return f.specialize_params(assignment).get((), 0)


def test_ff_inv_identity():
    assert ff_inv_int(1, 101) == 1


def test_ff_inv_two_mod_101():
    # extended Euclid oracle: 2 * 51 = 102 = 1 (mod 101)
    assert ff_inv_int(2, 101) == 51
    assert 2 * ff_inv_int(2, 101) % 101 == 1


def test_ff_inv_zero_raises():
    with pytest.raises(ZeroInverse):
        ff_inv_int(0, 7)


def test_ff_inv_involution():
    for a in range(1, 101):
        assert ff_inv_int(ff_inv_int(a, 101), 101) == a


def test_ff_inv_oracle_against_exhaustive():
    # brute-force inverse table over GF(7)
    for a in range(1, 7):
        expected = next(b for b in range(1, 7) if a * b % 7 == 1)
        assert ff_inv_int(a, 7) == expected


def test_laurent_cancellation():
    lam_inv = par(U0, "lam", -1)
    lam = par(U0, "lam", 1)
    assert lam_inv * lam == one(U0)


def test_additive_inverse_closes():
    pi = par(U07, "pi")
    # (pi + 1) + (p-1)*pi = 1
    assert (pi + one(U07)) + pi.scale(6) == one(U07)


def test_negative_laurent_square():
    # (-lam^-1)^2 = lam^-2
    neg = -par(U0, "lam", -1)
    assert neg * neg == par(U0, "lam", -2)


def test_negative_exponent_rejected_for_non_invertible():
    with pytest.raises(ValueError):
        par(U0, "pi", -1)


def test_specialize_laurent_inverse():
    lam_inv = par(U0, "lam", -1)
    assert value(lam_inv, {"lam": 2}) == 51


def test_specialize_affine():
    pi = par(U07, "pi")
    assert value(pi + one(U07), {"pi": 0}) == 1


def test_specialize_invertible_zero_raises():
    lam_inv = par(U0, "lam", -1)
    with pytest.raises(InvertibleAssignedZero):
        value(lam_inv, {"lam": 0})
    # even the non-inverted occurrence is rejected: lam is flagged
    lam = par(U0, "lam", 1)
    with pytest.raises(InvertibleAssignedZero):
        value(lam, {"lam": 0})


def test_specialize_unassigned_raises():
    pi = par(U0, "pi")
    with pytest.raises(UnassignedParameter):
        value(pi, {})


def test_modulus_mismatch():
    # a coefficient literal over another ring is refused by the constructor
    with pytest.raises(ModulusMismatch):
        SparsePoly(U0, {(): ParamCoeff.from_int(RING7, 1)})


def _random_coeff(rng, ring):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exps = [0] * ring.nparams
        for i, name in enumerate(ring.names):
            lo = -2 if name in ring.invertible else 0
            exps[i] = rng.randint(lo, 2)
        terms[tuple(exps)] = rng.randrange(ring.p)
    return SparsePoly(VarUniverse((), ring), terms)


def test_ring_axioms_randomized():
    rng = random.Random(20240)
    for _ in range(200):
        a, b, c = (_random_coeff(rng, RING) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_specialize_is_ring_homomorphism():
    rng = random.Random(99)
    for _ in range(100):
        a, b = _random_coeff(rng, RING), _random_coeff(rng, RING)
        assignment = {name: rng.randrange(1, 101) for name in RING.names}
        sa, sb = value(a, assignment), value(b, assignment)
        assert value(a * b, assignment) == sa * sb % 101
        assert value(a + b, assignment) == (sa + sb) % 101


def test_derivative_of_laurent_term():
    # d/dlam lam^-1 = -lam^-2
    lam_inv = par(U0, "lam", -1)
    assert lam_inv.param_derivative("lam") == par(U0, "lam", -2).scale(-1)


def test_no_zero_terms_stored():
    c = SparsePoly(U0, {RING.zero_exps(): 101})
    assert c.is_zero()
    assert to_dict(c) == {}
    assert to_dict(SparsePoly(U0, {(): ParamCoeff(RING, {RING.zero_exps(): 101})})) == {}


def test_caller_flagged_invertible_parameter():
    ring = ParamRing(101, invertible=frozenset({"lam", "rho"}))
    u = VarUniverse((), ring)
    rho_inv = par(u, "rho", -1)
    assert value(rho_inv, {"rho": 2}) == 51
    with pytest.raises(InvertibleAssignedZero):
        value(rho_inv, {"rho": 0})
    # pi stays non-invertible
    with pytest.raises(ValueError):
        par(u, "pi", -1)
