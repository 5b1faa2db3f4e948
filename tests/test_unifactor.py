"""Univariate factorization against an exhaustive trial-division oracle."""

import random
import time
from itertools import product

import pytest

from conewalk import unifactor as uni
from conewalk.errors import FactorizationFailure
from oracles import ExtField, PrimeField, extension_field, ref_uni


def trial_division_factor(p, f):
    """Divide by monic irreducibles in lexicographic order; the oracle.

    Irreducibility of candidates is itself decided by exhaustive trial
    division, so nothing here shares code with the main path.
    """
    f = list(f)
    lc = f[-1]
    f = uni.monic(p, f)
    out = {}

    def monics(d):
        for tail in product(range(p), repeat=d):
            yield list(tail) + [1]

    def is_irred(g):
        d = uni.deg(g)
        if d == 1:
            return True
        for k in range(1, d // 2 + 1):
            for h in monics(k):
                if not uni.divmod_poly(p, g, h)[1]:
                    return False
        return True

    d = 1
    while uni.deg(f) > 0:
        found = False
        for g in monics(d):
            if uni.deg(g) > uni.deg(f):
                break
            if not is_irred(g):
                continue
            while True:
                q, r = uni.divmod_poly(p, f, g)
                if r:
                    break
                f = q
                out[tuple(g)] = out.get(tuple(g), 0) + 1
                found = True
            if uni.deg(f) == 0:
                break
        if not found:
            d += 1
        if d > 8:
            raise AssertionError("oracle runaway")
    factors = [(list(k), m) for k, m in sorted(out.items(), key=lambda kv: (len(kv[0]), kv[0]))]
    return lc, factors


def remultiply(field, lc, factors, kernels=uni):
    """lc * prod g^m by ``kernels.mul``: ``field`` is p for the package's
    kernels, a field object for the field-protocol reference."""
    out = [lc]
    for g, m in factors:
        for _ in range(m):
            out = kernels.mul(field, out, g)
    return out


def test_examples_gf7():
    rng = random.Random(0)
    lc, fs = uni.factor(7, [6, 0, 1], rng)  # x^2 - 1
    assert lc == 1
    assert sorted(tuple(g) for g, _ in fs) == [(1, 1), (6, 1)]
    assert uni.is_irreducible(7, [1, 0, 1])  # x^2 + 1, -1 a non-residue mod 7


def test_example_cube_gf5():
    lc, fs = uni.factor(5, [0, 0, 0, 1], random.Random(0))
    assert lc == 1 and fs == [([0, 1], 3)]


def test_pth_power_branch():
    # x^5 = (x)^5; the derivative vanishes identically
    assert uni.squarefree_decomposition(5, [0] * 5 + [1]) == [([0, 1], 5)]
    # (x^2+1)^5 likewise
    sq = [1, 0, 1]
    f = [1]
    for _ in range(5):
        f = uni.mul(5, f, sq)
    assert uni.squarefree_decomposition(5, f) == [([1, 0, 1], 5)]


@pytest.mark.parametrize("p", [5, 7])
def test_exhaustive_monics_small(p):
    """Degrees <= 3 exhaustively (the degree-4 sweep runs in acceptance)."""
    rng = random.Random(1)
    for d in range(1, 4):
        for tail in product(range(p), repeat=d):
            f = list(tail) + [1]
            lc, fs = uni.factor(p, f, rng)
            assert remultiply(p, lc, fs) == f
            assert fs == trial_division_factor(p, f)[1]


def test_random_nonmonic_remultiplies():
    rng = random.Random(2)
    for _ in range(80):
        f = [rng.randrange(101) for _ in range(rng.randint(1, 7))] + [rng.randrange(1, 101)]
        lc, fs = uni.factor(101, f, rng)
        assert remultiply(101, lc, fs) == f
        for g, _ in fs:
            assert g[-1] == 1
            assert uni.is_irreducible(101, g)


def test_extension_field_arithmetic():
    rng = random.Random(3)
    F = extension_field(7, 2, rng)
    assert isinstance(F, ExtField)
    assert F.q == 49
    # field axioms on random elements
    for _ in range(100):
        a, b = F.random(rng), F.random(rng)
        assert F.mul(a, b) == F.mul(b, a)
        if not F.is_zero(a):
            assert F.mul(a, F.inv(a)) == F.one
    # x^2 + 1 over GF(7) splits over GF(49)
    f = [F.one, F.zero, F.one]
    lc, fs = ref_uni.factor(F, f, rng)
    assert len(fs) == 2


def test_factor_over_extension_remultiplies():
    rng = random.Random(4)
    F = extension_field(5, 3, rng)
    for _ in range(20):
        f = [F.random(rng) for _ in range(rng.randint(1, 5))] + [F.one]
        f = ref_uni.normalize(F, f)
        if ref_uni.deg(f) < 1:
            continue
        lc, fs = ref_uni.factor(F, f, rng)
        assert remultiply(F, lc, fs, ref_uni) == f


def test_char_power_multiplicities():
    """Multiplicities divisible by the characteristic route through the
    p-th-root branch; constructed products must factor back exactly."""
    rng = random.Random(1)

    def build(*factors_mults):
        f = [1]
        for g, m in factors_mults:
            for _ in range(m):
                f = uni.mul(5, f, g)
        return f

    cases = [
        [([1, 1], 5), ([2, 1], 1)],
        [([1, 1], 5), ([2, 1], 2)],
        [([2, 0, 1], 5), ([1, 1], 3)],
        [([1, 1], 10)],
        [([1, 1], 25)],
        [([3, 1], 6), ([2, 0, 1], 5)],
    ]
    for case in cases:
        f = build(*case)
        lc, fs = uni.factor(5, f, rng)
        assert sorted((tuple(g), m) for g, m in fs) == sorted(
            (tuple(g), m) for g, m in case
        )
        assert remultiply(5, lc, fs) == f


AGREEMENT_PRIMES = (2, 3, 5, 7, 101, 103)


def _random_poly(rng, p, d):
    """A seeded polynomial of degree exactly d over GF(p)."""
    return [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]


def _product_with_char_multiplicity(rng, p, max_deg=12):
    """lc * g^(k*p) * h for random monic g, h, with the largest multiple
    k*p of p that fits in degree max_deg (g linear); a random polynomial
    of degree up to max_deg when no multiple of p fits."""
    F = PrimeField(p)
    if p > max_deg - 1:
        return _random_poly(rng, p, rng.randint(0, max_deg))
    k = rng.randint(1, (max_deg - 1) // p)
    f, g = [rng.randrange(1, p)], [rng.randrange(p), 1]
    for _ in range(k * p):
        f = ref_uni.mul(F, f, g)
    rest = rng.randint(0, max_deg - k * p)
    return ref_uni.mul(F, f, _random_poly(rng, p, rest)[:-1] + [1])


@pytest.mark.parametrize("p", AGREEMENT_PRIMES)
def test_int_kernels_agree_with_the_field_protocol_reference(p):
    """Seeded polynomials of degree up to 12 over GF(p), among them
    products with a multiplicity divisible by p (which take the p-th
    root branch): the int kernels return what the field-protocol
    reference returns (``is_irreducible`` too), and ``factor`` and the
    search for a GF(p^k) modulus draw the same random numbers."""
    F = PrimeField(p)
    rng = random.Random(1600 + p)
    char_multiplicities = 0
    for case in range(40):
        f = _product_with_char_multiplicity(rng, p) if case % 2 else _random_poly(rng, p, rng.randint(0, 12))
        g = _random_poly(rng, p, rng.randint(0, 12))
        m = _random_poly(rng, p, rng.randint(1, 8))
        e = rng.randrange(3 * p * p)
        for name, args in (
            ("mul", (f, g)), ("sub", (f, g)), ("derivative", (f,)), ("eval_at", (f, rng.randrange(p))),
            ("divmod_poly", (f, g)), ("gcd", (f, g)), ("ext_gcd", (f, g)), ("pow_mod", (f, e, m)),
        ):
            assert getattr(uni, name)(p, *args) == getattr(ref_uni, name)(F, *args), (p, name, args)
        monic = m[:-1] + [1]
        assert uni.is_irreducible(p, monic) == ref_uni.is_irreducible(F, monic), (p, monic)
        r_int, r_ref = random.Random(case), random.Random(case)
        got = uni.factor(p, f, r_int)
        assert got == ref_uni.factor(F, f, r_ref), (p, f)
        assert r_int.getstate() == r_ref.getstate(), (p, f)
        char_multiplicities += any(mult % p == 0 for _, mult in got[1])
        if case < 4:
            k = case + 1
            r_int, r_ref = random.Random(case), random.Random(case)
            assert uni.extension_field(p, k, r_int) == ref_uni.find_irreducible(F, k, r_ref), (p, k)
            assert r_int.getstate() == r_ref.getstate(), (p, k)
    assert char_multiplicities >= (10 if p <= 7 else 0), char_multiplicities


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 101, 103))
def test_factor_agrees_with_sympy(p):
    """An independent oracle: ``uni.factor`` against sympy's factorization
    over GF(p), on seeded polynomials of degree 1..12 and products with
    repeated factors."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(2600 + p)
    for case in range(30):
        f = _product_with_char_multiplicity(rng, p) if case % 3 == 0 else _random_poly(rng, p, rng.randint(1, 12))
        if len(f) < 2:
            continue
        lc, fs = uni.factor(p, f, rng)
        want_lc, want_fs = sympy.Poly(list(reversed(f)), x, modulus=p).factor_list()
        want = sorted(([int(c) % p for c in reversed(g.all_coeffs())], mult) for g, mult in want_fs)
        assert lc == int(want_lc) % p, (p, f)
        assert sorted(fs) == want, (p, f)


@pytest.mark.parametrize("p", (2, 3, 101, 4093))
def test_packed_pow_mod_matches_the_reference(p):
    """Seeded moduli of degree 1..63 over GF(p), monic or not: packed
    ``pow_mod`` returns what the reference's list square-and-multiply
    returns, at e = 0, 1, p, p^k and (p^d - 1)/2 (the exponents of the
    distinct- and equal-degree stages), and on a zero base."""
    F = PrimeField(p)
    rng = random.Random(3100 + p)
    degrees = sorted({1, 2, 63} | set(rng.sample(range(3, 63), 6)))
    for n in degrees:
        m = _random_poly(rng, p, n)
        if n % 2:
            m = uni.monic(p, m)
        f = _random_poly(rng, p, rng.randint(0, 2 * n))
        for e in (0, 1, p, p ** rng.randint(2, 4), (p ** rng.randint(1, 3) - 1) // 2):
            assert uni.pow_mod(p, f, e, m) == ref_uni.pow_mod(F, f, e, m), (p, n, e)
            assert uni.pow_mod(p, [], e, m) == ref_uni.pow_mod(F, [], e, m), (p, n, e)


def test_pow_mod_refuses_a_prime_too_large_for_packed_slots():
    """At p = 4294967311 no 8-byte slot holds n^2 (p-1)^3, even at n = 1:
    ``pow_mod`` raises a typed error naming p and deg m before it packs
    anything."""
    p = 4294967311
    start = time.perf_counter()
    with pytest.raises(FactorizationFailure, match="p=4294967311 .* degree 3"):
        uni.pow_mod(p, [0, 1], p, [5, 0, 2, 1])
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("p", (3, 101))
def test_distinct_degree_packs_each_modulus_once(p, monkeypatch):
    """``distinct_degree`` builds the packed rows of its modulus once, and
    again only after a factor splits off, and gives the reference's
    factors; an irreducible modulus is packed once in all."""
    F = PrimeField(p)
    rng = random.Random(3300 + p)
    built = []
    rows = uni.modulus_rows
    monkeypatch.setattr(uni, "modulus_rows", lambda p, m: built.append(m) or rows(p, m))
    for _ in range(40):
        f = uni.monic(p, _random_poly(rng, p, rng.randint(2, 12)))
        if uni.deg(uni.gcd(p, f, uni.derivative(p, f))) > 0:
            continue
        built.clear()
        got = uni.distinct_degree(p, f)
        assert got == ref_uni.distinct_degree(F, f), (p, f)
        # one modulus per factor split off, while some degree is left to test
        assert len(built) == len({tuple(m) for m in built}) <= len(got), (p, f)
    irreducible = uni.find_irreducible(p, 9, rng)
    built.clear()
    assert uni.distinct_degree(p, irreducible) == [(irreducible, 9)] and len(built) == 1
