"""Bivariate machinery: gcd, Hensel factorization, absolute irreducibility."""

import random
import time
from collections import Counter

import pytest

from conewalk import bifactor as bi
from conewalk import unifactor as uni
from conewalk.errors import ConewalkError, FactorizationFailure, FactorsNotCoprime
from oracles import (
    PrimeField,
    hensel_pair_quadratic,
    ref_bi,
    reference_absolutely_irreducible,
    smooth_point_at_infinity_by_forms,
    smooth_rational_point_generic,
)

# the kernels take p; factor_bivariate alone takes a field handle
F101 = PrimeField(101)
F7 = PrimeField(7)


def rand_biv(p, rng, dmax=3, terms=5):
    d = {}
    for _ in range(rng.randint(1, terms)):
        d[(rng.randint(0, dmax), rng.randint(0, dmax))] = rng.randrange(p)
    return bi.from_dict(p, d)


def test_gcd_of_multiples():
    rng = random.Random(10)
    for _ in range(40):
        g = rand_biv(101, rng, dmax=2, terms=3)
        if bi.is_vzero(g):
            continue
        a = bi.vmul(101, g, rand_biv(101, rng, dmax=1, terms=2))
        b = bi.vmul(101, g, rand_biv(101, rng, dmax=1, terms=2))
        if bi.is_vzero(a) or bi.is_vzero(b):
            continue
        got = bi.biv_gcd(101, a, b)
        # g divides the gcd of its multiples
        assert bi.vdivexact(101, got, bi.primitive_part(101, g)) is not None
        # and the gcd divides both inputs
        for h in (a, b):
            q = bi.vdivexact(101, h, got)
            assert q is not None


@pytest.mark.parametrize("F", [PrimeField(5), F101])
def test_vdivexact_with_a_non_unit_lead(F):
    """g has a leading v-coefficient that depends on u: g*q gives back q,
    and g*q + r gives None for r != 0 below deg_v g (no multiple of g is
    that small) or r = v^deg_v(g*q) (the top column is then not divisible
    by lc_v(g))."""
    p, rng = F.p, random.Random(F.p)
    checked = 0
    while checked < 60:
        g = rand_biv(p, rng, dmax=3, terms=5)
        if bi.deg_v(g) < 1 or uni.deg(g[-1]) < 1:
            continue
        q = rand_biv(p, rng, dmax=3, terms=5)
        f = bi.vmul(p, g, q)
        assert bi.vdivexact(p, f, g) == q
        low = bi.vnormalize(p, rand_biv(p, rng, dmax=3, terms=5)[: bi.deg_v(g)])
        if low:
            assert bi.vdivexact(p, ref_bi.vadd(F, f, low), g) is None
        top = [[] for _ in range(bi.deg_v(f))] + [[1]]
        assert bi.vdivexact(p, ref_bi.vadd(F, f, top), g) is None
        checked += 1


def test_factor_remultiplies_randomized():
    rng = random.Random(11)
    for _ in range(50):
        f = rand_biv(101, rng, dmax=3, terms=6)
        if bi.is_vzero(f) or bi.total_degree(f) == 0:
            continue
        unit, fs = bi.factor_bivariate(F101, f, rng)
        prod = [[unit]]
        for g, m in fs:
            for _ in range(m):
                prod = bi.vmul(101, prod, g)
        assert bi.to_dict(prod) == bi.to_dict(f)


def test_factor_of_known_product():
    rng = random.Random(12)
    # (u + v)(u - v)(u*v + 1)
    a = bi.from_dict(101, {(1, 0): 1, (0, 1): 1})
    b = bi.from_dict(101, {(1, 0): 1, (0, 1): 100})
    c = bi.from_dict(101, {(1, 1): 1, (0, 0): 1})
    f = bi.vmul(101, bi.vmul(101, a, b), c)
    _, fs = bi.factor_bivariate(F101, f, rng)
    assert sorted(bi.total_degree(g) for g, _ in fs) == [1, 1, 2]


def test_repeated_factor_multiplicity():
    rng = random.Random(13)
    a = bi.from_dict(101, {(1, 0): 1, (0, 1): 3, (0, 0): 2})
    f = bi.vmul(101, bi.vmul(101, a, a), bi.from_dict(101, {(0, 1): 1, (0, 0): 7}))
    _, fs = bi.factor_bivariate(F101, f, rng)
    assert sorted(m for _, m in fs) == [1, 2]


def test_factor_order_does_not_depend_on_the_seed():
    """(v + 3u + 1)(v + 5u + 2) has two factors of equal degree and
    support; they are ordered by their coefficients, so every seed gives
    the same list (and the oracle the same witness)."""
    f = bi.vmul(101, bi.from_dict(101, {(0, 1): 1, (1, 0): 3, (0, 0): 1}),
                bi.from_dict(101, {(0, 1): 1, (1, 0): 5, (0, 0): 2}))
    lists = {repr(bi.factor_bivariate(F101, f, random.Random(seed))) for seed in range(40)}
    assert len(lists) == 1, lists


def test_no_v_regular_position_is_a_typed_error():
    """Every theta in GF(5) kills the top form of u^5*v - u*v^5, so no
    shear reaches v-regular position: a ``ConewalkError``, which the CLI
    reports in one line."""
    f = bi.from_dict(5, {(5, 1): 1, (1, 5): -1 % 5})
    with pytest.raises(FactorizationFailure, match="v-regular"):
        bi.regularize(5, f, random.Random(0))
    assert issubclass(FactorizationFailure, ConewalkError)


@pytest.mark.parametrize("seed", range(5))
def test_multiplicity_divisible_by_p_is_refused(seed):
    """(u+2)^6 (v+1)^2 over GF(3): the v-derivative of (u+2)^6 vanishes,
    so the squarefree split cannot separate it, and says so instead of
    dropping it (the re-multiplication check would name the wrong cause)."""
    f = [[1, 0, 0, 1, 0, 0, 1], [2, 0, 0, 2, 0, 0, 2], [1, 0, 0, 1, 0, 0, 1]]
    with pytest.raises(FactorizationFailure, match="characteristic too small for squarefree split"):
        bi.factor_bivariate(PrimeField(3), f, random.Random(seed))


def test_expansion_point_search_tries_every_point_it_needs():
    """f is squarefree over GF(7) and u = 5 is its only good expansion
    point: the search stops only after min(p, n(n-1) + 1) distinct points,
    so every seed finds it, and the factors re-multiply to f."""
    f = [[3, 4, 0, 5], [0, 3, 1], [5, 2], [1]]
    assert bi.squarefree_at_a_point(7, f)
    for seed in range(500):
        unit, factors = bi.factor_bivariate(F7, f, random.Random(seed))
        prod = [[unit]]
        for g, m in factors:
            for _ in range(m):
                prod = bi.vmul(7, prod, g)
        assert prod == f, seed


def test_pde_counts_against_extension_method():
    """The differential-equation factor count must agree with the
    extension-field splitting method wherever both run."""
    rng = random.Random(14)
    checked = 0
    for _ in range(60):
        f = rand_biv(7, rng, dmax=2, terms=4)
        if bi.is_vzero(f) or bi.total_degree(f) < 1:
            continue
        if bi.deg_u(f) < 1 or bi.deg_v(f) < 1:
            continue
        # need squarefree with no factor free of u (gcd(f, f_u) = 1)
        fu = bi.derivative_u(7, f)
        if bi.is_vzero(fu):
            continue
        g = bi.biv_gcd(7, f, fu)
        if bi.deg_u(g) > 0 or bi.deg_v(g) > 0:
            continue
        count = bi.count_absolute_factors_pde(7, f)
        if count is None:
            continue
        ok_fast, _ = bi.is_absolutely_irreducible(7, f, rng)
        ok_slow = reference_absolutely_irreducible(7, f, rng)
        assert ok_fast == ok_slow == (count == 1), bi.to_dict(f)
        checked += 1
    assert checked >= 20


def test_sum_of_squares_splits_absolutely():
    # u^2 + v^2 over GF(7): rationally irreducible, splits over GF(49)
    f = bi.from_dict(7, {(2, 0): 1, (0, 2): 1})
    assert bi.count_absolute_factors_pde(7, f) == 2
    ok, witness = bi.is_absolutely_irreducible(7, f, random.Random(1))
    assert not ok and witness is None
    assert not reference_absolutely_irreducible(7, f, random.Random(1))


def test_rational_split_over_small_field():
    # u^2 + v^2 = (u + 2v)(u + 3v) over GF(5)
    f = bi.from_dict(5, {(2, 0): 1, (0, 2): 1})
    ok, witness = bi.is_absolutely_irreducible(5, f, random.Random(2))
    assert not ok and witness is not None
    q = bi.vdivexact(5, f, witness)
    assert q is not None


def test_smooth_conic_is_absolutely_irreducible():
    f = bi.from_dict(101, {(2, 0): 1, (0, 2): 1, (0, 0): 1})
    ok, _ = bi.is_absolutely_irreducible(101, f, random.Random(3))
    assert ok
    assert reference_absolutely_irreducible(101, f, random.Random(3))


def test_hensel_pair_reconstructs():
    rng = random.Random(15)
    # f = (v - u)(v^2 + u*v + 3) as a v-monic cubic
    g = bi.from_dict(101, {(0, 1): 1, (1, 0): 100})
    h = bi.from_dict(101, {(0, 2): 1, (1, 1): 1, (0, 0): 3})
    f = bi.vmul(101, g, h)
    g0 = bi.eval_u(101, g, 0)
    h0 = bi.eval_u(101, h, 0)
    G, H = bi.hensel_pair(101, f, g0, h0, T=5)
    assert bi.to_dict(bi.vmul(101, G, H, trunc=5)) == bi.to_dict(bi.vtrunc(f, 5))
    assert bi.to_dict(G) == bi.to_dict(g)


def test_pde_count_on_constructed_products_gf101():
    """Products of k absolutely irreducible factors of degree up to 4
    have count exactly k, up to the pipeline's total degree 7."""
    rng = random.Random(424)

    def rand_irred(deg):
        while True:
            d = {}
            for i in range(deg + 1):
                for j in range(deg + 1 - i):
                    d[(i, j)] = rng.randrange(101)
            f = bi.from_dict(101, d)
            if bi.total_degree(f) != deg:
                continue
            if bi.count_absolute_factors_pde(101, f) == 1:
                return f

    partitions = [
        (1,), (2, 1), (2, 2), (3, 1), (4,), (3, 2), (4, 2), (2, 2, 2),
        (4, 3), (4, 2, 1), (3, 3, 1), (3, 2, 2), (2, 2, 2, 1), (4, 1, 1, 1),
    ]
    checked = 0
    for degs in partitions:
        f = [[1]]
        for deg in degs:
            f = bi.vmul(101, f, rand_irred(deg))
        gcd_sf = bi.biv_gcd(101, f, bi.derivative_v(101, f))
        if bi.deg_u(gcd_sf) > 0 or bi.deg_v(gcd_sf) > 0:
            continue
        assert bi.total_degree(f) == sum(degs)
        assert bi.count_absolute_factors_pde(101, f) == len(degs), degs
        checked += 1
    assert checked >= len(partitions) - 2


def test_rank_mod_p_matches_sympy():
    """The sparse echelon rank agrees with sympy's GF(p) rank, also on
    rank-deficient products of thin matrices."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(2024)
    checked = 0
    for p in (5, 7, 101):
        K = sympy.GF(p)
        for t in range(110):
            rows, cols = rng.randint(1, 12), rng.randint(1, 12)
            if t % 3 == 0:
                k = rng.randint(1, min(rows, cols))
                A = [[rng.randrange(p) for _ in range(k)] for _ in range(rows)]
                B = [[rng.randrange(p) for _ in range(cols)] for _ in range(k)]
                M = [[sum(A[i][l] * B[l][j] for l in range(k)) % p for j in range(cols)]
                     for i in range(rows)]
            else:
                density = rng.random()
                M = [[rng.randrange(p) if rng.random() < density else 0 for _ in range(cols)]
                     for _ in range(rows)]
            want = DomainMatrix.from_list(M, K).rank()
            # unreduced representatives, explicit zeros and sparse row keys
            columns = [
                {7 * i + 3: M[i][j] + p * rng.randint(-2, 2) for i in range(rows)}
                for j in range(cols)
            ]
            assert bi.rank_mod_p(columns, p) == want, (p, M)
            assert bi.rank_mod_p([dict(enumerate(row)) for row in M], p) == want, (p, M)
            checked += 1
    assert checked >= 300


def test_hensel_pair_rejects_common_factor():
    # g0 = v - 1 and h0 = (v - 1)(v - 2) share the factor v - 1
    g0 = [100, 1]
    h0 = uni.mul(101, g0, [99, 1])
    f = bi.from_dict(101, {(0, j): c for j, c in enumerate(uni.mul(101, g0, h0))})
    with pytest.raises(FactorsNotCoprime):
        bi.hensel_pair(101, f, g0, h0, T=3)


def test_norm_forms_split_with_witness_iff_square():
    """u^2 - g v^2 always has two absolute factors; a rational witness
    exists exactly when g is a square mod p."""
    rng = random.Random(77)
    squares = {x * x % 101 for x in range(1, 101)}
    for g in (2, 3, 5, 7, 11):
        f = bi.from_dict(101, {(2, 0): 1, (0, 2): -g % 101})
        assert bi.count_absolute_factors_pde(101, f) == 2
        ok, wit = bi.is_absolutely_irreducible(101, f, rng)
        assert not ok
        assert (wit is not None) == (g in squares), g


def test_fast_and_extension_paths_agree_at_pipeline_degrees():
    """Random squarefree bivariates of total degree 3..5 over GF(101):
    the differential count and GF(p^l) splitting must always agree."""
    rng = random.Random(11)
    checked = 0
    while checked < 10:
        deg = rng.randint(3, 5)
        d = {}
        for i in range(deg + 1):
            for j in range(deg + 1 - i):
                d[(i, j)] = rng.randrange(101)
        f = bi.from_dict(101, d)
        if bi.total_degree(f) != deg:
            continue
        gcd_sf = bi.biv_gcd(101, f, bi.derivative_v(101, f))
        if bi.deg_u(gcd_sf) > 0 or bi.deg_v(gcd_sf) > 0:
            continue
        fast, _ = bi.is_absolutely_irreducible(101, f, rng)
        slow = reference_absolutely_irreducible(101, f, rng)
        assert fast == slow, bi.to_dict(f)
        checked += 1


def rand_of_degree(p, rng, deg, dense):
    """A random bivariate of total degree exactly deg: every monomial, or
    a few of them plus one of top degree."""
    mons = [(i, j) for i in range(deg + 1) for j in range(deg + 1 - i)]
    while True:
        picked = mons
        if not dense:
            a = rng.randint(0, deg)
            picked = rng.sample(mons, min(len(mons), rng.randint(2, 4))) + [(a, deg - a)]
        f = bi.from_dict(p, {mon: rng.randrange(p) for mon in picked})
        if bi.total_degree(f) == deg:
            return f


def is_squarefree(p, f):
    g = bi.biv_gcd(p, f, bi.derivative_v(p, f))
    return bi.deg_u(g) <= 0 and bi.deg_v(g) <= 0


def test_decision_against_extension_reference():
    """Dense and sparse random bivariates and products over GF(7), GF(11),
    GF(31), GF(101) up to degree 7: True always agrees with the GF(p^l)
    reference, and an absolutely irreducible f is answered False (an
    under-claim: no smooth rational point) only where the PDE count does
    not apply."""
    cases = {2: 12, 3: 12, 4: 9, 5: 4, 6: 3, 7: 2}
    rng = random.Random(303)
    checked = under = 0
    for p in (7, 11, 31, 101):
        for deg in range(2, min(7, p - 1) + 1):
            for k in range(cases[deg]):
                if k % 3 == 2:
                    a = rng.randint(1, deg - 1)
                    f = bi.vmul(p, rand_of_degree(p, rng, a, rng.random() < 0.5),
                                rand_of_degree(p, rng, deg - a, rng.random() < 0.5))
                else:
                    f = rand_of_degree(p, rng, deg, k % 3 == 0)
                if not is_squarefree(p, f):
                    continue
                ok, _ = bi.is_absolutely_irreducible(p, f, rng)
                want = reference_absolutely_irreducible(p, f, rng)
                assert want or not ok, (p, bi.to_dict(f))
                if want and not ok:
                    assert bi.count_absolute_factors_pde(p, f) is None, (p, bi.to_dict(f))
                    under += 1
                checked += 1
    assert checked >= 120
    assert under <= checked // 50, (under, checked)


def test_twisted_norm_forms_are_never_certified():
    """A^2 - nu*B^2 with nu a non-square mod p: every rational point has
    A = B = 0 and is singular, so no smooth rational point exists and
    the answer is False, with the PDE count (low degree) and without it."""
    rng = random.Random(88)
    regimes = set()
    for p, halves in ((7, (1, 2)), (11, (1, 2, 3)), (31, (2, 3)), (101, (2, 4))):
        nu = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)
        for k in halves:
            A, B = rand_of_degree(p, rng, k, True), rand_of_degree(p, rng, k, True)
            f = bi.vsub(p, bi.vmul(p, A, A), bi.vscale(p, bi.vmul(p, B, B), nu))
            assert bi.smooth_rational_point(p, f) is None
            ok, _ = bi.is_absolutely_irreducible(p, f, rng)
            assert not ok, (p, bi.to_dict(f))
            regimes.add(bi.count_absolute_factors_pde(p, f) is None)
    assert regimes == {True, False}


def test_unnormalized_input_is_normalized_at_entry():
    """7 + 3u^6 + 5v^6 over GF(37) with its empty u-columns written [0],
    and again with unreduced residues and trailing zeros: both entry
    points reduce and trim it first, so each answers exactly as on the
    ``from_dict`` form, which is certified."""
    g = bi.from_dict(37, {(0, 0): 7, (6, 0): 3, (0, 6): 5})
    for f in ([[7, 0, 0, 0, 0, 0, 3], [0], [0], [0], [0], [0], [5]],
              [[44, 0, 0, 0, 0, 0, 3, 0], [0], [0, 37], [], [0], [-74], [42], [0]]):
        assert bi.is_absolutely_irreducible(37, f, random.Random(0)) == (True, None)
        got = bi.factor_bivariate(PrimeField(37), f, random.Random(0))
        assert got == bi.factor_bivariate(PrimeField(37), g, random.Random(0)) == (5, [(bi.vscale(37, g, 15), 1)])


def test_smooth_point_at_infinity_certifies():
    """u^4 + v^4 + 6 over GF(17) has no affine GF(17)-point, and at
    p = 17 <= (2*4 - 1)*4 the PDE count does not apply; its closure has
    the smooth point (1 : 2 : 0), since 2^4 = -1, so it is certified, as
    the extension-field reference confirms.  The closure of u^2 - 3, two
    conjugate lines, meets the line at infinity only in their common
    point (0 : 1 : 0), which is singular."""
    rng = random.Random(17)
    f = bi.from_dict(17, {(4, 0): 1, (0, 4): 1, (0, 0): 6})
    assert bi.smooth_rational_point(17, f) is None
    assert bi.count_absolute_factors_pde(17, f) is None
    assert bi._smooth_point_at_infinity(17, f) == (1, 2, 0)
    assert bi.is_absolutely_irreducible(17, f, rng) == (True, None)
    assert reference_absolutely_irreducible(17, f, rng)
    lines = bi.from_dict(17, {(2, 0): 1, (0, 0): -3 % 17})
    assert bi._smooth_point_at_infinity(17, lines) is None
    assert bi.is_absolutely_irreducible(17, lines, rng) == (False, None)


def _text(f):
    """A bivariate as 'c*u^i*v^j + ...' in sorted term order."""
    return " + ".join(f"{c}*u^{i}*v^{j}" for (i, j), c in sorted(bi.to_dict(f).items()))


def _v_regular(p, rng, e):
    """A random v-monic bivariate of degree e in v and total degree e."""
    return bi.from_dict(p, {(0, e): 1, **{(i, j): rng.randrange(p)
                                           for j in range(e) for i in range(e - j + 1)}})


def _v_regular_irreducible(p, rng, e):
    while True:
        f = _v_regular(p, rng, e)
        _, fs = bi.factor_bivariate(PrimeField(p), f, rng)
        if len(fs) == 1 and fs[0][1] == 1:
            return f


def _product_cases():
    """(label, f): products of 2 to 4 v-regular irreducibles of degree
    1..4 over GF(101) and GF(103), and one h^2*k."""
    cases = []
    for p in (101, 103):
        rng = random.Random(p + 7)
        for degs in ((1, 2), (2, 2), (3, 1), (2, 3), (3, 3), (4, 3), (2, 2, 1),
                     (3, 2, 2), (3, 3, 3), (2, 2, 2, 1), (3, 2, 2, 2)):
            f = [[1]]
            for e in degs:
                f = bi.vmul(p, f, _v_regular_irreducible(p, rng, e))
            cases.append((f"{p} {degs}", p, f))
        h, k = _v_regular_irreducible(p, rng, 2), _v_regular_irreducible(p, rng, 3)
        cases.append((f"{p} square", p, bi.vmul(p, bi.vmul(p, h, h), k)))
    return cases


PINNED_FACTORS = {
    '101 (1, 2)': ('Reducible', '16*u^0*v^0 + 1*u^0*v^1 + 91*u^1*v^0', (1, 1)),
    '101 (2, 2)': ('Reducible', '23*u^0*v^0 + 40*u^0*v^1 + 1*u^0*v^2 + 25*u^1*v^0 + 24*u^1*v^1 + 91*u^2*v^0', (1, 1)),
    '101 (3, 1)': ('Reducible', '42*u^0*v^0 + 1*u^0*v^1 + 83*u^1*v^0', (1, 1)),
    '101 (2, 3)': ('Reducible', '30*u^0*v^0 + 97*u^0*v^1 + 1*u^0*v^2 + 25*u^1*v^0 + 62*u^1*v^1 + 65*u^2*v^0', (1, 1)),
    '101 (3, 3)': ('Reducible', '76*u^0*v^0 + 3*u^0*v^1 + 61*u^0*v^2 + 1*u^0*v^3 + 46*u^1*v^0 + 29*u^1*v^1 + 62*u^1*v^2 + 70*u^2*v^0 + 74*u^2*v^1 + 22*u^3*v^0', (1, 1)),
    '101 (4, 3)': ('Reducible', '82*u^0*v^0 + 94*u^0*v^1 + 90*u^0*v^2 + 1*u^0*v^3 + 40*u^1*v^0 + 5*u^1*v^1 + 51*u^1*v^2 + 18*u^2*v^0 + 57*u^2*v^1 + 50*u^3*v^0', (1, 1)),
    '101 (2, 2, 1)': ('Reducible', '71*u^0*v^0 + 1*u^0*v^1 + 81*u^1*v^0', (1, 1, 1)),
    '101 (3, 2, 2)': ('Reducible', '13*u^0*v^0 + 64*u^0*v^1 + 1*u^0*v^2 + 71*u^1*v^0 + 13*u^1*v^1 + 83*u^2*v^0', (1, 1, 1)),
    '101 (3, 3, 3)': ('Reducible', '55*u^0*v^0 + 12*u^0*v^1 + 20*u^0*v^2 + 1*u^0*v^3 + 48*u^1*v^0 + 77*u^1*v^1 + 70*u^1*v^2 + 82*u^2*v^0 + 89*u^2*v^1 + 41*u^3*v^0', (1, 1, 1)),
    '101 (2, 2, 2, 1)': ('Reducible', '48*u^0*v^0 + 1*u^0*v^1 + 90*u^1*v^0', (1, 1, 1, 1)),
    '101 (3, 2, 2, 2)': ('Reducible', '25*u^0*v^0 + 28*u^0*v^1 + 1*u^0*v^2 + 32*u^1*v^0 + 51*u^1*v^1 + 4*u^2*v^0', (1, 1, 1, 1)),
    '101 square': ('Reducible', '65*u^0*v^0 + 99*u^0*v^1 + 1*u^0*v^2 + 5*u^1*v^0 + 22*u^1*v^1 + 89*u^2*v^0', (2, 1)),
    '103 (1, 2)': ('Reducible', '49*u^0*v^0 + 1*u^0*v^1 + 101*u^1*v^0', (1, 1)),
    '103 (2, 2)': ('Reducible', '10*u^0*v^0 + 80*u^0*v^1 + 1*u^0*v^2 + 19*u^1*v^0 + 1*u^1*v^1 + 56*u^2*v^0', (1, 1)),
    '103 (3, 1)': ('Reducible', '71*u^0*v^0 + 1*u^0*v^1 + 99*u^1*v^0', (1, 1)),
    '103 (2, 3)': ('Reducible', '58*u^0*v^0 + 16*u^0*v^1 + 1*u^0*v^2 + 35*u^1*v^0 + 24*u^1*v^1 + 87*u^2*v^0', (1, 1)),
    '103 (3, 3)': ('Reducible', '18*u^0*v^0 + 25*u^0*v^1 + 64*u^0*v^2 + 1*u^0*v^3 + 1*u^1*v^0 + 27*u^1*v^1 + 57*u^1*v^2 + 59*u^2*v^0 + 62*u^2*v^1 + 51*u^3*v^0', (1, 1)),
    '103 (4, 3)': ('Reducible', '11*u^0*v^0 + 23*u^0*v^1 + 4*u^0*v^2 + 1*u^0*v^3 + 63*u^1*v^0 + 69*u^1*v^1 + 2*u^1*v^2 + 67*u^2*v^0 + 14*u^2*v^1 + 21*u^3*v^0', (1, 1)),
    '103 (2, 2, 1)': ('Reducible', '5*u^0*v^0 + 1*u^0*v^1 + 93*u^1*v^0', (1, 1, 1)),
    '103 (3, 2, 2)': ('Reducible', '66*u^0*v^0 + 78*u^0*v^1 + 1*u^0*v^2 + 29*u^1*v^0 + 62*u^1*v^1 + 80*u^2*v^0', (1, 1, 1)),
    '103 (3, 3, 3)': ('Reducible', '2*u^0*v^0 + 94*u^0*v^1 + 37*u^0*v^2 + 1*u^0*v^3 + 51*u^1*v^0 + 55*u^1*v^1 + 90*u^1*v^2 + 17*u^2*v^0 + 6*u^2*v^1 + 69*u^3*v^0', (1, 1, 1)),
    '103 (2, 2, 2, 1)': ('Reducible', '20*u^0*v^0 + 1*u^0*v^1 + 78*u^1*v^0', (1, 1, 1, 1)),
    '103 (3, 2, 2, 2)': ('Reducible', '7*u^0*v^0 + 20*u^0*v^1 + 1*u^0*v^2 + 97*u^1*v^0 + 69*u^1*v^1 + 57*u^2*v^0', (1, 1, 1, 1)),
    '103 square': ('Reducible', '49*u^0*v^0 + 63*u^0*v^1 + 1*u^0*v^2 + 35*u^1*v^0 + 69*u^1*v^1 + 33*u^2*v^0', (2, 1)),
}


def test_factor_bivariate_pinned_on_products():
    """(verdict, witness) of factor_bivariate on seeded products stays
    fixed: the first factor and the multiplicities."""
    got = {}
    for label, p, f in _product_cases():
        _, fs = bi.factor_bivariate(PrimeField(p), f, random.Random(len(label)))
        verdict = "Reducible" if len(fs) > 1 or fs[0][1] > 1 else "Irreducible"
        got[label] = (verdict, _text(fs[0][0]), tuple(m for _, m in fs))
    assert got == PINNED_FACTORS


def test_squarefree_at_a_point_never_overclaims():
    """On seeded v-regular inputs over GF(101) and GF(103) the shortcut
    agrees with the gcd reference (``biv_gcd``) in both directions: True
    on squarefree inputs, False on h^2*k and on the rest; it never
    answers True when the leading v-coefficient depends on u."""
    certified = 0
    for p in (101, 103):
        rng = random.Random(p + 3)
        for _ in range(30):
            h, k = _v_regular(p, rng, rng.randint(1, 3)), _v_regular(p, rng, rng.randint(1, 4))
            square = bi.vmul(p, bi.vmul(p, h, h), k)
            assert not bi.squarefree_at_a_point(p, square)
            assert not is_squarefree(p, square)
            f = bi.vmul(p, h, k)
            assert bi.squarefree_at_a_point(p, f) == is_squarefree(p, f), bi.to_dict(f)
            certified += is_squarefree(p, f)
        # v^3 - 3u^2 v - 10u^2 + 12u has discriminant 108 u^2 (u-1)(u-2)(u-3)(u+6):
        # squarefree, though its value at each of u = 0..3 has a double root
        f = bi.from_dict(p, {(0, 3): 1, (2, 1): -3, (2, 0): -10, (1, 0): 12})
        assert is_squarefree(p, f)
        assert bi.squarefree_at_a_point(p, f)
        # (u - 5)^2 (v^2 + 1): squarefree at every u = a != 5, but not squarefree
        f = bi.vmul(p, bi.from_dict(p, {(2, 0): 1, (1, 0): -10, (0, 0): 25}),
                    bi.from_dict(p, {(0, 2): 1, (0, 0): 1}))
        assert not bi.squarefree_at_a_point(p, f)
    assert certified >= 50


def test_squarefree_split_falls_back_when_every_point_fails():
    """v^2 - u(u-1)(u-2)(u-3) is irreducible, but its value at each of
    u = 0..3 is v^2: the shortcut proves nothing, and the gcd path still
    returns the input as its own squarefree part."""
    for p in (101, 103):
        f = bi.from_dict(p, {(0, 2): 1, (4, 0): -1, (3, 0): 6, (2, 0): -11, (1, 0): 6})
        assert not bi.squarefree_at_a_point(p, f)
        assert is_squarefree(p, f)
        [(g, m)] = bi.squarefree_decomposition_v(p, f)
        assert m == 1 and bi.to_dict(g) == bi.to_dict(f)


def _non_residue(p):
    return next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)


def _twisted(p, rng, k, nu):
    """A^2 - nu*B^2 for dense A, B of degree k: irreducible over GF(p), two
    conjugate absolute factors, and no smooth rational point."""
    A, B = rand_of_degree(p, rng, k, True), rand_of_degree(p, rng, k, True)
    return bi.vsub(p, bi.vmul(p, A, A), bi.vscale(p, bi.vmul(p, B, B), nu))


def test_hensel_pair_matches_the_quadratic_reference():
    """Seeded coprime splits of f(0, v) for v-regular f of degree 4..12
    over GF(101) and GF(103): the lift that forms only the new error
    coefficient at each step returns the same (G, H) as the reference
    that recomputes the whole truncated product, and G*H = f mod u^T."""
    checked = 0
    for p in (101, 103):
        F = PrimeField(p)
        rng = random.Random(p + 11)
        for d in range(4, 13):
            for _ in range(3):
                f = _v_regular(p, rng, d)
                _, fs = uni.factor(p, bi.eval_u(p, f, 0), rng)
                if len(fs) < 2 or any(m > 1 for _, m in fs):
                    continue
                split = rng.randint(1, len(fs) - 1)
                g0, h0 = [1], [1]
                for i, (g, _) in enumerate(rng.sample(fs, len(fs))):
                    if i < split:
                        g0 = uni.mul(p, g0, g)
                    else:
                        h0 = uni.mul(p, h0, g)
                T = d + 1
                G, H = bi.hensel_pair(p, f, g0, h0, T)
                assert (G, H) == hensel_pair_quadratic(F, f, g0, h0, T), (p, d)
                assert bi.to_dict(bi.vmul(p, G, H, trunc=T)) == bi.to_dict(bi.vtrunc(f, T))
                checked += 1
    assert checked >= 40, checked


def test_factor_first_decision_agrees_with_the_count():
    """Seeded squarefree v-regular slices over GF(127), where p > (2d-1)d
    for d = 4..8 so the PDE count applies: dense random slices, products
    of two, and twisted A^2 - nu*B^2.  The factor-first decision is True
    iff the count is 1, and each kind of answer occurs: certified,
    refuted with a rational factor, and refuted by the count alone."""
    p = 127
    nu = _non_residue(p)
    rng = random.Random(1270)
    kinds = Counter()
    for d in range(4, 9):
        cases = [_v_regular(p, rng, d) for _ in range(3)]
        a = rng.randint(1, d - 1)
        cases.append(bi.vmul(p, _v_regular(p, rng, a), _v_regular(p, rng, d - a)))
        if d % 2 == 0:
            cases.append(_twisted(p, rng, d // 2, nu))
        for f in cases:
            if not bi.squarefree_at_a_point(p, f):
                continue
            count = bi.count_absolute_factors_pde(p, f)
            assert count is not None
            ok, witness = bi.is_absolutely_irreducible(p, f, rng)
            assert ok == (count == 1), (d, bi.to_dict(f))
            kinds[ok, witness is not None] += 1
    assert set(kinds) == {(True, False), (False, True), (False, False)}, kinds
    assert sum(kinds.values()) >= 20, kinds


def test_smooth_point_search_matches_the_field_protocol_reference():
    """Seeded slices over GF(101): walk-like dense and sparse ones of
    degree 7 and 9, twisted A^2 - nu*B^2 of degree 6 and 8, a product of
    two and a square, whose points are all singular.  Two more pass
    through the origin with f_u = 0 on the line u = 0, or f_v = 0 on the
    line v = 0, so their first smooth point needs the other partial.  The
    plain-int search returns the same point, or None, as the reference."""
    p, F = 101, F101
    nu = _non_residue(p)
    rng = random.Random(1010)
    cases = [rand_of_degree(p, rng, d, dense) for d in (7, 9) for dense in (True, True, False)]
    for slot in (0, 1):
        terms = bi.to_dict(rand_of_degree(p, rng, 7, True))
        terms = {mon: c for mon, c in terms.items() if mon[slot] != 1 and mon != (0, 0)}
        terms[(1, 0) if slot else (0, 1)] = 1
        cases.append(bi.from_dict(p, terms))
    cases += [_twisted(p, rng, k, nu) for k in (3, 4)]
    A = rand_of_degree(p, rng, 3, True)
    cases += [bi.vmul(p, A, rand_of_degree(p, rng, 4, False)), bi.vmul(p, A, A)]
    found = []
    for f in cases:
        point = bi.smooth_rational_point(p, f)
        assert point == smooth_rational_point_generic(F, f), bi.to_dict(f)
        found.append(point is not None)
    assert found.count(False) == 3 and found.count(True) == len(cases) - 3, found


def _horner_roots(g, p):
    """The b in 0..p-1 with g(b) = 0 mod p, each by its own Horner pass."""
    roots = []
    for b in range(p):
        acc = 0
        for c in reversed(g):
            acc = (acc * b + c) % p
        if not acc:
            roots.append(b)
    return roots


@pytest.mark.parametrize("p", (3, 5, 7, 11, 101, 103))
def test_roots_match_horner_at_every_point(p):
    """``_roots`` lists the zeros of g in ascending order, as Horner at
    each b does: seeded dense g of degree 0..12 (degree >= p included at
    small p), products of linear factors with repeated roots, v^p - v,
    which vanishes everywhere, a nonzero constant, and zero, empty or
    with zero coefficients, whose roots are every b."""
    rng = random.Random(2000 + p)
    everywhere = [0, p - 1] + [0] * (p - 2) + [1]
    cases = [[], [0], [0] * 5, [rng.randrange(1, p)], everywhere]
    for D in range(13):
        cases += [[rng.randrange(p) for _ in range(D + 1)] for _ in range(4)]
        g = [1]
        for _ in range(D):
            g = uni.mul(p, g, [-rng.randrange(p) % p, 1])
        cases.append(g)
    for g in cases:
        assert bi._roots(g, p) == _horner_roots(g, p), (p, g)
    assert bi._roots([], p) == bi._roots(everywhere, p) == list(range(p))
    assert bi._roots(cases[3], p) == []


def test_roots_match_horner_on_random_polynomials():
    """``_roots`` agrees with Horner at each b on drawn primes and
    coefficient lists of length 0..16, zero ones included."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.sampled_from([3, 5, 7, 11, 13, 101, 103, 257]),
                      st.lists(st.integers(0, 10**6), max_size=16))
    def check(p, g):
        g = [c % p for c in g]
        assert bi._roots(g, p) == _horner_roots(g, p)

    check()


def test_smooth_point_at_infinity_matches_the_reference():
    """Seeded bivariates over GF(7), GF(11), GF(13), GF(17) and GF(101):
    dense and sparse ones of degree 1..8, some with no v^D term, so that
    (0 : 1 : 0) lies on the closure (smooth, or singular when the
    u*v^(D-1) and v^(D-1) terms go too), and twisted A^2 - nu*B^2.  The
    root search returns the point the term-by-term reference returns."""
    kinds = Counter()
    for p in (7, 11, 13, 17, 101):
        rng = random.Random(3000 + p)
        nu = _non_residue(p)
        for case in range(60):
            D = rng.randint(1, min(8, p - 1))
            f = rand_of_degree(p, rng, D, case % 2 == 0)
            if case % 3:
                drop = {(0, D)} if case % 3 == 1 else {(0, D), (1, D - 1), (0, D - 1)}
                f = bi.from_dict(p, {m: c for m, c in bi.to_dict(f).items() if m not in drop})
            if case % 5 == 4 and D >= 2:
                f = _twisted(p, rng, D // 2, nu)
            if bi.total_degree(f) < 1:
                continue
            point = bi._smooth_point_at_infinity(p, f)
            assert point == smooth_point_at_infinity_by_forms(p, f), (p, bi.to_dict(f))
            kinds[point if point in (None, (0, 1, 0)) else "affine"] += 1
    assert set(kinds) == {None, (0, 1, 0), "affine"}, kinds


def test_point_searches_refuse_a_prime_too_large_for_packed_slots():
    """At p = 4294967311, above 2^32, no 8-byte slot holds 3(p-1)^2, so
    both searches raise a typed error naming p, at once, where an
    unpacked search would walk p lines of p points."""
    p = 4294967311
    f = bi.from_dict(p, {(2, 0): 1, (0, 2): 1, (0, 0): 1})
    for search in (bi.smooth_rational_point, bi._smooth_point_at_infinity):
        start = time.perf_counter()
        with pytest.raises(FactorizationFailure, match="p=4294967311"):
            search(p, f)
        assert time.perf_counter() - start < 1.0


def _outcome(fn, *args):
    """fn(*args), or the type and message of the ConewalkError it raises."""
    try:
        return "ok", fn(*args)
    except ConewalkError as ex:
        return "error", type(ex).__name__, str(ex)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 101, 103))
def test_int_kernels_agree_with_the_field_protocol_reference_on_products(p):
    """Seeded products of 2 or 3 bivariates of degree 1..3 over GF(p),
    every fourth with a repeated factor: ``factor_bivariate`` returns
    what the field-protocol reference returns, or fails with the same
    error (where p is not above the total degree, as the factorization
    needs, some do: most at p = 2 and 3), and draws the same random
    numbers; ``biv_gcd`` of two multiples of one factor agrees too."""
    F = PrimeField(p)
    rng = random.Random(1700 + p)
    factored = 0
    for case in range(24):
        fs = [rand_of_degree(p, rng, rng.randint(1, 3), rng.random() < 0.5) for _ in range(rng.randint(2, 3))]
        if case % 4 == 0:
            fs.append(fs[0])
        f = [[1]]
        for g in fs:
            f = bi.vmul(p, f, g)
        r_int, r_ref = random.Random(case), random.Random(case)
        got = _outcome(bi.factor_bivariate, F, f, r_int)
        assert got == _outcome(ref_bi.factor_bivariate, F, f, r_ref), (p, bi.to_dict(f))
        assert r_int.getstate() == r_ref.getstate(), (p, bi.to_dict(f))
        factored += got[0] == "ok"
        a = bi.vmul(p, fs[0], rand_of_degree(p, rng, 2, True))
        b = bi.vmul(p, fs[0], rand_of_degree(p, rng, 2, False))
        assert bi.biv_gcd(p, a, b) == ref_bi.biv_gcd(F, a, b), (p, bi.to_dict(a), bi.to_dict(b))
    assert factored >= {2: 4, 3: 13, 5: 22}.get(p, 24), factored


def _with_slice(p, rng, a, g0):
    """A random v-monic bivariate of v-degree and total degree n = deg g0
    whose value at u = a is g0: g0(v) + (u - a) h(u, v), deg h <= n - 1."""
    n = len(g0) - 1
    h = bi.from_dict(p, {(i, j): rng.randrange(p) for j in range(n) for i in range(n - j)})
    f = bi.to_dict(bi.vmul(p, [[-a % p, 1]], h))
    for j, c in enumerate(g0):
        f[(0, j)] = f.get((0, j), 0) + c
    return bi.from_dict(p, f)


def _split_slice(p, rng, n):
    """prod (v - c_i) over n distinct random c_i."""
    g0 = [1]
    for c in rng.sample(range(p), n):
        g0 = uni.mul(p, g0, [-c % p, 1])
    return g0


def _irreducible_with_slice(p, rng, a, g0):
    while True:
        f = _with_slice(p, rng, a, g0)
        _, fs = ref_bi.factor_bivariate(PrimeField(p), f, random.Random(0))
        if len(fs) == 1 and fs[0][1] == 1:
            return f


def _recombination_cases(p):
    """(label, seed, f, local degrees at the expansion point, factor
    degrees).  ``factor_bivariate(F, f, random.Random(seed))`` draws no
    shear for these v-monic, v-regular f, so its expansion point is the
    seed's first draw, a."""
    rng = random.Random(p + 29)
    cases = []
    seed = 1
    a = random.Random(seed).randrange(p)
    # a quartic, four of the five local factors, times an irreducible quintic
    quartic = _irreducible_with_slice(p, rng, a, _split_slice(p, rng, 4))
    quintic = _with_slice(p, rng, a, uni.find_irreducible(p, 5, rng))
    cases.append(("4 of 5 local factors", seed, bi.vmul(p, quartic, quintic), [1, 1, 1, 1, 5], [4, 5]))
    # factors of degree exactly n // 2 whose v^0 coefficient has u-degree n // 2
    for e, other in ((2, 3), (3, 3)):
        half = _v_regular_irreducible(p, rng, e)
        while len(half[0]) != e + 1:
            half = _v_regular_irreducible(p, rng, e)
        f = bi.vmul(p, half, _v_regular_irreducible(p, rng, other))
        cases.append((f"degree {e} = n // 2 with u^{e}", seed, f, None, sorted([e, other])))
    # irreducible, with n linear local factors
    for n in (5, 6):
        f = _irreducible_with_slice(p, rng, a, _split_slice(p, rng, n))
        cases.append((f"irreducible with {n} linear local factors", seed, f, [1] * n, [n]))
    return a, cases


@pytest.mark.parametrize("p", (101, 103))
def test_recombination_edge_cases_match_the_full_precision_reference(p):
    """Lifting to u^(n//2 + 1) and trying only subsets of at most half the
    remaining degree finds what the reference finds with the full lift
    and subsets of up to half the local factors, with the same random
    draws: a factor made of more than half of the local factors, a factor
    of degree n // 2 that needs its u^(n // 2) coefficient, and an
    irreducible f whose slice splits into n linear factors."""
    F = PrimeField(p)
    a, cases = _recombination_cases(p)
    for label, seed, f, local, degrees in cases:
        if local is not None:
            _, slice_factors = uni.factor(p, bi.eval_u(p, f, a), random.Random(0))
            assert sorted(len(g) - 1 for g, _ in slice_factors) == local, label
        r_int, r_ref = random.Random(seed), random.Random(seed)
        got = bi.factor_bivariate(F, f, r_int)
        assert got == ref_bi.factor_bivariate(F, f, r_ref), label
        assert r_int.getstate() == r_ref.getstate(), label
        assert sorted(bi.total_degree(g) for g, _ in got[1]) == degrees, label
