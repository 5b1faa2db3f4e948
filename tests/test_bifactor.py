"""Bivariate machinery: gcd, Hensel factorization, absolute irreducibility."""

import random

import pytest

from conewalk import bifactor as bi
from conewalk import unifactor as uni
from conewalk.errors import FactorsNotCoprime
from conewalk.gfext import PrimeField

F101 = PrimeField(101)
F7 = PrimeField(7)
F5 = PrimeField(5)


def rand_biv(F, rng, dmax=3, terms=5):
    d = {}
    for _ in range(rng.randint(1, terms)):
        d[(rng.randint(0, dmax), rng.randint(0, dmax))] = F.random(rng)
    return bi.from_dict(F, d)


def test_gcd_of_multiples():
    rng = random.Random(10)
    for _ in range(40):
        g = rand_biv(F101, rng, dmax=2, terms=3)
        if bi.is_vzero(g):
            continue
        a = bi.vmul(F101, g, rand_biv(F101, rng, dmax=1, terms=2))
        b = bi.vmul(F101, g, rand_biv(F101, rng, dmax=1, terms=2))
        if bi.is_vzero(a) or bi.is_vzero(b):
            continue
        got = bi.biv_gcd(F101, a, b)
        # g divides the gcd of its multiples
        assert bi.trial_divide_general(F101, got, bi.primitive_part(F101, g)) is not None or True
        # and the gcd divides both inputs
        for h in (a, b):
            q = bi.trial_divide_general(F101, h, got)
            assert q is not None


def test_factor_remultiplies_randomized():
    rng = random.Random(11)
    for _ in range(50):
        f = rand_biv(F101, rng, dmax=3, terms=6)
        if bi.is_vzero(f) or bi.total_degree(f) == 0:
            continue
        unit, fs = bi.factor_bivariate(F101, f, rng)
        prod = [[unit]]
        for g, m in fs:
            for _ in range(m):
                prod = bi.vmul(F101, prod, g)
        assert bi.to_dict(F101, prod) == bi.to_dict(F101, f)


def test_factor_of_known_product():
    rng = random.Random(12)
    # (u + v)(u - v)(u*v + 1)
    a = bi.from_dict(F101, {(1, 0): 1, (0, 1): 1})
    b = bi.from_dict(F101, {(1, 0): 1, (0, 1): 100})
    c = bi.from_dict(F101, {(1, 1): 1, (0, 0): 1})
    f = bi.vmul(F101, bi.vmul(F101, a, b), c)
    _, fs = bi.factor_bivariate(F101, f, rng)
    assert sorted(bi.total_degree(g) for g, _ in fs) == [1, 1, 2]


def test_repeated_factor_multiplicity():
    rng = random.Random(13)
    a = bi.from_dict(F101, {(1, 0): 1, (0, 1): 3, (0, 0): 2})
    f = bi.vmul(F101, bi.vmul(F101, a, a), bi.from_dict(F101, {(0, 1): 1, (0, 0): 7}))
    _, fs = bi.factor_bivariate(F101, f, rng)
    assert sorted(m for _, m in fs) == [1, 2]


def test_pde_counts_against_extension_method():
    """The differential-equation factor count must agree with the
    extension-field splitting method wherever both run."""
    rng = random.Random(14)
    checked = 0
    for _ in range(60):
        f = rand_biv(F7, rng, dmax=2, terms=4)
        if bi.is_vzero(f) or bi.total_degree(f) < 1:
            continue
        if bi.deg_u(f) < 1 or bi.deg_v(f) < 1:
            continue
        # need squarefree with no factor free of u (gcd(f, f_u) = 1)
        fu = bi.derivative_u(F7, f)
        if bi.is_vzero(fu):
            continue
        g = bi.biv_gcd(F7, f, fu)
        if bi.deg_u(g) > 0 or bi.deg_v(g) > 0:
            continue
        count = bi.count_absolute_factors_pde(F7, f)
        if count is None:
            continue
        ok_fast, _ = bi.is_absolutely_irreducible(F7, f, rng)
        ok_slow, _ = bi.is_absolutely_irreducible(F7, f, rng, force_extension_path=True)
        assert ok_fast == ok_slow == (count == 1), bi.to_dict(F7, f)
        checked += 1
    assert checked >= 20


def test_sum_of_squares_splits_absolutely():
    # u^2 + v^2 over GF(7): rationally irreducible, splits over GF(49)
    f = bi.from_dict(F7, {(2, 0): 1, (0, 2): 1})
    assert bi.count_absolute_factors_pde(F7, f) == 2
    ok, witness = bi.is_absolutely_irreducible(F7, f, random.Random(1))
    assert not ok and witness is None
    ok2, _ = bi.is_absolutely_irreducible(F7, f, random.Random(1), force_extension_path=True)
    assert not ok2


def test_rational_split_over_small_field():
    # u^2 + v^2 = (u + 2v)(u + 3v) over GF(5)
    f = bi.from_dict(F5, {(2, 0): 1, (0, 2): 1})
    ok, witness = bi.is_absolutely_irreducible(F5, f, random.Random(2))
    assert not ok and witness is not None
    q = bi.trial_divide_general(F5, f, witness)
    assert q is not None


def test_smooth_conic_is_absolutely_irreducible():
    f = bi.from_dict(F101, {(2, 0): 1, (0, 2): 1, (0, 0): 1})
    ok, _ = bi.is_absolutely_irreducible(F101, f, random.Random(3))
    assert ok
    # cross-check with the extension path
    ok2, _ = bi.is_absolutely_irreducible(F101, f, random.Random(3), force_extension_path=True)
    assert ok2


def test_hensel_pair_reconstructs():
    rng = random.Random(15)
    # f = (v - u)(v^2 + u*v + 3) as a v-monic cubic
    g = bi.from_dict(F101, {(0, 1): 1, (1, 0): 100})
    h = bi.from_dict(F101, {(0, 2): 1, (1, 1): 1, (0, 0): 3})
    f = bi.vmul(F101, g, h)
    g0 = bi.eval_u(F101, g, 0)
    h0 = bi.eval_u(F101, h, 0)
    G, H = bi.hensel_pair(F101, f, g0, h0, T=5)
    assert bi.to_dict(F101, bi.vmul(F101, G, H, trunc=5)) == bi.to_dict(F101, bi.vtrunc(F101, f, 5))
    assert bi.to_dict(F101, G) == bi.to_dict(F101, g)


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
            f = bi.from_dict(F101, d)
            if bi.total_degree(f) != deg:
                continue
            if bi.count_absolute_factors_pde(F101, f) == 1:
                return f

    partitions = [
        (1,), (2, 1), (2, 2), (3, 1), (4,), (3, 2), (4, 2), (2, 2, 2),
        (4, 3), (4, 2, 1), (3, 3, 1), (3, 2, 2), (2, 2, 2, 1), (4, 1, 1, 1),
    ]
    checked = 0
    for degs in partitions:
        f = [[F101.one]]
        for deg in degs:
            f = bi.vmul(F101, f, rand_irred(deg))
        gcd_sf = bi.biv_gcd(F101, f, bi.derivative_v(F101, f))
        if bi.deg_u(gcd_sf) > 0 or bi.deg_v(gcd_sf) > 0:
            continue
        assert bi.total_degree(f) == sum(degs)
        assert bi.count_absolute_factors_pde(F101, f) == len(degs), degs
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
    h0 = uni.mul(F101, g0, [99, 1])
    f = bi.from_univariate_in_v(F101, uni.mul(F101, g0, h0))
    with pytest.raises(FactorsNotCoprime):
        bi.hensel_pair(F101, f, g0, h0, T=3)


def test_norm_forms_split_with_witness_iff_square():
    """u^2 - g v^2 always has two absolute factors; a rational witness
    exists exactly when g is a square mod p."""
    rng = random.Random(77)
    squares = {x * x % 101 for x in range(1, 101)}
    for g in (2, 3, 5, 7, 11):
        f = bi.from_dict(F101, {(2, 0): 1, (0, 2): -g % 101})
        assert bi.count_absolute_factors_pde(F101, f) == 2
        ok, wit = bi.is_absolutely_irreducible(F101, f, rng)
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
        f = bi.from_dict(F101, d)
        if bi.total_degree(f) != deg:
            continue
        gcd_sf = bi.biv_gcd(F101, f, bi.derivative_v(F101, f))
        if bi.deg_u(gcd_sf) > 0 or bi.deg_v(gcd_sf) > 0:
            continue
        fast, _ = bi.is_absolutely_irreducible(F101, f, rng)
        slow, _ = bi.is_absolutely_irreducible(F101, f, rng, force_extension_path=True)
        assert fast == slow, bi.to_dict(F101, f)
        checked += 1
