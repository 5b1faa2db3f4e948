"""Bivariate factorization and absolute irreducibility over GF(p).

A bivariate polynomial in (u, v) is stored v-major: a list over the
v-degree whose entries are little-endian u-coefficient lists of ints in
[0, p) (``unifactor`` conventions).  As in ``unifactor``, every function
that computes mod p takes the prime ``p`` first and works on plain
ints: products and eliminations accumulate unreduced and reduce once,
and inputs are reduced where they enter (``from_dict``, and
``vnormalize`` at both entry points below).  ``factor_bivariate`` alone
takes a ``gfext.PrimeField`` that names p instead, built by
``is_absolutely_irreducible``, because the benchmark's tracer names its
spans by that handle.  The field-protocol version of the
factorization, which also runs over GF(p^k), is the tests' reference
(``tests/oracles.py``).  The main entry points:

* ``factor_bivariate`` -- complete rational factorization, on one path
  for every non-constant input: a shear to v-regular position, a
  squarefree split, Hensel lifting of a univariate factorization at a
  good expansion point, subset recombination, and the inverse shear.  A
  factor of v-degree e of a v-regular f has total degree e, so a
  candidate whose v^j coefficient has u-degree above e - j is skipped
  before any division: it cannot divide.  Recombination tries subsets
  of the local factors by increasing size, only those whose degrees sum
  to at most half of deg_v of what remains: a reducible polynomial has a
  factor of at most half its degree.  Such a factor of f, n = deg_v f,
  has u-degree at most n // 2, so the lift stops at precision u^(n//2 + 1)
  (von zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 15), and
  the cofactor comes from exact division.
* ``squarefree_at_a_point`` -- f with a nonzero constant leading
  v-coefficient is squarefree when f(a, v) is, for some a in
  0..D(D-1), D = deg_v f: no factor of f lies in F[u] and each keeps its
  v-degree at u = a.  For a v-regular f and p > D(D-1) the test is
  exact, since disc_v f has u-degree at most D(D-1).  The squarefree
  split returns a v-monic input unchanged when a point certifies it,
  and runs the gcd chain (``biv_gcd``) only otherwise.
* ``vdivexact`` -- the one division in F[u][v]: exact quotient or None.
* ``is_absolutely_irreducible`` -- factor first, on any non-constant
  input (it need not be squarefree): a proper or repeated factor over
  F_p refutes, and the first one is the oracle's witness; an
  F_p-irreducible f with a nonsingular F_p-point on its projective
  closure, affine (``smooth_rational_point``) or on the line at
  infinity, is absolutely irreducible.  Both searches evaluate each line
  at every point of F_p at once (``_roots``: one sum of big ints that
  pack the powers of every residue in 8-byte slots or narrower), so they
  need (D+1)(p-1)^2 < 2^64, D the degree on the line, which is p below
  about 2^31; a larger p raises ``FactorizationFailure`` before any
  table is built.  Only an F_p-irreducible f with
  no such point falls back to ``count_absolute_factors_pde``, the
  dimension of the solution space of the adjoint differential equation
  f*(g_v - h_u) = g*f_v - h*f_u, which equals the number of distinct
  absolutely irreducible factors when the characteristic exceeds
  (2*deg_u - 1)*deg_v (Gao, Math. Comp. 72, 2003), with sparse columns
  ranked by forward elimination (``rank_mod_p``).  No extension field
  is built; factoring over GF(p^ell) is only the tests' reference.

Requires odd characteristic larger than the total degree throughout.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from . import unifactor as uni
from .coeffs import ff_inv_int
from .errors import DivisionFailure, FactorizationFailure, FactorsNotCoprime
from .gfext import PrimeField


# -- representation ----------------------------------------------------------


def _vtrim(f):
    """f, a fresh list of fresh columns, with each column's trailing zeros
    and then the trailing empty columns dropped in place."""
    for col in f:
        while col and not col[-1]:
            col.pop()
    while f and not f[-1]:
        f.pop()
    return f


def vnormalize(p, f):
    """f with every coefficient reduced mod p and no trailing zeros."""
    return _vtrim([[c % p for c in col] for col in f])


def is_vzero(f):
    return not f


def deg_v(f):
    return len(f) - 1


def deg_u(f):
    d = -1
    for c in f:
        if c:
            d = max(d, uni.deg(c))
    return d


def total_degree(f):
    d = -1
    for j, c in enumerate(f):
        if c:
            d = max(d, j + uni.deg(c))
    return d


def from_dict(p, terms):
    """{(u_exp, v_exp): int} -> v-major lists, coefficients reduced mod p."""
    if not terms:
        return []
    out = [[] for _ in range(max(j for _, j in terms) + 1)]
    for (i, j), c in terms.items():
        col = out[j]
        if len(col) <= i:
            col += [0] * (i + 1 - len(col))
        col[i] += c
    return vnormalize(p, out)


def to_dict(f):
    return {(i, j): c for j, col in enumerate(f) for i, c in enumerate(col) if c}


def vsub(p, f, g):
    out = [uni.sub(p, a, b) for a, b in zip(f, g)]
    if len(f) >= len(g):
        out += [list(c) for c in f[len(g):]]
    else:
        out += [uni.sub(p, [], b) for b in g[len(f):]]
    while out and not out[-1]:
        out.pop()
    return out


def vmul(p, f, g, trunc=None):
    """Product; u-degrees >= trunc are dropped when trunc is given."""
    if not f or not g:
        return []
    out = [[] for _ in range(len(f) + len(g) - 1)]
    for j1, c1 in enumerate(f):
        if not c1:
            continue
        for j, c2 in enumerate(g, j1):
            if not c2:
                continue
            n = len(c1) + len(c2) - 1
            if trunc is not None and n > trunc:
                n = trunc
            acc = out[j]
            if len(acc) < n:
                acc += [0] * (n - len(acc))
            for i, a in enumerate(c1[:n]):
                if a:
                    for k, b in enumerate(c2[: n - i], i):
                        acc[k] += a * b
    return _vtrim([[x % p for x in col] for col in out])


def vtrunc(f, trunc):
    return _vtrim([c[:trunc] for c in f])


def vscale(p, f, c):
    c %= p
    if not c:
        return []
    return _vtrim([[a * c % p for a in col] for col in f])


def _monic(p, f):
    """Nonzero trimmed f scaled so that its leading v-coefficient's
    leading u-coefficient is 1."""
    return vscale(p, f, ff_inv_int(f[-1][-1], p))


def eval_u(p, f, a):
    """Substitute u = a; returns a univariate v-coefficient list."""
    return uni.normalize([uni.eval_at(p, c, a) for c in f])


def translate_u(p, f, a):
    """u -> u + a via Taylor shift of every u-coefficient."""
    if not a % p:
        return [list(c) for c in f]
    out = []
    for col in f:
        # Taylor shift by repeated synthetic division: step i fixes c[i],
        # the u^i coefficient of c(u + a)
        c = list(col)
        for i in range(len(c) - 1):
            for k in range(len(c) - 2, i - 1, -1):
                c[k] = (c[k] + a * c[k + 1]) % p
        out.append(c)
    return _vtrim(out)


def shear(p, f, theta):
    """u -> u + theta*v; raises the v-degree to the total degree generically."""
    if not theta % p:
        return [list(c) for c in f]
    # c u^i v^j -> c * sum_k C(i, k) theta^(i-k) u^k v^(j+i-k)
    powers = [1]
    for _ in range(deg_u(f)):
        powers.append(powers[-1] * theta % p)
    rows = [[comb(i, k) * powers[i - k] for k in range(i + 1)] for i in range(len(powers))]
    out = [[0] * len(powers) for _ in range(total_degree(f) + 1)]
    for j, col in enumerate(f):
        for i, c in enumerate(col):
            if c:
                for k, x in enumerate(rows[i]):
                    out[j + i - k][k] += c * x
    return _vtrim([[x % p for x in col] for col in out])


def derivative_v(p, f):
    return _vtrim([[a * j % p for a in col] for j, col in enumerate(f)][1:])


def derivative_u(p, f):
    return _vtrim([uni.derivative(p, c) for c in f])


# -- division ----------------------------------------------------------------


def vdivexact(p, f, g):
    """f / g in F[u][v] when g divides f exactly, else None.

    Long division in v from the top.  An exact quotient is unique, so when
    g | f every top column of the remainder is divisible by lc_v(g) in
    F[u]; a nonzero u-remainder there, or a nonzero column left below
    deg_v g, means g does not divide f.
    """
    if not g:
        raise ZeroDivisionError("division by zero in F[u][v]")
    dg, lc = deg_v(g), g[-1]
    if len(f) <= dg:
        return None if f else []
    rem = [list(c) for c in f]
    q = [[] for _ in range(len(f) - dg)]
    for k in range(len(q) - 1, -1, -1):
        c, r = uni.divmod_poly(p, rem[k + dg], lc)
        if r:
            return None
        q[k] = c
        if c:
            # the top column rem[k + dg] cancels by construction
            for i in range(dg):
                if g[i]:
                    rem[k + i] = uni.sub(p, rem[k + i], uni.mul(p, c, g[i]))
    if any(rem[:dg]):
        return None
    return _vtrim(q)


def _divide(p, f, g):
    """vdivexact where exactness is an invariant (content, squarefree split)."""
    q = vdivexact(p, f, g)
    if q is None:
        raise DivisionFailure("expected exact division in F[u][v] failed")
    return q


# -- gcd via primitive pseudo-remainder sequence -----------------------------


def u_content(p, f):
    """Monic gcd over F[u] of all v-coefficients."""
    c = []
    for col in f:
        c = uni.gcd(p, c, col)
        if uni.deg(c) == 0 and c:
            return [1]
    return c


def primitive_part(p, f):
    c = u_content(p, f)
    if uni.deg(c) == 0:
        return [list(col) for col in f]
    return _divide(p, f, [c])


def pseudo_rem(p, f, g):
    """prem(f, g) in v over F[u]: lc(g)^(df-dg+1) * f reduced by g."""
    df, dg = deg_v(f), deg_v(g)
    lc_g = g[-1]
    rem = [list(c) for c in f]
    for _ in range(df - dg + 1):
        rem = _vtrim(rem)
        if deg_v(rem) < dg or is_vzero(rem):
            rem = [uni.mul(p, lc_g, col) for col in rem]
            continue
        shift_v = deg_v(rem) - dg
        lead = rem[-1]
        rem = _vtrim([uni.mul(p, lc_g, col) for col in rem[:-1]])
        sub_term = _vtrim([[] for _ in range(shift_v)] + [uni.mul(p, lead, col) for col in g[:-1]])
        rem = vsub(p, rem, sub_term)
    return _vtrim(rem)


def biv_gcd(p, f, g):
    """gcd in F[u][v], primitive PRS; result primitive with monic-in-v lead."""
    if is_vzero(f):
        return primitive_part(p, g) if not is_vzero(g) else []
    if is_vzero(g):
        return primitive_part(p, f)
    if deg_v(f) == 0 and deg_v(g) == 0:
        return [uni.gcd(p, f[0], g[0])]
    cf, cg = u_content(p, f), u_content(p, g)
    cont = uni.gcd(p, cf, cg)
    a, b = primitive_part(p, f), primitive_part(p, g)
    if deg_v(a) < deg_v(b):
        a, b = b, a
    while not is_vzero(b) and deg_v(b) > 0:
        r = pseudo_rem(p, a, b)
        a, b = b, primitive_part(p, r) if not is_vzero(r) else []
    if not is_vzero(b):
        # a nonzero constant in v: gcd is the content only
        result = [list(cont)]
    else:
        result = vmul(p, [cont], primitive_part(p, a))
    return _monic(p, result)


def squarefree_at_a_point(p, f):
    """True when f has positive v-degree D and a nonzero constant leading
    v-coefficient, and f(a, v) is squarefree for some a in
    0..min(p, D(D-1) + 1) - 1; then f is squarefree.

    With a constant leading v-coefficient no factor of f lies in F[u], and
    every factor keeps its v-degree at u = a; so a square factor h^2 of f
    would give the square factor h(a, v)^2 of f(a, v).  When f is also
    v-regular (D is its total degree), disc_v f has u-degree at most
    D(D-1), so a squarefree f has a nonzero discriminant at one of the
    points tried once p > D(D-1): then False proves f is not squarefree.
    """
    D = len(f) - 1
    if D < 1 or uni.deg(f[-1]) != 0:
        return False
    for a in range(min(p, D * (D - 1) + 1)):
        g = eval_u(p, f, a)
        if uni.deg(uni.gcd(p, g, uni.derivative(p, g))) == 0:
            return True
    return False


def squarefree_decomposition_v(p, f):
    """[(g, m)] for f with nonzero v-derivative chain (needs char > deg)."""
    if squarefree_at_a_point(p, f):
        return [(f, 1)]
    out = []
    f = [list(c) for c in f]
    d = derivative_v(p, f)
    if is_vzero(d):
        raise FactorizationFailure("characteristic too small for squarefree split")
    g = biv_gcd(p, f, d)
    h = _divide(p, f, g)
    i = 1
    while deg_v(h) > 0 or deg_u(h) > 0:
        gh = biv_gcd(p, g, h)
        piece = _divide(p, h, gh)
        if deg_v(piece) > 0 or deg_u(piece) > 0:
            out.append((piece, i))
        i += 1
        g = _divide(p, g, gh)
        h = gh
    if deg_v(g) > 0 or deg_u(g) > 0:
        # the g_i^i with p | i: their v-derivative vanishes, so Yun cannot split them
        raise FactorizationFailure("characteristic too small for squarefree split")
    return out


# -- Hensel lifting ----------------------------------------------------------


def hensel_pair(p, f, g0, h0, T):
    """Lift f = g0*h0 (mod u) to f = G*H (mod u^T), G, H v-monic.

    g0, h0 are coprime monic univariate polynomials in v with
    g0*h0 = f(0, v).  G and H are kept as u-adic lists of polynomials in
    v, so step k forms only the new error coefficient
    e_k = f_k - sum_{0<i<k} G_i*H_(k-i): O(k) univariate products,
    accumulated unreduced and reduced once, not a truncated product of
    the whole lift.  The lift mod u^T is unique.
    """
    one, s, t = uni.ext_gcd(p, g0, h0)
    if one != [1]:
        raise FactorsNotCoprime(f"gcd of g0 and h0 has degree {uni.deg(one)}")
    Gs, Hs = [g0], [h0]
    for k in range(1, T):
        e = [col[k] if len(col) > k else 0 for col in f]
        for i in range(1, k):
            # deg G_i + deg H_(k-i) < deg g0 + deg h0 = deg_v f: it fits in e
            for j, a in enumerate(Gs[i]):
                if a:
                    for at, b in enumerate(Hs[k - i], j):
                        e[at] -= a * b
        e = uni.normalize([x % p for x in e])
        dg = uni.divmod_poly(p, uni.mul(p, t, e), g0)[1]
        dh = uni.divmod_poly(p, uni.sub(p, e, uni.mul(p, dg, h0)), g0)[0]
        Gs.append(dg)
        Hs.append(dh)
    return _from_u_adic(Gs), _from_u_adic(Hs)


def _from_u_adic(coeffs):
    """sum_k coeffs[k](v) u^k, coefficients in v, as a v-major bivariate."""
    width = max(len(c) for c in coeffs)
    return _vtrim([[c[j] if j < len(c) else 0 for c in coeffs] for j in range(width)])


def hensel_multi(p, f, factors0, T):
    """Lift the full coprime factorization of f(0, v) to precision u^T."""
    if len(factors0) == 1:
        return [vtrunc(f, T)]
    g0 = factors0[0]
    h0 = [1]
    for fac in factors0[1:]:
        h0 = uni.mul(p, h0, fac)
    G, H = hensel_pair(p, f, g0, h0, T)
    return [G] + hensel_multi(p, H, factors0[1:], T)


# -- rational factorization --------------------------------------------------


def factor_squarefree_regular(p, f, rng):
    """Irreducible factors of a squarefree f that is v-monic with
    deg_v f = total degree.  Returns a list of v-monic factors."""
    n = deg_v(f)
    if n == 1:
        return [f]
    # a reducible divisor of f has a factor of at most half its v-degree,
    # whose u-degree is at most n // 2 (f is v-regular): lifting to
    # u^(n//2 + 1) makes the truncated product of its local factors exact
    T = n // 2 + 1
    # find an expansion point where the v-slice stays squarefree; disc_v f
    # has u-degree at most n(n-1), so n(n-1) + 1 distinct points hold one
    point = None
    tried = set()
    while point is None and len(tried) < min(p, n * (n - 1) + 1):
        a = rng.randrange(p)
        if a in tried:
            continue
        tried.add(a)
        fa = eval_u(p, f, a)
        if uni.deg(fa) == n and uni.deg(uni.gcd(p, fa, uni.derivative(p, fa))) == 0:
            point = a
    if point is None:
        raise FactorizationFailure("no squarefree expansion point found")
    shifted = translate_u(p, f, point)
    f0 = eval_u(p, shifted, 0)
    _, uni_factors = uni.factor(p, f0, rng)
    factors0 = [g for g, _ in uni_factors]
    if len(factors0) == 1:
        return [f]
    lifted = hensel_multi(p, shifted, factors0, T)
    degs = [deg_v(g) for g in lifted]

    # subsets by increasing size, of local degree at most half that of
    # what remains: the first that divides is an irreducible factor, and
    # what remains once none divides is irreducible
    found = []
    remaining = shifted
    active = list(range(len(lifted)))
    size = 1
    while sum(sorted(degs[i] for i in active)[:size]) <= deg_v(remaining) // 2:
        for subset in combinations(active, size):
            e = sum(degs[i] for i in subset)
            if 2 * e > deg_v(remaining):
                continue
            cand = [[1]]
            for i in subset:
                cand = vmul(p, cand, lifted[i], trunc=T)
            # a factor of v-degree e of the v-regular f has total degree e,
            # so u-degree <= e - j at v^j; a candidate beyond that cannot divide
            if any(len(col) > e - j + 1 for j, col in enumerate(cand)):
                continue
            q = vdivexact(p, remaining, cand)
            if q is not None:
                found.append(cand)
                remaining = q
                active = [i for i in active if i not in subset]
                break
        else:
            size += 1
    found.append(remaining)
    # undo the expansion-point translation
    return [translate_u(p, g, -point % p) for g in found]


def regularize(p, f, rng):
    """(f sheared by u -> u + theta*v and made v-monic, theta) with
    deg_v = total degree; theta is 0 when f needs no shear.

    The sheared v^D coefficient is f_D(theta, 1), of degree at most D in
    theta, so one of D + 1 distinct theta reaches v-regular position."""
    D = total_degree(f)
    cand, theta = f, 0
    tried = {0}
    while deg_v(cand) != D or uni.deg(cand[-1]) != 0:
        if len(tried) >= min(p, D + 1):
            raise FactorizationFailure("could not reach v-regular position")
        theta = rng.randrange(p)
        if theta not in tried:
            tried.add(theta)
            cand = shear(p, f, theta)
    return _monic(p, cand), theta


def factor_bivariate(F, f, rng):
    """(unit, [(factor, multiplicity)]) -- complete factorization over
    GF(p), p = ``F.p``, on one path for every non-constant f (a constant
    c gives (c, [])): ``regularize``, squarefree split, Hensel lifting
    and recombination, unshear.  Factors carry unit leading coefficients
    and are sorted by degree, then terms and coefficients, so the list
    does not depend on ``rng``; unit * prod factor^mult == f exactly.

    f is reduced mod p and trimmed (``vnormalize``) first.  This is the
    one function that takes a ``gfext.PrimeField`` instead of p: the
    benchmark's tracer names its spans by the handle's ``q`` and ``char``.
    """
    p = F.p
    f = vnormalize(p, f)
    if is_vzero(f):
        raise ZeroDivisionError("cannot factor zero")
    if total_degree(f) == 0:
        return f[0][0], []
    factors = []
    reg, theta = regularize(p, f, rng)
    for piece, mult in squarefree_decomposition_v(p, reg):
        for g in factor_squarefree_regular(p, _monic(p, piece), rng):
            factors.append((_monic(p, shear(p, g, -theta % p)), mult))
    factors.sort(key=lambda gm: (total_degree(gm[0]), sorted(to_dict(gm[0]).items()), gm[1]))
    # recover the scalar unit exactly
    prod = [[1]]
    for g, m in factors:
        for _ in range(m):
            prod = vmul(p, prod, g)
    unit = vdivexact(p, f, prod)
    if unit is None or total_degree(unit) != 0:
        raise FactorizationFailure("factorization does not re-multiply to the input")
    return unit[0][0], factors


# -- absolute irreducibility -------------------------------------------------


def count_absolute_factors_pde(p, f):
    """Number of distinct absolutely irreducible factors of squarefree f,
    via the dimension of the adjoint differential equation's solution
    space.  Returns None when the characteristic is too small for the
    count to be trustworthy, i.e. unless char > (2m-1)n for (m, n) the
    bidegree in some orientation (both orientations are tried).  The
    system is built and ranked on plain ints mod p.
    """
    m, n = deg_u(f), deg_v(f)
    if m < 1 or n < 1:
        return None
    if p > (2 * m - 1) * n:
        return _pde_dimension(to_dict(f), m, n, p)
    if p > (2 * n - 1) * m:
        return _pde_dimension({(j, i): c for (i, j), c in to_dict(f).items()}, n, m, p)
    return None


def _pde_dimension(terms, m, n, p):
    """Dimension of {(g, h)}: f*(g_v - h_u) = g*f_v - h*f_u over GF(p),
    deg g <= (m-1, n), deg h <= (m, n-1), for f = sum c u^a v^b given as
    ``terms`` {(a, b): c}.

    The unknown g = u^i v^j contributes f*j u^i v^(j-1) - u^i v^j f_v
    = sum c*(j-b) u^(i+a) v^(j+b-1), and h = u^i v^j contributes
    u^i v^j f_u - f*i u^(i-1) v^j = sum c*(a-i) u^(i+a-1) v^(j+b); every
    row u^x v^y has x < 2m, y < 2n and is keyed x*2n + y.  The factors
    j-b and a-i are nonzero and smaller than p in absolute value, so no
    entry vanishes.
    """
    w = 2 * n
    cols = [
        {(i + a) * w + j + b - 1: c * (j - b) % p for (a, b), c in terms.items() if b != j}
        for i in range(m)
        for j in range(n + 1)
    ]
    cols += [
        {(i + a - 1) * w + j + b: c * (a - i) % p for (a, b), c in terms.items() if a != i}
        for i in range(m + 1)
        for j in range(n)
    ]
    return len(cols) - rank_mod_p(cols, p)


def rank_mod_p(vectors, p):
    """Rank over GF(p) of sparse int vectors {index: entry}.

    Forward elimination only: each vector is reduced against an echelon
    basis keyed by leading (greatest) index until its lead is new, then
    joins the basis scaled to lead 1.
    """
    basis = {}
    for vec in vectors:
        vec = {k: x % p for k, x in vec.items() if x % p}
        while vec:
            lead = max(vec)
            row = basis.get(lead)
            if row is None:
                inv = pow(vec[lead], -1, p)
                basis[lead] = {k: x * inv % p for k, x in vec.items()}
                break
            c = vec[lead]
            for k, x in row.items():
                y = (vec.get(k, 0) - c * x) % p
                if y:
                    vec[k] = y
                else:
                    del vec[k]
    return len(basis)


def smooth_rational_point(p, f):
    """A point (a, b) of F_p^2 with f(a, b) = 0 and (f_u, f_v)(a, b) != 0,
    or None; exhaustive over u = a, then v = b, with no randomness.

    Such a point certifies that an f irreducible over F_p is absolutely
    irreducible: Frobenius permutes the conjugate absolute factors of f
    transitively, so a rational point on one of them lies on all of them,
    and a point on two or more factors is singular.  Runs on plain ints
    mod p: each line u = a is evaluated at every b at once (``_roots``),
    and the gradient only at its roots.  Raises ``FactorizationFailure``
    when no 8-byte slot holds (deg_v f + 1)(p-1)^2, about p > 2^31.
    """
    fu = derivative_u(p, f)
    for a in range(p):
        g = [uni.eval_at(p, col, a) for col in f]
        for b in _roots(g, p):
            fv = uni.eval_at(p, [j * c for j, c in enumerate(g)][1:], b)
            if fv or uni.eval_at(p, [uni.eval_at(p, col, a) for col in fu], b):
                return a, b
    return None


# (p, k) -> [row_0, row_1, ...]: row j packs b^j mod p at slot b, k bytes a slot
_POWER_ROWS = {}


def _roots(g, p):
    """The roots in F_p of g, a little-endian list of residues mod p, in
    ascending order; every b when g is zero.

    g is evaluated at every b at once (Kronecker-style packing, Harvey,
    J. Symbolic Comput. 44, 2009): row j of the prime's power table packs
    b^j mod p for b = 0..p-1 in k-byte slots, so sum_j g_j * row_j holds
    g(b), unreduced, in slot b.  k is the smallest of 1, 2, 4 and 8 that
    holds (D + 1)(p - 1)^2, D = len(g) - 1, so no slot carries into the
    next; with no such k, ``FactorizationFailure`` is raised before any
    table is built.
    """
    k = uni.slot_bytes(len(g) * (p - 1) ** 2)
    if k is None:
        raise FactorizationFailure(
            f"p={p} is too large for the packed root search: "
            f"no 8-byte slot holds {len(g)}*(p-1)^2"
        )
    rows = _POWER_ROWS.get((p, k), [])
    if len(rows) < len(g):
        # a new list, not an append, so a concurrent reader never sees a gap
        rows = rows + [uni.pack([pow(b, j, p) for b in range(p)], k) for j in range(len(rows), len(g))]
        _POWER_ROWS[p, k] = rows
    slots = uni.unpack(sum(c * row for c, row in zip(g, rows)), p, k)
    return [b for b, x in enumerate(slots) if not x % p]


def _form(f, e):
    """[c_0, ..., c_e], c_j the coefficient of u^(e-j) v^j in f: the
    degree-e form of f at u = 1, as a list in v."""
    return [f[j][e - j] if j < len(f) and e - j < len(f[j]) else 0 for j in range(e + 1)]


def _smooth_point_at_infinity(p, f):
    """A nonsingular point (a, b, 0) of the closure w^D f(u/w, v/w) of
    f = 0, D = total degree, or None: f_D(a, b) = 0 and a nonzero
    gradient (f_D,u, f_D,v, f_(D-1)) there, for f_D, f_(D-1) the top two
    forms.  It certifies an F_p-irreducible f as an affine one does.

    (0 : 1 : 0) is tried first, then (1 : t : 0) for the roots t of
    f_D(1, v) in ascending order (``_roots``).
    """
    D = total_degree(f)
    if D < 1:
        return None
    top, below = _form(f, D), _form(f, D - 1)
    # at (0 : 1 : 0) the gradient is (top[D - 1], D * top[D], below[D - 1])
    if not top[D] and (top[D - 1] or below[D - 1]):
        return 0, 1, 0
    # at a root t, f_D,u(1, t) = -t * f_D,v(1, t) by Euler's identity
    top_v = [j * c for j, c in enumerate(top)][1:]
    for t in _roots(top, p):
        if uni.eval_at(p, top_v, t) or uni.eval_at(p, below, t):
            return 1, t, 0
    return None


def is_absolutely_irreducible(p, f, rng):
    """(verdict, rational_witness_or_None) for a non-constant bivariate f
    over GF(p); f need not be squarefree, and is reduced mod p and
    trimmed (``vnormalize``) first.

    Factor first: a proper or repeated factor over F_p gives ``False``
    with the first listed factor as witness (the oracle's witness, once
    rehomogenized).  An F_p-irreducible f with a smooth rational point,
    affine or at infinity, gives ``True``; with none, ``True`` iff the
    PDE count is 1.  ``True`` is exact; where the count does not apply
    (char <= (2m-1)n in both orientations), ``False`` without a witness
    may mean only that f has no smooth rational point.
    """
    f = vnormalize(p, f)
    # the one field handle: factor_bivariate's spans are named by it
    _, fs = factor_bivariate(PrimeField(p), f, rng)
    if len(fs) > 1 or fs[0][1] > 1:
        return False, fs[0][0]
    if smooth_rational_point(p, f) is not None or _smooth_point_at_infinity(p, f) is not None:
        return True, None
    return count_absolute_factors_pde(p, f) == 1, None
