"""Bivariate factorization and absolute irreducibility over finite fields.

A bivariate polynomial in (u, v) is stored v-major: a list over the
v-degree whose entries are little-endian u-coefficient lists over a
field object from ``gfext`` (``unifactor`` conventions).  The main
entry points:

* ``factor_bivariate`` -- complete rational factorization, via a shear
  to v-regular position, Hensel lifting of a univariate factorization
  at a good expansion point, and subset recombination.  A factor of
  v-degree e of a v-regular f has total degree e, so a candidate whose
  v^j coefficient has u-degree above e - j is skipped before any
  division: it cannot divide, and the factor list is unchanged.
* ``squarefree_at_a_point`` -- f with a nonzero constant leading
  v-coefficient is squarefree when f(a, v) is, for some a in
  0..D(D-1), D = deg_v f: no factor of f lies in F[u] and each keeps its
  v-degree at u = a.  For a v-regular f and p > D(D-1) the test is
  exact, since disc_v f has u-degree at most D(D-1).  The squarefree
  split returns a v-monic input unchanged when a point certifies it,
  and runs the gcd chain (``biv_gcd``) only otherwise.
* ``vdivexact`` -- the one division in F[u][v]: exact quotient or None.
* ``count_absolute_factors_pde`` -- the dimension of the solution space
  of the adjoint differential equation f*(g_v - h_u) = g*f_v - h*f_u,
  which equals the number of distinct absolutely irreducible factors
  when the characteristic exceeds (2*deg_u - 1)*deg_v (Gao, Math. Comp.
  72, 2003).  It runs over the prime field only, on plain ints mod p:
  sparse columns ranked by forward elimination (``rank_mod_p``).
* ``is_absolutely_irreducible`` -- the PDE count where it applies, else
  factoring over F_p plus ``smooth_rational_point``, a search for a
  nonsingular F_p-point.  No extension field is built; factoring over
  GF(p^ell) is only the tests' reference.

Requires odd characteristic larger than the total degree throughout.
"""

from __future__ import annotations

from itertools import combinations

from . import unifactor as uni
from .errors import DivisionFailure, FactorsNotCoprime


# -- representation ----------------------------------------------------------


def vnormalize(F, f):
    f = [uni.normalize(F, c) for c in f]
    while f and not f[-1]:
        f.pop()
    return f


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


def from_dict(F, terms):
    """{(u_exp, v_exp): scalar or field element} -> v-major lists."""
    if not terms:
        return []
    nv = max(j for _, j in terms) + 1
    out = [[] for _ in range(nv)]
    for (i, j), c in terms.items():
        c = F.scalar(c) if isinstance(c, int) else c
        col = out[j]
        while len(col) <= i:
            col.append(F.zero)
        col[i] = F.add(col[i], c)
    return vnormalize(F, out)


def to_dict(F, f):
    out = {}
    for j, col in enumerate(f):
        for i, c in enumerate(col):
            if not F.is_zero(c):
                out[(i, j)] = c
    return out


def vadd(F, f, g):
    n = max(len(f), len(g))
    out = []
    for j in range(n):
        a = f[j] if j < len(f) else []
        b = g[j] if j < len(g) else []
        out.append(uni.add(F, a, b))
    return vnormalize(F, out)


def vsub(F, f, g):
    n = max(len(f), len(g))
    out = []
    for j in range(n):
        a = f[j] if j < len(f) else []
        b = g[j] if j < len(g) else []
        out.append(uni.sub(F, a, b))
    return vnormalize(F, out)


def vmul(F, f, g, trunc=None):
    """Product; u-degrees >= trunc are dropped when trunc is given."""
    if not f or not g:
        return []
    out = [[] for _ in range(len(f) + len(g) - 1)]
    for j1, c1 in enumerate(f):
        if not c1:
            continue
        for j2, c2 in enumerate(g):
            if not c2:
                continue
            prod = uni.mul(F, c1, c2)
            if trunc is not None:
                prod = prod[:trunc]
            out[j1 + j2] = uni.add(F, out[j1 + j2], prod)
    return vnormalize(F, out)


def vtrunc(F, f, trunc):
    return vnormalize(F, [c[:trunc] for c in f])


def vscale(F, f, c):
    return vnormalize(F, [uni.mul_scalar(F, col, c) for col in f])


def eval_u(F, f, a):
    """Substitute u = a; returns a univariate v-coefficient list."""
    return uni.normalize(F, [uni.eval_at(F, c, a) for c in f])


def from_univariate_in_v(F, g):
    return vnormalize(F, [[c] for c in g])


def from_univariate_in_u(F, g):
    return vnormalize(F, [list(g)])


def translate_u(F, f, a):
    """u -> u + a via Taylor shift of every u-coefficient."""
    if F.is_zero(a):
        return [list(c) for c in f]
    out = []
    for col in f:
        # Horner-style shift: c(u + a)
        shifted = []
        for coeff in reversed(col):
            shifted = uni.add(F, uni.mul(F, shifted, [a, F.one]), [coeff])
        out.append(shifted)
    return vnormalize(F, out)


def shear(F, f, theta):
    """u -> u + theta*v; raises the v-degree to the total degree generically."""
    if F.is_zero(theta):
        return [list(c) for c in f]
    lin = [[F.zero, F.one], [theta]]  # u + theta*v as a v-major poly
    out = []
    for j, col in enumerate(f):
        if not col:
            continue
        # col(u + theta v) via Horner in u
        term = []
        for coeff in reversed(col):
            term = vadd(F, vmul(F, term, lin), [[coeff]])
        padded = [[] for _ in range(j)] + term
        out = vadd(F, out, padded)
    return out


def derivative_v(F, f):
    out = []
    for j in range(1, len(f)):
        out.append(uni.mul_scalar(F, f[j], F.scalar(j)))
    return vnormalize(F, out)


def derivative_u(F, f):
    return vnormalize(F, [uni.derivative(F, c) for c in f])


# -- division ----------------------------------------------------------------


def vdivexact(F, f, g):
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
        c, r = uni.divmod_poly(F, rem[k + dg], lc)
        if r:
            return None
        q[k] = c
        if c:
            # the top column rem[k + dg] cancels by construction
            for i in range(dg):
                if g[i]:
                    rem[k + i] = uni.sub(F, rem[k + i], uni.mul(F, c, g[i]))
    if any(rem[:dg]):
        return None
    return vnormalize(F, q)


def _divide(F, f, g):
    """vdivexact where exactness is an invariant (content, squarefree split)."""
    q = vdivexact(F, f, g)
    if q is None:
        raise DivisionFailure("expected exact division in F[u][v] failed")
    return q


# -- gcd via primitive pseudo-remainder sequence -----------------------------


def u_content(F, f):
    """Monic gcd over F[u] of all v-coefficients."""
    c = []
    for col in f:
        c = uni.gcd(F, c, col)
        if uni.deg(c) == 0 and c:
            return [F.one]
    return c


def primitive_part(F, f):
    c = u_content(F, f)
    if uni.deg(c) == 0:
        return [list(col) for col in f]
    return _divide(F, f, [c])


def pseudo_rem(F, f, g):
    """prem(f, g) in v over F[u]: lc(g)^(df-dg+1) * f reduced by g."""
    df, dg = deg_v(f), deg_v(g)
    lc_g = g[-1]
    rem = [list(c) for c in f]
    for _ in range(df - dg + 1):
        rem = vnormalize(F, rem)
        if deg_v(rem) < dg or is_vzero(rem):
            rem = vnormalize(F, [uni.mul(F, lc_g, col) for col in rem])
            continue
        shift_v = deg_v(rem) - dg
        lead = rem[-1]
        rem = [uni.mul(F, lc_g, col) for col in rem[:-1]]
        sub_term = [[] for _ in range(shift_v)] + [uni.mul(F, lead, col) for col in g[:-1]]
        rem = vsub(F, vnormalize(F, rem), vnormalize(F, sub_term))
    return vnormalize(F, rem)


def biv_gcd(F, f, g):
    """gcd in F[u][v], primitive PRS; result primitive with monic-in-v lead."""
    if is_vzero(f):
        return primitive_part(F, g) if not is_vzero(g) else []
    if is_vzero(g):
        return primitive_part(F, f)
    if deg_v(f) == 0 and deg_v(g) == 0:
        return [uni.gcd(F, f[0], g[0])]
    cf, cg = u_content(F, f), u_content(F, g)
    cont = uni.gcd(F, cf, cg)
    a, b = primitive_part(F, f), primitive_part(F, g)
    if deg_v(a) < deg_v(b):
        a, b = b, a
    while not is_vzero(b) and deg_v(b) > 0:
        r = pseudo_rem(F, a, b)
        a, b = b, primitive_part(F, r) if not is_vzero(r) else []
    if not is_vzero(b):
        # a nonzero constant in v: gcd is the content only
        result = [list(cont)]
    else:
        result = vmul(F, [cont], primitive_part(F, a))
    # normalize the leading v-coefficient's leading u-coefficient to 1
    lead = result[-1]
    result = vscale(F, result, F.inv(lead[-1]))
    return result


def squarefree_at_a_point(F, f):
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
    for a in range(min(F.p, D * (D - 1) + 1)):
        g = eval_u(F, f, F.scalar(a))
        if uni.deg(uni.gcd(F, g, uni.derivative(F, g))) == 0:
            return True
    return False


def squarefree_decomposition_v(F, f):
    """[(g, m)] for f with nonzero v-derivative chain (needs char > deg)."""
    if squarefree_at_a_point(F, f):
        return [(f, 1)]
    out = []
    f = [list(c) for c in f]
    d = derivative_v(F, f)
    if is_vzero(d):
        raise ArithmeticError("characteristic too small for squarefree split")
    g = biv_gcd(F, f, d)
    h = _divide(F, f, g)
    i = 1
    while deg_v(h) > 0 or deg_u(h) > 0:
        gh = biv_gcd(F, g, h)
        piece = _divide(F, h, gh)
        if deg_v(piece) > 0 or deg_u(piece) > 0:
            out.append((piece, i))
        i += 1
        g = _divide(F, g, gh)
        h = gh
    return out


# -- Hensel lifting ----------------------------------------------------------


def hensel_pair(F, f, g0, h0, T):
    """Lift f = g0*h0 (mod u) to f = G*H (mod u^T), G, H v-monic.

    g0, h0 are coprime monic univariate polynomials in v with
    g0*h0 = f(0, v).
    """
    one, s, t = uni.ext_gcd(F, g0, h0)
    if one != [F.one]:
        raise FactorsNotCoprime(f"gcd of g0 and h0 has degree {uni.deg(one)}")
    G = from_univariate_in_v(F, g0)
    H = from_univariate_in_v(F, h0)
    for k in range(1, T):
        err = vsub(F, vtrunc(F, f, k + 1), vmul(F, G, H, trunc=k + 1))
        # e_k(v) = coefficient of u^k in the error
        e = uni.normalize(F, [col[k] if len(col) > k else F.zero for col in err])
        if not e:
            continue
        dg = uni.divmod_poly(F, uni.mul(F, t, e), g0)[1]
        dh = uni.divmod_poly(F, uni.sub(F, e, uni.mul(F, dg, h0)), g0)[0]
        G = vadd(F, G, _times_u_power(F, dg, k))
        H = vadd(F, H, _times_u_power(F, dh, k))
    return G, H


def _times_u_power(F, univ_in_v, k):
    """A univariate polynomial in v times u^k, as a v-major bivariate."""
    out = []
    for c in univ_in_v:
        col = [F.zero] * k + [c]
        out.append(col)
    return vnormalize(F, out)


def hensel_multi(F, f, factors0, T):
    """Lift the full coprime factorization of f(0, v) to precision u^T."""
    if len(factors0) == 1:
        return [vtrunc(F, f, T)]
    g0 = factors0[0]
    h0 = [F.one]
    for fac in factors0[1:]:
        h0 = uni.mul(F, h0, fac)
    G, H = hensel_pair(F, f, g0, h0, T)
    return [G] + hensel_multi(F, H, factors0[1:], T)


# -- rational factorization --------------------------------------------------


def factor_squarefree_regular(F, f, rng):
    """Irreducible factors of a squarefree f that is v-monic with
    deg_v f = total degree.  Returns a list of v-monic factors."""
    n = deg_v(f)
    if n == 1:
        return [f]
    T = total_degree(f) + 1
    # find an expansion point where the v-slice stays squarefree
    point = None
    tried = set()
    for _ in range(4 * F.q if F.q < 4096 else 4096):
        a = F.random(rng)
        if a in tried:
            continue
        tried.add(a)
        fa = eval_u(F, f, a)
        if uni.deg(fa) != n:
            continue
        if uni.deg(uni.gcd(F, fa, uni.derivative(F, fa))) == 0:
            point = a
            break
        if len(tried) >= F.q:
            break
    if point is None:
        raise ArithmeticError("no squarefree expansion point found")
    shifted = translate_u(F, f, point)
    f0 = eval_u(F, shifted, F.zero)
    _, uni_factors = uni.factor(F, f0, rng)
    factors0 = [g for g, _ in uni_factors]
    if len(factors0) == 1:
        return [f]
    lifted = hensel_multi(F, shifted, factors0, T)

    found = []
    remaining = shifted
    active = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(active):
        for subset in combinations(active, size):
            cand = [[F.one]]
            for i in subset:
                cand = vmul(F, cand, lifted[i], trunc=T)
            cand = vtrunc(F, cand, T)
            # a factor of v-degree e of the v-regular f has total degree e,
            # so u-degree <= e - j at v^j; a candidate beyond that cannot divide
            e = deg_v(cand)
            if any(len(col) > e - j + 1 for j, col in enumerate(cand)):
                continue
            q = vdivexact(F, remaining, cand)
            if q is not None:
                found.append(cand)
                remaining = q
                active = [i for i in active if i not in subset]
                break
        else:
            size += 1
    found.append(remaining)
    # undo the expansion-point translation
    return [translate_u(F, g, F.neg(point)) for g in found]


def regularize(F, f, rng):
    """(f sheared by u -> u + theta*v and made v-monic, theta) with
    deg_v = total degree; theta is None when f needs no shear."""
    D = total_degree(f)
    cand, theta = f, None
    draws = 8 * max(D, 1) + 16
    while deg_v(cand) != D or uni.deg(cand[-1]) != 0:
        if not draws:
            raise ArithmeticError("could not reach v-regular position")
        draws -= 1
        theta = F.random(rng)
        cand = shear(F, f, theta)
    return vscale(F, cand, F.inv(cand[-1][0])), theta


def factor_bivariate(F, f, rng):
    """(unit, [(factor, multiplicity)]) -- complete factorization over F.

    Factors carry unit leading coefficients; ``unit`` is the scalar with
    unit * prod factor^mult == f exactly.
    """
    if is_vzero(f):
        raise ZeroDivisionError("cannot factor zero")
    original = f
    factors = []

    if deg_v(f) == 0:
        lc, fs = uni.factor(F, f[0], rng)
        return lc, [(from_univariate_in_u(F, g), m) for g, m in fs]
    cont = u_content(F, f)
    if uni.deg(cont) > 0:
        _, fs = uni.factor(F, cont, rng)
        factors += [(from_univariate_in_u(F, g), m) for g, m in fs]
        f = _divide(F, f, [cont])
    if deg_u(f) <= 0:
        g = uni.normalize(F, [col[0] if col else F.zero for col in f])
        _, fs = uni.factor(F, g, rng)
        factors += [(from_univariate_in_v(F, h), m) for h, m in fs]
    else:
        reg, theta = regularize(F, f, rng)
        unshear_theta = F.neg(theta) if theta is not None else None
        for piece, mult in squarefree_decomposition_v(F, reg):
            piece = vscale(F, piece, F.inv(piece[-1][0]))
            for g in factor_squarefree_regular(F, piece, rng):
                if unshear_theta is not None:
                    g = shear(F, g, unshear_theta)
                g = _normalize_lead(F, g)
                factors.append((g, mult))
    factors.sort(key=lambda gm: (total_degree(gm[0]), tuple(sorted(to_dict(F, gm[0]))), gm[1]))
    # recover the scalar unit exactly
    prod = [[F.one]]
    for g, m in factors:
        for _ in range(m):
            prod = vmul(F, prod, g)
    unit = vdivexact(F, original, prod)
    if unit is None or total_degree(unit) != 0:
        raise ArithmeticError("factorization does not re-multiply to the input")
    return unit[0][0], factors


def _normalize_lead(F, g):
    for col in reversed(g):
        for c in reversed(col):
            if not F.is_zero(c):
                return vscale(F, g, F.inv(c))
    return g


# -- absolute irreducibility -------------------------------------------------


def count_absolute_factors_pde(F, f):
    """Number of distinct absolutely irreducible factors of squarefree f,
    via the dimension of the adjoint differential equation's solution
    space.  Returns None when the characteristic is too small for the
    count to be trustworthy, i.e. unless char > (2m-1)n for (m, n) the
    bidegree in some orientation (both orientations are tried).

    F is the prime field of f's coefficients; the system is built and
    ranked on plain ints mod p.
    """
    m, n = deg_u(f), deg_v(f)
    if m < 1 or n < 1:
        return None
    if F.p > (2 * m - 1) * n:
        return _pde_dimension(to_dict(F, f), m, n, F.p)
    if F.p > (2 * n - 1) * m:
        return _pde_dimension({(j, i): c for (i, j), c in to_dict(F, f).items()}, n, m, F.p)
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


def smooth_rational_point(F, f):
    """A point (a, b) of F_p^2 with f(a, b) = 0 and (f_u, f_v)(a, b) != 0,
    or None; exhaustive over u = a, then v = b, with no randomness.

    Such a point certifies that an f irreducible over F_p is absolutely
    irreducible: Frobenius permutes the conjugate absolute factors of f
    transitively, so a rational point on one of them lies on all of them,
    and a point on two or more factors is singular.
    """
    fu, fv = derivative_u(F, f), derivative_v(F, f)
    for a in range(F.p):
        g, gu, gv = (eval_u(F, h, a) for h in (f, fu, fv))
        for b in range(F.p):
            if F.is_zero(uni.eval_at(F, g, b)) and not (
                F.is_zero(uni.eval_at(F, gu, b)) and F.is_zero(uni.eval_at(F, gv, b))
            ):
                return a, b
    return None


def is_absolutely_irreducible(F, f, rng):
    """(verdict, rational_witness_or_None) for squarefree bivariate f over
    the prime field F.  The witness, when present, is a proper factor
    over F itself.
    ``True`` is exact (a PDE count of 1, or F-irreducible with a smooth
    rational point); where the count does not apply, ``False`` without a
    witness may mean only that f has no smooth rational point.
    """
    count = count_absolute_factors_pde(F, f)
    if count == 1:
        return True, None
    _, fs = factor_bivariate(F, f, rng)
    if len(fs) > 1 or fs[0][1] > 1:
        return False, fs[0][0]
    if count is None:
        return smooth_rational_point(F, f) is not None, None
    return False, None
