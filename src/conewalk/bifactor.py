"""Bivariate factorization and absolute irreducibility over finite fields.

A bivariate polynomial in (u, v) is stored v-major: a list over the
v-degree whose entries are little-endian u-coefficient lists over a
field object from ``gfext`` (``unifactor`` conventions).  The main
entry points:

* ``factor_bivariate`` -- complete rational factorization, via a shear
  to v-regular position, Hensel lifting of a univariate factorization
  at a good expansion point, and subset recombination.
* ``count_absolute_factors_pde`` -- the dimension of the solution space
  of the adjoint differential equation f*(g_v - h_u) = g*f_v - h*f_u,
  which equals the number of distinct absolutely irreducible factors
  when the characteristic exceeds (2*deg_u - 1)*deg_v (Gao, Math. Comp.
  72, 2003).  It runs over the prime field only, on plain ints mod p:
  sparse columns ranked by forward elimination (``rank_mod_p``).
* ``is_absolutely_irreducible`` -- decision routine combining the fast
  differential test with a fallback that factors over GF(p^ell) for
  primes ell dividing the degree.

Requires odd characteristic larger than the total degree throughout.
"""

from __future__ import annotations

from . import unifactor as uni
from .errors import FactorsNotCoprime
from .unifactor import _prime_divisors


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


def vdivmod_monic(F, f, g):
    """Division by g monic in v (unit leading v-coefficient in F)."""
    if not g or uni.deg(g[-1]) != 0:
        raise ValueError("divisor must have unit leading v-coefficient")
    inv_lc = F.inv(g[-1][0])
    rem = [list(c) for c in f]
    rem = vnormalize(F, rem)
    q = []
    dg = deg_v(g)
    while rem and deg_v(rem) >= dg:
        shift_v = deg_v(rem) - dg
        c = uni.mul_scalar(F, rem[-1], inv_lc)
        while len(q) <= shift_v:
            q.append([])
        q[shift_v] = uni.add(F, q[shift_v], c)
        sub_term = [[] for _ in range(shift_v)] + [uni.mul(F, c, col) for col in g]
        rem = vsub(F, rem, vnormalize(F, sub_term))
    return vnormalize(F, q), rem


def trial_divide(F, f, g):
    """Quotient of f by v-monic g if division is exact, else None."""
    q, r = vdivmod_monic(F, f, g)
    return q if is_vzero(r) else None


# -- gcd via primitive pseudo-remainder sequence -----------------------------


def u_content(F, f):
    """Monic gcd over F[u] of all v-coefficients."""
    c = []
    for col in f:
        c = uni.gcd(F, c, col)
        if uni.deg(c) == 0 and c:
            return [F.one]
    return c


def divide_u_content(F, f, c):
    out = []
    for col in f:
        q, r = uni.divmod_poly(F, col, c)
        if r:
            raise ArithmeticError("content division not exact")
        out.append(q)
    return vnormalize(F, out)


def primitive_part(F, f):
    c = u_content(F, f)
    if uni.deg(c) == 0:
        return [list(col) for col in f]
    return divide_u_content(F, f, c)


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


def squarefree_decomposition_v(F, f):
    """[(g, m)] for f with nonzero v-derivative chain (needs char > deg)."""
    out = []
    f = [list(c) for c in f]
    d = derivative_v(F, f)
    if is_vzero(d):
        raise ArithmeticError("characteristic too small for squarefree split")
    g = biv_gcd(F, f, d)
    h = trial_divide_general(F, f, g)
    i = 1
    while deg_v(h) > 0 or deg_u(h) > 0:
        gh = biv_gcd(F, g, h)
        piece = trial_divide_general(F, h, gh)
        if deg_v(piece) > 0 or deg_u(piece) > 0:
            out.append((piece, i))
        i += 1
        g = trial_divide_general(F, g, gh)
        h = gh
    return out


def trial_divide_general(F, f, g):
    """Exact division allowing a non-monic divisor (clears the leading unit)."""
    if is_vzero(g):
        raise ZeroDivisionError
    if deg_v(g) == 0:
        # divide by a univariate in u, coefficient-wise
        out = []
        for col in f:
            q, r = uni.divmod_poly(F, col, g[0])
            if r:
                raise ArithmeticError("division not exact")
            out.append(q)
        return vnormalize(F, out)
    lc = g[-1]
    if uni.deg(lc) == 0:
        q, r = vdivmod_monic(F, vscale(F, f, F.inv(lc[0])), vscale(F, g, F.inv(lc[0])))
        if not is_vzero(r):
            raise ArithmeticError("division not exact")
        return q
    # non-unit leading coefficient: fall back to pseudo-division bookkeeping
    df, dg = deg_v(f), deg_v(g)
    power = df - dg + 1
    scaled = f
    for _ in range(power):
        scaled = vnormalize(F, [uni.mul(F, lc, col) for col in scaled])
    q, r = _vdivmod_by_lead(F, scaled, g)
    if not is_vzero(r):
        raise ArithmeticError("division not exact")
    # undo the lc^power scaling of the quotient
    for _ in range(power):
        q = trial_divide_general(F, q, [lc])
    return q


def _vdivmod_by_lead(F, f, g):
    rem = vnormalize(F, [list(c) for c in f])
    q = []
    dg = deg_v(g)
    lc = g[-1]
    while not is_vzero(rem) and deg_v(rem) >= dg:
        shift_v = deg_v(rem) - dg
        c, r = uni.divmod_poly(F, rem[-1], lc)
        if r:
            raise ArithmeticError("division not exact")
        while len(q) <= shift_v:
            q.append([])
        q[shift_v] = uni.add(F, q[shift_v], c)
        sub_term = [[] for _ in range(shift_v)] + [uni.mul(F, c, col) for col in g]
        rem = vsub(F, rem, vnormalize(F, sub_term))
    return vnormalize(F, q), rem


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


def _monic_in_v(F, f):
    """True when the leading v-coefficient is a unit of F."""
    return bool(f) and uni.deg(f[-1]) == 0


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
        restart = False
        for subset in _subsets(active, size):
            cand = [[F.one]]
            for i in subset:
                cand = vmul(F, cand, lifted[i], trunc=T)
            cand = vtrunc(F, cand, T)
            q = trial_divide(F, remaining, cand)
            if q is not None:
                found.append(cand)
                remaining = q
                active = [i for i in active if i not in subset]
                restart = True
                break
        if restart:
            continue
        size += 1
    found.append(remaining)
    # undo the expansion-point translation
    return [translate_u(F, g, F.neg(point)) for g in found]


def _subsets(items, size):
    from itertools import combinations

    return combinations(items, size)


def regularize(F, f, rng):
    """(sheared f made v-monic, theta, lc) with deg_v = total degree."""
    D = total_degree(f)
    if deg_v(f) == D and _monic_in_v(F, f):
        return [list(c) for c in f], None, F.one
    if deg_v(f) == D and uni.deg(f[-1]) == 0:
        lc = f[-1][0]
        return vscale(F, f, F.inv(lc)), None, lc
    for _ in range(8 * max(D, 1) + 16):
        theta = F.random(rng)
        cand = shear(F, f, theta)
        if deg_v(cand) == D and uni.deg(cand[-1]) == 0:
            lc = cand[-1][0]
            return vscale(F, cand, F.inv(lc)), theta, lc
    raise ArithmeticError("could not reach v-regular position")


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
        f = divide_u_content(F, f, cont)
    if deg_u(f) <= 0:
        g = uni.normalize(F, [col[0] if col else F.zero for col in f])
        _, fs = uni.factor(F, g, rng)
        factors += [(from_univariate_in_v(F, h), m) for h, m in fs]
    else:
        reg, theta, _ = regularize(F, f, rng)
        unshear_theta = F.neg(theta) if theta is not None else None
        for piece, mult in squarefree_decomposition_v(F, reg):
            piece = vscale(F, piece, F.inv(piece[-1][0]))
            for g in factor_squarefree_regular(F, piece, rng):
                if unshear_theta is not None:
                    g = shear(F, g, unshear_theta)
                g = _normalize_lead(F, g)
                factors.append((g, mult))
    factors.sort(key=lambda gm: (total_degree(gm[0]), _sort_key(F, gm[0]), gm[1]))
    # recover the scalar unit exactly
    prod = [[F.one]]
    for g, m in factors:
        for _ in range(m):
            prod = vmul(F, prod, g)
    unit = _scalar_ratio(F, original, prod)
    return unit, factors


def _scalar_ratio(F, f, g):
    """The scalar c with f == c*g (assumes proportionality)."""
    fd, gd = to_dict(F, f), to_dict(F, g)
    for k, v in gd.items():
        if not F.is_zero(v):
            c = F.mul(fd.get(k, F.zero), F.inv(v))
            break
    else:
        raise ZeroDivisionError
    if to_dict(F, vsub(F, f, vscale(F, g, c))):
        raise ArithmeticError("factorization does not re-multiply to the input")
    return c


def _normalize_lead(F, g):
    for col in reversed(g):
        for c in reversed(col):
            if not F.is_zero(c):
                return vscale(F, g, F.inv(c))
    return g


def _sort_key(F, g):
    return tuple(sorted(to_dict(F, g).keys()))


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


def lift_coeffs(F_ext, f):
    """Re-coefficient a prime-field bivariate into an extension field."""
    return [[F_ext.from_base(c) for c in col] for col in f]


def is_absolutely_irreducible(F, f, rng, force_extension_path=False):
    """(verdict, rational_witness_or_None) for squarefree bivariate f over
    the prime field F.  The witness, when present, is a proper factor
    over F itself.
    """
    D = total_degree(f)
    if D <= 0:
        return False, None
    if D == 1:
        return True, None
    if deg_u(f) == 0 or deg_v(f) == 0:
        # univariate: splits over the closure whenever the degree allows
        g = f[0] if deg_v(f) == 0 else uni.normalize(F, [c[0] if c else F.zero for c in f])
        if uni.deg(g) == 1:
            return True, None
        _, fs = uni.factor(F, g, rng)
        witness = None
        if len(fs) > 1 or fs[0][1] > 1:
            w = fs[0][0]
            witness = from_univariate_in_u(F, w) if deg_v(f) == 0 else from_univariate_in_v(F, w)
        return False, witness

    if not force_extension_path:
        count = count_absolute_factors_pde(F, f)
        if count is not None:
            if count == 1:
                return True, None
            # reducible over the closure; look for a rational witness
            _, fs = factor_bivariate(F, f, rng)
            if len(fs) > 1:
                return False, fs[0][0]
            return False, None

    # extension-field path
    _, fs = factor_bivariate(F, f, rng)
    if len(fs) > 1 or fs[0][1] > 1:
        return False, fs[0][0]
    for ell in _prime_divisors(D):
        from .unifactor import extension_field

        F_ext = extension_field(F.p, ell, rng)
        if F_ext.q == F.q:
            continue
        lifted = lift_coeffs(F_ext, f)
        _, fs_ext = factor_bivariate(F_ext, lifted, rng)
        if len(fs_ext) > 1:
            return False, None
    return True, None
