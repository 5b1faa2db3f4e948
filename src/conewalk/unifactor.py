"""Univariate polynomial factorization over a generic finite field.

Polynomials are little-endian coefficient lists over a field object
from ``gfext`` ([] is the zero polynomial, no trailing zeros stored).
Factorization runs squarefree decomposition, then distinct-degree
splitting, then randomized equal-degree splitting; randomness comes
from an explicit ``random.Random`` so results are reproducible per
seed.
"""

from __future__ import annotations

from .coeffs import prime_powers
from .errors import ZeroPolynomial


def normalize(F, f):
    f = list(f)
    while f and F.is_zero(f[-1]):
        f.pop()
    return f


def deg(f):
    return len(f) - 1


def add(F, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else F.zero
        b = g[i] if i < len(g) else F.zero
        out.append(F.add(a, b))
    return normalize(F, out)


def sub(F, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else F.zero
        b = g[i] if i < len(g) else F.zero
        out.append(F.sub(a, b))
    return normalize(F, out)


def mul(F, f, g):
    if not f or not g:
        return []
    out = [F.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if F.is_zero(a):
            continue
        for j, b in enumerate(g):
            if not F.is_zero(b):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
    return normalize(F, out)


def mul_scalar(F, f, c):
    if F.is_zero(c):
        return []
    return normalize(F, [F.mul(a, c) for a in f])


def divmod_poly(F, f, g):
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    f = list(f)
    q = [F.zero] * max(0, len(f) - len(g) + 1)
    inv_lc = F.inv(g[-1])
    while len(f) >= len(g) and f:
        c = F.mul(f[-1], inv_lc)
        k = len(f) - len(g)
        q[k] = c
        for i, b in enumerate(g):
            f[k + i] = F.sub(f[k + i], F.mul(c, b))
        f = normalize(F, f)
    return normalize(F, q), f


def monic(F, f):
    if not f:
        return f
    return mul_scalar(F, f, F.inv(f[-1]))


def gcd(F, f, g):
    while g:
        f, g = g, divmod_poly(F, f, g)[1]
    return monic(F, f)


def ext_gcd(F, f, g):
    """(g, s, t) monic gcd with s*f + t*g = gcd."""
    r0, r1 = list(f), list(g)
    s0, s1 = [F.one], []
    t0, t1 = [], [F.one]
    while r1:
        q, r = divmod_poly(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(F, s0, mul(F, q, s1))
        t0, t1 = t1, sub(F, t0, mul(F, q, t1))
    if not r0:
        return [], s0, t0
    c = F.inv(r0[-1])
    return mul_scalar(F, r0, c), mul_scalar(F, s0, c), mul_scalar(F, t0, c)


def pow_mod(F, f, e: int, m):
    out = [F.one]
    base = divmod_poly(F, f, m)[1]
    while e:
        if e & 1:
            out = divmod_poly(F, mul(F, out, base), m)[1]
        base = divmod_poly(F, mul(F, base, base), m)[1]
        e >>= 1
    return out


def derivative(F, f):
    out = []
    for i in range(1, len(f)):
        out.append(F.mul(f[i], F.scalar(i)))
    return normalize(F, out)


def eval_at(F, f, a):
    acc = F.zero
    for c in reversed(f):
        acc = F.add(F.mul(acc, a), c)
    return acc


def x_poly(F):
    return [F.zero, F.one]


def _char_root(F, c):
    """p-th root of a coefficient (Frobenius inverse: c^(q/p); identity over GF(p))."""
    if F.q == F.char:
        return c
    return F.pow(c, F.q // F.char)


def squarefree_decomposition(F, f):
    """[(g, m)] with f = lc * prod g^m, each g monic squarefree, m ascending."""
    out = []
    f = monic(F, f)
    n = 1
    p = F.char
    while deg(f) > 0:
        d = derivative(F, f)
        if d:
            g = gcd(F, f, d)
            h = divmod_poly(F, f, g)[0]
            i = 1
            while deg(h) > 0:
                gh = gcd(F, g, h)
                piece = divmod_poly(F, h, gh)[0]
                if deg(piece) > 0:
                    out.append((piece, i * n))
                i += 1
                g = divmod_poly(F, g, gh)[0]
                h = gh
            if deg(g) == 0:
                break
            f = g
        # here every exponent of f is divisible by p: replace f by its p-th root
        root = [_char_root(F, f[j]) for j in range(0, len(f), p)]
        f = normalize(F, root)
        n *= p
    out.sort(key=lambda gm: (gm[1], len(gm[0])))
    return out


def distinct_degree(F, f):
    """[(product of irreducibles of degree d, d)] for monic squarefree f."""
    out = []
    h = x_poly(F)
    d = 0
    f = list(f)
    while deg(f) >= 1:
        d += 1
        if deg(f) < 2 * d:
            out.append((monic(F, f), deg(f)))
            break
        h = pow_mod(F, h, F.q, f)
        g = gcd(F, sub(F, h, x_poly(F)), f)
        if deg(g) > 0:
            out.append((g, d))
            f = divmod_poly(F, f, g)[0]
            h = divmod_poly(F, h, f)[1]
    return out


def equal_degree_split(F, f, d, rng):
    """One random Cantor-Zassenhaus split of monic f (all factors of degree d)."""
    n = deg(f)
    while True:
        a = [F.random(rng) for _ in range(n)]
        a = normalize(F, a)
        if deg(a) < 1:
            continue
        g = gcd(F, a, f)
        if 0 < deg(g) < n:
            return g
        b = pow_mod(F, a, (F.q**d - 1) // 2, f)
        g = gcd(F, sub(F, b, [F.one]), f)
        if 0 < deg(g) < n:
            return g


def equal_degree(F, f, d, rng):
    """All monic irreducible factors of f, each of degree d."""
    if deg(f) == d:
        return [monic(F, f)]
    g = equal_degree_split(F, f, d, rng)
    h = divmod_poly(F, f, g)[0]
    return equal_degree(F, g, d, rng) + equal_degree(F, h, d, rng)


def factor(F, f, rng):
    """(leading coefficient, [(monic irreducible, multiplicity)]), sorted."""
    if not f:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    lc = f[-1]
    if deg(f) == 0:
        return lc, []
    out = {}
    for g, mult in squarefree_decomposition(F, f):
        for h, d in distinct_degree(F, g):
            for irr in equal_degree(F, h, d, rng):
                key = tuple(irr)
                out[key] = out.get(key, 0) + mult
    factors = [(list(k), m) for k, m in sorted(out.items(), key=lambda kv: (len(kv[0]), kv[0]))]
    return lc, factors


def is_irreducible(F, f):
    """Rabin irreducibility test for monic f of degree >= 1."""
    n = deg(f)
    if n < 1:
        return False
    if n == 1:
        return True
    x = x_poly(F)
    for ell, _ in prime_powers(n):
        h = pow_mod(F, x, F.q ** (n // ell), f)
        g = gcd(F, sub(F, h, x), f)
        if deg(g) != 0:
            return False
    h = pow_mod(F, x, F.q**n, f)
    return not sub(F, h, x)


def find_irreducible(F, d: int, rng):
    """A random monic irreducible of degree d over F."""
    while True:
        f = [F.random(rng) for _ in range(d)] + [F.one]
        if is_irreducible(F, f):
            return f


def extension_field(p: int, k: int, rng):
    """GF(p^k) with a modulus found by random search."""
    from .gfext import ExtField, PrimeField

    if k == 1:
        return PrimeField(p)
    base = PrimeField(p)
    modulus = find_irreducible(base, k, rng)
    return ExtField(p, modulus)
