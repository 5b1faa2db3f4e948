"""Univariate polynomial factorization over GF(p).

Polynomials are little-endian lists of ints in [0, p) ([] is the zero
polynomial, no trailing zeros stored).  Every function takes the field
handle ``F`` (a ``gfext.PrimeField``) first and reads only its modulus:
each binds ``p = F.p`` once and works on plain ints, and a convolution
or a division accumulates unreduced and reduces once.  The kernels
assume residues; ``factor`` reduces its input where it enters.

Factorization runs squarefree decomposition, then distinct-degree
splitting, then randomized equal-degree splitting (von zur Gathen and
Gerhard, *Modern Computer Algebra*, ch. 14); randomness comes from an
explicit ``random.Random`` so results are reproducible per seed.  The
field-protocol version of this module, which also factors over
GF(p^k), is the tests' reference (``tests/oracles.py``).
"""

from __future__ import annotations

from .coeffs import ff_inv_int, prime_powers
from .errors import ZeroPolynomial


def normalize(F, f):
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


def deg(f):
    return len(f) - 1


def sub(F, f, g):
    p = F.p
    out = [(a - b) % p for a, b in zip(f, g)]
    if len(f) >= len(g):
        out += f[len(g):]
    else:
        out += [-b % p for b in g[len(f):]]
    while out and not out[-1]:
        out.pop()
    return out


def mul(F, f, g):
    if not f or not g:
        return []
    p = F.p
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for k, b in enumerate(g, i):
                out[k] += a * b
    out = [x % p for x in out]
    while out and not out[-1]:
        out.pop()
    return out


def mul_scalar(F, f, c):
    p = F.p
    if not c % p:
        return []
    return normalize(F, [a * c % p for a in f])


def divmod_poly(F, f, g):
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    p = F.p
    dg = len(g) - 1
    n = len(f) - dg
    if n <= 0:
        return [], list(f)
    inv_lc = ff_inv_int(g[-1], p)
    low = g[:-1]
    r = list(f)
    q = [0] * n
    for k in range(n - 1, -1, -1):
        c = r[k + dg] % p * inv_lc % p
        if c:
            q[k] = c
            for i, b in enumerate(low, k):
                r[i] -= c * b
    return normalize(F, q), normalize(F, [x % p for x in r[:dg]])


def monic(F, f):
    if not f:
        return f
    return mul_scalar(F, f, ff_inv_int(f[-1], F.p))


def gcd(F, f, g):
    while g:
        f, g = g, divmod_poly(F, f, g)[1]
    return monic(F, f)


def ext_gcd(F, f, g):
    """(g, s, t) monic gcd with s*f + t*g = gcd."""
    r0, r1 = list(f), list(g)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = divmod_poly(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(F, s0, mul(F, q, s1))
        t0, t1 = t1, sub(F, t0, mul(F, q, t1))
    if not r0:
        return [], s0, t0
    c = ff_inv_int(r0[-1], F.p)
    return mul_scalar(F, r0, c), mul_scalar(F, s0, c), mul_scalar(F, t0, c)


def pow_mod(F, f, e: int, m):
    out = [1]
    base = divmod_poly(F, f, m)[1]
    while e:
        if e & 1:
            out = divmod_poly(F, mul(F, out, base), m)[1]
        e >>= 1
        if e:
            base = divmod_poly(F, mul(F, base, base), m)[1]
    return out


def derivative(F, f):
    p = F.p
    return normalize(F, [i * c % p for i, c in enumerate(f)][1:])


def eval_at(F, f, a):
    p = F.p
    acc = 0
    for c in reversed(f):
        acc = (acc * a + c) % p
    return acc


def x_poly(F):
    return [0, 1]


def squarefree_decomposition(F, f):
    """[(g, m)] with f = lc * prod g^m, each g monic squarefree, m ascending."""
    out = []
    f = monic(F, f)
    n = 1
    p = F.p
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
        # every exponent of f is divisible by p, and c^p = c on GF(p):
        # f(x) = r(x^p) = r(x)^p, so replace f by r
        f = normalize(F, f[::p])
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
        h = pow_mod(F, h, F.p, f)
        g = gcd(F, sub(F, h, x_poly(F)), f)
        if deg(g) > 0:
            out.append((g, d))
            f = divmod_poly(F, f, g)[0]
            h = divmod_poly(F, h, f)[1]
    return out


def equal_degree_split(F, f, d, rng):
    """One random Cantor-Zassenhaus split of monic f (all factors of degree d)."""
    p = F.p
    n = deg(f)
    while True:
        a = normalize(F, [rng.randrange(p) for _ in range(n)])
        if deg(a) < 1:
            continue
        g = gcd(F, a, f)
        if 0 < deg(g) < n:
            return g
        b = pow_mod(F, a, (p**d - 1) // 2, f)
        g = gcd(F, sub(F, b, [1]), f)
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
    """(leading coefficient, [(monic irreducible, multiplicity)]), sorted.

    The coefficients of ``f`` may be any ints; they are reduced mod p."""
    p = F.p
    f = normalize(F, [c % p for c in f])
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
        h = pow_mod(F, x, F.p ** (n // ell), f)
        g = gcd(F, sub(F, h, x), f)
        if deg(g) != 0:
            return False
    h = pow_mod(F, x, F.p**n, f)
    return not sub(F, h, x)


def find_irreducible(F, d: int, rng):
    """A random monic irreducible of degree d over F."""
    p = F.p
    while True:
        f = [rng.randrange(p) for _ in range(d)] + [1]
        if is_irreducible(F, f):
            return f


def extension_field(p: int, k: int, rng):
    """The modulus of GF(p^k): a monic irreducible of degree k over GF(p),
    found by random search.  The arithmetic of GF(p^k) over it is the
    tests' reference; the package factors over GF(p) alone."""
    from .gfext import PrimeField

    return find_irreducible(PrimeField(p), k, rng)
