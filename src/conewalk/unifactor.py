"""Univariate polynomial factorization over GF(p).

Polynomials are little-endian lists of ints in [0, p) ([] is the zero
polynomial, no trailing zeros stored).  Every function that computes
mod p takes the prime ``p`` first and works on plain ints; a
convolution or a division accumulates unreduced and reduces once.  The
kernels assume residues; ``factor`` reduces its input where it enters.

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


def normalize(f):
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


def deg(f):
    return len(f) - 1


def sub(p, f, g):
    out = [(a - b) % p for a, b in zip(f, g)]
    if len(f) >= len(g):
        out += f[len(g):]
    else:
        out += [-b % p for b in g[len(f):]]
    while out and not out[-1]:
        out.pop()
    return out


def mul(p, f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for k, b in enumerate(g, i):
                out[k] += a * b
    out = [x % p for x in out]
    while out and not out[-1]:
        out.pop()
    return out


def mul_scalar(p, f, c):
    if not c % p:
        return []
    return normalize([a * c % p for a in f])


def divmod_poly(p, f, g):
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
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
    return normalize(q), normalize([x % p for x in r[:dg]])


def monic(p, f):
    if not f:
        return f
    return mul_scalar(p, f, ff_inv_int(f[-1], p))


def gcd(p, f, g):
    while g:
        f, g = g, divmod_poly(p, f, g)[1]
    return monic(p, f)


def ext_gcd(p, f, g):
    """(g, s, t) monic gcd with s*f + t*g = gcd."""
    r0, r1 = list(f), list(g)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = divmod_poly(p, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(p, s0, mul(p, q, s1))
        t0, t1 = t1, sub(p, t0, mul(p, q, t1))
    if not r0:
        return [], s0, t0
    c = ff_inv_int(r0[-1], p)
    return mul_scalar(p, r0, c), mul_scalar(p, s0, c), mul_scalar(p, t0, c)


def pow_mod(p, f, e: int, m):
    out = [1]
    base = divmod_poly(p, f, m)[1]
    while e:
        if e & 1:
            out = divmod_poly(p, mul(p, out, base), m)[1]
        e >>= 1
        if e:
            base = divmod_poly(p, mul(p, base, base), m)[1]
    return out


def derivative(p, f):
    return normalize([i * c % p for i, c in enumerate(f)][1:])


def eval_at(p, f, a):
    acc = 0
    for c in reversed(f):
        acc = (acc * a + c) % p
    return acc


def squarefree_decomposition(p, f):
    """[(g, m)] with f = lc * prod g^m, each g monic squarefree, m ascending."""
    out = []
    f = monic(p, f)
    n = 1
    while deg(f) > 0:
        d = derivative(p, f)
        if d:
            g = gcd(p, f, d)
            h = divmod_poly(p, f, g)[0]
            i = 1
            while deg(h) > 0:
                gh = gcd(p, g, h)
                piece = divmod_poly(p, h, gh)[0]
                if deg(piece) > 0:
                    out.append((piece, i * n))
                i += 1
                g = divmod_poly(p, g, gh)[0]
                h = gh
            if deg(g) == 0:
                break
            f = g
        # every exponent of f is divisible by p, and c^p = c on GF(p):
        # f(x) = r(x^p) = r(x)^p, so replace f by r
        f = normalize(f[::p])
        n *= p
    out.sort(key=lambda gm: (gm[1], len(gm[0])))
    return out


def distinct_degree(p, f):
    """[(product of irreducibles of degree d, d)] for monic squarefree f."""
    out = []
    h = [0, 1]
    d = 0
    f = list(f)
    while deg(f) >= 1:
        d += 1
        if deg(f) < 2 * d:
            out.append((monic(p, f), deg(f)))
            break
        h = pow_mod(p, h, p, f)
        g = gcd(p, sub(p, h, [0, 1]), f)
        if deg(g) > 0:
            out.append((g, d))
            f = divmod_poly(p, f, g)[0]
            h = divmod_poly(p, h, f)[1]
    return out


def equal_degree_split(p, f, d, rng):
    """One random Cantor-Zassenhaus split of monic f (all factors of degree d)."""
    n = deg(f)
    while True:
        a = normalize([rng.randrange(p) for _ in range(n)])
        if deg(a) < 1:
            continue
        g = gcd(p, a, f)
        if 0 < deg(g) < n:
            return g
        b = pow_mod(p, a, (p**d - 1) // 2, f)
        g = gcd(p, sub(p, b, [1]), f)
        if 0 < deg(g) < n:
            return g


def equal_degree(p, f, d, rng):
    """All monic irreducible factors of f, each of degree d."""
    if deg(f) == d:
        return [monic(p, f)]
    g = equal_degree_split(p, f, d, rng)
    h = divmod_poly(p, f, g)[0]
    return equal_degree(p, g, d, rng) + equal_degree(p, h, d, rng)


def factor(p, f, rng):
    """(leading coefficient, [(monic irreducible, multiplicity)]), sorted.

    The coefficients of ``f`` may be any ints; they are reduced mod p."""
    f = normalize([c % p for c in f])
    if not f:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    lc = f[-1]
    if deg(f) == 0:
        return lc, []
    out = {}
    for g, mult in squarefree_decomposition(p, f):
        for h, d in distinct_degree(p, g):
            for irr in equal_degree(p, h, d, rng):
                key = tuple(irr)
                out[key] = out.get(key, 0) + mult
    factors = [(list(k), m) for k, m in sorted(out.items(), key=lambda kv: (len(kv[0]), kv[0]))]
    return lc, factors


def is_irreducible(p, f):
    """Rabin irreducibility test for monic f of degree >= 1."""
    n = deg(f)
    if n < 1:
        return False
    if n == 1:
        return True
    x = [0, 1]
    for ell, _ in prime_powers(n):
        h = pow_mod(p, x, p ** (n // ell), f)
        g = gcd(p, sub(p, h, x), f)
        if deg(g) != 0:
            return False
    h = pow_mod(p, x, p**n, f)
    return not sub(p, h, x)


def find_irreducible(p, d: int, rng):
    """A random monic irreducible of degree d over GF(p)."""
    while True:
        f = [rng.randrange(p) for _ in range(d)] + [1]
        if is_irreducible(p, f):
            return f


def extension_field(p: int, k: int, rng):
    """The modulus of GF(p^k): a monic irreducible of degree k over GF(p),
    found by random search.  The arithmetic of GF(p^k) over it is the
    tests' reference; the package factors over GF(p) alone."""
    return find_irreducible(p, k, rng)
