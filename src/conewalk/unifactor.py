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
Frobenius powers of those stages (``pow_mod``) run on packed ints: a
residue mod m, n = deg m, is one int of n k-byte slots (Kronecker
packing, Harvey, J. Symbolic Comput. 44, 2009), a product is one int
product, and its reduction mod m adds the high slots times the rows
x^j mod m, packed once per modulus (``modulus_rows``), which
``distinct_degree`` keeps while its modulus is unchanged.  A slot must
hold n^2 (p-1)^3, so k is the smallest of 1, 2, 4 and 8 bytes that
does; below ``coeffs.P_LIMIT`` 8 bytes hold it up to degree 16383, and
past 8 bytes ``FactorizationFailure`` is raised before anything is
packed.  The field-protocol version of this module, which also factors
over GF(p^k), is the tests' reference (``tests/oracles.py``).
"""

from __future__ import annotations

import sys
from array import array
from operator import mul as _mul_int

from .coeffs import ff_inv_int, prime_powers
from .errors import FactorizationFailure, ZeroPolynomial


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


# item size -> array type code, to read packed slots back in one call
_SLOT_CODES = {array(code).itemsize: code for code in "QLIHB"}


def slot_bytes(bound):
    """The smallest of 1, 2, 4 and 8 bytes whose unsigned slot holds
    ``bound``, or None when not even 8 do."""
    return next((k for k in (1, 2, 4, 8) if bound < 1 << 8 * k), None)


def pack(values, k):
    """The ints of ``values``, each below 2^(8k), as one int of k-byte
    little-endian slots."""
    slots = array(_SLOT_CODES[k], values)
    if sys.byteorder == "big":
        slots.byteswap()
    return int.from_bytes(slots.tobytes(), "little")


def unpack(x, count, k):
    """The ``count`` k-byte little-endian slots of an int 0 <= x <
    2^(8 k count), as an array."""
    slots = array(_SLOT_CODES[k], x.to_bytes(count * k, "little"))
    if sys.byteorder == "big":
        slots.byteswap()
    return slots


def modulus_rows(p, m):
    """(k, rows) of a modulus m over GF(p), n = deg m, for ``pow_mod``:
    the slot size in bytes and the rows x^j mod m, j = n..2n-2, packed.
    Raises ``FactorizationFailure`` when no 8-byte slot holds n^2 (p-1)^3."""
    n = len(m) - 1
    k = slot_bytes(n * n * (p - 1) ** 3)
    if k is None:
        raise FactorizationFailure(
            f"p={p} is too large for the packed powers mod a modulus of degree {n}: "
            f"no 8-byte slot holds {n}^2*(p-1)^3"
        )
    # x^n = -sum_i tail_i x^i mod m; x^(j+1) mod m shifts x^j mod m up one
    # place and folds its top coefficient back by the same rule
    inv_lc = ff_inv_int(m[-1], p)
    tail = [b * inv_lc % p for b in m[:-1]]
    row = [-b % p for b in tail]
    rows = []
    for _ in range(n - 1):
        rows.append(pack(row, k))
        top = row[-1]
        row = [(a - top * b) % p for a, b in zip([0] + row, tail)]
    return k, rows


def pow_mod(p, f, e: int, m, reduction=None):
    """f^e mod m over GF(p), by square-and-multiply on packed ints;
    ``reduction`` is ``modulus_rows(p, m)``, built here when not given.

    With n = deg m, a residue packs its n coefficients in k-byte slots.
    The product of two is one int product whose slot j < 2n - 1 holds
    the x^j coefficient unreduced, at most n(p-1)^2.  Slots n..2n-2 are
    read back, and each times its row, x^j mod m packed, is added to the
    low n slots: each stays at most n^2 (p-1)^3, so no slot carries, and
    reading the n slots back with one ``% p`` each gives the residue.
    Raises as ``modulus_rows`` does.
    """
    base = divmod_poly(p, f, m)[1]
    if not e:
        return [1]
    k, rows = reduction or modulus_rows(p, m)
    if not base:
        return []
    n = len(m) - 1
    width = 8 * k * n
    low = (1 << width) - 1

    def mulmod(a, b):
        x = a * b
        x = sum(map(_mul_int, unpack(x >> width, n - 1, k), rows), x & low)
        return pack([c % p for c in unpack(x, n, k)], k)

    base = pack(base + [0] * (n - len(base)), k)
    out = None
    while e:
        if e & 1:
            out = base if out is None else mulmod(out, base)
        e >>= 1
        if e:
            base = mulmod(base, base)
    return normalize(unpack(out, n, k).tolist())


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
    reduction = None  # the packed rows of f, kept while f is unchanged
    while deg(f) >= 1:
        d += 1
        if deg(f) < 2 * d:
            out.append((monic(p, f), deg(f)))
            break
        reduction = reduction or modulus_rows(p, f)
        h = pow_mod(p, h, p, f, reduction)
        g = gcd(p, sub(p, h, [0, 1]), f)
        if deg(g) > 0:
            out.append((g, d))
            f = divmod_poly(p, f, g)[0]
            h = divmod_poly(p, h, f)[1]
            reduction = None
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
