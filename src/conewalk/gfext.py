"""Finite fields behind the irreducibility oracle.

Two implementations of one small protocol: the prime field GF(p) with
``int`` elements, and extensions GF(p^k) with tuple elements reduced
modulo a fixed monic irreducible.  The factorization routines in
``unifactor``/``bifactor`` are written against this protocol, so the
same code factors over either.
"""

from __future__ import annotations

from .coeffs import ff_inv_int, is_prime


class PrimeField:
    """GF(p) with plain ints in [0, p) as elements."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.q = p
        self.char = p
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        return ff_inv_int(a, self.p)

    def scalar(self, c: int):
        return c % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def random(self, rng):
        return rng.randrange(self.p)

    def __repr__(self):
        return f"GF({self.p})"


class ExtField:
    """GF(p^k) as GF(p)[x] modulo a monic irreducible of degree k.

    Elements are tuples of k ints (little-endian coefficient vectors).
    """

    def __init__(self, p: int, modulus):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        k = len(modulus) - 1
        if k < 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.p = p
        self.k = k
        self.q = p**k
        self.char = p
        self.modulus = tuple(c % p for c in modulus)
        self.zero = (0,) * k
        self.one = tuple([1] + [0] * (k - 1))

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y:
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the monic modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c == 0:
                continue
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * self.modulus[j]) % p
        return tuple(prod[:k])

    def pow(self, a, e: int):
        out = self.one
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, a):
        if self.is_zero(a):
            from .errors import ZeroInverse

            raise ZeroInverse("0 has no inverse")
        return self.pow(a, self.q - 2)

    def scalar(self, c: int):
        return tuple([c % self.p] + [0] * (self.k - 1))

    def is_zero(self, a):
        return all(x % self.p == 0 for x in a)

    def random(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.k))

    def __repr__(self):
        return f"GF({self.p}^{self.k})"


def sqrt_mod(a: int, p: int):
    """A square root of a mod p, or None if a is a non-residue (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r
