"""GF(p) helpers (primality, inverses, square roots) and the ring of transcendental parameters.

A ``ParamRing`` names the parameters (by default ``pi``, ``lam``,
``rho``, ``t``) whose Laurent monomials appear in polynomial terms.
Exponents are non-negative except at parameters flagged invertible (by
default only ``lam``).  Polynomial arithmetic, parameters included, lives
in ``poly``: a ``SparsePoly`` term carries its variable and parameter
exponents in one packed int key.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputTooLarge, UnassignedParameter, ZeroInverse

DEFAULT_PARAMS = ("pi", "lam", "rho", "t")
DEFAULT_INVERTIBLE = frozenset({"lam"})
#: p of a ``ParamRing``, so of every polynomial and walk, lies below
#: this: room for p > d^2 up to d = 63, and each row of the oracle's
#: root-search tables within 32 kB; ``InputTooLarge`` otherwise, before
#: the trial division of ``is_prime``
P_LIMIT = 1 << 12


def is_prime(n: int) -> bool:
    """Trial-division primality test; fine for desk-scale moduli."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_powers(n: int) -> list:
    """[(p, p^e)] for the primes p dividing n >= 1, p ascending, with
    p^e the largest power of p dividing n; trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append((p, q))
        p += 1
    if n > 1:
        out.append((n, n))
    return out


def ff_inv_int(a: int, p: int) -> int:
    """Inverse of a mod p; raises ZeroInverse on 0."""
    if a % p == 0:
        raise ZeroInverse(f"0 has no inverse mod {p}")
    return pow(a, -1, p)


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


@dataclass(frozen=True)
class ParamRing:
    """A prime p below ``P_LIMIT`` and a fixed tuple of named
    parameters, some invertible."""

    p: int
    names: tuple = DEFAULT_PARAMS
    invertible: frozenset = DEFAULT_INVERTIBLE

    def __post_init__(self):
        if self.p >= P_LIMIT:
            raise InputTooLarge(f"p = {self.p} is not below the limit {P_LIMIT}")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate parameter names")
        unknown = self.invertible - set(self.names)
        if unknown:
            raise ValueError(f"invertible flags for unknown parameters {sorted(unknown)}")

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnassignedParameter(f"unknown parameter {name!r}") from None

    @property
    def nparams(self) -> int:
        return len(self.names)

    def zero_exps(self) -> tuple:
        return (0,) * len(self.names)


@dataclass(frozen=True)
class ParamCoeff:
    """A coefficient literal for ``SparsePoly``'s constructor: ``terms``
    maps parameter exponent tuples of ``ring`` to residues.  It has no
    arithmetic; parameter-only values are ``SparsePoly``s, and the
    constructor checks the exponents."""

    ring: ParamRing
    terms: dict

    @classmethod
    def from_int(cls, ring: ParamRing, c: int) -> "ParamCoeff":
        return cls(ring, {ring.zero_exps(): c})
