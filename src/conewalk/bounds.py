"""Binomial floor sums, their closed forms, and applicability witnesses.

All arithmetic is exact: ints for the direct sums, ``Fraction`` for the
closed forms (a non-integral result raises ``NonIntegralResult``).
``applicable`` searches for a dimension split N = n + r + s certifying
that the torsion order of a very general degree-d hypersurface of
dimension N is divisible by m; the witness preference is maximal n,
then maximal r.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from .coeffs import is_prime
from .errors import NonIntegralResult

#: delta correction table for the m = 3 closed form, indexed by n mod 6
DELTA_MOD6 = (
    Fraction(1, 3),
    Fraction(2, 3),
    Fraction(2, 3),
    Fraction(-1, 3),
    Fraction(0),
    Fraction(2, 3),
)


def sum_S(n: int, m: int) -> int:
    """sum_{l=1}^{n} C(n,l) * floor((n-l)/m), by direct summation."""
    if n < 1 or m < 2:
        raise ValueError("need n >= 1, m >= 2")
    return sum(comb(n, l) * ((n - l) // m) for l in range(1, n + 1))


def closed_form_S(n: int, m: int) -> int:
    """Closed form of sum_S for m in {2, 3}; exact rationals throughout."""
    if n < 1:
        raise ValueError("need n >= 1")
    if m == 2:
        value = Fraction(n - 1) * Fraction(2) ** (n - 2) - (n // 2)
    elif m == 3:
        value = Fraction(n - 2, 3) * Fraction(2) ** (n - 1) - Fraction(n, 3) + DELTA_MOD6[n % 6]
    else:
        raise ValueError("closed form available for m in {2, 3} only")
    if value.denominator != 1:
        raise NonIntegralResult(f"closed form S({n},{m}) = {value} is not integral")
    return int(value)


def sandwich_check(n: int, m: int) -> bool:
    """(floor(n/m) - 1)(2^(n-1) - 1) <= S(n, m) <= floor(n/m)(2^(n-1) - 1)."""
    if n < 2 or m < 2:
        raise ValueError("need n, m >= 2")
    s = sum_S(n, m)
    lo = (n // m - 1) * (2 ** (n - 1) - 1)
    hi = (n // m) * (2 ** (n - 1) - 1)
    return lo <= s <= hi


@dataclass(frozen=True)
class BoundQuery:
    d: int
    N: int
    m: int
    char_p: int = 0

    def __post_init__(self):
        if self.d < 4:
            raise ValueError("need degree d >= 4")
        if self.N < 3:
            raise ValueError("need dimension N >= 3")
        if self.m < 2:
            raise ValueError("need m >= 2")
        if self.char_p:
            if not is_prime(self.char_p):
                raise ValueError("char_p must be 0 or prime")
            if gcd(self.m, self.char_p) != 1:
                raise ValueError("m must be invertible in the base field")


@dataclass(frozen=True)
class BoundWitness:
    """A split N = n + r + s with n >= 2, r <= 2^n - 2, s <= S(n, m)."""

    n: int
    r: int
    s: int


def applicable(d: int, N: int, m: int, char_p: int = 0):
    """A witness (n, r, s), preferring maximal n then maximal r, or None."""
    BoundQuery(d, N, m, char_p)  # validates, including invertibility of m
    n_max = min(d - m, N)
    for n in range(n_max, 1, -1):
        r = min(2**n - 2, N - n)
        if r < 0:
            continue
        s = N - n - r
        if 0 <= s <= sum_S(n, m):
            return BoundWitness(n, r, s)
    return None


def max_N(d: int, m: int) -> int:
    """max over admissible n of n + (2^n - 2) + S(n, m), with n <= d - m."""
    if d < m + 2:
        raise ValueError("need d >= m + 2")
    return max(n + (2**n - 2) + sum_S(n, m) for n in range(2, d - m + 1))


def step_budget(n: int, m: int, d: int, r: int) -> int:
    """Total ladder budget sum_j floor((d - m - popcount(j)) / m), j = 1..r.

    This is the number of cone steps available from the seed state.
    """
    total = 0
    for j in range(1, r + 1):
        deg_cj = bin(j).count("1")
        total += (d - m - deg_cj) // m
    return total


def step_budget_closed_form(n: int, m: int, d: int) -> int:
    """sum_{l=1}^{n-1} C(n,l) floor((d-m-l)/m): the closed count of the
    ladder budget at r = 2^n - 2.

    The all-ones exponent pattern (l = n) belongs to the reserved last
    y-coordinate, which never participates in the induction; the
    published l = n variant of this count agrees exactly when
    d < 2m + n, and overcounts by floor((d-m-n)/m) otherwise.
    """
    return sum(comb(n, l) * ((d - m - l) // m) for l in range(1, n))
