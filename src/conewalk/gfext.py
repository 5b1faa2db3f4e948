"""The field handle of the irreducibility oracle.

GF(p) is the only field the package computes in.  ``unifactor`` and
``bifactor`` take a ``PrimeField`` as their first argument and read its
modulus ``p``; their arithmetic is on plain ints mod p.  ``q`` and
``char`` (both p) stay because ``bench/tracer.py`` names each
``factor_bivariate`` span by them.  The field-protocol arithmetic, over
GF(p) and over extensions GF(p^k), is the tests' reference
(``tests/oracles.py``).
"""

from __future__ import annotations

from .coeffs import is_prime


class PrimeField:
    """GF(p), named by its checked prime modulus ``p``."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.q = p
        self.char = p

    def __repr__(self):
        return f"GF({self.p})"
