"""The one field handle left in the package.

GF(p) is the only field the package computes in, and ``unifactor`` and
``bifactor`` take the prime ``p`` itself.  ``bifactor.factor_bivariate``
alone takes a ``PrimeField``, which ``is_absolutely_irreducible`` builds
from p: ``bench/tracer.py`` names each ``factor_bivariate`` span by the
handle's ``q`` and ``char`` (both p).  The field-protocol arithmetic,
over GF(p) and over extensions GF(p^k), is the tests' reference
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
