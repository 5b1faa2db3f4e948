"""Exact coefficient arithmetic: GF(p) and Laurent parameter coefficients.

A ``ParamCoeff`` is a finite sum of monomials in a fixed tuple of named
transcendental parameters, with coefficients in GF(p).  Exponents are
non-negative except at parameters flagged invertible (by default only
``lam``), which may carry negative exponents.  Values are immutable;
every operation returns a fresh, fully reduced object with no zero
coefficients stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InvertibleAssignedZero,
    ModulusMismatch,
    UnassignedParameter,
    ZeroInverse,
)

DEFAULT_PARAMS = ("pi", "lam", "rho", "t")
DEFAULT_INVERTIBLE = frozenset({"lam"})


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


def ff_inv_int(a: int, p: int) -> int:
    """Inverse of a mod p via the extended Euclidean algorithm."""
    a %= p
    if a == 0:
        raise ZeroInverse(f"0 has no inverse mod {p}")
    # Invariants: old_r = old_s * a (mod p), r = s * a (mod p).
    old_r, r = a, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    return old_s % p


@dataclass(frozen=True)
class FieldElem:
    """A fully reduced residue in GF(p)."""

    value: int
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        object.__setattr__(self, "value", self.value % self.p)

    def _check(self, other: "FieldElem"):
        if self.p != other.p:
            raise ModulusMismatch(f"GF({self.p}) vs GF({other.p})")

    def __add__(self, other):
        self._check(other)
        return FieldElem(self.value + other.value, self.p)

    def __sub__(self, other):
        self._check(other)
        return FieldElem(self.value - other.value, self.p)

    def __mul__(self, other):
        self._check(other)
        return FieldElem(self.value * other.value, self.p)

    def __neg__(self):
        return FieldElem(-self.value, self.p)

    def inv(self) -> "FieldElem":
        return FieldElem(ff_inv_int(self.value, self.p), self.p)

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"FieldElem({self.value} mod {self.p})"


def ff_inv(a: FieldElem) -> FieldElem:
    """Multiplicative inverse in GF(p); raises ZeroInverse on 0."""
    return a.inv()


@dataclass(frozen=True)
class ParamRing:
    """GF(p) Laurent-polynomial ring in a fixed tuple of parameters."""

    p: int
    names: tuple = DEFAULT_PARAMS
    invertible: frozenset = DEFAULT_INVERTIBLE

    def __post_init__(self):
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


def _term_sort_key(exps):
    # Descending total degree, then descending lex: deterministic display order.
    return (-sum(exps), tuple(-e for e in exps))


class ParamCoeff:
    """Immutable Laurent polynomial over GF(p) in the ring's parameters.

    ``terms`` maps exponent tuples to nonzero residues in [1, p).
    Negative exponents are legal only at invertible-flagged parameters.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: ParamRing, terms: dict):
        clean = {}
        for exps, c in terms.items():
            c %= ring.p
            if c == 0:
                continue
            if len(exps) != ring.nparams:
                raise ValueError("exponent tuple length mismatch")
            for name, e in zip(ring.names, exps):
                if e < 0 and name not in ring.invertible:
                    raise ValueError(f"negative exponent at non-invertible parameter {name!r}")
            clean[tuple(exps)] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("ParamCoeff is immutable")

    # -- constructors --

    @classmethod
    def from_int(cls, ring: ParamRing, c: int) -> "ParamCoeff":
        return cls(ring, {ring.zero_exps(): c % ring.p})

    @classmethod
    def zero(cls, ring: ParamRing) -> "ParamCoeff":
        return cls(ring, {})

    @classmethod
    def one(cls, ring: ParamRing) -> "ParamCoeff":
        return cls.from_int(ring, 1)

    @classmethod
    def param(cls, ring: ParamRing, name: str, exp: int = 1) -> "ParamCoeff":
        i = ring.index(name)
        exps = [0] * ring.nparams
        exps[i] = exp
        return cls(ring, {tuple(exps): 1})

    # -- predicates --

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return not self.terms or set(self.terms) == {self.ring.zero_exps()}

    def scalar_value(self) -> int:
        """The residue, for coefficients free of parameters."""
        if not self.terms:
            return 0
        if not self.is_scalar():
            raise ValueError("coefficient is not a scalar")
        return self.terms[self.ring.zero_exps()]

    def uses_param(self, name: str) -> bool:
        i = self.ring.index(name)
        return any(exps[i] != 0 for exps in self.terms)

    # -- arithmetic --

    def _check(self, other: "ParamCoeff"):
        if self.ring != other.ring:
            raise ModulusMismatch("coefficients over different parameter rings")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = (out.get(exps, 0) + c) % self.ring.p
        return ParamCoeff(self.ring, out)

    def __neg__(self):
        return ParamCoeff(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        p = self.ring.p
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = (out.get(e, 0) + c1 * c2) % p
        return ParamCoeff(self.ring, out)

    def scale(self, c: int) -> "ParamCoeff":
        return ParamCoeff(self.ring, {e: v * c for e, v in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("use explicit Laurent monomials for inverses")
        out = ParamCoeff.one(self.ring)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, ParamCoeff)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    # -- parameter calculus --

    def min_exp(self, name: str) -> int:
        """Smallest exponent of ``name`` over all terms (0 for the zero coefficient)."""
        if not self.terms:
            return 0
        i = self.ring.index(name)
        return min(exps[i] for exps in self.terms)

    def shift(self, name: str, k: int) -> "ParamCoeff":
        """Multiply by name^k."""
        i = self.ring.index(name)
        out = {}
        for exps, c in self.terms.items():
            e = list(exps)
            e[i] += k
            out[tuple(e)] = c
        return ParamCoeff(self.ring, out)

    def set_param_zero(self, name: str) -> "ParamCoeff":
        """Substitute name -> 0.  Requires no negative exponents at ``name``."""
        i = self.ring.index(name)
        if self.min_exp(name) < 0:
            raise InvertibleAssignedZero(
                f"parameter {name!r} occurs inverted; clear denominators first"
            )
        out = {exps: c for exps, c in self.terms.items() if exps[i] == 0}
        return ParamCoeff(self.ring, out)

    def derivative(self, name: str) -> "ParamCoeff":
        """Formal derivative with respect to a parameter (Laurent rule)."""
        i = self.ring.index(name)
        p = self.ring.p
        out = {}
        for exps, c in self.terms.items():
            k = exps[i]
            if k % p == 0:
                continue
            e = list(exps)
            e[i] = k - 1
            e = tuple(e)
            out[e] = (out.get(e, 0) + c * k) % p
        return ParamCoeff(self.ring, out)

    def specialize(self, assignment: dict) -> FieldElem:
        """Evaluate at a total parameter assignment.

        Invertible-flagged parameters must receive nonzero values; a negative
        exponent turns into a power of the inverse.
        """
        p = self.ring.p
        values = {}
        for name in self.ring.names:
            if not self.uses_param(name):
                continue
            if name not in assignment:
                raise UnassignedParameter(f"parameter {name!r} not assigned")
            v = assignment[name]
            v = v.value if isinstance(v, FieldElem) else v % p
            if v == 0 and name in self.ring.invertible:
                raise InvertibleAssignedZero(f"invertible parameter {name!r} assigned 0")
            values[name] = v
        total = 0
        for exps, c in self.terms.items():
            acc = c
            for name, e in zip(self.ring.names, exps):
                if e == 0:
                    continue
                v = values[name]
                if e < 0:
                    acc = acc * pow(ff_inv_int(v, p), -e, p) % p
                else:
                    acc = acc * pow(v, e, p) % p
            total = (total + acc) % p
        return FieldElem(total, p)

    # -- display --

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0]))

    def __repr__(self):
        if not self.terms:
            return "ParamCoeff(0)"
        bits = []
        for exps, c in self.sorted_terms():
            factors = [] if c == 1 and any(exps) else [str(c)]
            for name, e in zip(self.ring.names, exps):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            bits.append("*".join(factors) if factors else str(c))
        return "ParamCoeff(" + " + ".join(bits) + ")"
