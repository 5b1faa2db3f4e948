"""Sparse multivariate polynomials over Laurent parameter coefficients.

Terms map dense exponent tuples (one slot per universe variable) to
``ParamCoeff`` values.  The canonical term order is descending total
degree, then descending lexicographic on exponent tuples; this order
fixes the text form emitted by ``canonical_string``.

Text grammar (whitespace-insensitive on parse, canonical on emit)::

    poly   ::= term (" + " term)*
    term   ::= [coeff "*"] factor ("*" factor)*
    factor ::= varname ["^" int] | param ["^" int]

Negative exponents are accepted only at invertible parameters (``lam``).
The canonical emitter uses least non-negative residues and never prints
a unary minus; the zero polynomial prints as ``"0"``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .coeffs import FieldElem, ParamCoeff, ParamRing, _term_sort_key
from .errors import (
    ParseError,
    UniverseMismatch,
    UnknownVariable,
    ZeroPolynomial,
)


@dataclass(frozen=True)
class VarUniverse:
    """An ordered tuple of variable names over a parameter ring."""

    names: tuple
    ring: ParamRing

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        overlap = set(self.names) & set(self.ring.names)
        if overlap:
            raise ValueError(f"names {sorted(overlap)} used as both variable and parameter")

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownVariable(f"unknown variable {name!r}") from None

    def extended(self, new_names, position=None) -> "VarUniverse":
        """A universe with ``new_names`` inserted (appended by default)."""
        names = list(self.names)
        if position is None:
            position = len(names)
        names[position:position] = list(new_names)
        return VarUniverse(tuple(names), self.ring)


def coordinate_universe(n, r, s, ring, with_cone_vars=False) -> VarUniverse:
    """The standard universe x0..xn, y1..y{r+1}, z1..zs [, z, w]."""
    names = [f"x{i}" for i in range(n + 1)]
    names += [f"y{j}" for j in range(1, r + 2)]
    names += [f"z{k}" for k in range(1, s + 1)]
    if with_cone_vars:
        names += ["z", "w"]
    return VarUniverse(tuple(names), ring)


class SparsePoly:
    """Immutable sparse polynomial over a ``VarUniverse``."""

    __slots__ = ("universe", "terms")

    def __init__(self, universe: VarUniverse, terms: dict):
        clean = {}
        nv = len(universe)
        for exps, c in terms.items():
            if len(exps) != nv:
                raise ValueError("exponent tuple length mismatch")
            if any(e < 0 for e in exps):
                raise ValueError("negative variable exponent")
            if not isinstance(c, ParamCoeff):
                raise TypeError("coefficients must be ParamCoeff")
            if c.is_zero():
                continue
            clean[tuple(exps)] = c
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("SparsePoly is immutable")

    # -- constructors --

    @classmethod
    def zero(cls, universe: VarUniverse) -> "SparsePoly":
        return cls(universe, {})

    @classmethod
    def constant(cls, universe: VarUniverse, c) -> "SparsePoly":
        if isinstance(c, int):
            c = ParamCoeff.from_int(universe.ring, c)
        return cls(universe, {(0,) * len(universe): c})

    @classmethod
    def variable(cls, universe: VarUniverse, name: str, exp: int = 1) -> "SparsePoly":
        i = universe.index(name)
        exps = [0] * len(universe)
        exps[i] = exp
        return cls(universe, {tuple(exps): ParamCoeff.one(universe.ring)})

    @classmethod
    def monomial(cls, universe: VarUniverse, exps, c) -> "SparsePoly":
        if isinstance(c, int):
            c = ParamCoeff.from_int(universe.ring, c)
        return cls(universe, {tuple(exps): c})

    @classmethod
    def param(cls, universe: VarUniverse, name: str, exp: int = 1) -> "SparsePoly":
        c = ParamCoeff.param(universe.ring, name, exp)
        return cls(universe, {(0,) * len(universe): c})

    # -- basic predicates --

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, SparsePoly)
            and self.universe == other.universe
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.universe, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    # -- arithmetic --

    def _check(self, other):
        if self.universe != other.universe:
            raise UniverseMismatch("operands live in different universes")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            acc = out.get(exps)
            out[exps] = c if acc is None else acc + c
        return SparsePoly(self.universe, out)

    def __neg__(self):
        return SparsePoly(self.universe, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                acc = out.get(e)
                out[e] = prod if acc is None else acc + prod
        return SparsePoly(self.universe, out)

    def scale(self, c) -> "SparsePoly":
        """Multiply by a scalar or parameter coefficient."""
        if isinstance(c, int):
            c = ParamCoeff.from_int(self.universe.ring, c)
        return SparsePoly(self.universe, {e: v * c for e, v in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = SparsePoly.constant(self.universe, 1)
        for _ in range(k):
            out = out * self
        return out

    # -- degrees --

    def total_degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomial("degree of the zero polynomial")
        return max(sum(e) for e in self.terms)

    def degree_info(self):
        """(total degree, homogeneous?) — raises on the zero polynomial."""
        if not self.terms:
            raise ZeroPolynomial("degree of the zero polynomial")
        degs = {sum(e) for e in self.terms}
        return max(degs), len(degs) == 1

    def uses_variable(self, name: str) -> bool:
        i = self.universe.index(name)
        return any(e[i] != 0 for e in self.terms)

    def uses_param(self, name: str) -> bool:
        return any(c.uses_param(name) for c in self.terms.values())

    # -- divisibility by variable powers --

    def monomial_divides(self, name: str, k: int) -> bool:
        """True iff x^k divides every term (vacuously true for 0)."""
        if k < 0:
            raise ValueError("negative power")
        i = self.universe.index(name)
        return all(e[i] >= k for e in self.terms)

    def divide_by_monomial(self, name: str, k: int) -> "SparsePoly":
        from .errors import DivisionFailure

        i = self.universe.index(name)
        out = {}
        for exps, c in self.terms.items():
            if exps[i] < k:
                raise DivisionFailure(f"{name}^{k} does not divide every term")
            e = list(exps)
            e[i] -= k
            out[tuple(e)] = c
        return SparsePoly(self.universe, out)

    def variable_valuation(self, name: str):
        """min exponent of ``name`` over all terms; None for the zero polynomial."""
        i = self.universe.index(name)
        if not self.terms:
            return None
        return min(e[i] for e in self.terms)

    # -- calculus --

    def partial_derivative(self, name: str) -> "SparsePoly":
        i = self.universe.index(name)
        out = {}
        for exps, c in self.terms.items():
            k = exps[i]
            if k == 0:
                continue
            scaled = c.scale(k)
            if scaled.is_zero():
                continue  # characteristic kills the exponent
            e = list(exps)
            e[i] = k - 1
            e = tuple(e)
            acc = out.get(e)
            out[e] = scaled if acc is None else acc + scaled
        return SparsePoly(self.universe, out)

    def param_derivative(self, name: str) -> "SparsePoly":
        """Formal derivative with respect to a parameter, coefficient-wise."""
        out = {}
        for exps, c in self.terms.items():
            d = c.derivative(name)
            if not d.is_zero():
                out[exps] = d
        return SparsePoly(self.universe, out)

    # -- evaluation / specialization --

    def eval_point(self, point, params: dict | None = None) -> FieldElem:
        """Exact evaluation at a point, with a total parameter assignment."""
        p = self.universe.ring.p
        if len(point) != len(self.universe):
            raise ValueError("point length mismatch")
        vals = [v.value if isinstance(v, FieldElem) else v % p for v in point]
        total = 0
        for exps, c in self.terms.items():
            acc = c.specialize(params or {}).value
            for v, e in zip(vals, exps):
                if e:
                    acc = acc * pow(v, e, p) % p
            total = (total + acc) % p
        return FieldElem(total, p)

    def specialize_params(self, assignment: dict) -> dict:
        """Terms with all parameters evaluated: exponent tuple -> residue."""
        out = {}
        for exps, c in self.terms.items():
            v = c.specialize(assignment).value
            if v:
                out[exps] = v
        return out

    def min_param_exp(self, name: str) -> int:
        exps = [c.min_exp(name) for c in self.terms.values()]
        return min(exps) if exps else 0

    def clear_param_denominators(self, name: str) -> "SparsePoly":
        """Multiply through by name^k so that no negative exponents remain."""
        k = self.min_param_exp(name)
        if k >= 0:
            return self
        return SparsePoly(self.universe, {e: c.shift(name, -k) for e, c in self.terms.items()})

    def set_param_zero(self, name: str) -> "SparsePoly":
        """Substitute a parameter by 0 (after clearing its denominators)."""
        cleared = self.clear_param_denominators(name)
        out = {}
        for exps, c in cleared.terms.items():
            c0 = c.set_param_zero(name)
            if not c0.is_zero():
                out[exps] = c0
        return SparsePoly(cleared.universe, out)

    def substitute_param(self, name: str, value: int) -> "SparsePoly":
        """Bake a single parameter to a field value, keeping the others symbolic."""
        ring = self.universe.ring
        p = ring.p
        i = ring.index(name)
        from .coeffs import ff_inv_int

        out = {}
        for exps, c in self.terms.items():
            acc = {}
            for pexps, v in c.terms.items():
                k = pexps[i]
                if k >= 0:
                    v = v * pow(value % p, k, p) % p
                else:
                    v = v * pow(ff_inv_int(value, p), -k, p) % p
                e = list(pexps)
                e[i] = 0
                e = tuple(e)
                acc[e] = (acc.get(e, 0) + v) % p
            cc = ParamCoeff(ring, acc)
            if not cc.is_zero():
                prev = out.get(exps)
                out[exps] = cc if prev is None else prev + cc
        return SparsePoly(self.universe, out)

    # -- universe embedding --

    def embed(self, new_universe: VarUniverse) -> "SparsePoly":
        """Reindex into a larger universe containing all used names."""
        pos = []
        for i, name in enumerate(self.universe.names):
            try:
                pos.append(new_universe.index(name))
            except UnknownVariable:
                if self.uses_variable(name):
                    raise
                pos.append(None)
        nv = len(new_universe)
        out = {}
        for exps, c in self.terms.items():
            e = [0] * nv
            for old_i, new_i in enumerate(pos):
                if exps[old_i]:
                    e[new_i] = exps[old_i]
            out[tuple(e)] = c
        return SparsePoly(new_universe, out)

    # -- canonical text form --

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0]))

    def canonical_string(self) -> str:
        if not self.terms:
            return "0"
        ring = self.universe.ring
        pieces = []
        for exps, coeff in self.sorted_terms():
            for pexps, scalar in coeff.sorted_terms():
                factors = []
                for name, e in zip(ring.names, pexps):
                    if e == 0:
                        continue
                    factors.append(name if e == 1 else f"{name}^{e}")
                for name, e in zip(self.universe.names, exps):
                    if e == 0:
                        continue
                    factors.append(name if e == 1 else f"{name}^{e}")
                if not factors:
                    pieces.append(str(scalar))
                elif scalar == 1:
                    pieces.append("*".join(factors))
                else:
                    pieces.append("*".join([str(scalar)] + factors))
        return " + ".join(pieces)

    def __repr__(self):
        return f"SparsePoly({self.canonical_string()})"


_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9]*|\^|-?\d+|\*|\+|-|\S")


def parse_poly(text: str, universe: VarUniverse) -> SparsePoly:
    """Parse the grammar above into a canonical ``SparsePoly``."""
    ring = universe.ring
    tokens = []
    for m in _TOKEN.finditer(text):
        tokens.append((m.group(0), m.start()))
    if not tokens:
        raise ParseError("empty polynomial text", 0)

    result = SparsePoly.zero(universe)
    i = 0
    n = len(tokens)
    sign = 1

    def parse_term(i, sign):
        var_exps = [0] * len(universe)
        par_exps = [0] * ring.nparams
        scalar = 1
        expect_factor = True
        any_factor = False
        while i < n:
            tok, pos = tokens[i]
            if tok in ("+", "-"):
                break
            if tok == "*":
                if expect_factor:
                    raise ParseError("unexpected '*'", pos)
                expect_factor = True
                i += 1
                continue
            if not expect_factor:
                raise ParseError(f"expected '*' or '+' before {tok!r}", pos)
            if re.fullmatch(r"-?\d+", tok):
                if tok.startswith("-"):
                    raise ParseError("negative coefficient not in grammar", pos)
                scalar = scalar * int(tok) % ring.p
            elif tok in universe.names or tok in ring.names:
                name = tok
                exp = 1
                if i + 1 < n and tokens[i + 1][0] == "^":
                    if i + 2 >= n or not re.fullmatch(r"-?\d+", tokens[i + 2][0]):
                        raise ParseError("expected integer exponent after '^'", tokens[i + 1][1])
                    exp = int(tokens[i + 2][0])
                    i += 2
                if name in universe.names:
                    if exp < 0:
                        raise ParseError(f"negative exponent at variable {name!r}", pos)
                    var_exps[universe.index(name)] += exp
                else:
                    if exp < 0 and name not in ring.invertible:
                        raise ParseError(f"negative exponent at parameter {name!r}", pos)
                    par_exps[ring.index(name)] += exp
            else:
                raise ParseError(f"unknown name {tok!r}", pos)
            any_factor = True
            expect_factor = False
            i += 1
        if not any_factor:
            pos = tokens[i][1] if i < n else len(text)
            raise ParseError("empty term", pos)
        coeff = ParamCoeff(ring, {tuple(par_exps): scalar * sign})
        return SparsePoly(universe, {tuple(var_exps): coeff}), i

    term, i = parse_term(i, sign)
    result = result + term
    while i < n:
        tok, pos = tokens[i]
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        else:
            raise ParseError(f"expected '+' between terms, got {tok!r}", pos)
        i += 1
        term, i = parse_term(i, sign)
        result = result + term
    return result
