"""Sparse multivariate polynomials over GF(p) with Laurent parameters.

A polynomial is one dict, ``terms``, from exponent tuples to residues in
[1, p).  Each tuple has one slot per universe variable, then one slot
per parameter of the universe's ``ParamRing``.  Variable exponents are
non-negative; a parameter exponent may be negative only at an invertible
parameter (``lam``).  Parameter-only values such as ``-lam^-1`` or
``t*lam`` are ordinary polynomials (``SparsePoly.param``).

Only the public constructor and ``parse_poly`` check terms.  Arithmetic
builds its results from checked operands through ``_poly``, unchecked.

The canonical term order is descending total degree, then descending
lexicographic, on the variable slots, and then the same on the
parameter slots; this order fixes the text form emitted by
``canonical_string``.

Text grammar, with ``int`` an unsigned decimal::

    poly   ::= term (("+" | "-") term)*
    term   ::= factor ("*" factor)*
    factor ::= int | name ["^" ["-"] int]

Whitespace may stand between tokens but not inside one.  A ``-``
subtracts however it is spaced, and signs an int only right after
``^``; every ``*`` needs a factor after it.  The canonical emitter
writes ``" + "`` between terms, least non-negative residues, and
``"0"`` for the zero polynomial.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import add, itemgetter

from .coeffs import ParamCoeff, ParamRing, ff_inv_int
from .errors import (
    DivisionFailure,
    InvertibleAssignedZero,
    ModulusMismatch,
    ParseError,
    UnassignedParameter,
    UniverseMismatch,
    UnknownVariable,
    ZeroPolynomial,
)


@dataclass(frozen=True)
class VarUniverse:
    """An ordered tuple of variable names over a parameter ring."""

    names: tuple
    ring: ParamRing
    # the exponent slot of every name in the text grammar: variables, then parameters
    _slots: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        overlap = set(self.names) & set(self.ring.names)
        if overlap:
            raise ValueError(f"names {sorted(overlap)} used as both variable and parameter")
        object.__setattr__(self, "_slots", {name: k for k, name in enumerate(self.names + self.ring.names)})

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        k = self._slots.get(name, len(self))
        if k >= len(self):
            raise UnknownVariable(f"unknown variable {name!r}")
        return k


def coordinate_universe(n, r, s, ring) -> VarUniverse:
    """The standard universe x0..xn, y1..y{r+1}, z1..zs."""
    names = [f"x{i}" for i in range(n + 1)]
    names += [f"y{j}" for j in range(1, r + 2)]
    names += [f"z{k}" for k in range(1, s + 1)]
    return VarUniverse(tuple(names), ring)


def _power(v, e, p):
    """v^e mod p for any int e; a negative e needs v invertible."""
    return pow(v, e, p) if e >= 0 else pow(ff_inv_int(v, p), -e, p)


def _reduced(acc, p):
    """{key: residue} of the nonzero residues of an accumulator dict."""
    return {k: r for k, v in acc.items() if (r := v % p)}


def _poly(universe, terms):
    """A SparsePoly over terms already checked, with no zero residue."""
    f = object.__new__(SparsePoly)
    object.__setattr__(f, "universe", universe)
    object.__setattr__(f, "terms", terms)
    return f


class SparsePoly:
    """Immutable sparse polynomial over a ``VarUniverse``."""

    __slots__ = ("universe", "terms")

    def __init__(self, universe: VarUniverse, terms: dict):
        """``terms`` maps a full exponent tuple (variables, then
        parameters) to an int, or a variable exponent tuple to a
        ``ParamCoeff`` literal; residues are reduced mod p, zeros dropped."""
        ring = universe.ring
        nv = len(universe)
        acc = {}
        for exps, c in terms.items():
            if isinstance(c, ParamCoeff):
                if c.ring != ring:
                    raise ModulusMismatch("coefficient over a different parameter ring")
                if len(exps) != nv:
                    raise ValueError("exponent tuple length mismatch")
                pairs = [(tuple(exps) + tuple(pexps), v) for pexps, v in c.terms.items()]
            elif isinstance(c, int):
                pairs = [(tuple(exps), c)]
            else:
                raise TypeError("coefficients must be int residues or ParamCoeff literals")
            for key, v in pairs:
                if len(key) != nv + ring.nparams:
                    raise ValueError("exponent tuple length mismatch")
                if min(key, default=0) < 0:
                    if min(key[:nv], default=0) < 0:
                        raise ValueError("negative variable exponent")
                    for e, name in zip(key[nv:], ring.names):
                        if e < 0 and name not in ring.invertible:
                            raise ValueError(f"negative exponent at non-invertible parameter {name!r}")
                acc[key] = acc.get(key, 0) + v
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "terms", _reduced(acc, ring.p))

    def __setattr__(self, *a):
        raise AttributeError("SparsePoly is immutable")

    # -- constructors --

    @classmethod
    def zero(cls, universe: VarUniverse) -> "SparsePoly":
        return _poly(universe, {})

    @classmethod
    def constant(cls, universe: VarUniverse, c: int) -> "SparsePoly":
        return cls(universe, {(0,) * (len(universe) + universe.ring.nparams): c})

    @classmethod
    def from_residues(cls, universe: VarUniverse, terms: dict) -> "SparsePoly":
        """The parameter-free polynomial with terms {variable exponents:
        residue}; the inverse of ``specialize_params``."""
        zero = (0,) * universe.ring.nparams
        return cls(universe, {tuple(exps) + zero: c for exps, c in terms.items()})

    @classmethod
    def variable(cls, universe: VarUniverse, name: str, exp: int = 1) -> "SparsePoly":
        exps = [0] * (len(universe) + universe.ring.nparams)
        exps[universe.index(name)] = exp
        return cls(universe, {tuple(exps): 1})

    @classmethod
    def param(cls, universe: VarUniverse, name: str, exp: int = 1) -> "SparsePoly":
        exps = [0] * (len(universe) + universe.ring.nparams)
        exps[len(universe) + universe.ring.index(name)] = exp
        return cls(universe, {tuple(exps): 1})

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
        return hash((self.universe, frozenset(self.terms.items())))

    # -- arithmetic --

    def _check(self, other):
        if self.universe != other.universe:
            raise UniverseMismatch("operands live in different universes")

    def _combine(self, other, sign):
        """self + sign * other."""
        self._check(other)
        p = self.universe.ring.p
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = (out.get(k, 0) + sign * c) % p
            if v:
                out[k] = v
            else:
                del out[k]
        return _poly(self.universe, out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        p = self.universe.ring.p
        return _poly(self.universe, {k: p - c for k, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        acc = {}
        get = acc.get
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = tuple(map(add, k1, k2))
                acc[k] = get(k, 0) + c1 * c2
        return _poly(self.universe, _reduced(acc, self.universe.ring.p))

    def scale(self, c: int) -> "SparsePoly":
        """Multiply by an integer scalar."""
        p = self.universe.ring.p
        return _poly(self.universe, _reduced({k: v * c for k, v in self.terms.items()}, p))

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = SparsePoly.constant(self.universe, 1)
        for _ in range(k):
            out = out * self
        return out

    # -- degrees --

    def _variable_degrees(self):
        if not self.terms:
            raise ZeroPolynomial("degree of the zero polynomial")
        nv = len(self.universe)
        return {sum(k[:nv]) for k in self.terms}

    def total_degree(self) -> int:
        return max(self._variable_degrees())

    def degree_info(self):
        """(total degree, homogeneous?) — raises on the zero polynomial."""
        degs = self._variable_degrees()
        return max(degs), len(degs) == 1

    def _param_slot(self, name: str) -> int:
        return len(self.universe) + self.universe.ring.index(name)

    def uses_variable(self, name: str) -> bool:
        i = self.universe.index(name)
        return any(k[i] for k in self.terms)

    def uses_param(self, name: str) -> bool:
        i = self._param_slot(name)
        return any(k[i] for k in self.terms)

    # -- divisibility by variable powers --

    def monomial_divides(self, name: str, k: int) -> bool:
        """True iff x^k divides every term (vacuously true for 0)."""
        if k < 0:
            raise ValueError("negative power")
        i = self.universe.index(name)
        return all(e[i] >= k for e in self.terms)

    def divide_by_monomial(self, name: str, k: int) -> "SparsePoly":
        if not self.monomial_divides(name, k):
            raise DivisionFailure(f"{name}^{k} does not divide every term")
        i = self.universe.index(name)
        return _poly(
            self.universe, {e[:i] + (e[i] - k,) + e[i + 1:]: c for e, c in self.terms.items()}
        )

    def variable_valuation(self, name: str):
        """min exponent of ``name`` over all terms; None for the zero polynomial."""
        i = self.universe.index(name)
        if not self.terms:
            return None
        return min(e[i] for e in self.terms)

    # -- calculus --

    def _derivative(self, slot: int) -> "SparsePoly":
        """Formal derivative in one exponent slot; the characteristic
        kills exponents divisible by p.  Lowering one slot is injective,
        so no two terms meet."""
        p = self.universe.ring.p
        out = {}
        for k, c in self.terms.items():
            v = c * k[slot] % p
            if v:
                out[k[:slot] + (k[slot] - 1,) + k[slot + 1:]] = v
        return _poly(self.universe, out)

    def partial_derivative(self, name: str) -> "SparsePoly":
        return self._derivative(self.universe.index(name))

    def param_derivative(self, name: str) -> "SparsePoly":
        """Formal derivative with respect to a parameter (Laurent rule)."""
        return self._derivative(self._param_slot(name))

    # -- evaluation / specialization --

    def specialize_params(self, assignment: dict) -> dict:
        """Terms with all parameters evaluated: variable exponent tuple ->
        residue.  Every parameter the terms use must be assigned, and an
        invertible one must be assigned a nonzero value."""
        ring = self.universe.ring
        p, nv = ring.p, len(self.universe)
        values = []
        for slot, name in enumerate(ring.names, nv):
            if not any(k[slot] for k in self.terms):
                continue
            if name not in assignment:
                raise UnassignedParameter(f"parameter {name!r} not assigned")
            v = assignment[name] % p
            if v == 0 and name in ring.invertible:
                raise InvertibleAssignedZero(f"invertible parameter {name!r} assigned 0")
            values.append((slot, v))
        acc = {}
        for k, c in self.terms.items():
            for slot, v in values:
                if k[slot]:
                    c = c * _power(v, k[slot], p) % p
            exps = k[:nv]
            acc[exps] = acc.get(exps, 0) + c
        return _reduced(acc, p)

    def eval_point(self, point, params: dict | None = None) -> int:
        """Exact evaluation at a point, with a total parameter assignment;
        an int in [0, p)."""
        p = self.universe.ring.p
        if len(point) != len(self.universe):
            raise ValueError("point length mismatch")
        vals = [v % p for v in point]
        total = 0
        for exps, c in self.specialize_params(params or {}).items():
            for v, e in zip(vals, exps):
                if e:
                    c = c * pow(v, e, p) % p
            total += c
        return total % p

    def substitute_param(self, name: str, value: int) -> "SparsePoly":
        """Bake a single parameter to a field value, keeping the others symbolic."""
        p = self.universe.ring.p
        slot = self._param_slot(name)
        value %= p
        acc = {}
        for k, c in self.terms.items():
            e = k[slot]
            if e:
                c = c * _power(value, e, p)
                k = k[:slot] + (0,) + k[slot + 1:]
            acc[k] = acc.get(k, 0) + c
        return _poly(self.universe, _reduced(acc, p))

    # -- universe embedding --

    def embed(self, new_universe: VarUniverse) -> "SparsePoly":
        """Reindex into a universe over the same ring that contains every
        variable the terms use."""
        old = self.universe
        if new_universe.ring != old.ring:
            raise ModulusMismatch("universes over different parameter rings")
        # the old slot each new slot copies; slot `width` is a padding 0
        nv, width = len(old), len(old) + old.ring.nparams
        positions = [width] * len(new_universe) + list(range(nv, width))
        for i, name in enumerate(old.names):
            j = new_universe._slots.get(name)  # name is no parameter of the shared ring
            if j is not None:
                positions[j] = i
            elif self.uses_variable(name):
                raise UnknownVariable(f"unknown variable {name!r}")
        pick = itemgetter(*positions)
        if len(positions) == 1:  # itemgetter of one index returns the bare item
            pick = lambda k, get=pick: (get(k),)
        return _poly(new_universe, {pick(k + (0,)): c for k, c in self.terms.items()})

    # -- canonical text form --

    def canonical_string(self) -> str:
        if not self.terms:
            return "0"
        universe = self.universe
        nv = len(universe)
        # parameters print before variables
        names = tuple(universe.ring.names) + tuple(universe.names)
        # descending total degree, then descending lex: variable part
        # first, then parameter part; keys are unique, so no ties
        pieces = []
        for k in sorted(self.terms, key=lambda k: (sum(k[:nv]), k[:nv], sum(k[nv:]), k[nv:]), reverse=True):
            scalar = self.terms[k]
            factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, k[nv:] + k[:nv]) if e]
            if not factors:
                pieces.append(str(scalar))
            elif scalar == 1:
                pieces.append("*".join(factors))
            else:
                pieces.append("*".join([str(scalar)] + factors))
        return " + ".join(pieces)

    def __repr__(self):
        return f"SparsePoly({self.canonical_string()})"


# one operator and the whitespace around it; "^" then "-" before a digit
# is one operator, a negative exponent
_SPLIT = re.compile(r"\s*(\^\s*-(?=\d)|[-+*^])\s*")


def _error(message, text, k):
    """A ParseError at part ``k`` of ``_SPLIT.split(text.strip())``: an odd
    part is an operator, an even one starts where the one before ends."""
    pos = len(text) - len(text.lstrip())
    if k:
        op = list(_SPLIT.finditer(text.strip()))[(k - 1) // 2]
        pos += op.start(1) if k % 2 else op.end()
    return ParseError(message, pos)


def _factor_error(text, parts, k):
    """The ParseError for part ``k``, a factor that is no name of the
    universe and no unsigned decimal int."""
    atom = parts[k]
    if not atom:
        after_star = k and parts[k - 1] == "*"
        return _error("expected a factor after '*'" if after_star else "empty term", text, k)
    gap = any(c.isspace() for c in atom)
    return _error(f"missing operator in {atom!r}" if gap else f"unknown name {atom!r}", text, k)


def parse_poly(text: str, universe: VarUniverse) -> SparsePoly:
    """Parse the grammar above into a canonical ``SparsePoly``.

    The stripped text is split once into alternating factors and
    operators.  Terms are summed in one dict of full exponent tuples, so
    monomials keep the order of their first appearance in ``text``.
    """
    parts = _SPLIT.split(text.strip())
    if parts == [""]:
        raise ParseError("empty polynomial text", 0)
    parts.append("")  # the end of the text, as an operator
    slots = universe._slots
    ints = {}  # each int of this text, parsed once
    acc = {}
    i = 0
    scalar = 1
    while True:
        exps = [0] * len(slots)
        while True:
            atom, op = parts[i], parts[i + 1]
            slot = slots.get(atom)
            if slot is None:
                v = ints.get(atom)
                if v is None:
                    if not atom.isdecimal():
                        raise _factor_error(text, parts, i)
                    v = ints[atom] = int(atom)
                scalar *= v
            elif op[:1] != "^":
                exps[slot] += 1
            else:
                i += 2
                e = ints.get(parts[i])
                if e is None:
                    if not parts[i].isdecimal():
                        raise _error("expected integer exponent after '^'", text, i - 1)
                    e = ints[parts[i]] = int(parts[i])
                if op != "^" and e:
                    if slot < len(universe) or atom not in universe.ring.invertible:
                        kind = "variable" if slot < len(universe) else "parameter"
                        raise _error(f"negative exponent at {kind} {atom!r}", text, i - 2)
                    e = -e
                exps[slot] += e
                op = parts[i + 1]
            i += 2
            if op != "*":
                break
        key = tuple(exps)
        acc[key] = acc.get(key, 0) + scalar
        if not op:
            return _poly(universe, _reduced(acc, universe.ring.p))
        if op not in ("+", "-"):
            raise _error("'^' must follow a name", text, i - 1)
        scalar = 1 if op == "+" else -1
