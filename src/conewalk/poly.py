"""Sparse multivariate polynomials over GF(p) with Laurent parameters.

A polynomial is one dict, ``terms``, from packed monomial keys to
residues in [1, p).  A monomial has one exponent per universe variable,
then one per parameter of the universe's ``ParamRing``.  Variable
exponents are non-negative; a parameter exponent may be negative only
at an invertible parameter (``lam``).  Parameter-only values such as
``-lam^-1`` or ``t*lam`` are ordinary polynomials (``SparsePoly.param``).
Parameters are evaluated in one loop, ``SparsePoly.substitute``, which
keeps the parameters it is not given; ``specialize`` is that loop at a
total assignment, and ``eval_point`` takes a parameter-free polynomial.

A key is one int of 16-bit fields.  From the high bits down they hold
the total variable degree, the exponents of the variables in universe
order, the total parameter degree, and the parameter exponents; a
parameter field holds its value plus 2^14.  So a variable exponent and
the variable degree lie in [0, 2^15), a parameter exponent and the
parameter degree in [-2^14, 2^14), and the top bit of every field, its
guard bit, is 0.  Each exponent slot has a unit, the low bit of its
field plus that of its degree field: a monomial is ``base + sum(e *
unit)``, a product of monomials ``k1 + k2 - base`` and a derivative
``k - unit``.  An exponent or degree outside its field sets a guard bit
of the result key, and raises ``ExponentOverflow`` (in ``parse_poly``, a
positioned ``ParseError``); no field carries into the next.  The layout
is private to this module, and so is exponent arithmetic: other modules
read a term through ``exponent_items``, its nonzero variable exponents as
(slot, exponent) pairs.  ``to_dict`` and ``specialize_params`` give
exponent tuples, one slot per name, for the tests and the benchmark.

Only the public constructor and ``parse_poly`` check terms.  Arithmetic
builds its results from checked operands through ``_poly``, unchecked
but for the guard bits.

The canonical term order is descending total degree, then descending
lexicographic, on the variable exponents, and then the same on the
parameter exponents: the descending order of the keys as ints.  It
fixes the text form emitted by ``canonical_string``, which reads only
the nonzero fields of each key, so that a term costs in proportion to
its factors and not to the universe.

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

import functools
import re
import struct
from dataclasses import dataclass, field
from operator import mul, or_

from .coeffs import ParamCoeff, ParamRing, ff_inv_int
from .errors import (
    DivisionFailure,
    ExponentOverflow,
    InvertibleAssignedZero,
    ModulusMismatch,
    ParseError,
    UnassignedParameter,
    UniverseMismatch,
    UnknownVariable,
    ZeroPolynomial,
)

_WIDTH = 16  # bits per field
_FIELD = (1 << _WIDTH) - 1
_LIMIT = 1 << (_WIDTH - 1)  # the guard bit; values of a field lie below it
_BIAS = 1 << (_WIDTH - 2)  # added to a parameter exponent or degree


class _Layout:
    """The fields of one universe's packed keys: field 0 is the variable
    degree, 1..nv the variables, nv + 1 the parameter degree, then the
    parameters; slot i is field i + 1 for a variable, i + 2 for a
    parameter."""

    __slots__ = ("nv", "shifts", "biases", "units", "base", "guard", "top", "pbits", "vmask", "fields")

    def __init__(self, nv, nparams):
        nfields = nv + nparams + 2
        shift = [(nfields - 1 - f) * _WIDTH for f in range(nfields)]
        self.nv = nv
        self.shifts = shift[1:nv + 1] + shift[nv + 2:]
        self.biases = [0] * nv + [_BIAS] * nparams
        self.units = [(1 << shift[1 + i]) + (1 << shift[0]) for i in range(nv)]
        self.units += [(1 << shift[nv + 2 + j]) + (1 << shift[nv + 1]) for j in range(nparams)]
        self.base = sum(_BIAS << s for s in shift[nv + 1:])
        self.guard = sum(_LIMIT << s for s in shift)
        self.top = shift[0]  # key >> top is the variable degree
        self.pbits = shift[nv]  # the low bits below the variables
        self.vmask = (1 << self.top) - (1 << self.pbits)  # the variable fields
        self.fields = struct.Struct(f">{nfields}H")

    def field_mask(self, slot):
        return _FIELD << self.shifts[slot]

    def exponent(self, key, slot):
        return ((key >> self.shifts[slot]) & _FIELD) - self.biases[slot]

    def pack(self, exps):
        """The key of a full exponent tuple, with no negative variable
        exponent, whose every exponent and both degrees fit their fields;
        ``ExponentOverflow`` otherwise."""
        vexps, pexps = exps[:self.nv], exps[self.nv:]
        # the variable degree bounds each variable exponent
        if not (
            sum(vexps) < _LIMIT
            and -_BIAS <= min(pexps, default=0)
            and max(pexps, default=0) < _BIAS
            and -_BIAS <= sum(pexps) < _BIAS
        ):
            raise ExponentOverflow(
                f"exponents {tuple(exps)} leave the packed key: variable exponents and degree "
                f"lie in [0, {_LIMIT}), parameter ones in [{-_BIAS}, {_BIAS})"
            )
        return self.base + sum(map(mul, exps, self.units))

    def monomial(self, slot, e):
        """The key of one exponent ``e`` at ``slot``, range-checked as in ``pack``."""
        low = -_BIAS if slot >= self.nv else 0
        if not low <= e < _LIMIT + low:
            raise ExponentOverflow(f"exponent {e} leaves its packed field [{low}, {_LIMIT + low})")
        return self.base + e * self.units[slot]

    def nonzero(self, key):
        """(slot, exponent) of each nonzero variable field of a key, in
        universe order: the top nonzero field of what is left of the
        variable fields, at shift s, is the next one."""
        v, first = key & self.vmask, self.top - _WIDTH  # the shift of slot 0
        while v:
            s = (v.bit_length() - 1) // _WIDTH * _WIDTH
            e = v >> s
            v ^= e << s
            yield (first - s) // _WIDTH, e

    def unpack(self, key):
        """The exponent tuple of a key: variables, then parameters."""
        fields = self.fields.unpack(key.to_bytes(self.fields.size, "big"))
        return fields[1:self.nv + 1] + tuple(e - _BIAS for e in fields[self.nv + 2:])

    def check(self, keys):
        """Raise ``ExponentOverflow`` if a key has a guard bit set."""
        guard = self.guard
        for k in keys:
            if k & guard:
                raise ExponentOverflow("an exponent or degree of a result leaves its packed field")


_layout = functools.lru_cache(maxsize=4)(_Layout)


@dataclass(frozen=True)
class VarUniverse:
    """An ordered tuple of variable names over a parameter ring."""

    names: tuple
    ring: ParamRing
    # the exponent slot of every name in the text grammar: variables, then parameters
    _slots: dict = field(init=False, repr=False, compare=False)
    _layout: _Layout = field(init=False, repr=False, compare=False)
    _units: dict = field(init=False, repr=False, compare=False)  # the unit of every name

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        overlap = set(self.names) & set(self.ring.names)
        if overlap:
            raise ValueError(f"names {sorted(overlap)} used as both variable and parameter")
        object.__setattr__(self, "_slots", {name: k for k, name in enumerate(self.names + self.ring.names)})
        object.__setattr__(self, "_layout", _layout(len(self.names), self.ring.nparams))
        object.__setattr__(self, "_units", dict(zip(self._slots, self._layout.units)))

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        k = self._slots.get(name, len(self))
        if k >= len(self):
            raise UnknownVariable(f"unknown variable {name!r}")
        return k


def coordinate_universe(n, r, s, ring) -> VarUniverse:
    """The universe of a walk: x0..xn, y1..y{r+1}, z1..zs, then the
    family's z, w.  Sized with s + sum(e) of a station, which is the same
    at every station, it serves the whole walk and each family on it."""
    names = [f"x{i}" for i in range(n + 1)]
    names += [f"y{j}" for j in range(1, r + 2)]
    names += [f"z{k}" for k in range(1, s + 1)]
    return VarUniverse(tuple(names) + ("z", "w"), ring)


def _power(v, e, p):
    """v^e mod p for any int e; a negative e needs v invertible."""
    return pow(v, e, p) if e >= 0 else pow(ff_inv_int(v, p), -e, p)


def _reduced(acc, p):
    """{key: residue} of the nonzero residues of an accumulator dict: the
    dict itself when its values are residues already, as those of a
    canonical text or of a product by a monic monomial are."""
    if all(0 < v < p for v in acc.values()):
        return acc
    return {k: r for k, v in acc.items() if (r := v % p)}


def _add_into(out, terms, p, sign=1):
    """out += sign * terms mod p, in place: a key that cancels is dropped,
    and comes back at the end if a later term meets it."""
    for k, c in terms.items():
        v = (out.get(k, 0) + sign * c) % p
        if v:
            out[k] = v
        else:
            del out[k]


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
        ``ParamCoeff`` literal; residues are reduced mod p, zeros dropped.
        An exponent or degree outside its packed field raises
        ``ExponentOverflow``."""
        ring = universe.ring
        nv = len(universe)
        pack = universe._layout.pack
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
            for exps_full, v in pairs:
                if len(exps_full) != nv + ring.nparams:
                    raise ValueError("exponent tuple length mismatch")
                if min(exps_full, default=0) < 0:
                    if min(exps_full[:nv], default=0) < 0:
                        raise ValueError("negative variable exponent")
                    for e, name in zip(exps_full[nv:], ring.names):
                        if e < 0 and name not in ring.invertible:
                            raise ValueError(f"negative exponent at non-invertible parameter {name!r}")
                key = pack(exps_full)
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
        if not isinstance(c, int):
            raise TypeError("a constant is an int residue")
        # the all-zero monomial is the layout's base key
        c %= universe.ring.p
        return _poly(universe, {universe._layout.base: c} if c else {})

    @classmethod
    def from_residues(cls, universe: VarUniverse, terms: dict) -> "SparsePoly":
        """The parameter-free polynomial with terms {variable exponents:
        residue}; the inverse of ``specialize_params``."""
        zero = (0,) * universe.ring.nparams
        return cls(universe, {tuple(exps) + zero: c for exps, c in terms.items()})

    @classmethod
    def variable(cls, universe: VarUniverse, name: str, exp: int = 1) -> "SparsePoly":
        slot = universe.index(name)
        if exp < 0:
            raise ValueError("negative variable exponent")
        return _poly(universe, {universe._layout.monomial(slot, exp): 1})

    @classmethod
    def param(cls, universe: VarUniverse, name: str, exp: int = 1) -> "SparsePoly":
        slot = len(universe) + universe.ring.index(name)
        if exp < 0 and name not in universe.ring.invertible:
            raise ValueError(f"negative exponent at non-invertible parameter {name!r}")
        return _poly(universe, {universe._layout.monomial(slot, exp): 1})

    def to_dict(self) -> dict:
        """{full exponent tuple: residue}, variables then parameters, in
        term order; the constructor takes it back."""
        unpack = self.universe._layout.unpack
        return {unpack(k): c for k, c in self.terms.items()}

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
        out = dict(self.terms)
        _add_into(out, other.terms, self.universe.ring.p, sign)
        return _poly(self.universe, out)

    def __add__(self, other):
        return self._combine(other, 1)

    @staticmethod
    def sum_of(universe: VarUniverse, polys) -> "SparsePoly":
        """The sum of ``polys``, each over ``universe``, built in one dict:
        the terms, in their order, of adding them one at a time."""
        out = {}
        for f in polys:
            if f.universe != universe:
                raise UniverseMismatch("operands live in different universes")
            if out.keys().isdisjoint(f.terms.keys()):
                out.update(f.terms)  # reuses the stored hashes of the keys
            else:
                _add_into(out, f.terms, universe.ring.p)
        return _poly(universe, out)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        p = self.universe.ring.p
        return _poly(self.universe, {k: p - c for k, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        layout = self.universe._layout
        # k1 + (k2 - base) is the key of the product monomial
        shifted = [(k2 - layout.base, c2) for k2, c2 in other.terms.items()]
        acc = {}
        get = acc.get
        for k1, c1 in self.terms.items():
            for k2, c2 in shifted:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
        layout.check(acc)
        return _poly(self.universe, _reduced(acc, self.universe.ring.p))

    def scale(self, c: int) -> "SparsePoly":
        """Multiply by an integer scalar."""
        p = self.universe.ring.p
        return _poly(self.universe, _reduced({k: v * c for k, v in self.terms.items()}, p))

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return SparsePoly.constant(self.universe, 1)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    # -- degrees --

    def _variable_degrees(self):
        if not self.terms:
            raise ZeroPolynomial("degree of the zero polynomial")
        top = self.universe._layout.top
        return {k >> top for k in self.terms}

    def total_degree(self) -> int:
        return max(self._variable_degrees())

    def degree_info(self):
        """(total degree, homogeneous?) — raises on the zero polynomial."""
        degs = self._variable_degrees()
        return max(degs), len(degs) == 1

    def _param_slot(self, name: str) -> int:
        return len(self.universe) + self.universe.ring.index(name)

    def _uses_slot(self, slot):
        layout = self.universe._layout
        mask = layout.field_mask(slot)
        zero = layout.biases[slot] << layout.shifts[slot]
        return any(k & mask != zero for k in self.terms)

    def variables(self) -> tuple:
        """The names of the variables some term uses, in universe order."""
        # a variable's field in the OR of the keys is nonzero iff some term's is
        used = functools.reduce(or_, self.terms, 0)
        return tuple(self.universe.names[i] for i, _ in self.universe._layout.nonzero(used))

    def variable_span(self) -> int:
        """The length of the shortest prefix of the universe's names that
        holds every variable some term uses; 0 if no term uses one."""
        layout = self.universe._layout
        used = functools.reduce(or_, self.terms, 0) & layout.vmask
        # the lowest nonzero field of the OR is the last variable used
        return layout.top // _WIDTH - ((used & -used).bit_length() - 1) // _WIDTH if used else 0

    def uses_param(self, name: str) -> bool:
        return self._uses_slot(self._param_slot(name))

    # -- divisibility by variable powers --

    def monomial_divides(self, name: str, k: int) -> bool:
        """True iff x^k divides every term (vacuously true for 0)."""
        if k < 0:
            raise ValueError("negative power")
        i = self.universe.index(name)
        layout = self.universe._layout
        mask, need = layout.field_mask(i), k << layout.shifts[i]
        return all(e & mask >= need for e in self.terms)

    def divide_by_monomial(self, name: str, k: int) -> "SparsePoly":
        if not self.monomial_divides(name, k):
            raise DivisionFailure(f"{name}^{k} does not divide every term")
        step = k * self.universe._layout.units[self.universe.index(name)]
        return _poly(self.universe, {e - step: c for e, c in self.terms.items()})

    def variable_valuation(self, name: str):
        """min exponent of ``name`` over all terms; None for the zero polynomial."""
        i = self.universe.index(name)
        if not self.terms:
            return None
        layout = self.universe._layout
        mask = layout.field_mask(i)
        return min(e & mask for e in self.terms) >> layout.shifts[i]

    # -- calculus --

    def _derivative(self, slot: int) -> "SparsePoly":
        """Formal derivative in one exponent slot; the characteristic
        kills exponents divisible by p.  Lowering one slot is injective,
        so no two terms meet."""
        p = self.universe.ring.p
        layout = self.universe._layout
        shift, bias, unit = layout.shifts[slot], layout.biases[slot], layout.units[slot]
        out = {}
        for k, c in self.terms.items():
            v = c * (((k >> shift) & _FIELD) - bias) % p
            if v:
                out[k - unit] = v
        layout.check(out)
        return _poly(self.universe, out)

    def partial_derivative(self, name: str) -> "SparsePoly":
        return self._derivative(self.universe.index(name))

    def param_derivative(self, name: str) -> "SparsePoly":
        """Formal derivative with respect to a parameter (Laurent rule)."""
        return self._derivative(self._param_slot(name))

    # -- evaluation / specialization --

    def substitute(self, values: dict) -> "SparsePoly":
        """The polynomial with each parameter named in ``values`` that some
        term uses evaluated, in one pass, and the others kept symbolic;
        ``self`` when no term uses one of them.  An invertible parameter
        assigned 0 raises ``InvertibleAssignedZero``."""
        ring = self.universe.ring
        layout = self.universe._layout
        p = ring.p
        evaluated = []
        for slot, name in enumerate(ring.names, len(self.universe)):
            if name in values and self._uses_slot(slot):
                v = values[name] % p
                if v == 0 and name in ring.invertible:
                    raise InvertibleAssignedZero(f"invertible parameter {name!r} assigned 0")
                evaluated.append((slot, v, layout.units[slot]))
        if not evaluated:
            return self
        pmask = (1 << layout.pbits) - 1
        parts = {}  # the value and the key step of each parameter part met
        acc = {}
        for k, c in self.terms.items():
            pk = k & pmask
            part = parts.get(pk)
            if part is None:
                m, step = 1, 0
                for slot, v, unit in evaluated:
                    e = layout.exponent(pk, slot)
                    m = m * _power(v, e, p) % p
                    step += e * unit
                part = parts[pk] = m, step
            k -= part[1]  # the evaluated fields at exponent 0
            acc[k] = acc.get(k, 0) + c * part[0]
        # dropping some exponents can take the parameter degree out of its field
        layout.check(acc)
        return _poly(self.universe, _reduced(acc, p))

    def specialize(self, assignment: dict) -> "SparsePoly":
        """The parameter-free polynomial: ``substitute`` at an assignment
        that must hold every parameter some term uses, or
        ``UnassignedParameter`` is raised."""
        for slot, name in enumerate(self.universe.ring.names, len(self.universe)):
            if name not in assignment and self._uses_slot(slot):
                raise UnassignedParameter(f"parameter {name!r} not assigned")
        return self.substitute(assignment)

    def specialize_params(self, assignment: dict) -> dict:
        """``specialize`` as {variable exponent tuple: residue}."""
        nv, unpack = len(self.universe), self.universe._layout.unpack
        return {unpack(k)[:nv]: c for k, c in self.specialize(assignment).terms.items()}

    def exponent_items(self) -> list:
        """[(pairs, residue)] in term order, pairs the (slot, exponent) of
        each nonzero variable exponent in universe order; parameters are
        not read, so call it on a ``specialize``d polynomial."""
        nonzero = self.universe._layout.nonzero
        return [(tuple(nonzero(k)), c) for k, c in self.terms.items()]

    def eval_point(self, point) -> int:
        """The value in [0, p) at a point of a parameter-free polynomial;
        a term with a parameter raises ``UnassignedParameter``."""
        p = self.universe.ring.p
        layout = self.universe._layout
        if len(point) != len(self.universe):
            raise ValueError("point length mismatch")
        pmask = (1 << layout.pbits) - 1
        total = 0
        for k, c in self.terms.items():
            if k & pmask != layout.base:
                raise UnassignedParameter("a term has a parameter: specialize before evaluating")
            for i, e in layout.nonzero(k):
                c = c * pow(point[i], e, p) % p
            total += c
        return total % p

    def exact_quotient(self, g: "SparsePoly") -> "SparsePoly | None":
        """self / g when g divides self exactly, else None (also for g = 0);
        both operands parameter-free, as ``specialize`` gives them.  Long
        division from the greatest key: a quotient monomial lead - lead(g)
        + base with a negative exponent sets a guard bit, as does a
        negative key (degree short), whose high bits are all set."""
        self._check(g)
        if not g.terms:
            return None
        base, guard = self.universe._layout.base, self.universe._layout.guard
        p = self.universe.ring.p
        g_lead = max(g.terms)
        inv = ff_inv_int(g.terms[g_lead], p)
        shifted = [(k - base, v) for k, v in g.terms.items()]
        rest, q = dict(self.terms), {}
        while rest:
            lead = max(rest)
            qk = lead - g_lead + base
            if qk & guard:
                return None
            c = q[qk] = rest[lead] * inv % p
            _add_into(rest, {k + qk: v * c for k, v in shifted}, p, -1)
        return _poly(self.universe, q)

    # -- canonical text form --

    def canonical_string(self) -> str:
        if not self.terms:
            return "0"
        layout = self.universe._layout
        pmask, nonzero = (1 << layout.pbits) - 1, layout.nonzero
        params = list(zip(self.universe.ring.names, layout.shifts[layout.nv:]))
        names = self.universe.names
        pieces = []
        for k, scalar in sorted(self.terms.items(), reverse=True):
            pk = k & pmask
            # parameters print before variables
            factors = [n if e == 1 else f"{n}^{e}" for n, s in params if (e := ((pk >> s) & _FIELD) - _BIAS)]
            for i, e in nonzero(k):
                factors.append(names[i] if e == 1 else f"{names[i]}^{e}")
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
# is one operator, a negative exponent.  A match starts at a space or an
# operator, which the lookahead tests before anything else.
_SPLIT = re.compile(r"(?=[\s^*+-])\s*(\^\s*-(?=\d)|[-+*^])\s*")


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
    operators.  Each factor adds its exponent times its name's unit to
    the term's packed key, and terms are summed in one dict of keys, so
    monomials keep the order of their first appearance in ``text``.  An
    exponent, or a degree, that leaves its field is a ``ParseError`` at
    its name, or at its term when the field fills up one factor at a time.
    """
    parts = _SPLIT.split(text.strip())
    if parts == [""]:
        raise ParseError("empty polynomial text", 0)
    parts.append("")  # the end of the text, as an operator
    units = universe._units
    base, guard = universe._layout.base, universe._layout.guard
    # A field in range that moves by less than 2^15 sets its guard bit if
    # it leaves the range.  So the key is checked before and after each
    # '^' factor, and at the end of each term: with at most 2^15 factors
    # in the text, the unit factors in between cannot wrap a field.
    each = len(parts) > 2 * _LIMIT
    ints = {}  # each int of this text, parsed once
    acc = {}
    i = 0
    scalar = 1
    while True:
        key = base
        start = i
        while True:
            atom, op = parts[i], parts[i + 1]
            unit = units.get(atom)
            if unit is None:
                v = ints.get(atom)
                if v is None:
                    if not atom.isdecimal():
                        raise _factor_error(text, parts, i)
                    v = ints[atom] = int(atom)
                scalar *= v
            elif "^" not in op:
                key += unit
                if each and key & guard:
                    raise _error(f"exponent or degree out of range at {atom!r}", text, i)
            else:
                i += 2
                e = ints.get(parts[i])
                if e is None:
                    if not parts[i].isdecimal():
                        raise _error("expected integer exponent after '^'", text, i - 1)
                    e = ints[parts[i]] = int(parts[i])
                if op != "^" and e:
                    if atom not in universe.ring.invertible:
                        kind = "variable" if atom in universe.names else "parameter"
                        raise _error(f"negative exponent at {kind} {atom!r}", text, i - 2)
                    e = -e
                if e >= _LIMIT or -e >= _LIMIT or key & guard or (key := key + e * unit) & guard:
                    raise _error(f"exponent or degree out of range at {atom!r}", text, i - 2)
                op = parts[i + 1]
            i += 2
            if op != "*":
                break
        if key & guard:
            raise _error("exponent or degree out of range in this term", text, start)
        acc[key] = acc.get(key, 0) + scalar
        if not op:
            return _poly(universe, _reduced(acc, universe.ring.p))
        if op not in ("+", "-"):
            raise _error("'^' must follow a name", text, i - 1)
        scalar = 1 if op == "+" else -1
