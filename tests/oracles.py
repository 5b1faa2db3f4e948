"""Slow, independent reference computations that the tests compare the
package against; nothing in the package calls them."""

import re
from itertools import combinations
from math import gcd
from operator import add

from conewalk import bifactor as bi
from conewalk import unifactor as uni
from conewalk.basecase import BaseParams, build_cj, build_g, cj_degree
from conewalk.coeffs import ff_inv_int
from conewalk.errors import FactorsNotCoprime, ParseError
from conewalk.poly import SparsePoly, VarUniverse, coordinate_universe


def max_abs_minor_gcd(A, k):
    """gcd of all k x k minors (the k-th determinantal divisor); 0 if all vanish.

    Exponential enumeration, for small matrices only.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    if k == 0:
        return 1
    g = 0
    for rsel in combinations(range(rows), k):
        for csel in combinations(range(cols), k):
            sub = [[A[i][j] for j in csel] for i in rsel]
            g = gcd(g, _det(sub))
    return abs(g)


def gf_rank(A, p):
    """Rank of the int matrix A over GF(p), by Gauss-Jordan elimination."""
    rows = [[v % p for v in row] for row in A]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inv % p
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    if n == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    total = 0
    for j in range(n):
        if M[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in M[1:]]
            total += (-1) ** j * M[0][j] * _det(minor)
    return total


def build_F(bp: BaseParams, universe: VarUniverse | None = None) -> SparsePoly:
    """g*x0^(m+n-deg g) + sum_j x0^(n-deg c_j) c_j y_j^m + (-1)^n x1..xn y_{r+1}^m."""
    if universe is None:
        universe = coordinate_universe(bp.n, bp.r, 0, bp.ring())
    total = build_g(bp, universe) * SparsePoly.variable(universe, "x0", bp.m + bp.n - bp.deg_g)
    for j in range(1, bp.r + 1):
        cj = build_cj(j, bp.n, universe)
        term = SparsePoly.variable(universe, "x0", bp.n - cj_degree(j)) * cj
        term = term * SparsePoly.variable(universe, f"y{j}", bp.m)
        total = total + term
    last = SparsePoly.variable(universe, f"y{bp.r + 1}", bp.m)
    for i in range(1, bp.n + 1):
        last = last * SparsePoly.variable(universe, f"x{i}")
    sign = 1 if bp.n % 2 == 0 else -1
    return total + last.scale(sign)


def min_param_exp(f: SparsePoly, name: str) -> int:
    """Least exponent of the parameter ``name`` over the terms of f (0 for f = 0)."""
    i = len(f.universe) + f.universe.ring.index(name)
    return min((exps[i] for exps in f.to_dict()), default=0)


def clear_param_denominators(f: SparsePoly, name: str) -> SparsePoly:
    """f times name^k for the least k >= 0 leaving no negative exponent of ``name``."""
    k = -min_param_exp(f, name)
    if k <= 0:
        return f
    return f * SparsePoly.param(f.universe, name, k)


def set_param_zero(f: SparsePoly, name: str) -> SparsePoly:
    """Substitute the parameter ``name`` by 0, after clearing its denominators."""
    cleared = clear_param_denominators(f, name)
    i = len(f.universe) + f.universe.ring.index(name)
    return SparsePoly(f.universe, {e: c for e, c in cleared.to_dict().items() if e[i] == 0})


def hensel_pair_quadratic(F, f, g0, h0, T):
    """Lift f = g0*h0 (mod u) to f = G*H (mod u^T) by recomputing the whole
    truncated product G*H at every step k and reading its u^k coefficient
    (O(k^2) univariate products per step)."""
    one, s, t = uni.ext_gcd(F, g0, h0)
    if one != [F.one]:
        raise FactorsNotCoprime(f"gcd of g0 and h0 has degree {uni.deg(one)}")
    G = bi.from_dict(F, {(0, j): c for j, c in enumerate(g0)})
    H = bi.from_dict(F, {(0, j): c for j, c in enumerate(h0)})
    for k in range(1, T):
        err = bi.vsub(F, bi.vtrunc(F, f, k + 1), bi.vmul(F, G, H, trunc=k + 1))
        e = uni.normalize(F, [col[k] if len(col) > k else F.zero for col in err])
        if not e:
            continue
        dg = uni.divmod_poly(F, uni.mul(F, t, e), g0)[1]
        dh = uni.divmod_poly(F, uni.sub(F, e, uni.mul(F, dg, h0)), g0)[0]
        G = bi.vadd(F, G, _times_u_power(F, dg, k))
        H = bi.vadd(F, H, _times_u_power(F, dh, k))
    return G, H


def _times_u_power(F, univ_in_v, k):
    """A univariate polynomial in v times u^k, as a v-major bivariate."""
    return bi.vnormalize(F, [[F.zero] * k + [c] for c in univ_in_v])


def smooth_rational_point_generic(F, f):
    """The first (a, b) in a-then-b order with f(a, b) = 0 and a nonzero
    gradient there, or None; every value through the field protocol."""
    fu, fv = bi.derivative_u(F, f), bi.derivative_v(F, f)
    for a in range(F.p):
        g, gu, gv = (bi.eval_u(F, h, a) for h in (f, fu, fv))
        for b in range(F.p):
            if F.is_zero(uni.eval_at(F, g, b)) and not (
                F.is_zero(uni.eval_at(F, gu, b)) and F.is_zero(uni.eval_at(F, gv, b))
            ):
                return a, b
    return None


def term_sort_key(exps):
    """Descending total degree, then descending lex, as an ascending key."""
    return (-sum(exps), tuple(-e for e in exps))


def canonical_string(f) -> str:
    """The canonical text of f, a ``SparsePoly`` or a ``TuplePoly``, terms
    ordered by ``term_sort_key`` on the variable part and then on the
    parameter part."""
    terms = f.to_dict()
    if not terms:
        return "0"
    nv = len(f.universe)
    labels = list(enumerate(f.universe.ring.names, nv)) + list(enumerate(f.universe.names))
    pieces = []
    for k in sorted(terms, key=lambda k: (term_sort_key(k[:nv]), term_sort_key(k[nv:]))):
        scalar = terms[k]
        factors = [name if k[i] == 1 else f"{name}^{k[i]}" for i, name in labels if k[i]]
        if not factors:
            pieces.append(str(scalar))
        elif scalar == 1:
            pieces.append("*".join(factors))
        else:
            pieces.append("*".join([str(scalar)] + factors))
    return " + ".join(pieces)


_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9]*|\^|-?\d+|\*|\+|-|\S")
_INT = re.compile(r"-?\d+")


def parse_poly_scanner(text: str, universe: VarUniverse) -> SparsePoly:
    """The polynomial text grammar read one token at a time.

    Differs from ``parse_poly`` on two classes of text: it accepts a
    dangling ``*`` (``"x0*"`` reads as ``x0``), and it reads a ``-``
    directly before a digit as the sign of that int, so ``"x0-3"`` and
    ``"x0 -3"`` are errors while ``"x0 - 3"`` is not.
    """
    ring = universe.ring
    p = ring.p
    nv = len(universe)
    slots = {name: k for k, name in enumerate(universe.names)}
    slots.update((name, nv + k) for k, name in enumerate(ring.names))
    width = nv + ring.nparams
    tokens = []
    for m in _TOKEN.finditer(text):
        tokens.append((m.group(0), m.start()))
    if not tokens:
        raise ParseError("empty polynomial text", 0)

    acc = {}
    i = 0
    n = len(tokens)
    sign = 1

    def parse_term(i, sign):
        exps = [0] * width
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
            if _INT.fullmatch(tok):
                if tok.startswith("-"):
                    raise ParseError("negative coefficient not in grammar", pos)
                scalar = scalar * int(tok) % p
            elif tok in slots:
                name = tok
                exp = 1
                if i + 1 < n and tokens[i + 1][0] == "^":
                    if i + 2 >= n or not _INT.fullmatch(tokens[i + 2][0]):
                        raise ParseError("expected integer exponent after '^'", tokens[i + 1][1])
                    exp = int(tokens[i + 2][0])
                    i += 2
                if exp < 0:
                    if slots[name] < nv:
                        raise ParseError(f"negative exponent at variable {name!r}", pos)
                    if name not in ring.invertible:
                        raise ParseError(f"negative exponent at parameter {name!r}", pos)
                exps[slots[name]] += exp
            else:
                raise ParseError(f"unknown name {tok!r}", pos)
            any_factor = True
            expect_factor = False
            i += 1
        if not any_factor:
            pos = tokens[i][1] if i < n else len(text)
            raise ParseError("empty term", pos)
        key = tuple(exps)
        acc[key] = acc.get(key, 0) + scalar * sign
        return i

    i = parse_term(i, sign)
    while i < n:
        tok, pos = tokens[i]
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        else:
            raise ParseError(f"expected '+' between terms, got {tok!r}", pos)
        i += 1
        i = parse_term(i, sign)
    return SparsePoly(universe, acc)


class TuplePoly:
    """The tuple-keyed reference for ``SparsePoly``: ``terms`` maps a full
    exponent tuple (variables, then parameters) to a residue in [1, p),
    and every operation works slot by slot on the tuples, as the package
    did before it packed each tuple into one int key."""

    def __init__(self, universe, terms):
        p = universe.ring.p
        self.universe = universe
        self.terms = {tuple(k): r for k, v in terms.items() if (r := v % p)}

    def to_dict(self):
        return dict(self.terms)

    def _combine(self, other, sign):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + sign * c
        return TuplePoly(self.universe, out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return TuplePoly(self.universe, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        acc = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = tuple(map(add, k1, k2))
                acc[k] = acc.get(k, 0) + c1 * c2
        return TuplePoly(self.universe, acc)

    def __pow__(self, k):
        out = TuplePoly(self.universe, {(0,) * (len(self.universe) + self.universe.ring.nparams): 1})
        for _ in range(k):
            out = out * self
        return out

    def _derivative(self, slot):
        out = {}
        for k, c in self.terms.items():
            if k[slot]:
                out[k[:slot] + (k[slot] - 1,) + k[slot + 1:]] = c * k[slot]
        return TuplePoly(self.universe, out)

    def partial_derivative(self, name):
        return self._derivative(self.universe.index(name))

    def param_derivative(self, name):
        return self._derivative(len(self.universe) + self.universe.ring.index(name))

    def specialize_params(self, assignment):
        """{variable exponent tuple: residue} at a total assignment."""
        p, nv = self.universe.ring.p, len(self.universe)
        acc = {}
        for k, c in self.terms.items():
            for e, name in zip(k[nv:], self.universe.ring.names):
                if e:
                    v = assignment[name] % p
                    c = c * (pow(v, e, p) if e > 0 else pow(ff_inv_int(v, p), -e, p))
            acc[k[:nv]] = acc.get(k[:nv], 0) + c
        return {k: r for k, v in acc.items() if (r := v % p)}

    def substitute_param(self, name, value):
        slot = len(self.universe) + self.universe.ring.index(name)
        p = self.universe.ring.p
        acc = {}
        for k, c in self.terms.items():
            e = k[slot]
            if e:
                c = c * (pow(value, e, p) if e > 0 else pow(ff_inv_int(value, p), -e, p))
                k = k[:slot] + (0,) + k[slot + 1:]
            acc[k] = acc.get(k, 0) + c
        return TuplePoly(self.universe, acc)

    def embed(self, new_universe):
        """Reindex into a universe holding every variable the terms use."""
        old = self.universe
        nv, width = len(old), len(old) + old.ring.nparams
        positions = [width] * len(new_universe) + list(range(nv, width))
        for i, name in enumerate(old.names):
            if name in new_universe.names:
                positions[new_universe.index(name)] = i
            elif any(k[i] for k in self.terms):
                raise ValueError(f"{name!r} is used and missing from the new universe")
        return TuplePoly(new_universe, {tuple((k + (0,))[j] for j in positions): c for k, c in self.terms.items()})
