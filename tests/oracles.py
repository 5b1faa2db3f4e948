"""Slow, independent reference computations that the tests compare the
package against; nothing in the package calls them."""

import re
from itertools import combinations
from math import gcd

from conewalk import bifactor as bi
from conewalk import unifactor as uni
from conewalk.basecase import BaseParams, build_cj, build_g, cj_degree
from conewalk.errors import FactorsNotCoprime, ParseError
from conewalk.poly import SparsePoly, VarUniverse, _poly, _reduced, coordinate_universe


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
    return min((exps[i] for exps in f.terms), default=0)


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
    return SparsePoly(f.universe, {e: c for e, c in cleared.terms.items() if e[i] == 0})


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


def canonical_string(f: SparsePoly) -> str:
    """The canonical text of f, terms ordered by ``term_sort_key`` on the
    variable part and then on the parameter part."""
    if not f.terms:
        return "0"
    nv = len(f.universe)
    labels = list(enumerate(f.universe.ring.names, nv)) + list(enumerate(f.universe.names))
    pieces = []
    for k in sorted(f.terms, key=lambda k: (term_sort_key(k[:nv]), term_sort_key(k[nv:]))):
        scalar = f.terms[k]
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
    return _poly(universe, _reduced(acc, p))
