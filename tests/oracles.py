"""Slow, independent reference computations that the tests compare the
package against; nothing in the package calls them."""

from itertools import combinations
from math import gcd

from conewalk import bifactor as bi
from conewalk import unifactor as uni
from conewalk.basecase import BaseParams, build_cj, build_g, cj_degree
from conewalk.errors import FactorsNotCoprime
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
    G = bi.from_univariate_in_v(F, g0)
    H = bi.from_univariate_in_v(F, h0)
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
