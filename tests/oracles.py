"""Slow, independent reference computations that the tests compare the
package against; nothing in the package calls them."""

import re
from itertools import combinations
from math import gcd
from operator import add
from types import SimpleNamespace

from conewalk import gfext
from conewalk.basecase import BaseParams, build_cj, build_g, cj_degree
from conewalk.coeffs import ff_inv_int, is_prime, prime_powers
from conewalk.errors import (
    DivisionFailure,
    FactorizationFailure,
    FactorsNotCoprime,
    ParseError,
    ZeroInverse,
    ZeroPolynomial,
)
from conewalk.poly import SparsePoly, VarUniverse, coordinate_universe
from conewalk.skeleton import ChainSkeleton, DualGraph


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


def subdivision_skeleton(sk, r):
    """The r-fold edge subdivision of the ``ChainSkeleton`` sk, built as
    a ``ChainSkeleton`` itself: the base vertices, then r-1 fresh
    vertices (e, n) per edge e, each carrying CH0[e] as one-cycle and
    zero-cycle module; every copy of e carries CH0[e], with identity
    incidence and push maps at fresh vertices and sk's maps at the ends."""
    vertices = list(sk.graph.vertices) + [(e, n) for e in sk.graph.edges for n in range(1, r)]
    order = {v: i for i, v in enumerate(vertices)}
    ch1, ch0_vertex = dict(sk.ch1), dict(sk.ch0_vertex)
    edges, ch0_edge, inter, push = [], {}, {}, {}
    for e in sk.graph.edges:
        mod = sk.ch0_edge[e]
        ident = [[int(i == j) for j in range(mod.ngens)] for i in range(mod.ngens)]
        path = [e[0]] + [(e, n) for n in range(1, r)] + [e[1]]
        for n in range(1, r):
            ch1[(e, n)] = ch0_vertex[(e, n)] = mod
        for a, b in zip(path, path[1:]):
            copy = (a, b) if order[a] < order[b] else (b, a)
            edges.append(copy)
            ch0_edge[copy] = mod
            for x in copy:
                base = x in sk.ch1
                inter[(copy, x)] = sk.inter[(e, x)] if base else ident
                push[(copy, x)] = sk.push[(e, x)] if base else ident
    return ChainSkeleton(
        graph=DualGraph(tuple(vertices), tuple(edges)),
        ch1=ch1, ch0_vertex=ch0_vertex, ch0_edge=ch0_edge, inter=inter, push=push,
    )


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


def defining_polynomial_by_fold(state) -> SparsePoly:
    """f0 + a0 + sum_{j, i} a[(i, j)] * y_j^i added one product at a time,
    as ``HypersurfaceState.defining_polynomial`` did before it summed in
    one dict."""
    total = state.f0 + state.a0
    for j in range(1, state.r + 1):
        yj = SparsePoly.variable(state.universe, f"y{j}")
        ypow = SparsePoly.constant(state.universe, 1)
        for i in range(1, state.m + 1):
            ypow = ypow * yj
            total = total + state.a[(i, j)] * ypow
    return total


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
    (O(k^2) univariate products per step), on the field-protocol
    reference."""
    uni, bi = ref_uni, ref_bi
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
    return ref_bi.vnormalize(F, [[F.zero] * k + [c] for c in univ_in_v])


def smooth_rational_point_generic(F, f):
    """The first (a, b) in a-then-b order with f(a, b) = 0 and a nonzero
    gradient there, or None; every value through the field protocol."""
    uni, bi = ref_uni, ref_bi
    fu, fv = bi.derivative_u(F, f), bi.derivative_v(F, f)
    for a in range(F.p):
        g, gu, gv = (bi.eval_u(F, h, a) for h in (f, fu, fv))
        for b in range(F.p):
            if F.is_zero(uni.eval_at(F, g, b)) and not (
                F.is_zero(uni.eval_at(F, gu, b)) and F.is_zero(uni.eval_at(F, gv, b))
            ):
                return a, b
    return None


def smooth_point_at_infinity_by_forms(p, f):
    """The first of (0 : 1 : 0), (1 : 0 : 0), ..., (1 : p-1 : 0) where the
    closure of f = 0 is nonsingular, as (a, b, 0), or None: the top form
    f_D vanishes there and (f_D,u, f_D,v, f_(D-1)) does not.  Each of the
    four forms is evaluated term by term at every point: the reference for
    ``bifactor._smooth_point_at_infinity``."""
    terms = {(i, j): c for j, col in enumerate(f) for i, c in enumerate(col) if c}
    D = max((i + j for i, j in terms), default=-1)
    top, top_u, top_v, below = {}, {}, {}, {}
    for (i, j), c in terms.items():
        if i + j == D:
            top[i, j] = c
            if i:
                top_u[i - 1, j] = c * i
            if j:
                top_v[i, j - 1] = c * j
        elif i + j == D - 1:
            below[i, j] = c
    for a, b in [(0, 1)] + [(1, t) for t in range(p)]:
        value, *gradient = (
            sum(c * a**i * b**j for (i, j), c in form.items()) % p
            for form in (top, top_u, top_v, below)
        )
        if not value and any(gradient):
            return a, b, 0
    return None


def horner_slice(terms, used, maps, p):
    """sum c * prod_i (a_i u + b_i v + c_i)^e_i over ``terms`` {e: c}
    mod p, for maps = (a, b, c), v-major with unnormalized columns: the
    reference for ``factorizer._slice``.

    Nested Horner in the used variables: with f_j the coefficient of
    x_i^j, i = used[0], f = (...(f_k L + f_(k-1)) L + ...) L + f_0, so
    every product is by the linear form L = a_i u + b_i v + c_i.  It
    recurses once per used variable, so it is for small inputs only.
    """
    if not used:
        return [[sum(terms.values()) % p]]
    i, rest = used[0], used[1:]
    a, b, c = (vec[i] for vec in maps)
    by_power = {}
    for e, x in terms.items():
        by_power.setdefault(e[i], {})[e] = x
    acc = []
    for j in range(max(by_power), -1, -1):
        if acc:
            acc = _times_linear(acc, a, b, c, p)
        if j in by_power:
            for k, col in enumerate(horner_slice(by_power[j], rest, maps, p)):
                if k == len(acc):
                    acc.append([])
                dst = acc[k]
                dst.extend([0] * (len(col) - len(dst)))
                for t, x in enumerate(col):
                    dst[t] = (dst[t] + x) % p
    return acc


def exact_divide(terms_f, terms_g, p):
    """f / g over GF(p) in dict form when exact, else None (monomial order
    long division; g's leading coefficient must be invertible, which it
    is over a field): the reference for ``SparsePoly.exact_quotient``."""
    if not terms_g:
        return None

    def key(e):
        return (sum(e), e)

    f = dict(terms_f)
    g_lead = max(terms_g, key=key)
    g_lc = terms_g[g_lead]
    g_lc_inv = ff_inv_int(g_lc, p)
    q = {}
    while f:
        f_lead = max(f, key=key)
        diff = tuple(a - b for a, b in zip(f_lead, g_lead))
        if any(x < 0 for x in diff):
            return None
        c = f[f_lead] * g_lc_inv % p
        q[diff] = c
        for e, v in terms_g.items():
            k = tuple(a + b for a, b in zip(e, diff))
            nv = (f.get(k, 0) - c * v) % p
            if nv:
                f[k] = nv
            elif k in f:
                del f[k]
    return q


def _times_linear(f, a, b, c, p):
    """f * (a*u + b*v + c) mod p, for f v-major; columns unnormalized."""
    out, below = [], []
    for col in f + [[]]:
        new = [0] * max(len(col) + 1, len(below))
        for t, x in enumerate(col):
            new[t] += c * x
            new[t + 1] += a * x
        for t, x in enumerate(below):
            new[t] += b * x
        out.append([x % p for x in new])
        below = col
    return out


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

    def variables(self):
        """The names of the variables some term uses, in universe order."""
        return tuple(name for i, name in enumerate(self.universe.names) if any(k[i] for k in self.terms))


# -- the field-protocol reference for unifactor and bifactor ------------------


class PrimeField(gfext.PrimeField):
    """GF(p) with the field protocol that the reference below is written
    against: ints in [0, p), ``zero``/``one``, and one method call per
    operation.  The package's kernels take p itself; only
    ``bifactor.factor_bivariate`` takes a handle, and reads only ``p``."""

    zero = 0
    one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        return ff_inv_int(a, self.p)

    def scalar(self, c: int):
        return c % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def random(self, rng):
        return rng.randrange(self.p)


class ExtField:
    """GF(p^k) as GF(p)[x] modulo a monic irreducible of degree k, with
    the same protocol.  Elements are tuples of k ints (little-endian
    coefficient vectors)."""

    def __init__(self, p: int, modulus):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        k = len(modulus) - 1
        if k < 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.p = p
        self.k = k
        self.q = p**k
        self.char = p
        self.modulus = tuple(c % p for c in modulus)
        self.zero = (0,) * k
        self.one = tuple([1] + [0] * (k - 1))

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y:
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the monic modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c == 0:
                continue
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * self.modulus[j]) % p
        return tuple(prod[:k])

    def pow(self, a, e: int):
        out = self.one
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroInverse("0 has no inverse")
        return self.pow(a, self.q - 2)

    def scalar(self, c: int):
        return tuple([c % self.p] + [0] * (self.k - 1))

    def is_zero(self, a):
        return all(x % self.p == 0 for x in a)

    def random(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.k))

    def __repr__(self):
        return f"GF({self.p}^{self.k})"


def extension_field(p: int, k: int, rng):
    """GF(p^k) modulo a random monic irreducible drawn from ``rng``;
    GF(p) itself, with no draw, when k = 1."""
    if k == 1:
        return PrimeField(p)
    return ExtField(p, ref_uni.find_irreducible(PrimeField(p), k, rng))


def _field_protocol_unifactor():
    """``unifactor`` written against the field protocol, so that the same
    code factors over ``PrimeField`` and ``ExtField``: every coefficient
    operation is one method call on ``F``."""

    def normalize(F, f):
        f = list(f)
        while f and F.is_zero(f[-1]):
            f.pop()
        return f


    def deg(f):
        return len(f) - 1


    def add(F, f, g):
        n = max(len(f), len(g))
        out = []
        for i in range(n):
            a = f[i] if i < len(f) else F.zero
            b = g[i] if i < len(g) else F.zero
            out.append(F.add(a, b))
        return normalize(F, out)


    def sub(F, f, g):
        n = max(len(f), len(g))
        out = []
        for i in range(n):
            a = f[i] if i < len(f) else F.zero
            b = g[i] if i < len(g) else F.zero
            out.append(F.sub(a, b))
        return normalize(F, out)


    def mul(F, f, g):
        if not f or not g:
            return []
        out = [F.zero] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if F.is_zero(a):
                continue
            for j, b in enumerate(g):
                if not F.is_zero(b):
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
        return normalize(F, out)


    def mul_scalar(F, f, c):
        if F.is_zero(c):
            return []
        return normalize(F, [F.mul(a, c) for a in f])


    def divmod_poly(F, f, g):
        if not g:
            raise ZeroDivisionError("division by zero polynomial")
        f = list(f)
        q = [F.zero] * max(0, len(f) - len(g) + 1)
        inv_lc = F.inv(g[-1])
        while len(f) >= len(g) and f:
            c = F.mul(f[-1], inv_lc)
            k = len(f) - len(g)
            q[k] = c
            for i, b in enumerate(g):
                f[k + i] = F.sub(f[k + i], F.mul(c, b))
            f = normalize(F, f)
        return normalize(F, q), f


    def monic(F, f):
        if not f:
            return f
        return mul_scalar(F, f, F.inv(f[-1]))


    def gcd(F, f, g):
        while g:
            f, g = g, divmod_poly(F, f, g)[1]
        return monic(F, f)


    def ext_gcd(F, f, g):
        """(g, s, t) monic gcd with s*f + t*g = gcd."""
        r0, r1 = list(f), list(g)
        s0, s1 = [F.one], []
        t0, t1 = [], [F.one]
        while r1:
            q, r = divmod_poly(F, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, sub(F, s0, mul(F, q, s1))
            t0, t1 = t1, sub(F, t0, mul(F, q, t1))
        if not r0:
            return [], s0, t0
        c = F.inv(r0[-1])
        return mul_scalar(F, r0, c), mul_scalar(F, s0, c), mul_scalar(F, t0, c)


    def pow_mod(F, f, e: int, m):
        out = [F.one]
        base = divmod_poly(F, f, m)[1]
        while e:
            if e & 1:
                out = divmod_poly(F, mul(F, out, base), m)[1]
            base = divmod_poly(F, mul(F, base, base), m)[1]
            e >>= 1
        return out


    def derivative(F, f):
        out = []
        for i in range(1, len(f)):
            out.append(F.mul(f[i], F.scalar(i)))
        return normalize(F, out)


    def eval_at(F, f, a):
        acc = F.zero
        for c in reversed(f):
            acc = F.add(F.mul(acc, a), c)
        return acc


    def x_poly(F):
        return [F.zero, F.one]


    def _char_root(F, c):
        """p-th root of a coefficient (Frobenius inverse: c^(q/p); identity over GF(p))."""
        if F.q == F.char:
            return c
        return F.pow(c, F.q // F.char)


    def squarefree_decomposition(F, f):
        """[(g, m)] with f = lc * prod g^m, each g monic squarefree, m ascending."""
        out = []
        f = monic(F, f)
        n = 1
        p = F.char
        while deg(f) > 0:
            d = derivative(F, f)
            if d:
                g = gcd(F, f, d)
                h = divmod_poly(F, f, g)[0]
                i = 1
                while deg(h) > 0:
                    gh = gcd(F, g, h)
                    piece = divmod_poly(F, h, gh)[0]
                    if deg(piece) > 0:
                        out.append((piece, i * n))
                    i += 1
                    g = divmod_poly(F, g, gh)[0]
                    h = gh
                if deg(g) == 0:
                    break
                f = g
            # here every exponent of f is divisible by p: replace f by its p-th root
            root = [_char_root(F, f[j]) for j in range(0, len(f), p)]
            f = normalize(F, root)
            n *= p
        out.sort(key=lambda gm: (gm[1], len(gm[0])))
        return out


    def distinct_degree(F, f):
        """[(product of irreducibles of degree d, d)] for monic squarefree f."""
        out = []
        h = x_poly(F)
        d = 0
        f = list(f)
        while deg(f) >= 1:
            d += 1
            if deg(f) < 2 * d:
                out.append((monic(F, f), deg(f)))
                break
            h = pow_mod(F, h, F.q, f)
            g = gcd(F, sub(F, h, x_poly(F)), f)
            if deg(g) > 0:
                out.append((g, d))
                f = divmod_poly(F, f, g)[0]
                h = divmod_poly(F, h, f)[1]
        return out


    def equal_degree_split(F, f, d, rng):
        """One random Cantor-Zassenhaus split of monic f (all factors of degree d)."""
        n = deg(f)
        while True:
            a = [F.random(rng) for _ in range(n)]
            a = normalize(F, a)
            if deg(a) < 1:
                continue
            g = gcd(F, a, f)
            if 0 < deg(g) < n:
                return g
            b = pow_mod(F, a, (F.q**d - 1) // 2, f)
            g = gcd(F, sub(F, b, [F.one]), f)
            if 0 < deg(g) < n:
                return g


    def equal_degree(F, f, d, rng):
        """All monic irreducible factors of f, each of degree d."""
        if deg(f) == d:
            return [monic(F, f)]
        g = equal_degree_split(F, f, d, rng)
        h = divmod_poly(F, f, g)[0]
        return equal_degree(F, g, d, rng) + equal_degree(F, h, d, rng)


    def factor(F, f, rng):
        """(leading coefficient, [(monic irreducible, multiplicity)]), sorted."""
        if not f:
            raise ZeroPolynomial("cannot factor the zero polynomial")
        lc = f[-1]
        if deg(f) == 0:
            return lc, []
        out = {}
        for g, mult in squarefree_decomposition(F, f):
            for h, d in distinct_degree(F, g):
                for irr in equal_degree(F, h, d, rng):
                    key = tuple(irr)
                    out[key] = out.get(key, 0) + mult
        factors = [(list(k), m) for k, m in sorted(out.items(), key=lambda kv: (len(kv[0]), kv[0]))]
        return lc, factors


    def is_irreducible(F, f):
        """Rabin irreducibility test for monic f of degree >= 1."""
        n = deg(f)
        if n < 1:
            return False
        if n == 1:
            return True
        x = x_poly(F)
        for ell, _ in prime_powers(n):
            h = pow_mod(F, x, F.q ** (n // ell), f)
            g = gcd(F, sub(F, h, x), f)
            if deg(g) != 0:
                return False
        h = pow_mod(F, x, F.q**n, f)
        return not sub(F, h, x)


    def find_irreducible(F, d: int, rng):
        """A random monic irreducible of degree d over F."""
        while True:
            f = [F.random(rng) for _ in range(d)] + [F.one]
            if is_irreducible(F, f):
                return f

    return SimpleNamespace(**locals())


#: the field-protocol univariate reference: ``ref_uni.factor(F, f, rng)``
ref_uni = _field_protocol_unifactor()


def _field_protocol_bifactor(uni):
    """``bifactor``'s factorization (``factor_bivariate``, ``biv_gcd`` and
    what they call) written against the field protocol, on top of the
    univariate reference ``uni``."""

    def vnormalize(F, f):
        f = [uni.normalize(F, c) for c in f]
        while f and not f[-1]:
            f.pop()
        return f


    def is_vzero(f):
        return not f


    def deg_v(f):
        return len(f) - 1


    def deg_u(f):
        d = -1
        for c in f:
            if c:
                d = max(d, uni.deg(c))
        return d


    def total_degree(f):
        d = -1
        for j, c in enumerate(f):
            if c:
                d = max(d, j + uni.deg(c))
        return d


    def from_dict(F, terms):
        """{(u_exp, v_exp): scalar or field element} -> v-major lists."""
        if not terms:
            return []
        nv = max(j for _, j in terms) + 1
        out = [[] for _ in range(nv)]
        for (i, j), c in terms.items():
            c = F.scalar(c) if isinstance(c, int) else c
            col = out[j]
            while len(col) <= i:
                col.append(F.zero)
            col[i] = F.add(col[i], c)
        return vnormalize(F, out)


    def to_dict(F, f):
        out = {}
        for j, col in enumerate(f):
            for i, c in enumerate(col):
                if not F.is_zero(c):
                    out[(i, j)] = c
        return out


    def vadd(F, f, g):
        n = max(len(f), len(g))
        out = []
        for j in range(n):
            a = f[j] if j < len(f) else []
            b = g[j] if j < len(g) else []
            out.append(uni.add(F, a, b))
        return vnormalize(F, out)


    def vsub(F, f, g):
        n = max(len(f), len(g))
        out = []
        for j in range(n):
            a = f[j] if j < len(f) else []
            b = g[j] if j < len(g) else []
            out.append(uni.sub(F, a, b))
        return vnormalize(F, out)


    def vmul(F, f, g, trunc=None):
        """Product; u-degrees >= trunc are dropped when trunc is given."""
        if not f or not g:
            return []
        out = [[] for _ in range(len(f) + len(g) - 1)]
        for j1, c1 in enumerate(f):
            if not c1:
                continue
            for j2, c2 in enumerate(g):
                if not c2:
                    continue
                prod = uni.mul(F, c1, c2)
                if trunc is not None:
                    prod = prod[:trunc]
                out[j1 + j2] = uni.add(F, out[j1 + j2], prod)
        return vnormalize(F, out)


    def vtrunc(F, f, trunc):
        return vnormalize(F, [c[:trunc] for c in f])


    def vscale(F, f, c):
        return vnormalize(F, [uni.mul_scalar(F, col, c) for col in f])


    def eval_u(F, f, a):
        """Substitute u = a; returns a univariate v-coefficient list."""
        return uni.normalize(F, [uni.eval_at(F, c, a) for c in f])


    def translate_u(F, f, a):
        """u -> u + a via Taylor shift of every u-coefficient."""
        if F.is_zero(a):
            return [list(c) for c in f]
        out = []
        for col in f:
            # Horner-style shift: c(u + a)
            shifted = []
            for coeff in reversed(col):
                shifted = uni.add(F, uni.mul(F, shifted, [a, F.one]), [coeff])
            out.append(shifted)
        return vnormalize(F, out)


    def shear(F, f, theta):
        """u -> u + theta*v; raises the v-degree to the total degree generically."""
        if F.is_zero(theta):
            return [list(c) for c in f]
        lin = [[F.zero, F.one], [theta]]  # u + theta*v as a v-major poly
        out = []
        for j, col in enumerate(f):
            if not col:
                continue
            # col(u + theta v) via Horner in u
            term = []
            for coeff in reversed(col):
                term = vadd(F, vmul(F, term, lin), [[coeff]])
            padded = [[] for _ in range(j)] + term
            out = vadd(F, out, padded)
        return out


    def derivative_v(F, f):
        out = []
        for j in range(1, len(f)):
            out.append(uni.mul_scalar(F, f[j], F.scalar(j)))
        return vnormalize(F, out)


    def derivative_u(F, f):
        return vnormalize(F, [uni.derivative(F, c) for c in f])


    # -- division --------------------------------------------------------------


    def vdivexact(F, f, g):
        """f / g in F[u][v] when g divides f exactly, else None.

        Long division in v from the top.  An exact quotient is unique, so when
        g | f every top column of the remainder is divisible by lc_v(g) in
        F[u]; a nonzero u-remainder there, or a nonzero column left below
        deg_v g, means g does not divide f.
        """
        if not g:
            raise ZeroDivisionError("division by zero in F[u][v]")
        dg, lc = deg_v(g), g[-1]
        if len(f) <= dg:
            return None if f else []
        rem = [list(c) for c in f]
        q = [[] for _ in range(len(f) - dg)]
        for k in range(len(q) - 1, -1, -1):
            c, r = uni.divmod_poly(F, rem[k + dg], lc)
            if r:
                return None
            q[k] = c
            if c:
                # the top column rem[k + dg] cancels by construction
                for i in range(dg):
                    if g[i]:
                        rem[k + i] = uni.sub(F, rem[k + i], uni.mul(F, c, g[i]))
        if any(rem[:dg]):
            return None
        return vnormalize(F, q)


    def _divide(F, f, g):
        """vdivexact where exactness is an invariant (content, squarefree split)."""
        q = vdivexact(F, f, g)
        if q is None:
            raise DivisionFailure("expected exact division in F[u][v] failed")
        return q


    # -- gcd via primitive pseudo-remainder sequence ---------------------------


    def u_content(F, f):
        """Monic gcd over F[u] of all v-coefficients."""
        c = []
        for col in f:
            c = uni.gcd(F, c, col)
            if uni.deg(c) == 0 and c:
                return [F.one]
        return c


    def primitive_part(F, f):
        c = u_content(F, f)
        if uni.deg(c) == 0:
            return [list(col) for col in f]
        return _divide(F, f, [c])


    def pseudo_rem(F, f, g):
        """prem(f, g) in v over F[u]: lc(g)^(df-dg+1) * f reduced by g."""
        df, dg = deg_v(f), deg_v(g)
        lc_g = g[-1]
        rem = [list(c) for c in f]
        for _ in range(df - dg + 1):
            rem = vnormalize(F, rem)
            if deg_v(rem) < dg or is_vzero(rem):
                rem = vnormalize(F, [uni.mul(F, lc_g, col) for col in rem])
                continue
            shift_v = deg_v(rem) - dg
            lead = rem[-1]
            rem = [uni.mul(F, lc_g, col) for col in rem[:-1]]
            sub_term = [[] for _ in range(shift_v)] + [uni.mul(F, lead, col) for col in g[:-1]]
            rem = vsub(F, vnormalize(F, rem), vnormalize(F, sub_term))
        return vnormalize(F, rem)


    def biv_gcd(F, f, g):
        """gcd in F[u][v], primitive PRS; result primitive with monic-in-v lead."""
        if is_vzero(f):
            return primitive_part(F, g) if not is_vzero(g) else []
        if is_vzero(g):
            return primitive_part(F, f)
        if deg_v(f) == 0 and deg_v(g) == 0:
            return [uni.gcd(F, f[0], g[0])]
        cf, cg = u_content(F, f), u_content(F, g)
        cont = uni.gcd(F, cf, cg)
        a, b = primitive_part(F, f), primitive_part(F, g)
        if deg_v(a) < deg_v(b):
            a, b = b, a
        while not is_vzero(b) and deg_v(b) > 0:
            r = pseudo_rem(F, a, b)
            a, b = b, primitive_part(F, r) if not is_vzero(r) else []
        if not is_vzero(b):
            # a nonzero constant in v: gcd is the content only
            result = [list(cont)]
        else:
            result = vmul(F, [cont], primitive_part(F, a))
        # normalize the leading v-coefficient's leading u-coefficient to 1
        lead = result[-1]
        result = vscale(F, result, F.inv(lead[-1]))
        return result


    def squarefree_at_a_point(F, f):
        """True when f has positive v-degree D and a nonzero constant leading
        v-coefficient, and f(a, v) is squarefree for some a in
        0..min(p, D(D-1) + 1) - 1; then f is squarefree.

        With a constant leading v-coefficient no factor of f lies in F[u], and
        every factor keeps its v-degree at u = a; so a square factor h^2 of f
        would give the square factor h(a, v)^2 of f(a, v).  When f is also
        v-regular (D is its total degree), disc_v f has u-degree at most
        D(D-1), so a squarefree f has a nonzero discriminant at one of the
        points tried once p > D(D-1): then False proves f is not squarefree.
        """
        D = len(f) - 1
        if D < 1 or uni.deg(f[-1]) != 0:
            return False
        for a in range(min(F.p, D * (D - 1) + 1)):
            g = eval_u(F, f, F.scalar(a))
            if uni.deg(uni.gcd(F, g, uni.derivative(F, g))) == 0:
                return True
        return False


    def squarefree_decomposition_v(F, f):
        """[(g, m)] for f with nonzero v-derivative chain (needs char > deg)."""
        if squarefree_at_a_point(F, f):
            return [(f, 1)]
        out = []
        f = [list(c) for c in f]
        d = derivative_v(F, f)
        if is_vzero(d):
            raise FactorizationFailure("characteristic too small for squarefree split")
        g = biv_gcd(F, f, d)
        h = _divide(F, f, g)
        i = 1
        while deg_v(h) > 0 or deg_u(h) > 0:
            gh = biv_gcd(F, g, h)
            piece = _divide(F, h, gh)
            if deg_v(piece) > 0 or deg_u(piece) > 0:
                out.append((piece, i))
            i += 1
            g = _divide(F, g, gh)
            h = gh
        return out


    # -- Hensel lifting --------------------------------------------------------


    def hensel_pair(F, f, g0, h0, T):
        """Lift f = g0*h0 (mod u) to f = G*H (mod u^T), G, H v-monic.

        g0, h0 are coprime monic univariate polynomials in v with
        g0*h0 = f(0, v).  G and H are kept as u-adic lists of polynomials in
        v, so step k forms only the new error coefficient
        e_k = f_k - sum_{0<i<k} G_i*H_(k-i): O(k) univariate products, not a
        truncated product of the whole lift.  The lift mod u^T is unique.
        """
        one, s, t = uni.ext_gcd(F, g0, h0)
        if one != [F.one]:
            raise FactorsNotCoprime(f"gcd of g0 and h0 has degree {uni.deg(one)}")
        Gs, Hs = [g0], [h0]
        for k in range(1, T):
            e = uni.normalize(F, [col[k] if len(col) > k else F.zero for col in f])
            for i in range(1, k):
                e = uni.sub(F, e, uni.mul(F, Gs[i], Hs[k - i]))
            dg = uni.divmod_poly(F, uni.mul(F, t, e), g0)[1]
            dh = uni.divmod_poly(F, uni.sub(F, e, uni.mul(F, dg, h0)), g0)[0]
            Gs.append(dg)
            Hs.append(dh)
        return _from_u_adic(F, Gs), _from_u_adic(F, Hs)


    def _from_u_adic(F, coeffs):
        """sum_k coeffs[k](v) u^k, coefficients in v, as a v-major bivariate."""
        width = max(len(c) for c in coeffs)
        return vnormalize(F, [[c[j] if j < len(c) else F.zero for c in coeffs] for j in range(width)])


    def hensel_multi(F, f, factors0, T):
        """Lift the full coprime factorization of f(0, v) to precision u^T."""
        if len(factors0) == 1:
            return [vtrunc(F, f, T)]
        g0 = factors0[0]
        h0 = [F.one]
        for fac in factors0[1:]:
            h0 = uni.mul(F, h0, fac)
        G, H = hensel_pair(F, f, g0, h0, T)
        return [G] + hensel_multi(F, H, factors0[1:], T)


    # -- rational factorization ------------------------------------------------


    def factor_squarefree_regular(F, f, rng):
        """Irreducible factors of a squarefree f that is v-monic with
        deg_v f = total degree.  Returns a list of v-monic factors."""
        n = deg_v(f)
        if n == 1:
            return [f]
        T = total_degree(f) + 1
        # find an expansion point where the v-slice stays squarefree; disc_v f
        # has u-degree at most n(n-1), so n(n-1) + 1 distinct points hold one
        point = None
        tried = set()
        while point is None and len(tried) < min(F.q, n * (n - 1) + 1):
            a = F.random(rng)
            if a in tried:
                continue
            tried.add(a)
            fa = eval_u(F, f, a)
            if uni.deg(fa) == n and uni.deg(uni.gcd(F, fa, uni.derivative(F, fa))) == 0:
                point = a
        if point is None:
            raise FactorizationFailure("no squarefree expansion point found")
        shifted = translate_u(F, f, point)
        f0 = eval_u(F, shifted, F.zero)
        _, uni_factors = uni.factor(F, f0, rng)
        factors0 = [g for g, _ in uni_factors]
        if len(factors0) == 1:
            return [f]
        lifted = hensel_multi(F, shifted, factors0, T)

        found = []
        remaining = shifted
        active = list(range(len(lifted)))
        size = 1
        while 2 * size <= len(active):
            for subset in combinations(active, size):
                cand = [[F.one]]
                for i in subset:
                    cand = vmul(F, cand, lifted[i], trunc=T)
                cand = vtrunc(F, cand, T)
                # a factor of v-degree e of the v-regular f has total degree e,
                # so u-degree <= e - j at v^j; a candidate beyond that cannot divide
                e = deg_v(cand)
                if any(len(col) > e - j + 1 for j, col in enumerate(cand)):
                    continue
                q = vdivexact(F, remaining, cand)
                if q is not None:
                    found.append(cand)
                    remaining = q
                    active = [i for i in active if i not in subset]
                    break
            else:
                size += 1
        found.append(remaining)
        # undo the expansion-point translation
        return [translate_u(F, g, F.neg(point)) for g in found]


    def regularize(F, f, rng):
        """(f sheared by u -> u + theta*v and made v-monic, theta) with
        deg_v = total degree; theta is 0 when f needs no shear."""
        D = total_degree(f)
        cand, theta = f, F.zero
        tried = {F.zero}
        while deg_v(cand) != D or uni.deg(cand[-1]) != 0:
            if len(tried) >= min(F.q, D + 1):
                raise FactorizationFailure("could not reach v-regular position")
            theta = F.random(rng)
            if theta not in tried:
                tried.add(theta)
                cand = shear(F, f, theta)
        return vscale(F, cand, F.inv(cand[-1][0])), theta


    def factor_bivariate(F, f, rng):
        """(unit, [(factor, multiplicity)]) -- complete factorization over F,
        on one path for every non-constant f (a constant c gives (c, [])):
        ``regularize``, squarefree split, Hensel lifting and recombination,
        unshear.  Factors carry unit leading coefficients and are sorted by
        degree, then terms and coefficients, so the list does not depend on
        ``rng``; unit * prod factor^mult == f exactly.
        """
        if is_vzero(f):
            raise ZeroDivisionError("cannot factor zero")
        if total_degree(f) == 0:
            return f[0][0], []
        factors = []
        reg, theta = regularize(F, f, rng)
        for piece, mult in squarefree_decomposition_v(F, reg):
            piece = vscale(F, piece, F.inv(piece[-1][0]))
            for g in factor_squarefree_regular(F, piece, rng):
                factors.append((_normalize_lead(F, shear(F, g, F.neg(theta))), mult))
        factors.sort(key=lambda gm: (total_degree(gm[0]), sorted(to_dict(F, gm[0]).items()), gm[1]))
        # recover the scalar unit exactly
        prod = [[F.one]]
        for g, m in factors:
            for _ in range(m):
                prod = vmul(F, prod, g)
        unit = vdivexact(F, f, prod)
        if unit is None or total_degree(unit) != 0:
            raise FactorizationFailure("factorization does not re-multiply to the input")
        return unit[0][0], factors


    def _normalize_lead(F, g):
        for col in reversed(g):
            for c in reversed(col):
                if not F.is_zero(c):
                    return vscale(F, g, F.inv(c))
        return g

    return SimpleNamespace(**{name: fn for name, fn in locals().items() if name != "uni"})


#: the field-protocol bivariate reference: ``ref_bi.factor_bivariate(F, f, rng)``
ref_bi = _field_protocol_bifactor(ref_uni)
