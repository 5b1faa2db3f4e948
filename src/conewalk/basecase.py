"""Seed data for the dimension-raising induction.

``build_base_state`` assembles the starting hypersurface state: the
defining polynomial rho*h + x0^(d-deg g)*g plus the Pfister-pattern
columns x0^(d-m-deg c_j)*c_j*y_j^m, together with the ladder values
e_j = floor((d-m-deg c_j)/m).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, gcd

from .coeffs import DEFAULT_INVERTIBLE, DEFAULT_PARAMS, P_LIMIT, ParamRing, is_prime
from .errors import IndexOutOfRange, InputTooLarge
from .poly import SparsePoly, VarUniverse, coordinate_universe, parse_poly

# Input limits, each met with ``InputTooLarge`` before anything of that
# size is built, with ``coeffs.P_LIMIT`` on p.  The paper's bound at
# d = 14 runs at p = 197, the first prime above d^2, in a universe of
# 15,368 variables, with m * r = 8188.
#: the most variables of a walk's universe; the packed-key layout of a
#: universe takes about 2 * size^2 bytes, 0.5 GB at the limit
VARIABLE_LIMIT = 1 << 14
#: the most coefficients a[(i, j)], m * r, of a walk: four times the
#: d = 14 witness's 8188, so that at m = 2 only the universe limits r
COEFFICIENT_LIMIT = 1 << 15


def check_walk_size(n, r, s):
    """Raise ``InputTooLarge`` if ``coordinate_universe(n, r, s)``, x0..xn,
    y1..y{r+1}, z1..zs, z and w, would pass ``VARIABLE_LIMIT``."""
    if n + r + s + 4 > VARIABLE_LIMIT:
        raise InputTooLarge(
            f"n = {n}, r = {r} and s + sum(e) = {s} give a universe of {n + r + s + 4} "
            f"variables, above the limit {VARIABLE_LIMIT}"
        )


@dataclass(frozen=True)
class BaseParams:
    """Validated numeric data for the seed construction."""

    n: int
    m: int
    r: int
    d: int
    p: int

    def __post_init__(self):
        # the size limits come first: they bound the cost of the checks below
        if self.p >= P_LIMIT:
            raise InputTooLarge(f"p = {self.p} is not below the limit {P_LIMIT}")
        check_walk_size(self.n, self.r, 0)
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.m < 2:
            raise ValueError("need m >= 2")
        if not 1 <= self.r <= 2**self.n - 2:
            raise ValueError(f"need 1 <= r <= 2^n - 2 = {2 ** self.n - 2}")
        if self.m * self.r > COEFFICIENT_LIMIT:
            raise InputTooLarge(f"m * r = {self.m * self.r} coefficients, above the limit {COEFFICIENT_LIMIT}")
        if self.d < self.m + self.n:
            raise ValueError("need d >= m + n")
        if not is_prime(self.p):
            raise ValueError("p must be prime")
        if self.p <= self.d:
            raise ValueError("need p > d (degrees must not collide with the characteristic)")
        if gcd(self.m, self.p) != 1:
            raise ValueError("m must be invertible mod p")

    @property
    def deg_g(self) -> int:
        return self.m * ceil((self.n + 1) / self.m)

    def ring(self) -> ParamRing:
        return ParamRing(self.p, DEFAULT_PARAMS, DEFAULT_INVERTIBLE)


@dataclass
class HypersurfaceState:
    """The data threaded through the induction.

    The defining polynomial is f0 + a0 + sum_{j=1..r} sum_{i=1..m}
    a[(i, j)] * y_j^i, homogeneous of degree d, with f0, a0 and all
    a[(i, j)] free of the y-variables.  e[j-1] is the largest e with
    x0^(i*e) dividing a[(i, j)] for every i.  h_poly tracks the product
    of the fresh z-coordinates acquired by the walk so far.  params maps
    each parameter name to "symbolic" or a baked integer value.  The
    universe is the walk's, ``coordinate_universe(n, r, s + sum(e))``,
    which every station and family shares.
    """

    bp: BaseParams
    s: int
    universe: VarUniverse
    f0: SparsePoly
    a0: SparsePoly
    a: dict
    e: list
    h_poly: SparsePoly
    params: dict = field(default_factory=dict)
    provenance: list = field(default_factory=list)

    @property
    def n(self):
        return self.bp.n

    @property
    def m(self):
        return self.bp.m

    @property
    def r(self):
        return self.bp.r

    @property
    def d(self):
        return self.bp.d

    @property
    def p(self):
        return self.bp.p

    def defining_polynomial(self) -> SparsePoly:
        parts = [self.f0, self.a0]
        for j in range(1, self.r + 1):
            for i in range(1, self.m + 1):
                if self.a[(i, j)]:
                    parts.append(self.a[(i, j)] * SparsePoly.variable(self.universe, f"y{j}", i))
        return SparsePoly.sum_of(self.universe, parts)

    def recompute_e(self, j: int) -> int:
        """Largest e with x0^(i*e) | a[(i, j)] for all i (maximality check)."""
        best = None
        for i in range(1, self.m + 1):
            poly = self.a[(i, j)]
            if poly.is_zero():
                continue
            v = poly.variable_valuation("x0")
            cand = v // i
            best = cand if best is None else min(best, cand)
        if best is None:
            raise ValueError(f"column j={j} is entirely zero; ladder value undefined")
        return best

    def y_names(self):
        return [f"y{j}" for j in range(1, self.r + 2)]

    def log(self, op: str, **kwargs):
        entry = {"op": op}
        entry.update(kwargs)
        self.provenance.append(entry)


def z_product(universe: VarUniverse, s: int) -> SparsePoly:
    """z1*...*zs, the pivot product h_poly of a station s (1 at s = 0)."""
    return parse_poly("*".join(f"z{k}" for k in range(1, s + 1)) or "1", universe)


def build_g(bp: BaseParams, universe: VarUniverse) -> SparsePoly:
    """pi*(sum x_i^ceil((n+1)/m))^m - (-1)^n x0^(m*ceil((n+1)/m)-n) x1...xn."""
    k = ceil((bp.n + 1) / bp.m)
    power_sum = SparsePoly.zero(universe)
    for i in range(bp.n + 1):
        power_sum = power_sum + SparsePoly.variable(universe, f"x{i}", k)
    first = SparsePoly.param(universe, "pi") * power_sum**bp.m
    tail = SparsePoly.variable(universe, "x0", bp.deg_g - bp.n)
    for i in range(1, bp.n + 1):
        tail = tail * SparsePoly.variable(universe, f"x{i}")
    sign = 1 if bp.n % 2 == 0 else -1
    return first - tail.scale(sign)


def build_cj(j: int, n: int, universe: VarUniverse) -> SparsePoly:
    """prod (-x_i)^eps_i over the binary digits eps of j."""
    if not 1 <= j <= 2**n - 2:
        raise IndexOutOfRange(f"j={j} outside 1..2^n-2")
    out = SparsePoly.constant(universe, 1)
    for i in range(1, n + 1):
        if (j >> (i - 1)) & 1:
            out = out * (-SparsePoly.variable(universe, f"x{i}"))
    return out


def cj_degree(j: int) -> int:
    return bin(j).count("1")


def build_h(bp: BaseParams, h_choice: str, universe: VarUniverse) -> SparsePoly:
    """The degree-d irreducible pivot: sum x_i^d, or the chain form
    x0^d + sum x_{i-1} x_i^(d-1) used when the characteristic divides d.

    p > d is enforced, so p never divides d; the "char-divides-d"
    choice builds the chain form for inspection.
    """
    if h_choice not in ("default", "char-divides-d"):
        raise ValueError(f"unknown h_choice {h_choice!r}")
    if h_choice == "char-divides-d":
        total = SparsePoly.variable(universe, "x0", bp.d)
        for i in range(1, bp.n + 1):
            total = total + SparsePoly.variable(universe, f"x{i - 1}") * SparsePoly.variable(
                universe, f"x{i}", bp.d - 1
            )
        return total
    total = SparsePoly.zero(universe)
    for i in range(bp.n + 1):
        total = total + SparsePoly.variable(universe, f"x{i}", bp.d)
    return total


def build_base_state(bp: BaseParams, h_choice: str = "default") -> HypersurfaceState:
    """The s = 0 state: f0 = rho*h + x0^(d-deg g)*g, top column
    a[(m, j)] = x0^(d-m-deg c_j)*c_j, everything else zero.  Its universe
    holds z1..z_{sum e}, one z per step the ladder allows, and serves the
    whole walk."""
    e = [(bp.d - bp.m - cj_degree(j)) // bp.m for j in range(1, bp.r + 1)]
    check_walk_size(bp.n, bp.r, sum(e))
    universe = coordinate_universe(bp.n, bp.r, sum(e), bp.ring())
    g = build_g(bp, universe)
    h = build_h(bp, h_choice, universe)
    f0 = SparsePoly.param(universe, "rho") * h + SparsePoly.variable(
        universe, "x0", bp.d - bp.deg_g
    ) * g
    a0 = SparsePoly.zero(universe)
    a = {}
    for j in range(1, bp.r + 1):
        for i in range(1, bp.m):
            a[(i, j)] = SparsePoly.zero(universe)
        cj = build_cj(j, bp.n, universe)
        a[(bp.m, j)] = SparsePoly.variable(universe, "x0", bp.d - bp.m - cj_degree(j)) * cj
    state = HypersurfaceState(
        bp=bp,
        s=0,
        universe=universe,
        f0=f0,
        a0=a0,
        a=a,
        e=e,
        h_poly=z_product(universe, 0),
        params={name: "symbolic" for name in bp.ring().names},
    )
    state.log("construct", n=bp.n, m=bp.m, r=bp.r, d=bp.d, p=bp.p, h_choice=h_choice)
    return state
