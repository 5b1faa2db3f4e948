"""Irreducibility oracle over GF(p).

``probably_irreducible`` decides absolute irreducibility of a
homogeneous polynomial of degree d in k used variables:

- d = 1 is ``Irreducible``;
- a variable dividing every term of the specialized input is a witness;
- a variable z in exactly one term, to the first power, certifies: the
  input is c*m*z + B with m a monomial and z absent from B, so a factor
  free of z divides c*m and B, and, a monomial's divisors being
  monomials, would put a variable factor in the input.  With none, the
  verdict is ``Irreducible`` with ``trials = 0`` and note
  ``"linear variable"``.  Every walk pivot after the base station,
  x0^(d-1)*z_s + B, is decided here;
- for k <= 3, one call to ``bifactor.is_absolutely_irreducible`` on the
  chart, the dehomogenization at the last used variable, decides: that
  variable does not divide the input, so the chart has the input's
  factors over GF(p) and over the closure.  A factor, rehomogenized, is
  the witness; a certificate is ``Irreducible`` with ``trials = 0``;
  neither (a binary form of degree >= 2 with no rational factor among
  them) is ``Inconclusive``;
- for k >= 4, up to ``trials`` slices are drawn: restrictions to random
  affine planes, redrawing maps that send the plane onto a line, each
  interpolated from its values on the lattice u + v <= d, which is
  exact since d < p.  Slices keep the full degree, so a splitting of the
  input splits every slice, and p > d^2 lets
  ``bifactor.squarefree_at_a_point`` decide exactly whether one is
  squarefree; a non-squarefree slice is redrawn.  The first squarefree
  slice decides: certified, ``Irreducible``; otherwise, or with no
  squarefree slice within the budget, ``Inconclusive``, since no factor
  of the input is recovered in four or more variables.

The input is specialized once at the assignment (``SparsePoly.specialize``)
and read through its ``exponent_items``: per term, the (slot, exponent)
pairs of its nonzero variable exponents, so the oracle's cost follows
the terms and not the size of the universe.

Every ``Irreducible`` rests on a certificate and every ``Reducible`` on
an exact division (``SparsePoly.exact_quotient``), so ``failure_bound``
is 0.0 for both; whenever no rational witness can be produced the
verdict is ``Inconclusive``, with bound 1.0 -- the oracle never claims
more than it has checked.  p lies below ``coeffs.P_LIMIT``, as every
``ParamRing``'s does.

All of it runs on plain ints mod p: slices, charts and factors are
``bifactor``/``unifactor`` lists of residues, and the kernels take p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import prod

from . import bifactor as bi
from .coeffs import ff_inv_int
from .errors import (
    DegreeTooLargeForPrime,
    DivisionFailure,
    ZeroPolynomial,
)
from .poly import SparsePoly

IRREDUCIBLE = "Irreducible"
REDUCIBLE = "Reducible"
INCONCLUSIVE = "Inconclusive"


@dataclass
class IrreducibilityVerdict:
    verdict: str
    witness: SparsePoly | None = None
    trials: int = 0
    assignment: dict = field(default_factory=dict)
    note: str = ""

    def __bool__(self):
        return self.verdict == IRREDUCIBLE

    @property
    def failure_bound(self) -> float:
        """0.0 for the exact answers Irreducible and Reducible, 1.0 for
        Inconclusive."""
        return 1.0 if self.verdict == INCONCLUSIVE else 0.0


def probably_irreducible(
    a: SparsePoly,
    params="random",
    trials: int = 20,
    seed: int = 0,
) -> IrreducibilityVerdict:
    """Absolute-irreducibility test: on the chart in at most three used
    variables, by random plane slices in four or more.

    ``params`` is either a full parameter assignment or "random", in
    which case nonzero values are drawn from the seed.  For inputs with
    symbolic parameters the verdict (and any witness) refers to the
    polynomial at the recorded assignment.  ``trials`` bounds the slices
    drawn for k >= 4 used variables, where the first squarefree one
    decides; a verdict reached without a slice has ``trials = 0``.
    """
    if a.is_zero():
        raise ZeroPolynomial("zero polynomial")
    if trials < 1:
        raise ValueError("need at least one trial")
    d, homogeneous = a.degree_info()
    if d < 1 or not homogeneous:
        raise ValueError("expected a homogeneous polynomial of degree >= 1")
    p = a.universe.ring.p
    if p <= d * d:
        raise DegreeTooLargeForPrime(f"p={p} <= deg^2={d * d}")
    rng = random.Random(seed)

    if params == "random":
        assignment = {name: rng.randrange(1, p) for name in a.universe.ring.names}
    else:
        assignment = dict(params)
    f = a.specialize(assignment)
    if f.is_zero():
        return IrreducibilityVerdict(
            INCONCLUSIVE, assignment=assignment, note="polynomial vanished at the assignment"
        )
    if d == 1:
        return IrreducibilityVerdict(IRREDUCIBLE, assignment=assignment)

    # each term's variables, from one pass over the terms
    terms = f.exponent_items()
    support = [{i for i, _ in pairs} for pairs, _ in terms]
    used, common = sorted(set().union(*support)), set.intersection(*support)
    if common:
        witness = SparsePoly.variable(a.universe, a.universe.names[min(common)])
        return _reducible(f, witness, assignment, "variable factor")
    # f = c*m*z + B with z absent from B: a factor free of z divides the
    # monomial c*m, so with no variable factor f is absolutely irreducible
    if _has_linear_variable(terms, support, len(used)):
        return IrreducibilityVerdict(IRREDUCIBLE, assignment=assignment, note="linear variable")

    # no variable factor, so len(used) >= 2
    if len(used) <= 3:
        return _chart_verdict(f, terms, used, assignment, rng)
    for drawn in range(1, trials + 1):
        slice_poly = _sample_slice(p, terms, used, d, len(a.universe), rng)
        if slice_poly is None:
            return IrreducibilityVerdict(
                INCONCLUSIVE, assignment=assignment, note="no non-degenerate slice found"
            )
        # p > d^2 > d(d - 1): False proves the slice has a repeated factor
        if bi.squarefree_at_a_point(p, slice_poly):
            if bi.is_absolutely_irreducible(p, slice_poly, rng)[0]:
                return IrreducibilityVerdict(IRREDUCIBLE, trials=drawn, assignment=assignment)
            break
    return IrreducibilityVerdict(INCONCLUSIVE, assignment=assignment, note="no certified slice")


def _has_linear_variable(terms, support, k):
    """Does a variable occur in exactly one of ``terms``, to the first
    power?  ``support`` holds each term's slots; the scan stops once all
    k used slots are seen in two terms."""
    seen, twice = set(), set()
    for slots in support:
        twice |= seen & slots
        if len(twice) == k:
            return False
        seen |= slots
    once = seen - twice
    return any(i in once for pairs, _ in terms for i, e in pairs if e == 1)


def _reducible(f, witness, assignment, note):
    """The Reducible verdict on f with ``witness``, once it divides f exactly."""
    if f.exact_quotient(witness) is None:
        raise DivisionFailure(f"{witness!r} does not divide the input exactly")
    return IrreducibilityVerdict(REDUCIBLE, witness=witness, assignment=assignment, note=note)


def _chart_verdict(f, terms, used, assignment, rng):
    """The verdict on a form f in 2 or 3 used variables, none dividing it,
    from one ``is_absolutely_irreducible`` call on its chart: a bivariate
    of the same degree (of v-degree 0 for a binary form).  ``terms`` are
    f's ``exponent_items``."""
    universe, p = f.universe, f.universe.ring.p
    axes = used[:-1]
    # the form is homogeneous, so distinct terms keep distinct chart exponents
    pad = (0,) * (3 - len(used))  # a binary form's chart has v-degree 0
    chart = {tuple(dict(pairs).get(i, 0) for i in axes) + pad: c for pairs, c in terms}
    certified, factor = bi.is_absolutely_irreducible(p, bi.from_dict(p, chart), rng)
    if certified:
        return IrreducibilityVerdict(IRREDUCIBLE, assignment=assignment)
    if factor is None:
        return IrreducibilityVerdict(INCONCLUSIVE, assignment=assignment, note="no certificate, no factor")
    # rehomogenized at the last used variable
    deg, names, monomials = bi.total_degree(factor), [universe.names[i] for i in used], []
    for ij, c in bi.to_dict(factor).items():
        exps = (*ij[:len(axes)], deg - sum(ij))
        powers = [SparsePoly.variable(universe, x, k) for x, k in zip(names, exps)]
        monomials.append(prod(powers, start=SparsePoly.constant(universe, c)))
    witness = SparsePoly.sum_of(universe, monomials)
    return _reducible(f, witness, assignment, "rational factor")


def _sample_slice(p, terms, used, d, n, rng, attempts=64):
    """Substitute x_i -> a_i u + b_i v + c_i for each of the n variables
    of the universe, by evaluation on the degree-d lattice and
    interpolation (``_slice``); keep only full-degree slices."""
    for _ in range(attempts):
        avec, bvec, cvec = ([rng.randrange(p) for _ in range(n)] for _ in range(3))
        # a rank-deficient map sends the plane onto a line, where f splits
        maps = [{k: v[i] for k, i in enumerate(used)} for v in (avec, bvec, cvec)]
        if bi.rank_mod_p(maps, p) < 3:
            continue
        acc = bi.vnormalize(p, _slice(terms, (avec, bvec, cvec), d, p))
        if bi.total_degree(acc) == d and bi.deg_v(acc) == d:
            return acc
    return None


def _slice(terms, maps, d, p):
    """sum c * prod_i (a_i u + b_i v + c_i)^e_i over ``terms``, the
    ``exponent_items`` [(((i, e_i), ...), c)] of a form of degree d < p,
    mod p, v-major and unreduced, for maps = (a, b, c).

    The slice has total degree <= d, so its values on the lattice
    u + v <= d fix it: forward differences in v along each row, then in
    u along each column, give its coordinates in the basis
    C(u, i) C(v, j), i + j <= d, which are rewritten in monomials.
    """
    a, b, c = maps
    points = [(x, y) for x in range(d + 1) for y in range(d + 1 - x)]
    powers, values = {}, [0] * len(points)
    for pairs, coef in terms:
        acc = [coef] * len(points)
        for i, e in pairs:
            if (i, e) not in powers:
                powers[i, e] = [pow(a[i] * x + b[i] * y + c[i], e, p) for x, y in points]
            acc = [s * t % p for s, t in zip(acc, powers[i, e])]
        values = [s + t for s, t in zip(values, acc)]
    it = iter(values)
    rows = [_differences([next(it) for _ in range(d + 1 - x)], p) for x in range(d + 1)]
    cols = [_differences([row[j] for row in rows[:d + 1 - j]], p) for j in range(d + 1)]
    binom = [[1]]  # binom[i]: the coefficients of C(u, i) = C(u, i - 1) (u - i + 1) / i
    for i in range(1, d + 1):
        prev, inv = binom[-1] + [0], ff_inv_int(i, p)  # prev[-1] = 0 at t = 0
        binom.append([(prev[t - 1] - (i - 1) * prev[t]) * inv % p for t in range(i + 1)])
    out = [[0] * (d + 1 - j) for j in range(d + 1)]
    for j, col in enumerate(cols):  # col[i]: the coordinate at C(u, i) C(v, j)
        for i, x in enumerate(col):
            for jj, y in enumerate(binom[j]):
                for t, z in enumerate(binom[i]):
                    out[jj][t] += x * y * z
    return out


def _differences(values, p):
    """[Delta^k h(0) mod p for k < len(values)] from values = [h(0), h(1), ...]."""
    for k in range(1, len(values)):
        values[k:] = [t - s for s, t in zip(values[k - 1:], values[k:])]
    return [x % p for x in values]
