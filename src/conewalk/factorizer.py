"""Irreducibility oracle over GF(p).

``univariate_factor`` is a complete factorization for single-variable
inputs.  ``probably_irreducible`` decides absolute irreducibility of a
homogeneous polynomial of degree d in k used variables:

- d = 1 is ``Irreducible``;
- a variable dividing every term of the specialized input is a witness;
- for k <= 3, one call to ``bifactor.is_absolutely_irreducible`` on the
  chart, the dehomogenization at the last used variable, decides: that
  variable does not divide the input, so the chart has the input's
  factors over GF(p) and over the closure.  A factor, rehomogenized, is
  the witness; a certificate is ``Irreducible`` with ``trials = 0``;
  neither (a binary form of degree >= 2 with no rational factor among
  them) is ``Inconclusive``;
- for k >= 4, up to ``trials`` slices are drawn: restrictions to random
  affine planes, redrawing maps that send the plane onto a line, built
  by nested Horner so that every product is by one linear form.  Slices
  keep the full degree, so a splitting of the input splits every slice,
  and p > d^2 lets ``bifactor.squarefree_at_a_point`` decide exactly
  whether one is squarefree; a non-squarefree slice is redrawn.  The
  first squarefree slice decides: certified, ``Irreducible``; otherwise,
  or with no squarefree slice within the budget, ``Inconclusive``, since
  no factor of the input is recovered in four or more variables.

Every ``Irreducible`` rests on a certificate and every ``Reducible`` on
an exact division, so ``failure_bound`` is 0.0 for both; whenever no
rational witness can be produced the verdict is ``Inconclusive``, with
bound 1.0 -- the oracle never claims more than it has checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import bifactor as bi
from . import unifactor as uni
from .coeffs import ff_inv_int
from .errors import (
    DegreeTooLargeForPrime,
    DivisionFailure,
    UnspecializedParameter,
    ZeroPolynomial,
)
from .gfext import PrimeField
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


def univariate_factor(a: SparsePoly, assignment: dict | None = None, seed: int = 0):
    """Complete factorization over GF(p) for a single-variable polynomial.

    Returns (unit, factors) where unit is the leading coefficient, an
    int in [0, p), and factors is a list of (monic irreducible
    SparsePoly, multiplicity); unit * prod factor^mult == a.
    """
    if a.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    universe = a.universe
    if len(universe) != 1:
        raise ValueError("univariate_factor expects a single-variable universe")
    p = universe.ring.p
    coeffs = _specialized_coeff_list(a, assignment)
    F = PrimeField(p)
    rng = random.Random(seed)
    unit, factors = uni.factor(F, coeffs, rng)
    out = []
    for g, mult in factors:
        terms = {(i,): c for i, c in enumerate(g) if c}
        out.append((SparsePoly.from_residues(universe, terms), mult))
    return unit, out


def _specialized_coeff_list(a: SparsePoly, assignment):
    if assignment is None and any(map(a.uses_param, a.universe.ring.names)):
        raise UnspecializedParameter("parameters present but no assignment given")
    coeffs = [0] * (a.total_degree() + 1)
    for (i,), c in a.specialize_params(assignment or {}).items():
        coeffs[i] = c
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


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
    int_terms = a.specialize_params(assignment)
    if not int_terms:
        return IrreducibilityVerdict(
            INCONCLUSIVE, assignment=assignment, note="polynomial vanished at the assignment"
        )
    if d == 1:
        return IrreducibilityVerdict(IRREDUCIBLE, assignment=assignment)

    used = [i for i in range(len(a.universe)) if any(e[i] for e in int_terms)]
    for i in used:
        if all(e[i] for e in int_terms):
            witness = SparsePoly.variable(a.universe, a.universe.names[i])
            if _exact_divide(int_terms, witness.specialize_params({}), p) is None:
                raise DivisionFailure(f"{witness!r} does not divide the input exactly")
            return IrreducibilityVerdict(
                REDUCIBLE, witness=witness, assignment=assignment, note="variable factor"
            )

    # no variable factor, so len(used) >= 2
    if len(used) <= 3:
        return _chart_verdict(a.universe, int_terms, used, assignment, rng)
    F = PrimeField(p)
    for drawn in range(1, trials + 1):
        slice_poly = _sample_slice(F, int_terms, used, d, rng)
        if slice_poly is None:
            return IrreducibilityVerdict(
                INCONCLUSIVE, assignment=assignment, note="no non-degenerate slice found"
            )
        # p > d^2 > d(d - 1): False proves the slice has a repeated factor
        if bi.squarefree_at_a_point(F, slice_poly):
            if bi.is_absolutely_irreducible(F, slice_poly, rng)[0]:
                return IrreducibilityVerdict(IRREDUCIBLE, trials=drawn, assignment=assignment)
            break
    return IrreducibilityVerdict(INCONCLUSIVE, assignment=assignment, note="no certified slice")


def _chart_verdict(universe, int_terms, used, assignment, rng):
    """The verdict on a form in 2 or 3 used variables, none dividing it,
    from one ``is_absolutely_irreducible`` call on its chart: a bivariate
    of the same degree (of v-degree 0 for a binary form)."""
    p = universe.ring.p
    F = PrimeField(p)
    *axes, last = used
    # the form is homogeneous, so distinct terms keep distinct chart exponents
    chart = {(e[axes[0]], e[axes[1]] if len(axes) == 2 else 0): c for e, c in int_terms.items()}
    certified, factor = bi.is_absolutely_irreducible(F, bi.from_dict(F, chart), rng)
    if certified:
        return IrreducibilityVerdict(IRREDUCIBLE, assignment=assignment)
    if factor is None:
        return IrreducibilityVerdict(INCONCLUSIVE, assignment=assignment, note="no certificate, no factor")
    deg, terms = bi.total_degree(factor), {}
    for ij, c in bi.to_dict(F, factor).items():
        e = [0] * len(universe)
        for idx, k in zip(axes, ij):
            e[idx] = k
        e[last] = deg - sum(ij)
        terms[tuple(e)] = c
    witness = SparsePoly.from_residues(universe, terms)
    if _exact_divide(int_terms, witness.specialize_params({}), p) is None:
        raise DivisionFailure(f"{witness!r} does not divide the input exactly")
    return IrreducibilityVerdict(REDUCIBLE, witness=witness, assignment=assignment, note="rational factor")


def _sample_slice(F, int_terms, used, d, rng, attempts=64):
    """Substitute x_i -> a_i u + b_i v + c_i; keep only full-degree slices."""
    n = max(len(e) for e in int_terms)
    for _ in range(attempts):
        avec = [F.random(rng) for _ in range(n)]
        bvec = [F.random(rng) for _ in range(n)]
        cvec = [F.random(rng) for _ in range(n)]
        # a rank-deficient map sends the plane onto a line, where f splits
        maps = [{k: v[i] for k, i in enumerate(used)} for v in (avec, bvec, cvec)]
        if bi.rank_mod_p(maps, F.p) < 3:
            continue
        acc = bi.vnormalize(F, _horner(int_terms, used, (avec, bvec, cvec), F.p))
        if bi.total_degree(acc) == d and bi.deg_v(acc) == d:
            return acc
    return None


def _horner(terms, used, maps, p):
    """sum c * prod_i (a_i u + b_i v + c_i)^e_i over ``terms`` {e: c}
    mod p, for maps = (a, b, c), v-major with unnormalized columns.

    Nested Horner in the used variables: with f_j the coefficient of
    x_i^j, i = used[0], f = (...(f_k L + f_(k-1)) L + ...) L + f_0, so
    every product is by the linear form L = a_i u + b_i v + c_i.
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
            for k, col in enumerate(_horner(by_power[j], rest, maps, p)):
                if k == len(acc):
                    acc.append([])
                dst = acc[k]
                dst.extend([0] * (len(col) - len(dst)))
                for t, x in enumerate(col):
                    dst[t] = (dst[t] + x) % p
    return acc


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


def _exact_divide(terms_f, terms_g, p):
    """f / g over GF(p) in dict form when exact, else None (monomial order
    long division; g's leading coefficient must be invertible, which it
    is over a field)."""
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
