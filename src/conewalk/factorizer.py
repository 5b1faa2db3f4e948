"""Irreducibility oracle over GF(p).

``univariate_factor`` is a complete factorization for single-variable
inputs.  ``probably_irreducible`` decides absolute irreducibility of a
homogeneous multivariate polynomial by restricting to random affine
planes: every slice is tested for absolute irreducibility over the
closure, an ``Irreducible`` verdict carries an explicit failure bound,
and a ``Reducible`` verdict always carries a re-multiplication-verified
factor.  Whenever reducibility over the closure is detected but no
rational witness can be produced, the verdict is ``Inconclusive`` --
the oracle never claims more than it has checked.

Failure bound: if the input is in fact reducible, a random affine plane
slice fails to expose this only when the slice degenerates (its degree
drops), which happens with probability at most deg/p per slice; we
report the conservative per-trial bound c0 * deg^2 / p with c0 = 1, so
``failure_bound = (deg^2 / p) ** trials``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import bifactor as bi
from . import unifactor as uni
from .coeffs import FieldElem, ParamCoeff
from .errors import (
    DegreeTooLargeForPrime,
    DivisionFailure,
    UnspecializedParameter,
    ZeroPolynomial,
)
from .gfext import PrimeField
from .poly import SparsePoly

#: constant in the per-trial slice failure bound (documented above)
SLICE_FAILURE_C0 = 1.0

IRREDUCIBLE = "Irreducible"
REDUCIBLE = "Reducible"
INCONCLUSIVE = "Inconclusive"


@dataclass
class IrreducibilityVerdict:
    verdict: str
    witness: SparsePoly | None = None
    failure_bound: float = 1.0
    trials: int = 0
    assignment: dict = field(default_factory=dict)
    note: str = ""

    def __bool__(self):
        return self.verdict == IRREDUCIBLE


def trials_for_failure_bound(degree: int, p: int, bound: float) -> int:
    """Smallest trial count making (deg^2/p)^trials <= bound."""
    per = SLICE_FAILURE_C0 * degree * degree / p
    if per >= 1.0:
        raise DegreeTooLargeForPrime(f"p={p} too small for degree {degree}")
    t = 1
    while per**t > bound:
        t += 1
    return t


def univariate_factor(a: SparsePoly, assignment: dict | None = None, seed: int = 0):
    """Complete factorization over GF(p) for a single-variable polynomial.

    Returns (unit, factors) where unit is the leading FieldElem and
    factors is a list of (monic irreducible SparsePoly, multiplicity);
    unit * prod factor^mult == a.
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
        terms = {(i,): ParamCoeff.from_int(universe.ring, c) for i, c in enumerate(g) if c}
        out.append((SparsePoly(universe, terms), mult))
    return FieldElem(unit, p), out


def _specialized_coeff_list(a: SparsePoly, assignment):
    p = a.universe.ring.p
    coeffs = [0] * (a.total_degree() + 1)
    for exps, c in a.terms.items():
        if c.is_scalar():
            v = c.scalar_value()
        else:
            if assignment is None:
                raise UnspecializedParameter("parameters present but no assignment given")
            v = c.specialize(assignment).value
        coeffs[exps[0]] = (coeffs[exps[0]] + v) % p
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def probably_irreducible(
    a: SparsePoly,
    params="random",
    trials: int = 20,
    seed: int = 0,
    force_extension_path: bool = False,
) -> IrreducibilityVerdict:
    """Randomized absolute-irreducibility test by plane slicing.

    ``params`` is either a full parameter assignment or "random", in
    which case nonzero values are drawn from the seed.  For inputs with
    symbolic parameters the verdict (and any witness) refers to the
    polynomial at the recorded assignment.
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

    # visible monomial factors are decided symbolically, before any sampling
    for name in a.universe.names:
        val = a.variable_valuation(name)
        if val and val > 0:
            witness = SparsePoly.variable(a.universe, name)
            cofactor = a.divide_by_monomial(name, 1)
            if cofactor * witness != a:
                raise DivisionFailure(f"{name} * cofactor does not re-multiply to the input")
            return IrreducibilityVerdict(REDUCIBLE, witness=witness, note="monomial factor")

    if params == "random":
        assignment = {name: rng.randrange(1, p) for name in a.universe.ring.names}
    else:
        assignment = dict(params)
    int_terms = a.specialize_params(assignment)
    if not int_terms:
        return IrreducibilityVerdict(
            INCONCLUSIVE, assignment=assignment, note="polynomial vanished at the assignment"
        )

    used = [i for i in range(len(a.universe)) if any(e[i] for e in int_terms)]
    if d == 1:
        return IrreducibilityVerdict(IRREDUCIBLE, failure_bound=0.0, assignment=assignment)
    if len(used) == 1:
        # c * x^d with d >= 2 would have been caught by the monomial check
        name = a.universe.names[used[0]]
        witness = SparsePoly.variable(a.universe, name)
        return IrreducibilityVerdict(REDUCIBLE, witness=witness, note="single variable power")
    if len(used) == 2:
        return _binary_form_verdict(a, int_terms, used, assignment, rng)

    F = PrimeField(p)
    per_trial = SLICE_FAILURE_C0 * d * d / p
    nonsquarefree_slices = 0
    for _ in range(trials):
        slice_poly = _sample_slice(F, int_terms, used, d, rng)
        if slice_poly is None:
            return IrreducibilityVerdict(
                INCONCLUSIVE, assignment=assignment, note="no non-degenerate slice found"
            )
        gcd_sf = bi.biv_gcd(F, slice_poly, bi.derivative_v(F, slice_poly))
        if bi.deg_v(gcd_sf) > 0 or bi.deg_u(gcd_sf) > 0:
            nonsquarefree_slices += 1
            if nonsquarefree_slices >= 3:
                return IrreducibilityVerdict(
                    INCONCLUSIVE,
                    assignment=assignment,
                    note="slices persistently non-squarefree (repeated factor likely)",
                )
            continue
        ok, _ = bi.is_absolutely_irreducible(
            F, slice_poly, rng, force_extension_path=force_extension_path
        )
        if not ok:
            return _witness_after_reducible_slice(a, int_terms, used, assignment, rng)
    return IrreducibilityVerdict(
        IRREDUCIBLE,
        failure_bound=per_trial**trials,
        trials=trials,
        assignment=assignment,
    )


def _sample_slice(F, int_terms, used, d, rng, attempts=64):
    """Substitute x_i -> a_i u + b_i v + c_i; keep only full-degree slices."""
    n = max(len(e) for e in int_terms)
    maxexp = {}
    for e in int_terms:
        for i in used:
            if e[i] > maxexp.get(i, 0):
                maxexp[i] = e[i]
    for _ in range(attempts):
        avec = [F.random(rng) for _ in range(n)]
        bvec = [F.random(rng) for _ in range(n)]
        cvec = [F.random(rng) for _ in range(n)]
        if all(F.is_zero(c) for c in cvec):
            continue
        powers = {}
        for i in used:
            lin = bi.from_dict(F, {(1, 0): avec[i], (0, 1): bvec[i], (0, 0): cvec[i]})
            tab = [[[F.one]]]
            for _k in range(maxexp.get(i, 0)):
                tab.append(bi.vmul(F, tab[-1], lin))
            powers[i] = tab
        acc = []
        for e, coeff in int_terms.items():
            term = [[F.scalar(coeff)]]
            for i in used:
                if e[i]:
                    term = bi.vmul(F, term, powers[i][e[i]])
            acc = bi.vadd(F, acc, term)
        if bi.total_degree(acc) == d and bi.deg_v(acc) == d:
            return acc
    return None


def _binary_form_verdict(a, int_terms, used, assignment, rng):
    """Homogeneous in two variables: splits into linear forms over the
    closure, so degree >= 2 is never absolutely irreducible.  A rational
    witness exists iff the dehomogenization has a proper factor."""
    p = a.universe.ring.p
    F = PrimeField(p)
    i, j = used
    deg = max(e[i] + e[j] for e in int_terms)
    # the specialization may acquire a variable factor the symbolic form lacks
    for idx in (i, j):
        if all(e[idx] > 0 for e in int_terms):
            witness = SparsePoly.variable(a.universe, a.universe.names[idx])
            return IrreducibilityVerdict(
                REDUCIBLE, witness=witness, assignment=assignment, note="monomial factor at assignment"
            )
    coeffs = [0] * (deg + 1)
    for e, c in int_terms.items():
        coeffs[e[i]] = (coeffs[e[i]] + c) % p
    g = uni.normalize(F, coeffs)
    if uni.deg(g) >= 1:
        _, fs = uni.factor(F, g, rng)
        if len(fs) > 1 or fs[0][1] > 1:
            w, _ = fs[0]
            witness = _homogenize_univariate(
                a.universe, w, a.universe.names[i], a.universe.names[j], deg_total=uni.deg(w)
            )
            if _verify_witness(a, int_terms, witness):
                return IrreducibilityVerdict(
                    REDUCIBLE, witness=witness, assignment=assignment, note="binary form split"
                )
    # x_j^k content would have been caught earlier; the remaining case is a
    # rationally irreducible binary form, reducible over the closure only
    return IrreducibilityVerdict(
        INCONCLUSIVE,
        assignment=assignment,
        note="binary form of degree >= 2: reducible over the closure, no rational witness",
    )


def _homogenize_univariate(universe, w, var_main, var_hom, deg_total):
    ring = universe.ring
    terms = {}
    i_main = universe.index(var_main)
    i_hom = universe.index(var_hom)
    for k, c in enumerate(w):
        if c == 0:
            continue
        e = [0] * len(universe)
        e[i_main] = k
        e[i_hom] = deg_total - k
        terms[tuple(e)] = ParamCoeff.from_int(ring, c)
    return SparsePoly(universe, terms)


def _verify_witness(a, int_terms, witness):
    """Check the witness divides the specialized polynomial exactly."""
    p = a.universe.ring.p
    quotient = _exact_divide(a.universe, int_terms, witness.specialize_params({}), p)
    return quotient is not None


def _exact_divide(universe, terms_f, terms_g, p):
    """f / g over GF(p) in dict form when exact, else None (monomial order
    long division; g's leading coefficient must be invertible, which it
    is over a field)."""
    from .coeffs import ff_inv_int

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


def _witness_after_reducible_slice(a, int_terms, used, assignment, rng):
    """A slice was reducible over the closure.  Try to recover a verified
    rational factor of the specialized polynomial; with three effective
    variables the dehomogenization is bivariate, where the factorization
    is complete.  Otherwise report honestly."""
    p = a.universe.ring.p
    F = PrimeField(p)
    if len(used) == 3:
        i0, i1, i2 = used
        biv_terms = {}
        for e, c in int_terms.items():
            key = (e[i0], e[i1])
            biv_terms[key] = (biv_terms.get(key, 0) + c) % p
        f2 = bi.from_dict(F, biv_terms)
        _, fs = bi.factor_bivariate(F, f2, rng)
        if len(fs) > 1 or (fs and fs[0][1] > 1):
            g, _ = fs[0]
            witness = _rehomogenize_bivariate(a.universe, F, g, used)
            if _exact_divide(a.universe, int_terms, witness.specialize_params({}), p) is not None:
                return IrreducibilityVerdict(
                    REDUCIBLE, witness=witness, assignment=assignment, note="slice split, factor lifted"
                )
    return IrreducibilityVerdict(
        INCONCLUSIVE,
        assignment=assignment,
        note="a slice is reducible over the closure but no rational witness was recovered",
    )


def _rehomogenize_bivariate(universe, F, g, used):
    """Bivariate factor of the dehomogenization -> homogeneous multivariate."""
    ring = universe.ring
    gd = bi.to_dict(F, g)
    deg = max(i + j for (i, j) in gd)
    i0, i1, i2 = used
    terms = {}
    for (i, j), c in gd.items():
        e = [0] * len(universe)
        e[i0] = i
        e[i1] = j
        e[i2] = deg - i - j
        terms[tuple(e)] = ParamCoeff.from_int(ring, c)
    return SparsePoly(universe, terms)
