"""The cone family over a hypersurface state and the dimension-raising step.

Given a state with defining polynomial f0 + a0 + sum a_{i,j} y_j^i and a
column j0 whose ladder value e_{j0} is >= 1, the family over the base
parameter t is the complete intersection

    F1 = f + sum_{i=0}^{l} a_i x0^i y_{j0}^i + x0^(d-1) z
           + x0^(d-2) (lam*y_{j0} + x0) w = 0,
    F2 = t*x0^2 + z*w = 0,

where f collects f0 and the columns j != j0, and a_i = a_{i,j0} / x0^i
(exact by the ladder hypothesis), deg a_i = d - 2i, l = m.  Since
a_i x0^i y_{j0}^i = a_{i,j0} y_{j0}^i, the core f + sum a_i x0^i y_{j0}^i
is the state's defining polynomial.  The step replaces column j0 by the
transformed coefficients

    a'_i = z_{s+1}^i * sum_{k=i}^{l} C(k,i) (-lam^-1)^(k-i) x0^(2k-2i) a_k
           + [i=1] t*lam*x0^(d-1) + [i=0] x0^(d-1) z_{s+1},

decrements e_{j0} by exactly one, takes up the next coordinate
z_{s+1}, and multiplies the tracked pivot product h by z_{s+1}.  The
sums are the Taylor coefficients of sum a_k Y^k at Y = -lam^-1 x0^2,
found by a synthetic-division shift.

A walk lives in one universe, x0..xn, y1..y{r+1}, z1..z{s+sum(e)}, z, w:
a step adds 1 to s and takes 1 from e_{j0}, so the sum is fixed, and
the universe already holds every z_k of the walk and the family's z, w.
Each station and each family is built in the state's own universe.

Parameters lam and t are fresh transcendentals per step.  A step
builds the column with its drawn (seeded random nonzero) lam and t, so
no state's coefficients name them; a loaded state is held to that by
``stateio``.  The family's equations name them, as its parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .basecase import HypersurfaceState, z_product
from .errors import (
    ConewalkError,
    DivisionFailure,
    EjExhausted,
    EjTooSmall,
    IndexOutOfRange,
    StepInvariantViolated,
)
from .factorizer import INCONCLUSIVE, IRREDUCIBLE, IrreducibilityVerdict, probably_irreducible
from .poly import SparsePoly
from .stateio import check_entry


@dataclass
class DoubleConeFamily:
    state: HypersurfaceState
    j0: int
    F1: SparsePoly
    F2: SparsePoly
    Y0_eq: SparsePoly
    Y1_eq: SparsePoly


def choose_j0(state: HypersurfaceState) -> int:
    """Smallest j with e_j >= 1 (deterministic tie-break)."""
    for j in range(1, state.r + 1):
        if state.e[j - 1] >= 1:
            return j
    raise EjExhausted("no column has ladder value >= 1")


def _validate_j0(state, j0):
    """j0 names a column whose ladder value is >= 1 and which meets the
    ladder hypothesis x0^i | a_{i,j0}."""
    if not 1 <= j0 <= state.r:
        raise IndexOutOfRange(f"j0={j0} outside 1..r={state.r}")
    if state.e[j0 - 1] < 1:
        raise EjTooSmall(f"e_{j0} = {state.e[j0 - 1]}; the cone step needs e >= 1")
    for i in range(1, state.m + 1):
        if not state.a[(i, j0)].monomial_divides("x0", i):
            raise DivisionFailure(f"x0^{i} does not divide every term")


def split_column(state: HypersurfaceState, j0: int):
    """[a_0, ..., a_m] with a_i = a_{i,j0} / x0^i (exact) and a_0 the state's a0."""
    out = [state.a0]
    for i in range(1, state.m + 1):
        out.append(state.a[(i, j0)].divide_by_monomial("x0", i))
    return out


def build_family(state: HypersurfaceState, j0: int) -> DoubleConeFamily:
    """The family equations over the given state and column; their lam
    and t are the step's fresh transcendentals, which the state's
    coefficients do not name."""
    _validate_j0(state, j0)
    universe = state.universe
    d = state.d
    yj = SparsePoly.variable(universe, f"y{j0}")
    x0 = SparsePoly.variable(universe, "x0")
    z = SparsePoly.variable(universe, "z")
    w = SparsePoly.variable(universe, "w")
    lam = SparsePoly.param(universe, "lam")
    t = SparsePoly.param(universe, "t")

    core = state.defining_polynomial()
    z_term = x0 ** (d - 1) * z
    w_term = x0 ** (d - 2) * (lam * yj + x0) * w
    F2 = t * x0**2 + z * w
    return DoubleConeFamily(
        state=state,
        j0=j0,
        F1=SparsePoly.sum_of(universe, [core, z_term, w_term]),
        F2=F2,
        Y0_eq=SparsePoly.sum_of(universe, [core, z_term]),
        Y1_eq=SparsePoly.sum_of(universe, [core, w_term]),
    )


def transformed_column(a_sub, d, z, lam_inv, t_lam) -> list:
    """[a'_0, ..., a'_l] of the split column a_sub = [a_0, ..., a_l],
    with z the new coordinate z_{s+1} and lam_inv, t_lam the values of
    lam^-1 and t*lam: parameters, or constants of the ground field."""
    universe = z.universe
    x0_top = SparsePoly.variable(universe, "x0", d - 1)
    shift = -(SparsePoly.variable(universe, "x0", 2) * lam_inv)
    out = list(a_sub)
    l = len(out) - 1
    # Taylor shift of sum a_k Y^k to Y = shift, in place:
    # out[i] becomes sum_{k>=i} C(k,i) shift^(k-i) a_k
    for i in range(l):
        for k in range(l - 1, i - 1, -1):
            out[k] = out[k] + shift * out[k + 1]
    zpow = z
    for i in range(1, l + 1):
        out[i] = zpow * out[i]
        zpow = zpow * z
    out[0] = out[0] + x0_top * z
    out[1] = out[1] + x0_top * t_lam
    return out


def induct_step(state: HypersurfaceState, j0: int | None = None, seed: int = 0) -> HypersurfaceState:
    """One cone step: transform column j0, take up z_{s+1}, decrement e_{j0}.

    The step's lam/t are seeded random nonzero values, baked into the
    new column as it is built and recorded in provenance.
    """
    if j0 is None:
        j0 = choose_j0(state)
    _validate_j0(state, j0)

    bp, d, m, p = state.bp, state.d, state.m, state.p
    universe = state.universe
    rng = random.Random(seed)
    lam_val = rng.randrange(1, p)
    t_val = rng.randrange(1, p)
    lam_inv = SparsePoly.constant(universe, pow(lam_val, -1, p))
    t_lam = SparsePoly.constant(universe, t_val * lam_val)
    z_new = SparsePoly.variable(universe, f"z{state.s + 1}")
    column = transformed_column(split_column(state, j0), d, z_new, lam_inv, t_lam)

    a_new = dict(state.a)
    for i in range(1, m + 1):
        a_new[(i, j0)] = column[i]
    # the file keeps "symbolic" for lam and t; provenance holds the values
    params = dict(state.params)
    params["lam"] = "symbolic"
    params["t"] = "symbolic"

    new = HypersurfaceState(
        bp=bp,
        s=state.s + 1,
        universe=universe,
        f0=state.f0,
        a0=column[0],
        a=a_new,
        e=list(state.e),
        h_poly=state.h_poly * z_new,
        params=params,
        provenance=list(state.provenance),
    )
    new.e[j0 - 1] -= 1
    recomputed = new.recompute_e(j0)
    if recomputed != new.e[j0 - 1]:
        raise StepInvariantViolated(
            f"ladder decrement mismatch: recomputed {recomputed}, expected {new.e[j0 - 1]}"
        )
    for i, poly in enumerate(column):
        if not poly.is_zero():
            deg, hom = poly.degree_info()
            if not hom or deg != d - i:
                raise StepInvariantViolated(f"transformed a'_{i} has wrong degree")
    # "symbolic": false stays in the entry: without it every state's bytes change
    new.log("induct", j0=j0, seed=seed, symbolic=False, lam=lam_val, t=t_val)
    return new


# -- symbolic verifiers ------------------------------------------------------


def verify_singular_minors(fam: DoubleConeFamily) -> list:
    """The three derivative identities that confine the singular loci.

    (i)   det [[dF1/dt, dF1/dz], [dF2/dt, dF2/dz]] = -x0^(d+1)
    (ii)  d(Y0)/dz = x0^(d-1)
    (iii) d(Y1)/dw = x0^(d-2) (lam*y_{j0} + x0)
    """
    u = fam.state.universe
    d = fam.state.d
    x0 = SparsePoly.variable(u, "x0")
    yj = SparsePoly.variable(u, f"y{fam.j0}")
    lam = SparsePoly.param(u, "lam")

    f1t = fam.F1.param_derivative("t")
    f1z = fam.F1.partial_derivative("z")
    f2t = fam.F2.param_derivative("t")
    f2z = fam.F2.partial_derivative("z")
    minor = f1t * f2z - f1z * f2t
    expected_minor = -(x0 ** (d + 1))

    dz_y0 = fam.Y0_eq.partial_derivative("z")
    dw_y1 = fam.Y1_eq.partial_derivative("w")

    return [
        check_entry(
            "minor-det-tz",
            "jacobian-minor",
            expected_minor.canonical_string(),
            minor.canonical_string(),
        ),
        check_entry(
            "y0-z-derivative",
            "component-smoothness",
            (x0 ** (d - 1)).canonical_string(),
            dz_y0.canonical_string(),
        ),
        check_entry(
            "y1-w-derivative",
            "component-smoothness",
            (x0 ** (d - 2) * (lam * yj + x0)).canonical_string(),
            dw_y1.canonical_string(),
        ),
    ]


def verify_state(state: HypersurfaceState, irreducibility_trials: int = 20, seed: int = 0) -> list:
    """Structural checks on a state: homogeneity, y-absence, the
    divisibility ladder with maximality, irreducibility of f0 + a0, and
    the pivot-product shape.

    Homogeneity is read from the fields, f0 and a0 of degree d and each
    a_{i,j} of degree d - i, with no defining polynomial built; a
    failing entry's ``got`` is (label, degree, homogeneous?) of the
    first nonzero field off its degree, in the order f0, a0, then
    a[i,j] by column j and row i.  A pivot f0 + a0 that the oracle
    cannot take (zero, no form of degree >= 1, or of degree deg over
    p <= deg^2) is ``Inconclusive`` without calling it."""
    checks = []
    d = state.d
    fields = [("f0", 0, state.f0), ("a0", 0, state.a0)] + [
        (f"a[{i},{j}]", i, state.a[(i, j)])
        for j in range(1, state.r + 1)
        for i in range(1, state.m + 1)
    ]

    # with every field y-free (the next check), a_{i,j} y_j^i holds the only
    # terms with y-monomial y_j^i, so the defining polynomial is a form of
    # degree d when f0, a0 and every a_{i,j} have their degrees
    got = (d, True)
    for label, i, poly in fields:
        info = (d - i, True) if poly.is_zero() else poly.degree_info()
        if info != (d - i, True):
            got = (label, *info)
            break
    checks.append(check_entry("state-homogeneous", "state-shape", (d, True), got))

    y_names = set(state.y_names())
    offenders = []
    for label, _, poly in fields:
        offenders += [(label, y) for y in poly.variables() if y in y_names]
    checks.append(check_entry("state-y-free", "state-shape", [], offenders))

    for j in range(1, state.r + 1):
        ej = state.e[j - 1]
        holds = all(
            state.a[(i, j)].monomial_divides("x0", i * ej) for i in range(1, state.m + 1)
        )
        checks.append(check_entry(f"ladder-divisibility-j{j}", "ladder", True, holds))
        checks.append(check_entry(f"ladder-maximal-j{j}", "ladder", ej, state.recompute_e(j)))

    rng = random.Random(seed)
    assignment = {}
    for name in state.universe.ring.names:
        v = state.params[name]
        assignment[name] = v if isinstance(v, int) else rng.randrange(1, state.p)
    # the oracle raises on anything but a nonzero form of degree deg >= 1
    # over p > deg^2, so any other pivot is Inconclusive here and the report
    # is still written
    pivot = state.f0 + state.a0
    deg, form = (0, True) if pivot.is_zero() else pivot.degree_info()
    if deg < 1 or not form or state.p <= deg * deg:
        verdict = IrreducibilityVerdict(INCONCLUSIVE, note="pivot outside the oracle's domain")
    else:
        verdict = probably_irreducible(pivot, params=assignment, trials=irreducibility_trials, seed=seed)
    checks.append(
        check_entry(
            "irreducible-f0a0",
            "pivot-irreducibility",
            IRREDUCIBLE,
            verdict.verdict,
            failure_bound=verdict.failure_bound,
        )
    )

    # the walk's coordinates z1..zs, each once, with coefficient 1
    shape_ok = state.h_poly == z_product(state.universe, state.s)
    checks.append(check_entry("h-poly-shape", "pivot-product", True, shape_ok))
    return checks


def verify_station(state: HypersurfaceState, trials: int = 20, seed: int = 0) -> list:
    """Every check of one station: ``verify_state`` with up to ``trials``
    irreducibility slices, then the singular-minor identities of the
    family over the first usable column.  A station whose ladder is
    exhausted has no family and passes ``family-minors-skipped``; a family
    that cannot be built fails ``family-construction``, naming the error."""
    checks = verify_state(state, irreducibility_trials=trials, seed=seed)
    try:
        fam = build_family(state, choose_j0(state))
    except EjExhausted:
        exhausted = "ladder exhausted"
        return checks + [check_entry("family-minors-skipped", "ladder", exhausted, exhausted)]
    except ConewalkError as ex:
        got = f"{type(ex).__name__}: {ex}"
        return checks + [check_entry("family-construction", "family", "family equations assembled", got)]
    return checks + verify_singular_minors(fam)
