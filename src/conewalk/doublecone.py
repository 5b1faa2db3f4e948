"""The cone family over a hypersurface state and the dimension-raising step.

Given a state with defining polynomial f0 + a0 + sum a_{i,j} y_j^i and a
column j0 whose ladder value e_{j0} is >= 1, the family over the base
parameter t is the complete intersection

    F1 = f + sum_{i=0}^{l} a_i x0^i y_{j0}^i + x0^(d-1) z
           + x0^(d-2) (lam*y_{j0} + x0) w = 0,
    F2 = t*x0^2 + z*w = 0,

where f collects f0 and the columns j != j0, and a_i = a_{i,j0} / x0^i
(exact by the ladder hypothesis), deg a_i = d - 2i, l = m.  The step
replaces column j0 by the transformed coefficients

    a'_i = z_{s+1}^i * sum_{k=i}^{l} C(k,i) (-lam^-1)^(k-i) x0^(2k-2i) a_k
           + [i=1] t*lam*x0^(d-1) + [i=0] x0^(d-1) z_{s+1},

decrements e_{j0} by exactly one, appends the fresh coordinate z_{s+1},
and multiplies the tracked pivot product h by z_{s+1}.

Parameters lam and t are fresh transcendentals per step.  A state whose
coefficients still mention lam or t (from a symbolic step) must absorb
them into the ground field (seeded random nonzero values) before the
next family is built; ``induct_step`` does this automatically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from .basecase import HypersurfaceState
from .coeffs import sqrt_mod
from .errors import (
    EjExhausted,
    EjTooSmall,
    IndexOutOfRange,
    SamplingExhausted,
    StepInvariantViolated,
)
from .factorizer import IRREDUCIBLE, probably_irreducible
from .poly import SparsePoly, VarUniverse, coordinate_universe


@dataclass
class DoubleConeFamily:
    state: HypersurfaceState
    j0: int
    universe: VarUniverse  # state variables plus z, w
    F1: SparsePoly
    F2: SparsePoly
    Y0_eq: SparsePoly
    Y1_eq: SparsePoly
    Z_eq: SparsePoly


def choose_j0(state: HypersurfaceState) -> int:
    """Smallest j with e_j >= 1 (deterministic tie-break)."""
    for j in range(1, state.r + 1):
        if state.e[j - 1] >= 1:
            return j
    raise EjExhausted("no column has ladder value >= 1")


def _validate_j0(state, j0):
    if not 1 <= j0 <= state.r:
        raise IndexOutOfRange(f"j0={j0} outside 1..r={state.r}")
    if state.e[j0 - 1] < 1:
        raise EjTooSmall(f"e_{j0} = {state.e[j0 - 1]}; the cone step needs e >= 1")


def split_column(state: HypersurfaceState, j0: int):
    """[a_0, ..., a_m] with a_i = a_{i,j0} / x0^i (exact) and a_0 the state's a0."""
    out = [state.a0]
    for i in range(1, state.m + 1):
        out.append(state.a[(i, j0)].divide_by_monomial("x0", i))
    return out


def absorb_step_params(state: HypersurfaceState, seed: int) -> HypersurfaceState:
    """Bake any symbolic lam/t left in the coefficients into the ground
    field, using seeded random nonzero values.  Returns a new state."""
    uses = {
        name
        for name in ("lam", "t")
        if any(
            poly.uses_param(name)
            for poly in [state.f0, state.a0, state.h_poly, *state.a.values()]
        )
    }
    if not uses:
        return state
    rng = random.Random(seed)
    values = {name: rng.randrange(1, state.p) for name in sorted(uses)}

    def bake(poly):
        for name, v in values.items():
            poly = poly.substitute_param(name, v)
        return poly

    new = HypersurfaceState(
        bp=state.bp,
        s=state.s,
        universe=state.universe,
        f0=bake(state.f0),
        a0=bake(state.a0),
        a={k: bake(v) for k, v in state.a.items()},
        e=list(state.e),
        h_poly=state.h_poly,
        params=dict(state.params),
        provenance=list(state.provenance),
    )
    new.log("absorb", values=values, seed=seed)
    return new


def build_family(state: HypersurfaceState, j0: int) -> DoubleConeFamily:
    """The family equations over the given state and column.

    The state's coefficients must not mention lam or t: those names are
    the *current* step's fresh transcendentals.
    """
    _validate_j0(state, j0)
    for name in ("lam", "t"):
        if any(
            poly.uses_param(name)
            for poly in [state.f0, state.a0, *state.a.values()]
        ):
            raise ValueError(
                f"state coefficients still mention {name!r}; absorb them first"
            )
    universe = VarUniverse(state.universe.names + ("z", "w"), state.universe.ring)
    d, m = state.d, state.m
    f_part = state.f0.embed(universe)
    for j in range(1, state.r + 1):
        if j == j0:
            continue
        for i in range(1, m + 1):
            term = state.a[(i, j)].embed(universe) * SparsePoly.variable(universe, f"y{j}", i)
            f_part = f_part + term
    a_sub = [poly.embed(universe) for poly in split_column(state, j0)]

    yj = SparsePoly.variable(universe, f"y{j0}")
    x0 = SparsePoly.variable(universe, "x0")
    z = SparsePoly.variable(universe, "z")
    w = SparsePoly.variable(universe, "w")
    lam = SparsePoly.param(universe, "lam")
    t = SparsePoly.param(universe, "t")

    core = f_part
    for i, ai in enumerate(a_sub):
        core = core + ai * x0**i * yj**i
    z_term = x0 ** (d - 1) * z
    w_term = x0 ** (d - 2) * (lam * yj + x0) * w
    F1 = core + z_term + w_term
    F2 = t * x0**2 + z * w
    return DoubleConeFamily(
        state=state,
        j0=j0,
        universe=universe,
        F1=F1,
        F2=F2,
        Y0_eq=core + z_term,
        Y1_eq=core + w_term,
        Z_eq=core,
    )


def transformed_sum_part(a_sub, i, universe) -> SparsePoly:
    """sum_{k=i}^{l} C(k,i) (-lam^-1)^(k-i) x0^(2k-2i) a_k, without the
    delta terms or the z_{s+1}^i prefactor."""
    l = len(a_sub) - 1
    # x0^2 * (-lam^-1), one monomial
    step = -(SparsePoly.variable(universe, "x0", 2) * SparsePoly.param(universe, "lam", -1))
    total = SparsePoly.zero(universe)
    for k in range(i, l + 1):
        total = total + (a_sub[k] * step ** (k - i)).scale(comb(k, i))
    return total


def transformed_coefficient(a_sub, d, i, universe, z_name) -> SparsePoly:
    """The full a'_i in the new state universe (deg a'_i = d - i)."""
    zs = SparsePoly.variable(universe, z_name)
    x0 = SparsePoly.variable(universe, "x0")
    total = zs**i * transformed_sum_part(a_sub, i, universe)
    if i == 1:
        t_lam = SparsePoly.param(universe, "t") * SparsePoly.param(universe, "lam")
        total = total + x0 ** (d - 1) * t_lam
    if i == 0:
        total = total + x0 ** (d - 1) * zs
    return total


def induct_step(
    state: HypersurfaceState,
    j0: int | None = None,
    seed: int = 0,
    symbolic: bool = False,
) -> HypersurfaceState:
    """One cone step: transform column j0, append z_{s+1}, decrement e_{j0}.

    By default the step's lam/t are baked to seeded random nonzero
    values on the way out (ground-field absorption); with
    ``symbolic=True`` they are kept as symbols, in which case the next
    step will absorb them itself.
    """
    state = absorb_step_params(state, seed=(seed << 1) ^ 0x5EED)
    if j0 is None:
        j0 = choose_j0(state)
    _validate_j0(state, j0)

    bp, d, m = state.bp, state.d, state.m
    s_new = state.s + 1
    z_name = f"z{s_new}"
    new_universe = coordinate_universe(bp.n, bp.r, s_new, bp.ring())
    a_sub = [poly.embed(new_universe) for poly in split_column(state, j0)]

    a_new = {}
    for j in range(1, state.r + 1):
        if j == j0:
            continue
        for i in range(1, m + 1):
            a_new[(i, j)] = state.a[(i, j)].embed(new_universe)
    for i in range(1, m + 1):
        a_new[(i, j0)] = transformed_coefficient(a_sub, d, i, new_universe, z_name)
    a0_new = transformed_coefficient(a_sub, d, 0, new_universe, z_name)

    rng = random.Random(seed)
    lam_val = rng.randrange(1, state.p)
    t_val = rng.randrange(1, state.p)
    params = dict(state.params)
    params["lam"] = "symbolic"
    params["t"] = "symbolic"
    if not symbolic:
        a0_new = a0_new.substitute_param("lam", lam_val).substitute_param("t", t_val)
        for i in range(1, m + 1):
            key = (i, j0)
            a_new[key] = a_new[key].substitute_param("lam", lam_val).substitute_param("t", t_val)

    new = HypersurfaceState(
        bp=bp,
        s=s_new,
        universe=new_universe,
        f0=state.f0.embed(new_universe),
        a0=a0_new,
        a=a_new,
        e=list(state.e),
        h_poly=state.h_poly.embed(new_universe) * SparsePoly.variable(new_universe, z_name),
        params=params,
        provenance=list(state.provenance),
    )
    new.e[j0 - 1] -= 1
    recomputed = new.recompute_e(j0)
    if recomputed != new.e[j0 - 1]:
        raise StepInvariantViolated(
            f"ladder decrement mismatch: recomputed {recomputed}, expected {new.e[j0 - 1]}"
        )
    for i in range(0, m + 1):
        poly = a0_new if i == 0 else a_new[(i, j0)]
        if not poly.is_zero():
            deg, hom = poly.degree_info()
            if not hom or deg != d - i:
                raise StepInvariantViolated(f"transformed a'_{i} has wrong degree")
    step_entry = {"j0": j0, "seed": seed, "symbolic": symbolic}
    if not symbolic:
        step_entry["lam"] = lam_val
        step_entry["t"] = t_val
    new.log("induct", **step_entry)
    return new


# -- symbolic verifiers ------------------------------------------------------


def _entry(check, ref, expected, got):
    return {
        "check": check,
        "ref": ref,
        "expected": expected,
        "got": got,
        "pass": expected == got,
    }


def verify_singular_minors(fam: DoubleConeFamily) -> list:
    """The three derivative identities that confine the singular loci.

    (i)   det [[dF1/dt, dF1/dz], [dF2/dt, dF2/dz]] = -x0^(d+1)
    (ii)  d(Y0)/dz = x0^(d-1)
    (iii) d(Y1)/dw = x0^(d-2) (lam*y_{j0} + x0)
    """
    u = fam.universe
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
        _entry(
            "minor-det-tz",
            "jacobian-minor",
            expected_minor.canonical_string(),
            minor.canonical_string(),
        ),
        _entry(
            "y0-z-derivative",
            "component-smoothness",
            (x0 ** (d - 1)).canonical_string(),
            dz_y0.canonical_string(),
        ),
        _entry(
            "y1-w-derivative",
            "component-smoothness",
            (x0 ** (d - 2) * (lam * yj + x0)).canonical_string(),
            dw_y1.canonical_string(),
        ),
    ]


def verify_state(state: HypersurfaceState, irreducibility_trials: int = 20, seed: int = 0) -> list:
    """Structural checks on a state: homogeneity, y-absence, the
    divisibility ladder with maximality, irreducibility of f0 + a0, and
    the pivot-product shape."""
    checks = []
    d = state.d

    defining = state.defining_polynomial()
    deg, hom = defining.degree_info()
    checks.append(
        _entry("state-homogeneous", "state-shape", (d, True), (deg, hom))
    )

    y_names = state.y_names()
    offenders = []
    for label, poly in [("f0", state.f0), ("a0", state.a0)] + [
        (f"a[{i},{j}]", state.a[(i, j)])
        for j in range(1, state.r + 1)
        for i in range(1, state.m + 1)
    ]:
        for y in y_names:
            if poly.uses_variable(y):
                offenders.append((label, y))
    checks.append(_entry("state-y-free", "state-shape", [], offenders))

    for j in range(1, state.r + 1):
        ej = state.e[j - 1]
        holds = all(
            state.a[(i, j)].monomial_divides("x0", i * ej) for i in range(1, state.m + 1)
        )
        checks.append(_entry(f"ladder-divisibility-j{j}", "ladder", True, holds))
        checks.append(_entry(f"ladder-maximal-j{j}", "ladder", ej, state.recompute_e(j)))

    rng = random.Random(seed)
    assignment = {}
    for name in state.universe.ring.names:
        v = state.params[name]
        assignment[name] = v if isinstance(v, int) else rng.randrange(1, state.p)
    verdict = probably_irreducible(
        state.f0 + state.a0, params=assignment, trials=irreducibility_trials, seed=seed
    )
    checks.append(
        _entry(
            "irreducible-f0a0",
            "pivot-irreducibility",
            IRREDUCIBLE,
            verdict.verdict,
        )
    )
    checks[-1]["failure_bound"] = verdict.failure_bound

    # one monomial with coefficient 1 in the z variables only
    hp = state.h_poly
    z_slots = {i for i, name in enumerate(state.universe.names) if name.startswith("z")}
    shape_ok = len(hp.terms) == 1 and all(
        c == 1 and all(e == 0 or i in z_slots for i, e in enumerate(exps))
        for exps, c in hp.to_dict().items()
    )
    checks.append(_entry("h-poly-shape", "pivot-product", True, shape_ok))
    return checks


# -- numeric smoothness sampling --------------------------------------------


def smoothness_sample(
    fam: DoubleConeFamily,
    samples: int,
    params: dict,
    seed: int = 0,
    budget_factor: int = 200,
) -> dict:
    """Sample points of the specialized family with x0 != 0 and check the
    Jacobian of (F1, F2) has rank 2 at each.

    Points are produced by drawing all coordinates except z, w and
    solving F1 = F2 = 0 for them (a quadratic in z).  Note t*x0^2 =
    -z*w forces z != 0 wherever x0 != 0, so every sampled point also
    has x0*z != 0.
    """
    p = fam.state.p
    for name in ("lam", "t"):
        v = params.get(name)
        if v is None:
            raise ValueError(f"parameter {name!r} must be assigned")
        if v % p == 0:
            raise ValueError(f"parameter {name!r} must be nonzero")

    u = fam.universe
    rng = random.Random(seed)
    idx = {name: u.index(name) for name in u.names}
    iz, iw, ix0 = idx["z"], idx["w"], idx["x0"]

    z_core = fam.Z_eq.specialize_params(params)
    b_poly = (
        SparsePoly.variable(u, "x0", fam.state.d - 2)
        * (
            SparsePoly.param(u, "lam") * SparsePoly.variable(u, f"y{fam.j0}")
            + SparsePoly.variable(u, "x0")
        )
    ).specialize_params(params)
    grads = []
    for eq in (fam.F1, fam.F2):
        grads.append([eq.partial_derivative(name).specialize_params(params) for name in u.names])

    t_val = params["t"] % p

    def eval_terms(terms, point):
        total = 0
        for exps, c in terms.items():
            acc = c
            for v, e in zip(point, exps):
                if e:
                    acc = acc * pow(v, e, p) % p
            total = (total + acc) % p
        return total

    found = 0
    rank2 = 0
    attempts = 0
    budget = budget_factor * samples
    while found < samples:
        attempts += 1
        if attempts > budget:
            raise SamplingExhausted(
                f"found {found}/{samples} region points in {budget} attempts"
            )
        point = [rng.randrange(p) for _ in u.names]
        point[ix0] = rng.randrange(1, p)
        point[iz] = 0
        point[iw] = 0
        a_val = eval_terms(z_core, point)
        b_val = eval_terms(b_poly, point)
        c_val = pow(point[ix0], fam.state.d - 1, p)
        rhs = t_val * pow(point[ix0], 2, p) % p  # z*w = -rhs
        if b_val == 0:
            if a_val == 0:
                continue
            z_val = -a_val * pow(c_val, -1, p) % p
        else:
            disc = (a_val * a_val + 4 * c_val * rhs % p * b_val) % p
            root = sqrt_mod(disc, p)
            if root is None:
                continue
            z_val = (-a_val + root) * pow(2 * c_val, -1, p) % p
            if z_val == 0:
                z_val = (-a_val - root) * pow(2 * c_val, -1, p) % p
        if z_val == 0:
            continue
        w_val = -rhs * pow(z_val, -1, p) % p
        point[iz], point[iw] = z_val, w_val
        found += 1
        j = [[eval_terms(g, point) for g in row] for row in grads]
        has_rank2 = any(
            (j[0][c1] * j[1][c2] - j[0][c2] * j[1][c1]) % p
            for c1 in range(len(u.names))
            for c2 in range(c1 + 1, len(u.names))
        )
        if has_rank2:
            rank2 += 1
    return {
        "samples": samples,
        "rank2": rank2,
        "attempts": attempts,
        "pass": rank2 == samples,
    }
