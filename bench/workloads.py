"""The benchmark's workloads.

Each workload turns the workload seed into one or more input variants in
``setup`` and runs one repetition of one variant in ``run``.  walk-d9
averages three seeded walks, because at one trial a walk's cost depends
on the slices and extension fields its seed draws.  Every operation's
output is checked: a wrong answer the benchmark can prove raises
``CorrectnessError`` and aborts the run; a walk station whose verify
does not pass is a failed operation; an oracle call that ends without
the decision its input is known to have (``Inconclusive``) counts as
undecided, since the oracle may say so, and ``decided_share`` reports
it.  ``run`` returns the sha256 digests of every file and verdict it
produced, so the caller can require identical bytes across repetitions
of one seed.

The program is reached only through its public surface: the CLI, called
in-process as ``conewalk.cli.main([...])``, and the public functions of
``factorizer``, ``doublecone`` and ``stateio`` (``skeleton`` builds the
cokernel inputs at set-up).  Modules come in as a namespace ``cw`` from
the caller, which re-imports the package for every set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import statistics
from time import perf_counter, process_time


class CorrectnessError(Exception):
    """An output the benchmark can show to be wrong."""


REF_LOOP_S = 0.008  # the nominal duration of ``reference_loop``
CAL_EVERY_S = 0.25  # work between two runs of the reference loop
CAL_WINDOW = 2  # reference runs on each side of a step that scale it

_ref = random.Random("reference")
REF_FACTORS = [{tuple(_ref.randrange(8) for _ in range(3)): _ref.randrange(1, 101) for _ in range(70)}
               for _ in range(2)]


def reference_loop():
    """Fixed pure-Python work that shares no code with the program: an
    integer recurrence, then sparse products mod 101 over tuple-keyed
    dicts.  Their sum tracks the host's speed on the program's workloads
    better than either alone."""
    s = 0
    for i in range(50_000):
        s = (s * 31 + i) % 1000003
    f, g = REF_FACTORS
    for _ in range(4):
        out = {}
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                k = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[k] = (out.get(k, 0) + c1 * c2) % 101
    return s, out


class Ops:
    """Timed steps of every repetition, and the operations among them.

    A step is one timed call; repetitions of one seed run the same steps
    in the same order.  An operation is a step the user waits on as a
    unit (a station verify, an oracle call, a CLI command).

    On a shared host a core's speed drifts by up to a factor of two in
    phases of seconds, so ``reference_loop`` runs between steps,
    at least every ``CAL_EVERY_S`` seconds, and ``scaled`` expresses a
    step's time in seconds at the speed where that loop takes
    ``REF_LOOP_S``: raw time * REF_LOOP_S / median of the loop's times
    on either side of the step.
    """

    def __init__(self):
        self.variants = []  # per repetition: the input variant it ran
        self.steps = []  # per repetition: [(wall s, cpu s, last reference run)] of every step
        self.operations = []  # per repetition: indices of the steps that are operations
        self.reference = []  # (wall s, cpu s) of every run of the reference loop
        self._since_reference = float("inf")
        self.attempted = 0
        self.failed = 0
        self.undecided = 0

    def new_repetition(self, variant: int):
        self.variants.append(variant)
        self.steps.append([])
        self.operations.append([])

    def calibrate(self):
        """Run the reference loop once and record its times."""
        t0, c0 = perf_counter(), process_time()
        reference_loop()
        self.reference.append((perf_counter() - t0, process_time() - c0))
        self._since_reference = 0.0

    def step(self, fn, *args, **kwargs):
        """fn(*args, **kwargs), timed as the next step of this repetition."""
        if self._since_reference >= CAL_EVERY_S:
            self.calibrate()
        t0, c0 = perf_counter(), process_time()
        result = fn(*args, **kwargs)
        wall, cpu = perf_counter() - t0, process_time() - c0
        self.steps[-1].append((wall, cpu, len(self.reference) - 1))
        self._since_reference += wall
        return result

    def scaled(self, rep: int, i: int):
        """(wall s, cpu s) of step ``i`` of repetition ``rep`` at reference speed.

        Call ``calibrate`` after the last step, so that it has a reference
        run on both sides."""
        wall, cpu, k = self.steps[rep][i]
        near = self.reference[max(k - CAL_WINDOW + 1, 0): k + CAL_WINDOW + 1]
        return (wall * REF_LOOP_S / statistics.median(w for w, _ in near),
                cpu * REF_LOOP_S / statistics.median(c for _, c in near))

    def record(self, decided: bool, failed: bool = False):
        """Count the last step as an operation: did it reach the decision
        its input is known to have, and did the program report failure."""
        self.operations[-1].append(len(self.steps[-1]) - 1)
        self.attempted += 1
        self.undecided += not decided
        self.failed += failed


def cli(cw, argv):
    """(exit code, stdout, stderr) of one in-process CLI command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cw.cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def checked_cli(cw, argv):
    """Stdout of a CLI command that must succeed."""
    code, out, err = cli(cw, argv)
    if code != 0:
        raise CorrectnessError(f"{' '.join(map(str, argv[:2]))} exited {code}: {err.strip()}")
    return out


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


# -- walks ----------------------------------------------------------------------


class Walk:
    """construct -> single-step inducts -> verify at every station, for
    ``walks`` walks; the first is constructed with the workload seed."""

    def __init__(self, name, n, m, r, d, p, steps, trials, walks):
        self.name = name
        self.params = {"n": n, "m": m, "r": r, "d": d, "p": p, "steps": steps, "trials": trials,
                       "walks": walks}

    def setup(self, cw, seed, workdir):
        rng = _rng(self.name, seed)
        steps = self.params["steps"]
        plans = []
        for w in range(self.params["walks"]):
            os.makedirs(os.path.join(workdir, f"w{w}"), exist_ok=True)
            plans.append({
                "dir": os.path.join(workdir, f"w{w}"),
                "construct_seed": seed if w == 0 else rng.randrange(1 << 30),
                "induct_seeds": [rng.randrange(1 << 30) for _ in range(steps)],
                "verify_seeds": [rng.randrange(1 << 30) for _ in range(steps + 1)],
            })
        return plans

    def run(self, cw, plan, ops):
        P = self.params
        paths = [os.path.join(plan["dir"], f"s{k}.json") for k in range(P["steps"] + 1)]
        ops.step(checked_cli, cw, [
            "construct", "base", "--n", P["n"], "--m", P["m"], "--r", P["r"], "--d", P["d"],
            "--p", P["p"], "--seed", plan["construct_seed"], "--out", paths[0],
        ])
        for k, seed in enumerate(plan["induct_seeds"]):
            ops.step(checked_cli, cw, [
                "induct", "--state", paths[k], "--steps", 1, "--seed", seed, "--out", paths[k + 1],
            ])
        digests = {}
        for k, seed in enumerate(plan["verify_seeds"]):
            report = os.path.join(plan["dir"], f"r{k}.json")
            code, _, _ = ops.step(cli, cw, [
                "verify", "--state", paths[k], "--trials", P["trials"], "--seed", seed,
                "--report", report,
            ])
            ok = code == 0 and _pivot_verdict(report) == "Irreducible"
            ops.record(ok, failed=not ok)
            digests[f"r{k}.json"] = file_digest(report)
        for k, path in enumerate(paths):
            digests[f"s{k}.json"] = file_digest(path)
        return digests


def _pivot_verdict(report_path):
    with open(report_path) as fh:
        report = json.load(fh)
    for entry in report["checks"]:
        if entry["check"] == "irreducible-f0a0":
            return entry["got"]
    raise CorrectnessError(f"{report_path}: no irreducible-f0a0 entry")


# -- oracle on non-walk inputs ----------------------------------------------------


def _monomials(nvars, degree):
    if nvars == 1:
        return [(degree,)]
    return [(k,) + rest for k in range(degree, -1, -1) for rest in _monomials(nvars - 1, degree - k)]


def _divides_exactly(f: dict, g: dict, p: int) -> bool:
    """Does g divide f over GF(p)?  Both map exponent tuples to residues."""
    if not g:
        return False

    def order(e):
        return (sum(e), e)

    g_lead = max(g, key=order)
    g_inv = pow(g[g_lead], -1, p)
    rem = dict(f)
    while rem:
        lead = max(rem, key=order)
        shift = tuple(a - b for a, b in zip(lead, g_lead))
        if min(shift) < 0:
            return False
        c = rem[lead] * g_inv % p
        for e, v in g.items():
            k = tuple(a + b for a, b in zip(e, shift))
            nv = (rem.get(k, 0) - c * v) % p
            if nv:
                rem[k] = nv
            else:
                rem.pop(k, None)
    return True


def _non_residue(p):
    return next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)


class OracleMixed:
    """``factorizer.probably_irreducible`` on seeded forms with known answers.

    kinds and the verdict each must reach:
      product3  A*B in 3 variables     Reducible, witness divides exactly
      product4  A*B in 4 variables     Reducible, witness divides exactly
      twisted   A^2 - nu*B^2, nu a non-residue: irreducible over GF(p),
                reducible over the closure: anything but Irreducible
      fermat    x0^d + x1^d + x2^d     Irreducible
    An Inconclusive where a decision is expected counts as undecided; a
    wrong decision aborts the run.
    """

    name = "oracle-mixed"

    def __init__(self, p, trials, product_degrees, per_degree, twisted_degrees, fermat_degrees, fermat_seeds):
        self.params = {
            "p": p,
            "trials": trials,
            "product_degrees": list(product_degrees),
            "products_per_degree": per_degree,
            "twisted_degrees": list(twisted_degrees),
            "fermat_degrees": list(fermat_degrees),
            "fermat_seeds": fermat_seeds,
        }

    def setup(self, cw, seed, workdir):
        P = self.params
        p = P["p"]
        rng = _rng(self.name, seed)
        ring = cw.coeffs.ParamRing(p)
        universes = {k: cw.poly.VarUniverse(tuple(f"x{i}" for i in range(k)), ring) for k in (3, 4)}

        def form(u, degree):
            while True:
                terms = {
                    e: cw.coeffs.ParamCoeff.from_int(ring, rng.randrange(p))
                    for e in _monomials(len(u), degree)
                }
                poly = cw.poly.SparsePoly(u, terms)
                if len(poly.terms) > 1:
                    return poly

        cases = []
        for nvars in (3, 4):
            for d in P["product_degrees"]:
                for _ in range(P["products_per_degree"]):
                    k = rng.randint(1, d - 1)
                    u = universes[nvars]
                    cases.append((f"product{nvars}", form(u, k) * form(u, d - k)))
        nu = cw.poly.SparsePoly.constant(universes[3], _non_residue(p))
        for d in P["twisted_degrees"]:
            for _ in range(P["products_per_degree"]):
                a, b = form(universes[3], d // 2), form(universes[3], d // 2)
                cases.append(("twisted", a * a - nu * b * b))
        for d in P["fermat_degrees"]:
            u = universes[3]
            fermat = sum((cw.poly.SparsePoly.variable(u, x, d) for x in u.names[1:]),
                         cw.poly.SparsePoly.variable(u, u.names[0], d))
            cases += [("fermat", fermat)] * P["fermat_seeds"]
        return [{"cases": [(kind, poly, rng.randrange(1 << 30)) for kind, poly in cases]}]

    def run(self, cw, plan, ops):
        P = self.params
        p = P["p"]
        verdicts = []
        for kind, poly, seed in plan["cases"]:
            v = ops.step(cw.factorizer.probably_irreducible, poly, params={}, trials=P["trials"], seed=seed)
            name = v.verdict
            if name not in ("Irreducible", "Reducible", "Inconclusive"):
                raise CorrectnessError(f"{kind}: unknown verdict {name!r}")
            if name == "Irreducible" and kind != "fermat":
                raise CorrectnessError(f"{kind} input {poly.canonical_string()} called Irreducible")
            if name == "Reducible":
                if kind == "fermat":
                    raise CorrectnessError(f"Fermat curve {poly.canonical_string()} called Reducible")
                w = v.witness.specialize_params({}) if v.witness is not None else {}
                deg = max((sum(e) for e in w), default=0)
                if not (0 < deg < poly.total_degree() and _divides_exactly(poly.specialize_params({}), w, p)):
                    raise CorrectnessError(f"{kind}: witness {v.witness!r} is not a proper factor")
            ops.record(name != "Inconclusive" or kind == "twisted")
            witness = v.witness.canonical_string() if v.witness is not None else ""
            verdicts.append(f"{kind} {name} {witness}")
        return {"verdicts": text_digest("\n".join(verdicts))}


# -- exact layers: ladder and skeletons -------------------------------------------


def _gf_rank(matrix, p):
    rows = [[v % p for v in row] for row in matrix]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] * inv % p
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _expected_torsion(matrix, m, c):
    """m * coker(matrix over Z/c) == 0, for c squarefree or m in (1, c).

    CRT splits Z/c for squarefree c into fields, where the cokernel is
    killed by m iff it vanishes at every prime not dividing m; for c a
    prime power, Nakayama reduces surjectivity (m = 1) to the residue
    field.
    """
    if m % c == 0:
        return True
    primes = [q for q in range(2, c + 1) if c % q == 0 and all(q % s for s in range(2, q))]
    if m != 1 and any(c % (q * q) == 0 for q in primes):
        raise ValueError(f"no independent check for {m}-torsion over Z/{c}")
    return all(_gf_rank(matrix, q) == len(matrix) for q in primes if m % q)


def _random_graph(rng, c, nvertices, ranks):
    """Graph-file JSON of a path skeleton with random modules and maps over Z/c."""
    vertices = list(range(nvertices))
    edges = [[i, i + 1] for i in range(nvertices - 1)]

    def module():
        return {"ring": c, "rank": rng.choice(ranks), "factors": []}

    def matrix(rows, cols):
        return [[rng.randrange(c) for _ in range(cols)] for _ in range(rows)]

    ch1 = {str(v): module() for v in vertices}
    ch0v = {str(v): module() for v in vertices}
    ch0e = {f"{v}|{w}": module() for v, w in edges}
    inter, push = {}, {}
    for v, w in edges:
        e = f"{v}|{w}"
        for x in (v, w):
            inter[f"{e}@{x}"] = matrix(ch0e[e]["rank"], ch1[str(x)]["rank"])
            push[f"{e}@{x}"] = matrix(ch0v[str(x)]["rank"], ch0e[e]["rank"])
    return {"vertices": vertices, "edges": edges, "ch1": ch1, "ch0_vertex": ch0v,
            "ch0_edge": ch0e, "inter": inter, "push": push}


class ExactCalculus:
    """The oracle-free commands: the whole cone ladder with family and
    Jacobian-minor checks at every station, then skeleton transfer and
    cokernel torsion on seeded random graphs."""

    name = "exact-calculus"

    def __init__(self, n, m, r, d, p, steps, graphs, transfer_trials):
        self.params = {
            "n": n, "m": m, "r": r, "d": d, "p": p, "steps": steps,
            # (ring c, subdivision r, path vertices, module ranks, graph count, coker m values)
            "graphs": [list(g) for g in graphs],
            "transfer_trials": transfer_trials,
        }

    def setup(self, cw, seed, workdir):
        rng = _rng(self.name, seed)
        graphs = []
        for c, r, nvertices, ranks, count, m_values in self.params["graphs"]:
            for _ in range(count):
                i = len(graphs)
                data = _random_graph(rng, c, nvertices, ranks)
                graph_path = os.path.join(workdir, f"g{i}.json")
                with open(graph_path, "w") as fh:
                    json.dump(data, fh)
                sk = cw.skeleton.skeleton_from_json(data)
                matrix = cw.skeleton.phi_map_subdivided(cw.skeleton.subdivide(sk, r)).matrix
                map_path = os.path.join(workdir, f"g{i}.map.json")
                with open(map_path, "w") as fh:
                    json.dump(matrix, fh)
                graphs.append({
                    "c": c, "r": r, "graph": graph_path, "map": map_path,
                    "seed": rng.randrange(1 << 30),
                    "expected": {m: _expected_torsion(matrix, m, c) for m in m_values},
                })
        steps = self.params["steps"]
        return [{
            "dir": workdir,
            "construct_seed": seed,
            "induct_seeds": [rng.randrange(1 << 30) for _ in range(steps)],
            "graphs": graphs,
        }]

    def run(self, cw, plan, ops):
        P = self.params
        dc = cw.doublecone
        paths = [os.path.join(plan["dir"], f"s{k}.json") for k in range(P["steps"] + 1)]

        def station(k):
            if k == 0:
                checked_cli(cw, [
                    "construct", "base", "--n", P["n"], "--m", P["m"], "--r", P["r"],
                    "--d", P["d"], "--p", P["p"], "--seed", plan["construct_seed"],
                    "--out", paths[0],
                ])
            else:
                checked_cli(cw, [
                    "induct", "--state", paths[k - 1], "--steps", 1,
                    "--seed", plan["induct_seeds"][k - 1], "--out", paths[k],
                ])
            state = cw.stateio.load_state(paths[k])
            try:
                family = dc.build_family(state, dc.choose_j0(state))
            except cw.errors.EjExhausted:
                if k != P["steps"]:
                    raise CorrectnessError(f"ladder exhausted at station {k} of {P['steps']}")
                return
            if k == P["steps"]:
                raise CorrectnessError(f"ladder not exhausted after {k} steps")
            bad = [c["check"] for c in dc.verify_singular_minors(family) if not c["pass"]]
            if bad:
                raise CorrectnessError(f"station {k}: minor checks failed: {bad}")

        for k in range(P["steps"] + 1):
            ops.step(station, k)
            ops.record(True)
        digests = {f"s{k}.json": file_digest(path) for k, path in enumerate(paths)}

        outputs = []
        for i, g in enumerate(plan["graphs"]):
            out = ops.step(checked_cli, cw, [
                "skeleton", "transfer", "--graph", g["graph"], "--c", g["c"], "--r", g["r"],
                "--trials", P["transfer_trials"], "--seed", g["seed"], "--json",
            ])
            ops.record(True)
            result = json.loads(out)
            if not result["pass"] or result["trials"] != P["transfer_trials"]:
                raise CorrectnessError(f"g{i}: transfer check failed: {result}")
            outputs.append(out)
            for m, expected in g["expected"].items():
                out = ops.step(checked_cli, cw, [
                    "skeleton", "coker", "--map", json.dumps(g["map"]), "--m", m, "--c", g["c"], "--json",
                ])
                ops.record(True)
                if json.loads(out)["torsion"] != expected:
                    raise CorrectnessError(f"g{i}: {m}-torsion over Z/{g['c']} should be {expected}")
                outputs.append(out)
        digests["skeleton"] = text_digest("".join(outputs))
        return digests


# -- registry ---------------------------------------------------------------------


def make_workloads(tiny: bool = False) -> dict:
    """Full-size workloads, or the smallest versions that still run every path."""
    if tiny:
        walks = [Walk("walk-d7", 3, 2, 6, 5, 101, steps=2, trials=1, walks=1),
                 # p = 31 <= (2d-1)d sends d = 5 down the extension-field path
                 Walk("walk-d9", 3, 2, 6, 5, 31, steps=1, trials=1, walks=2)]
        oracle = OracleMixed(101, 1, product_degrees=[4], per_degree=1,
                             twisted_degrees=[4], fermat_degrees=[3], fermat_seeds=1)
        exact = ExactCalculus(3, 2, 6, 5, 101, steps=3,
                              graphs=[(4, 4, 3, [1, 2], 1, [1, 4]), (6, 6, 2, [1, 2], 1, [1, 2, 3, 6])],
                              transfer_trials=2)
    else:
        walks = [Walk("walk-d7", 3, 2, 6, 7, 101, steps=9, trials=3, walks=1),
                 Walk("walk-d9", 3, 3, 6, 9, 101, steps=6, trials=1, walks=3)]
        oracle = OracleMixed(101, 3, product_degrees=[4, 5, 6, 7], per_degree=2,
                             twisted_degrees=[6, 8], fermat_degrees=[3, 4, 5, 6, 7], fermat_seeds=2)
        exact = ExactCalculus(4, 2, 14, 12, 103, steps=52,
                              # bigger graphs (26+ rows) reach Smith forms of seconds to
                              # minutes for about one graph in two hundred, past the run limit
                              graphs=[(4, 4, 3, [1, 2], 100, [1, 4]), (6, 6, 2, [1, 2], 60, [1, 2, 3, 6])],
                              transfer_trials=4)
    return {w.name: w for w in walks + [oracle, exact]}
