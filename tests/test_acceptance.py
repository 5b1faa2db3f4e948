"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance and sweep bound is pinned here; the helpers used as
oracles (trial division, cokernel enumeration) share no code with the
paths they check.
"""

import json
import random
import time
from itertools import product
from math import comb

import pytest

from conewalk import unifactor as uni
from conewalk.basecase import BaseParams, build_base_state
from conewalk.bounds import applicable, closed_form_S, max_N, sum_S
from conewalk.doublecone import (
    build_family,
    choose_j0,
    induct_step,
    verify_singular_minors,
    verify_state,
)
from conewalk.errors import EjExhausted
from conewalk.poly import SparsePoly, VarUniverse, parse_poly
from conewalk.skeleton import (
    ChainSkeleton,
    DualGraph,
    FgModule,
    cokernel_torsion,
    subdivide,
    telescope_check,
    unit_skeleton,
)

from oracles import baked_step_and_column, max_abs_minor_gcd, sandwich_check


def _report(k, label, t0):
    print(f"ACCEPTANCE {k}: PASS - {label} ({time.time() - t0:.2f}s)")


def test_criterion_01_closed_forms():
    t0 = time.time()
    for n in range(1, 41):
        for m in (2, 3):
            assert closed_form_S(n, m) == sum_S(n, m), (n, m)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, "closed forms equal direct sums, n <= 40, m in {2,3}", t0)


def test_criterion_02_sandwich():
    t0 = time.time()
    for n in range(2, 65):
        for m in range(2, 13):
            assert sandwich_check(n, m), (n, m)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(2, "sandwich bounds hold, n <= 64, m <= 12", t0)


def test_criterion_03_threshold_m2():
    t0 = time.time()
    for d in range(5, 17):
        assert max_N(d, 2) >= (d + 1) * 2 ** (d - 4), d
    w = applicable(5, 10, 2)
    assert (w.n, w.r, w.s) == (3, 6, 1)
    assert applicable(5, 13, 2) is None
    # N = 10 is the first case beyond the two-part range: max n + r = 9 at n = 3
    assert 3 + (2**3 - 2) == 9
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(3, "degree-d thresholds for m=2; quintic dimension-10 witness (3,6,1)", t0)


def test_criterion_04_threshold_m3():
    t0 = time.time()
    for d in range(5, 17):
        assert max_N(d, 3) >= (d + 1) * 2 ** (d - 4) // 3, d
    assert applicable(5, 4, 3) is not None
    assert applicable(5, 5, 3) is None
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(4, "degree-d thresholds for m=3; (5,4,3) yes, (5,5,3) no", t0)


SWEEP = [
    (2, 2, 2, 0, 5),
    (2, 2, 2, 1, 5),
    (3, 2, 6, 0, 5),
    (3, 2, 6, 1, 5),
    (4, 3, 2, 0, 7),
    (3, 2, 4, 2, 7),
]


def test_criterion_05_symbolic_derivative_identities():
    t0 = time.time()
    for n, m, r, steps, d in SWEEP:
        state = build_base_state(BaseParams(n=n, m=m, r=r, d=d, p=101))
        for k in range(steps):
            state = induct_step(state, seed=900 + k)
        fam = build_family(state, choose_j0(state))
        u = fam.state.universe
        x0 = SparsePoly.variable(u, "x0")
        lam = SparsePoly.param(u, "lam")
        yj = SparsePoly.variable(u, f"y{fam.j0}")
        report = {c["check"]: c for c in verify_singular_minors(fam)}
        assert report["minor-det-tz"]["pass"]
        assert report["minor-det-tz"]["got"] == (-(x0 ** (d + 1))).canonical_string()
        assert report["y0-z-derivative"]["got"] == (x0 ** (d - 1)).canonical_string()
        assert (
            report["y1-w-derivative"]["got"]
            == (x0 ** (d - 2) * (lam * yj + x0)).canonical_string()
        )
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(5, "minor and component derivative identities over the 6-config sweep", t0)


def test_criterion_06_induction_pipeline():
    t0 = time.time()
    bp = BaseParams(n=3, m=2, r=6, d=5, p=101)
    state = build_base_state(bp)
    assert state.e == [1, 1, 0, 1, 0, 0]
    budget = sum(comb(3, l) * ((3 - l) // 2) for l in range(1, 4))
    assert sum(state.e) == budget == 3

    states = [state]
    split_snapshots = []
    for k in range(3):
        # each baked step is checked against the symbolic column over the
        # station it steps from, at the lam and t it records
        prev = states[-1]
        j0 = choose_j0(prev)
        nxt, column = baked_step_and_column(prev, j0, seed=1000 + k)
        a_sub = [prev.a0] + [prev.a[(i, j0)].divide_by_monomial("x0", i) for i in range(1, 3)]
        split_snapshots.append((nxt, column, j0, a_sub))
        states.append(nxt)
    with pytest.raises(EjExhausted):
        induct_step(states[-1], seed=2000)
    assert [s.s for s in states] == [0, 1, 2, 3]

    # transformed-coefficient spot identities at every step (l = 2)
    for nxt, column, j0, a_sub in split_snapshots:
        u = nxt.universe
        zs = SparsePoly.variable(u, f"z{nxt.s}")
        x0 = SparsePoly.variable(u, "x0")
        lam_inv = SparsePoly.param(u, "lam", -1)
        t_lam = SparsePoly.param(u, "t") * SparsePoly.param(u, "lam")
        assert column[2] == zs**2 * a_sub[2]
        assert column[1] == zs * (a_sub[1] - (x0**2 * a_sub[2] * lam_inv).scale(2)) + (
            x0**4 * t_lam
        )
        assert column[0] == a_sub[0] - x0**2 * a_sub[1] * lam_inv + (
            x0**4 * a_sub[2] * lam_inv * lam_inv
        ) + x0**4 * zs

    # structural verification after every step; the pivot polynomial is
    # Irreducible by a certified slice, which is exact
    for idx, st in enumerate(states):
        checks = verify_state(st, irreducibility_trials=20, seed=7)
        bad = [c for c in checks if not c["pass"]]
        assert not bad, (idx, bad)
        irr = next(c for c in checks if c["check"] == "irreducible-f0a0")
        assert irr["got"] == "Irreducible", (idx, irr)
        assert irr["failure_bound"] == 0.0, (idx, irr)
    # ladder decrement and pivot-product growth along the walk
    assert [s.e for s in states] == [
        [1, 1, 0, 1, 0, 0],
        [0, 1, 0, 1, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0],
    ]
    assert [s.h_poly.canonical_string() for s in states] == ["1", "z1", "z1*z2", "z1*z2*z3"]
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(6, "three cone steps, exhaustion, checks, certified irreducibility and spot identities", t0)


def _irreducible_table(p, max_deg):
    """Monic irreducibles up to max_deg by sieve over divisions; oracle-side."""
    table = {1: [list(t) + [1] for t in product(range(p), repeat=1)]}
    for d in range(2, max_deg + 1):
        table[d] = []
        for t in product(range(p), repeat=d):
            f = list(t) + [1]
            divisible = False
            for dd in range(1, d // 2 + 1):
                for g in table[dd]:
                    if not uni.divmod_poly(p, f, g)[1]:
                        divisible = True
                        break
                if divisible:
                    break
            if not divisible:
                table[d].append(f)
    return table


def _trial_division(p, f, table):
    f = list(f)
    lc = f[-1]
    f = uni.monic(p, f)
    out = []
    for d in range(1, uni.deg(f) + 1):
        for g in table.get(d, ()):
            mult = 0
            while True:
                q, rem = uni.divmod_poly(p, f, g)
                if rem:
                    break
                f = q
                mult += 1
            if mult:
                out.append((g, mult))
        if uni.deg(f) == 0:
            break
    return lc, sorted(out, key=lambda gm: (len(gm[0]), tuple(gm[0])))


def test_criterion_07_univariate_oracle_equivalence():
    t0 = time.time()
    for p in (5, 7):
        table = _irreducible_table(p, 4)
        rng = random.Random(7)
        for d in range(1, 5):
            for tail in product(range(p), repeat=d):
                coeffs = list(tail) + [1]
                lc, fs = uni.factor(p, coeffs, rng)
                oracle_lc, oracle_fs = _trial_division(p, coeffs, table)
                assert lc == oracle_lc
                assert [(tuple(g), m) for g, m in fs] == [
                    (tuple(g), m) for g, m in oracle_fs
                ], coeffs
                # re-multiplication is exact
                prod = [lc]
                for g, m in fs:
                    for _ in range(m):
                        prod = uni.mul(p, prod, g)
                assert prod == coeffs
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(7, "all monic degree <= 4 polynomials over GF(5), GF(7) match trial division", t0)


def test_criterion_08_telescope():
    t0 = time.time()
    rng = random.Random(88)
    for c in (2, 3, 4, 6):
        for r in (c, 2 * c, 3 * c):
            for k in (1, 2, 3, 4):
                sk = unit_skeleton(c, k)
                ssk = subdivide(sk, r)
                trials = 100 // 4  # 25 per rank, 100 per (c, r)
                for _ in range(trials):
                    chain = ssk.random_chain(rng)
                    assert all(x["pass"] for x in telescope_check(ssk, chain, c))
    # negative control: c does not divide r
    failures = trials_total = 0
    for c, r in ((2, 3), (3, 4), (4, 6), (6, 8)):
        sk = unit_skeleton(c, 4)
        ssk = subdivide(sk, r)
        for _ in range(25):
            chain = ssk.random_chain(rng)
            rep = telescope_check(ssk, chain, c, enforce_divisibility=False)
            trials_total += 1
            if not all(x["pass"] for x in rep):
                failures += 1
    assert failures >= 0.9 * trials_total, (failures, trials_total)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(8, "telescoping identity exact for c | r; negative control >= 90% failures", t0)


def test_criterion_09_subdivision_counts():
    t0 = time.time()
    rng = random.Random(9)
    done = 0
    while done < 50:
        nv = rng.randint(2, 7)
        vertices = tuple(range(nv))
        edges = tuple(
            (i, j) for i in range(nv) for j in range(i + 1, nv) if rng.random() < 0.45
        )
        if not edges:
            continue
        mod = FgModule(ring=0, rank=1)
        sk = ChainSkeleton(
            graph=DualGraph(vertices, edges),
            ch1={v: mod for v in vertices},
            ch0_vertex={v: mod for v in vertices},
            ch0_edge={e: mod for e in edges},
            inter={(e, v): [[1]] for e in edges for v in e},
            push={(e, v): [[1]] for e in edges for v in e},
        )
        r = rng.randint(2, 8)
        ssk = subdivide(sk, r)
        assert len(ssk.graph.vertices) == nv + (r - 1) * len(edges)
        assert len(ssk.graph.edges) == r * len(edges)
        done += 1
    _report(9, "subdivision vertex/edge counts on 50 random graphs, r <= 8", t0)


def _brute_force_mod_c(matrix, m, c):
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    gens = [tuple(matrix[i][j] % c for i in range(rows)) for j in range(cols)]
    image = {tuple([0] * rows)}
    frontier = [tuple([0] * rows)]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % c for a, b in zip(cur, g))
            if nxt not in image:
                image.add(nxt)
                frontier.append(nxt)
    return all(
        tuple(m * x % c for x in vec) in image for vec in product(range(c), repeat=rows)
    )


def _brute_force_integer(matrix, m):
    rows = len(matrix)
    prev = 1
    for k in range(1, rows + 1):
        dk = max_abs_minor_gcd(matrix, k)
        if dk == 0:
            return False
        if m % (dk // prev) != 0:
            return False
        prev = dk
    return True


def test_criterion_10_cokernel_agreement():
    t0 = time.time()
    rng = random.Random(10)
    for _ in range(500):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        c = rng.choice((2, 3, 4, 6))
        m = rng.randint(1, 6)
        assert cokernel_torsion(A, m, ring=c) == _brute_force_mod_c(A, m, c), (A, m, c)
        assert cokernel_torsion(A, m, ring=0) == _brute_force_integer(A, m), (A, m)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(10, "cokernel torsion agrees with enumeration on 500 sampled matrices", t0)


def test_criterion_11_determinism(tmp_path, capsys):
    t0 = time.time()
    from conewalk.cli import main

    s0 = tmp_path / "s0.json"
    outputs = []
    for run_idx in range(2):
        code = main(
            [
                "construct", "base", "--n", "3", "--m", "2", "--r", "6", "--d", "5",
                "--p", "101", "--seed", "42", "--out", str(s0), "--json",
            ]
        )
        assert code == 0
        construct_out = capsys.readouterr().out
        s3 = tmp_path / "s3.json"
        code = main(
            ["induct", "--state", str(s0), "--steps", "3", "--seed", "5", "--out", str(s3), "--json"]
        )
        assert code == 0
        induct_out = capsys.readouterr().out
        code = main(["verify", "--state", str(s3), "--trials", "12", "--seed", "9", "--json"])
        assert code == 0
        verify_out = capsys.readouterr().out
        code = main(
            ["skeleton", "telescope", "--c", "2", "--r", "4", "--k", "2",
             "--trials", "20", "--seed", "13", "--json"]
        )
        assert code == 0
        telescope_out = capsys.readouterr().out
        outputs.append(
            (construct_out, s0.read_bytes(), induct_out, s3.read_bytes(), verify_out, telescope_out)
        )
    assert outputs[0] == outputs[1]
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(11, "identical seeds give byte-identical state files and JSON reports", t0)
