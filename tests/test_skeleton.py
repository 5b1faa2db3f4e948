"""Dual graphs, obstruction maps, subdivision, telescope, cokernels."""

import json
import random

import pytest

from conewalk.errors import RDivisibilityViolated
from conewalk.intlinalg import matvec
from conewalk.skeleton import (
    ChainSkeleton,
    DualGraph,
    FgModule,
    cokernel_torsion,
    phi_map,
    phi_map_subdivided,
    psi_map,
    skeleton_from_json,
    skeleton_to_json,
    subdivide,
    surjectivity_transfer_demo,
    telescope_check,
    transfer,
    _offsets,
)

from oracles import max_abs_minor_gcd


def identity_matrix(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def unit_skeleton(c, rank=1, vertices=(0, 1), edges=((0, 1),)):
    mod = FgModule(ring=c, rank=rank)
    ident = identity_matrix(rank)
    return ChainSkeleton(
        graph=DualGraph(tuple(vertices), tuple(edges)),
        ch1={v: mod for v in vertices},
        ch0_vertex={v: mod for v in vertices},
        ch0_edge={e: mod for e in edges},
        inter={(e, v): [r[:] for r in ident] for e in edges for v in e},
        push={(e, v): [r[:] for r in ident] for e in edges for v in e},
    )


def zero_chain(ssk):
    """The zero one-cycle at every vertex of the subdivision."""
    return {label: (0,) * mod.ngens for label, mod in phi_map_subdivided(ssk).src}


def test_dual_graph_validation():
    with pytest.raises(ValueError):
        DualGraph((0, 1), ((0, 0),))  # loop
    with pytest.raises(ValueError):
        DualGraph((0, 1), ((1, 0),))  # wrong order
    with pytest.raises(ValueError):
        DualGraph((0, 1), ((0, 1), (0, 1)))  # duplicate


def test_fg_module_normalization():
    m = FgModule(ring=6, rank=1, factors=(4,))
    assert m.factors == (2,)  # gcd(4, 6)
    assert m.moduli == (6, 2)
    with pytest.raises(ValueError):
        FgModule(ring=0, rank=0, factors=(4, 2))  # not dividing in sequence


def test_psi_two_vertices():
    sk = unit_skeleton(0)
    assert psi_map(sk).matrix == [[1, -1]]


def test_psi_empty_edges():
    mod = FgModule(ring=0, rank=1)
    sk = ChainSkeleton(
        graph=DualGraph((0, 1), ()),
        ch1={0: mod, 1: mod},
        ch0_vertex={0: mod, 1: mod},
        ch0_edge={},
        inter={},
        push={},
    )
    lm = psi_map(sk)
    assert lm.matrix == []


def test_psi_path_three_vertices():
    sk = unit_skeleton(0, vertices=(0, 1, 2), edges=((0, 1), (1, 2)))
    assert psi_map(sk).matrix == [[1, -1, 0], [0, 1, -1]]


def test_phi_two_vertices():
    sk = unit_skeleton(0)
    assert phi_map(sk).matrix == [[-1, 1], [1, -1]]


def test_phi_isolated_vertex_zero_column():
    mod = FgModule(ring=0, rank=1)
    sk = ChainSkeleton(
        graph=DualGraph((0, 1, 2), ((0, 1),)),
        ch1={v: mod for v in (0, 1, 2)},
        ch0_vertex={v: mod for v in (0, 1, 2)},
        ch0_edge={(0, 1): mod},
        inter={((0, 1), v): [[1]] for v in (0, 1)},
        push={((0, 1), v): [[1]] for v in (0, 1)},
    )
    m = phi_map(sk).matrix
    assert [row[2] for row in m] == [0, 0, 0]


def test_phi_columns_sum_to_zero():
    rng = random.Random(17)
    for _ in range(20):
        nv = rng.randint(2, 5)
        vertices = tuple(range(nv))
        edges = []
        for i in range(nv):
            for j in range(i + 1, nv):
                if rng.random() < 0.5:
                    edges.append((i, j))
        sk = unit_skeleton(0, vertices=vertices, edges=tuple(edges))
        m = phi_map(sk).matrix
        if m:
            for col in zip(*m):
                assert sum(col) == 0


def test_block_sparsity_matches_incidence():
    sk = unit_skeleton(0, vertices=(0, 1, 2), edges=((0, 1),))
    psi = psi_map(sk).matrix
    assert psi == [[1, -1, 0]]
    phi = phi_map(sk).matrix
    # vertex 2 isolated: zero row and column
    assert phi[2] == [0, 0, 0]
    assert [row[2] for row in phi] == [0, 0, 0]


def test_subdivision_counts_examples():
    sk = unit_skeleton(0)
    ssk = subdivide(sk, 3)
    assert len(ssk.graph.vertices) == 4 and len(ssk.graph.edges) == 3
    ssk2 = subdivide(sk, 2)
    assert len(ssk2.graph.vertices) == 3 and len(ssk2.graph.edges) == 2


def test_subdivision_counts_random_graphs():
    rng = random.Random(18)
    for _ in range(50):
        nv = rng.randint(2, 7)
        vertices = tuple(range(nv))
        edges = tuple(
            (i, j)
            for i in range(nv)
            for j in range(i + 1, nv)
            if rng.random() < 0.4
        )
        if not edges:
            continue
        sk = unit_skeleton(0, vertices=vertices, edges=edges)
        r = rng.randint(2, 8)
        ssk = subdivide(sk, r)
        assert len(ssk.graph.vertices) == nv + (r - 1) * len(edges)
        assert len(ssk.graph.edges) == r * len(edges)


def test_telescope_hand_example():
    """r = 2, c = 2, unit modules: LHS = -2a_1 + a_0 + a_2 = a_0 - a_2 (mod 2)."""
    sk = unit_skeleton(2)
    ssk = subdivide(sk, 2)
    e = (0, 1)
    for a1 in (0, 1):
        chain = zero_chain(ssk)
        chain[0] = (1,)
        chain[1] = (0,)
        chain[(e, 1)] = (a1,)
        rep = telescope_check(ssk, chain, 2)
        assert rep[0]["pass"] and rep[0]["expected"] == [1]


def test_telescope_constant_chains():
    sk = unit_skeleton(3)
    ssk = subdivide(sk, 3)
    e = (0, 1)
    chain = zero_chain(ssk)
    chain[0] = (2,)
    chain[1] = (2,)
    for n in (1, 2):
        chain[(e, n)] = (2,)
    rep = telescope_check(ssk, chain, 3)
    assert rep[0]["pass"] and rep[0]["expected"] == [0]


@pytest.mark.parametrize("c", [2, 3, 4, 6])
def test_telescope_random_sweep(c):
    rng = random.Random(c * 100)
    for r in (c, 2 * c, 3 * c):
        for rank in (1, 2, 4):
            sk = unit_skeleton(c, rank=rank)
            ssk = subdivide(sk, r)
            for _ in range(25):
                chain = ssk.random_chain(rng)
                assert all(x["pass"] for x in telescope_check(ssk, chain, c))


def test_telescope_divisibility_gate():
    sk = unit_skeleton(3)
    ssk = subdivide(sk, 4)
    with pytest.raises(RDivisibilityViolated):
        telescope_check(ssk, zero_chain(ssk), 3)


def test_telescope_negative_control():
    """With c not dividing r the identity fails on most random chains."""
    rng = random.Random(9)
    sk = unit_skeleton(3, rank=4)
    ssk = subdivide(sk, 4)
    failures = 0
    trials = 100
    for _ in range(trials):
        chain = ssk.random_chain(rng)
        rep = telescope_check(ssk, chain, 3, enforce_divisibility=False)
        if not all(x["pass"] for x in rep):
            failures += 1
    assert failures >= 90


def test_cokernel_examples():
    assert cokernel_torsion([[2]], 2) is True
    assert cokernel_torsion([[2]], 3) is False
    assert cokernel_torsion([[1, -1]], 1) is True


def brute_force_torsion_mod_c(matrix, m, c):
    """Enumerate im(A) inside (Z/c)^rows and test m*x in im for all x."""
    from itertools import product

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


def brute_force_torsion_integer(matrix, m):
    """m * coker = 0 over Z iff rank is full and the k-th determinantal
    divisors certify all invariant factors divide m."""
    rows = len(matrix)
    prev = 1
    for k in range(1, rows + 1):
        dk = max_abs_minor_gcd(matrix, k)
        if dk == 0:
            return False  # rank < rows: free quotient survives
        if m % (dk // prev) != 0:
            return False
        prev = dk
    return True


def test_cokernel_against_bruteforce():
    rng = random.Random(23)
    for _ in range(120):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        A = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        for c in (2, 3, 4, 6, 8, 9):
            for m in (1, 2, 3, 4, 6, 8, 9):
                assert cokernel_torsion(A, m, ring=c) == brute_force_torsion_mod_c(A, m, c)
        for m in (1, 2, 3, 4, 5, 6):
            assert cokernel_torsion(A, m, ring=0) == brute_force_torsion_integer(A, m)


def test_transfer_exhaustive_unit_two_vertex():
    sk = unit_skeleton(2)
    ssk = subdivide(sk, 2)
    e = (0, 1)
    for z0 in (0, 1):
        (solvable, verified, _), = transfer(ssk, [{e: (z0,)}], 1)
        if solvable:
            assert verified


def test_transfer_zero_ch1():
    m0 = FgModule(ring=2, rank=0)
    m1 = FgModule(ring=2, rank=1)
    e = (0, 1)
    sk = ChainSkeleton(
        graph=DualGraph((0, 1), (e,)),
        ch1={0: m0, 1: m0},
        ch0_vertex={0: m1, 1: m1},
        ch0_edge={e: m1},
        inter={(e, v): [[]] for v in e},
        push={(e, v): [[1]] for v in e},
    )
    ssk = subdivide(sk, 2)
    assert transfer(ssk, [{e: (0,)}], 1)[0][0] is True
    assert transfer(ssk, [{e: (1,)}], 1)[0][0] is False
    # m = 2 kills every target mod 2
    assert transfer(ssk, [{e: (1,)}], 2)[0][0] is True


def test_transfer_demo_random_paths():
    sk = unit_skeleton(2, vertices=(0, 1, 2), edges=((0, 1), (1, 2)))
    out = surjectivity_transfer_demo(sk, 2, 2, 50, seed=3)
    assert out["pass"] and out["solved"] == out["verified"]


def test_transfer_demo_divisibility_gate():
    sk = unit_skeleton(2)
    with pytest.raises(RDivisibilityViolated):
        surjectivity_transfer_demo(sk, 3, 2, 5, seed=0)


def test_phi_subdivided_telescope_consistency():
    """Summing n * (row (e, n) of the subdivided map applied to a chain)
    over n equals the edge-difference map applied to the original slots,
    whenever c | r -- the identity behind the transfer argument."""
    rng = random.Random(31)
    for c, r in [(2, 2), (2, 4), (3, 3)]:
        sk = unit_skeleton(c, rank=2, vertices=(0, 1, 2), edges=((0, 1), (1, 2)))
        ssk = subdivide(sk, r)
        lm = phi_map_subdivided(ssk)
        src_off, _ = _offsets(lm.src)
        dst_off, _ = _offsets(lm.dst)
        for _ in range(20):
            chain = ssk.random_chain(rng)
            vec = [0] * len(lm.matrix[0])
            for label, pos in src_off.items():
                for k, val in enumerate(chain[label]):
                    vec[pos + k] = val
            img = matvec(lm.matrix, vec)
            for e in sk.graph.edges:
                v, w = e
                acc = [0, 0]
                for n in range(1, r):
                    pos = dst_off[(e, n)]
                    acc = [a + n * img[pos + k] for k, a in enumerate(acc)]
                psi_e = [
                    a - b
                    for a, b in zip(
                        matvec(sk.inter[(e, v)], list(chain[v])),
                        matvec(sk.inter[(e, w)], list(chain[w])),
                    )
                ]
                assert [a % c for a in acc] == [x % c for x in psi_e]


def test_json_roundtrip():
    sk = unit_skeleton(3, rank=2, vertices=(0, 1, 2), edges=((0, 1), (1, 2)))
    blob = json.dumps(skeleton_to_json(sk))
    sk2 = skeleton_from_json(json.loads(blob))
    assert psi_map(sk).matrix == psi_map(sk2).matrix
    assert phi_map(sk).matrix == phi_map(sk2).matrix


def random_skeleton(rng, c, nv=3, rank_range=(1, 2)):
    """A path skeleton with random module ranks and random incidence and
    push matrices over Z/c."""
    vertices = tuple(range(nv))
    edges = tuple((i, i + 1) for i in range(nv - 1))
    ch1 = {v: FgModule(ring=c, rank=rng.randint(*rank_range)) for v in vertices}
    ch0v = {v: FgModule(ring=c, rank=rng.randint(*rank_range)) for v in vertices}
    ch0e = {e: FgModule(ring=c, rank=rng.randint(*rank_range)) for e in edges}
    inter = {}
    push = {}
    for e in edges:
        for v in e:
            inter[(e, v)] = [
                [rng.randrange(c) for _ in range(ch1[v].ngens)]
                for _ in range(ch0e[e].ngens)
            ]
            push[(e, v)] = [
                [rng.randrange(c) for _ in range(ch0e[e].ngens)]
                for _ in range(ch0v[v].ngens)
            ]
    return ChainSkeleton(
        graph=DualGraph(vertices, edges),
        ch1=ch1,
        ch0_vertex=ch0v,
        ch0_edge=ch0e,
        inter=inter,
        push=push,
    )


def test_telescope_with_random_maps():
    """The telescoping identity is independent of the incidence data."""
    rng = random.Random(61)
    for c, r in ((2, 2), (3, 3), (4, 4), (6, 6), (2, 4)):
        for _ in range(10):
            sk = random_skeleton(rng, c)
            ssk = subdivide(sk, r)
            chain = ssk.random_chain(rng)
            rep = telescope_check(ssk, chain, c)
            assert all(x["pass"] for x in rep)


def test_transfer_demo_with_random_maps():
    """Every solvable target verifies also when the maps are arbitrary."""
    rng = random.Random(62)
    for c, r in ((2, 2), (3, 3), (2, 4)):
        for trial in range(8):
            sk = random_skeleton(rng, c)
            out = surjectivity_transfer_demo(sk, r, c, 15, seed=100 + trial)
            assert out["pass"], (c, r, trial, out)


def test_transfer_demo_with_m_two():
    rng = random.Random(63)
    sk = random_skeleton(rng, 4)
    out = surjectivity_transfer_demo(sk, 4, 4, 15, seed=9, m=2)
    assert out["pass"]


def test_transfer_demo_assembles_and_reduces_once(monkeypatch):
    """All targets of one demo share one assembly and one elimination."""
    import conewalk.skeleton as skeleton

    calls = {"phi_map_subdivided": 0, "solve_mod": 0}

    def counted(name):
        fn = getattr(skeleton, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(skeleton, name, counted(name))
    sk = random_skeleton(random.Random(64), 4)
    out = surjectivity_transfer_demo(sk, 4, 4, 4, seed=5)
    assert out["trials"] == 4 and out["pass"]
    assert calls == {"phi_map_subdivided": 1, "solve_mod": 1}


def test_transfer_matches_one_target_at_a_time():
    """Solving several targets together returns, per target, what solving
    it alone returns: chains included."""
    rng = random.Random(65)
    for c, r in ((2, 2), (4, 4), (6, 6)):
        sk = random_skeleton(rng, c)
        ssk = subdivide(sk, r)
        zs = [{e: sk.ch0_edge[e].random_element(rng) for e in sk.graph.edges} for _ in range(6)]
        together = transfer(ssk, zs, 1)
        assert together == [transfer(ssk, [z], 1)[0] for z in zs]
        assert all(verified for solvable, verified, _ in together if solvable)
