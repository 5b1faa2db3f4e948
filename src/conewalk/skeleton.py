"""Dual graphs, obstruction maps, edge subdivision, and cokernel torsion.

The combinatorial stand-in for a two-step degeneration analysis: each
vertex of a loop-free simple graph carries finitely generated modules
(one-cycle and zero-cycle slots), each edge carries a zero-cycle
module, and incidence data consists of integer matrices.  Two maps are
assembled from this data:

* ``psi_map``: vertex one-cycles to edge zero-cycles, the difference of
  the two incidence images across each edge (lower endpoint positive).
* ``phi_map``: vertex one-cycles to vertex zero-cycles, off-diagonal
  blocks push the incidence image into the far endpoint, the diagonal
  subtracts the sum of a vertex's own incidence images.

``subdivide`` inserts r-1 fresh vertices into every edge.  A fresh
vertex (e, n) carries CH0[e] only, as its one-cycle and its zero-cycle
module: the pullback part, whose incidence maps to both neighbouring
edge copies are the identity.

Modules are presented over Z (ring 0) or Z/c; elements are int tuples
reduced coordinate-wise.  The transfer demo requires free modules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from .coeffs import prime_powers
from .errors import RDivisibilityViolated
from .intlinalg import _echelon_mod, invariant_factors, matmul, matvec, solve_mod


@dataclass(frozen=True)
class DualGraph:
    """Totally ordered vertices; loop-free simple edges (v, w), v < w."""

    vertices: tuple
    edges: tuple

    def __post_init__(self):
        order = {v: i for i, v in enumerate(self.vertices)}
        if len(order) != len(self.vertices):
            raise ValueError("duplicate vertices")
        seen = set()
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"edge {e!r} is not a pair")
            v, w = e
            if v == w:
                raise ValueError(f"loop at {v!r}")
            if v not in order or w not in order:
                raise ValueError(f"edge {e!r} mentions unknown vertex")
            if order[v] >= order[w]:
                raise ValueError(f"edge {e!r} not ordered by the vertex order")
            if (v, w) in seen:
                raise ValueError(f"duplicate edge {e!r}")
            seen.add((v, w))


@dataclass(frozen=True)
class FgModule:
    """R^rank (+) R/(f_1) (+) ... over R = Z (ring=0) or Z/ring.

    Invariant factors divide in sequence; over Z/c they are normalized
    to divisors of c.  Elements are int tuples of length ngens, with
    free coordinates reduced mod c (if any) and torsion coordinate i
    reduced mod f_i.
    """

    ring: int
    rank: int
    factors: tuple = ()

    def __post_init__(self):
        if self.ring < 0 or self.ring == 1:
            raise ValueError("ring must be 0 (integers) or c >= 2")
        if self.rank < 0:
            raise ValueError("negative rank")
        facs = []
        for f in self.factors:
            f = abs(f)
            if f == 0:
                raise ValueError("zero invariant factors must be trimmed to rank")
            if self.ring:
                f = gcd(f, self.ring)
            facs.append(f)
        for a, b in zip(facs, facs[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must divide in sequence")
        object.__setattr__(self, "factors", tuple(facs))

    @property
    def ngens(self):
        return self.rank + len(self.factors)

    @property
    def moduli(self):
        free = self.ring
        return (free,) * self.rank + self.factors

    def reduce(self, vec):
        if len(vec) != self.ngens:
            raise ValueError("element length mismatch")
        return tuple(v % m if m else v for v, m in zip(vec, self.moduli))

    def random_element(self, rng):
        out = []
        for m in self.moduli:
            out.append(rng.randrange(m) if m else rng.randint(-4, 4))
        return tuple(out)


def _zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def _madd(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _mneg(A):
    return [[-a for a in row] for row in A]


@dataclass
class ChainSkeleton:
    """Graph plus module and incidence data.

    inter[(e, v)]: CH1[v] -> CH0[e] for each incident pair.
    push[(e, v)]: CH0[e] -> CH0_vertex[v] (used by phi only).
    """

    graph: DualGraph
    ch1: dict
    ch0_vertex: dict
    ch0_edge: dict
    inter: dict
    push: dict

    def __post_init__(self):
        rings = {m.ring for m in self.ch1.values()}
        rings |= {m.ring for m in self.ch0_vertex.values()}
        rings |= {m.ring for m in self.ch0_edge.values()}
        if len(rings) > 1:
            raise ValueError("mixed rings in one skeleton")
        self.ring = rings.pop() if rings else 0
        for v in self.graph.vertices:
            if v not in self.ch1 or v not in self.ch0_vertex:
                raise ValueError(f"vertex {v!r} missing module data")
        for e in self.graph.edges:
            if e not in self.ch0_edge:
                raise ValueError(f"edge {e!r} missing module data")
            for v in e:
                key = (e, v)
                if key not in self.inter:
                    raise ValueError(f"incidence map missing for {key!r}")
                _check_shape(self.inter[key], self.ch0_edge[e], self.ch1[v])
                if key in self.push:
                    _check_shape(self.push[key], self.ch0_vertex[v], self.ch0_edge[e])
        extra = set(self.inter) - {(e, v) for e in self.graph.edges for v in e}
        if extra:
            raise ValueError(f"incidence maps for non-incident pairs: {sorted(map(str, extra))}")


def unit_skeleton(c: int, k: int) -> ChainSkeleton:
    """One edge (0, 1) with the free rank-k module over Z/c (Z at c = 0)
    in every slot and identity incidence and push maps."""
    mod = FgModule(ring=c, rank=k)
    ident = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    e = (0, 1)
    return ChainSkeleton(
        graph=DualGraph((0, 1), (e,)),
        ch1={0: mod, 1: mod},
        ch0_vertex={0: mod, 1: mod},
        ch0_edge={e: mod},
        inter={(e, v): [row[:] for row in ident] for v in e},
        push={(e, v): [row[:] for row in ident] for v in e},
    )


def _check_shape(matrix, dst_mod, src_mod):
    if len(matrix) != dst_mod.ngens or any(len(r) != src_mod.ngens for r in matrix):
        raise ValueError("matrix shape does not match module ranks")


@dataclass
class LinearMap:
    """A block matrix between direct sums of labelled modules."""

    src: list  # [(label, FgModule)]
    dst: list
    matrix: list


def _offsets(labelled):
    """({label: first index}, total rank) of a direct sum [(label, module)]."""
    out, pos = {}, 0
    for label, mod in labelled:
        out[label] = pos
        pos += mod.ngens
    return out, pos


def _assemble(src, dst, blocks, ring):
    """blocks: {(dst_label, src_label): matrix} -> one big matrix."""
    src_off, total_src = _offsets(src)
    dst_off, total_dst = _offsets(dst)
    M = _zeros(total_dst, total_src)
    for (dl, sl), B in blocks.items():
        r0, c0 = dst_off[dl], src_off[sl]
        for i, row in enumerate(B):
            for j, val in enumerate(row):
                M[r0 + i][c0 + j] += val
    if ring:
        M = [[v % ring for v in row] for row in M]
    return LinearMap(src=src, dst=dst, matrix=M)


def psi_map(sk: ChainSkeleton) -> LinearMap:
    """Edge-row block matrix: +inter at the lower endpoint, -inter at the
    upper endpoint, zero elsewhere."""
    src = [(v, sk.ch1[v]) for v in sk.graph.vertices]
    dst = [(e, sk.ch0_edge[e]) for e in sk.graph.edges]
    blocks = {}
    for e in sk.graph.edges:
        v, w = e
        blocks[(e, v)] = sk.inter[(e, v)]
        blocks[(e, w)] = _mneg(sk.inter[(e, w)])
    return _assemble(src, dst, blocks, sk.ring)


def phi_map(sk: ChainSkeleton) -> LinearMap:
    """Vertex-row block matrix: push o inter off the diagonal, minus the
    sum of a vertex's own push o inter on the diagonal."""
    src = [(v, sk.ch1[v]) for v in sk.graph.vertices]
    dst = [(v, sk.ch0_vertex[v]) for v in sk.graph.vertices]
    blocks = {}
    for e in sk.graph.edges:
        v, w = e
        for a, b in ((v, w), (w, v)):
            # image of a's one-cycles inside b's zero-cycles
            block = matmul(sk.push[(e, b)], sk.inter[(e, a)])
            key = (b, a)
            blocks[key] = _madd(blocks[key], block) if key in blocks else block
            diag = _mneg(matmul(sk.push[(e, a)], sk.inter[(e, a)]))
            key = (a, a)
            blocks[key] = _madd(blocks[key], diag) if key in blocks else diag
    return _assemble(src, dst, blocks, sk.ring)


# -- subdivision -------------------------------------------------------------


@dataclass
class SubdividedSkeleton:
    """The r-fold edge subdivision of a base skeleton.

    New vertices are labelled (e, n) for e a base edge and 1 <= n <= r-1;
    each carries CH1 = CH0_vertex = CH0[e], and so does each of the r
    copies of e.
    """

    base: ChainSkeleton
    r: int
    graph: DualGraph

    def random_chain(self, rng):
        chain = {v: self.base.ch1[v].random_element(rng) for v in self.base.graph.vertices}
        for e in self.base.graph.edges:
            for n in range(1, self.r):
                chain[(e, n)] = self.base.ch0_edge[e].random_element(rng)
        return chain


def subdivide(sk: ChainSkeleton, r: int) -> SubdividedSkeleton:
    """Insert r-1 fresh vertices into every edge (so every edge becomes a
    path of r edges)."""
    if r < 2:
        raise ValueError("need r >= 2")
    vertices = list(sk.graph.vertices)
    for e in sk.graph.edges:
        vertices += [(e, n) for n in range(1, r)]
    order = {v: i for i, v in enumerate(vertices)}
    edges = []
    for e in sk.graph.edges:
        v, w = e
        path = [v] + [(e, n) for n in range(1, r)] + [w]
        for a, b in zip(path, path[1:]):
            edges.append((a, b) if order[a] < order[b] else (b, a))
    graph = DualGraph(tuple(vertices), tuple(edges))
    return SubdividedSkeleton(base=sk, r=r, graph=graph)


def phi_map_subdivided(ssk: SubdividedSkeleton) -> LinearMap:
    """The assembled vertex-to-vertex map of the subdivision."""
    sk = ssk.base
    r = ssk.r
    src = [(v, sk.ch1[v]) for v in sk.graph.vertices]
    dst = [(v, sk.ch0_vertex[v]) for v in sk.graph.vertices]
    for e in sk.graph.edges:
        for n in range(1, r):
            src.append(((e, n), sk.ch0_edge[e]))
            dst.append(((e, n), sk.ch0_edge[e]))
    blocks = {}

    def bump(key, B):
        blocks[key] = _madd(blocks[key], B) if key in blocks else B

    for e in sk.graph.edges:
        v, w = e
        ne = sk.ch0_edge[e].ngens
        ident = [[1 if i == j else 0 for j in range(ne)] for i in range(ne)]
        # original endpoints: same diagonal as before subdivision, and the
        # nearest fresh vertex pushes through the original push map
        bump((v, v), _mneg(matmul(sk.push[(e, v)], sk.inter[(e, v)])))
        bump((w, w), _mneg(matmul(sk.push[(e, w)], sk.inter[(e, w)])))
        bump((v, (e, 1)), sk.push[(e, v)])
        bump((w, (e, r - 1)), sk.push[(e, w)])
        for n in range(1, r):
            bump(((e, n), (e, n)), _mneg(_madd(ident, ident)))
            # neighbours toward the lower endpoint
            if n == 1:
                bump(((e, 1), v), sk.inter[(e, v)])
            else:
                bump(((e, n), (e, n - 1)), ident)
            # neighbours toward the upper endpoint
            if n == r - 1:
                bump(((e, r - 1), w), sk.inter[(e, w)])
            else:
                bump(((e, n), (e, n + 1)), ident)
    return _assemble(src, dst, blocks, sk.ring)


# -- chains on the subdivision ------------------------------------------------


def telescope_check(ssk: SubdividedSkeleton, chain: dict, c: int, enforce_divisibility: bool = True) -> list:
    """Per original edge: sum_n n*(-2a_n + a_(n-1) + a_(n+1)) = a_0 - a_r
    in CH0[e] (+) Z/c; needs c | r.

    With ``enforce_divisibility=False`` the c | r gate is skipped and the
    identity is evaluated raw -- the negative control showing the
    hypothesis is not decorative.
    """
    if c < 2:
        raise ValueError("need a modulus c >= 2")
    if ssk.base.ring not in (0, c):
        raise ValueError("skeleton ring does not match the modulus")
    if ssk.r % c != 0 and enforce_divisibility:
        raise RDivisibilityViolated(f"c={c} does not divide r={ssk.r}")
    report = []
    sk = ssk.base
    for e in sk.graph.edges:
        v, w = e
        mod = sk.ch0_edge[e]
        alpha = {0: _redc(matvec(sk.inter[(e, v)], list(chain[v])), c)}
        alpha[ssk.r] = _redc(matvec(sk.inter[(e, w)], list(chain[w])), c)
        for n in range(1, ssk.r):
            alpha[n] = _redc(list(chain[(e, n)]), c)
        lhs = [0] * mod.ngens
        for n in range(1, ssk.r):
            step = [
                n * (-2 * alpha[n][k] + alpha[n - 1][k] + alpha[n + 1][k])
                for k in range(mod.ngens)
            ]
            lhs = [a + b for a, b in zip(lhs, step)]
        lhs = _redc(lhs, c)
        rhs = _redc([a - b for a, b in zip(alpha[0], alpha[ssk.r])], c)
        report.append(
            {
                "check": f"telescope-edge-{sk.graph.edges.index(e)}",
                "ref": "telescope",
                "expected": rhs,
                "got": lhs,
                "pass": lhs == rhs,
            }
        )
    return report


def _redc(vec, c):
    return [v % c for v in vec]


# -- cokernel torsion ---------------------------------------------------------


def cokernel_torsion(matrix, m: int, ring: int = 0) -> bool:
    """True iff m * coker(matrix) = 0, over Z (ring=0) or Z/ring.

    Over Z the Smith form's invariant factors must all divide m, with
    full rank.  Over Z/c the cokernel splits into its Z/q parts for the
    prime powers q exactly dividing c; the Z/q part is killed by m iff
    every pivot p^v of ``_echelon_mod`` divides m and no row lacks a
    pivot (such a row leaves a Z/q summand), unless q divides m.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if ring < 0:
        raise ValueError("ring must be 0 (integers) or a modulus >= 1")
    if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
        raise ValueError("map must be a list of rows")
    if len({len(row) for row in matrix}) > 1:
        raise ValueError("map rows differ in length")
    if not all(type(x) is int for row in matrix for x in row):
        raise ValueError("map entries must be integers")
    rows = len(matrix)
    if rows == 0:
        return True
    if ring == 0:
        facs = invariant_factors(matrix)
        return len(facs) == rows and all(m % f == 0 for f in facs)
    for _, q in prime_powers(ring):
        if m % q == 0:
            continue
        pivots = _echelon_mod(matrix, q, len(matrix[0]))[0]
        if len(pivots) < rows or any(m % g for g in pivots):
            return False
    return True


# -- the transfer demonstration ----------------------------------------------


def transfer(ssk: SubdividedSkeleton, zs: list, m: int) -> list:
    """Try to realize m*z through the subdivided map for each target z
    (edge-indexed zero-cycles) and verify that the base vertices' part of
    each realization maps onto m*z under the edge-difference map
    ``psi_map``.  The maps are assembled once and reduced once for all
    targets.

    Returns one (solvable, verified, chain or None) per target.
    """
    sk = ssk.base
    c = sk.ring
    if c < 2:
        raise ValueError("transfer demo needs a finite modulus ring")
    if any(mod.factors for mod in list(sk.ch1.values()) + list(sk.ch0_edge.values()) + list(sk.ch0_vertex.values())):
        raise ValueError("transfer demo supports free modules only")
    for e in sk.graph.edges:
        for v in e:
            if (e, v) not in sk.push:
                raise ValueError(f"push map missing for {(e, v)!r}")
    lm = phi_map_subdivided(ssk)
    psi = psi_map(sk).matrix
    nbase = sum(sk.ch1[v].ngens for v in sk.graph.vertices)
    dst_off, total_dst = _offsets(lm.dst)
    total_src = _offsets(lm.src)[1]
    targets, betas = [], []
    for z in zs:
        target = [m * val % c for e in sk.graph.edges for val in z[e]]
        beta = [0] * total_dst
        for e in sk.graph.edges:
            pos = dst_off[(e, 1)]
            for k, val in enumerate(z[e]):
                beta[pos + k] = m * val % c
        targets.append(target)
        betas.append(beta)
    results = []
    for target, x in zip(targets, solve_mod(lm.matrix, total_src, betas, c)):
        if x is None:
            results.append((False, False, None))
            continue
        chain = {}
        pos = 0
        for label, mod in lm.src:
            chain[label] = mod.reduce(tuple(x[pos : pos + mod.ngens]))
            pos += mod.ngens
        # lm.src lists the base vertices first, in psi_map's column order
        verified = _redc(matvec(psi, x[:nbase]), c) == target
        results.append((True, verified, chain))
    return results


def surjectivity_transfer_demo(
    sk: ChainSkeleton, r: int, c: int, trials: int, seed: int, m: int = 1
) -> dict:
    """Random targets z; for each, attempt the subdivided realization of
    m*z and verify it maps onto m*z under the edge-difference map."""
    if c < 2:
        raise ValueError("need c >= 2")
    if sk.ring != c:
        raise ValueError(f"skeleton ring {sk.ring} does not match the modulus c={c}")
    if r % c != 0:
        raise RDivisibilityViolated(f"c={c} does not divide r={r}")
    ssk = subdivide(sk, r)
    rng = random.Random(seed)
    zs = [{e: sk.ch0_edge[e].random_element(rng) for e in sk.graph.edges} for _ in range(trials)]
    results = transfer(ssk, zs, m)
    solved = sum(1 for ok, _, _ in results if ok)
    verified = sum(1 for _, good, _ in results if good)
    return {
        "trials": trials,
        "solved": solved,
        "verified": verified,
        "pass": solved == verified,
    }


# -- JSON interchange ----------------------------------------------------------


def module_to_json(mod: FgModule) -> dict:
    return {"ring": mod.ring, "rank": mod.rank, "factors": list(mod.factors)}


def module_from_json(d) -> FgModule:
    return FgModule(ring=d["ring"], rank=d["rank"], factors=tuple(d.get("factors", ())))


def skeleton_to_json(sk: ChainSkeleton) -> dict:
    def edge_key(e):
        return f"{e[0]}|{e[1]}"

    return {
        "vertices": list(sk.graph.vertices),
        "edges": [list(e) for e in sk.graph.edges],
        "ch1": {str(v): module_to_json(sk.ch1[v]) for v in sk.graph.vertices},
        "ch0_vertex": {str(v): module_to_json(sk.ch0_vertex[v]) for v in sk.graph.vertices},
        "ch0_edge": {edge_key(e): module_to_json(sk.ch0_edge[e]) for e in sk.graph.edges},
        "inter": {
            f"{edge_key(e)}@{v}": sk.inter[(e, v)] for e in sk.graph.edges for v in e
        },
        "push": {
            f"{edge_key(e)}@{v}": sk.push[(e, v)]
            for e in sk.graph.edges
            for v in e
            if (e, v) in sk.push
        },
    }


def skeleton_from_json(d) -> ChainSkeleton:
    if not isinstance(d, dict):
        raise ValueError("graph is not a JSON object")
    for key in ("vertices", "edges", "ch1", "ch0_vertex", "ch0_edge", "inter"):
        if key not in d:
            raise ValueError(f"graph has no {key!r} entry")
    vertices = tuple(d["vertices"])
    edges = tuple(tuple(e) for e in d["edges"])
    graph = DualGraph(vertices, edges)
    by_str = {str(v): v for v in vertices}
    edge_by_key = {f"{e[0]}|{e[1]}": e for e in edges}
    ch1 = {by_str[k]: module_from_json(v) for k, v in d["ch1"].items()}
    ch0_vertex = {by_str[k]: module_from_json(v) for k, v in d["ch0_vertex"].items()}
    ch0_edge = {edge_by_key[k]: module_from_json(v) for k, v in d["ch0_edge"].items()}
    inter = {}
    for key, M in d["inter"].items():
        ek, vk = key.rsplit("@", 1)
        inter[(edge_by_key[ek], by_str[vk])] = M
    push = {}
    for key, M in d.get("push", {}).items():
        ek, vk = key.rsplit("@", 1)
        push[(edge_by_key[ek], by_str[vk])] = M
    return ChainSkeleton(
        graph=graph, ch1=ch1, ch0_vertex=ch0_vertex, ch0_edge=ch0_edge, inter=inter, push=push
    )
