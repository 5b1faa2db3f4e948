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
vertex (e, n) carries a one-cycle module CH0[e] (+) Zeta[e]: the first
summand is the pullback part, whose incidence maps to both neighbouring
edge copies are the identity; the second is a formal ledger for
section-pushforward classes, whose movement rule (normalize_chain)
shifts them one slot toward the upper endpoint without changing the
assembled map's image -- the model imposes that relation by
construction rather than computing self-intersections.

Modules are presented over Z (ring 0) or Z/c; elements are int tuples
reduced coordinate-wise.  The transfer demo requires free modules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

from .errors import MissingTransferMap, RDivisibilityViolated
from .intlinalg import invariant_factors, matvec, solve_mod


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

    def zero(self):
        return (0,) * self.ngens

    def random_element(self, rng):
        out = []
        for m in self.moduli:
            out.append(rng.randrange(m) if m else rng.randint(-4, 4))
        return tuple(out)

    def elements(self):
        """All elements (finite modules only)."""
        from itertools import product

        if any(m == 0 for m in self.moduli) and self.ngens:
            raise ValueError("module is infinite")
        ranges = [range(m) for m in self.moduli]
        return [tuple(t) for t in product(*ranges)] if self.ngens else [()]


def _zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def _madd(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _mneg(A):
    return [[-a for a in row] for row in A]


def _mmul(A, B):
    from .intlinalg import matmul

    return matmul(A, B)


@dataclass
class ChainSkeleton:
    """Graph plus module and incidence data.

    inter[(e, v)]: CH1[v] -> CH0[e] for each incident pair.
    push[(e, v)]: CH0[e] -> CH0_vertex[v] (used by phi only).
    zeta[e], transfer[e]: optional section-ledger module per edge and
    its map into CH1[w(e)], used after subdivision.
    """

    graph: DualGraph
    ch1: dict
    ch0_vertex: dict
    ch0_edge: dict
    inter: dict
    push: dict
    zeta: dict = field(default_factory=dict)
    transfer: dict = field(default_factory=dict)

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


def _check_shape(matrix, dst_mod, src_mod):
    if len(matrix) != dst_mod.ngens or any(len(r) != src_mod.ngens for r in matrix):
        raise ValueError("matrix shape does not match module ranks")


@dataclass
class LinearMap:
    """A block matrix between direct sums of labelled modules."""

    src: list  # [(label, FgModule)]
    dst: list
    matrix: list
    ring: int

    def src_offsets(self):
        out = {}
        pos = 0
        for label, mod in self.src:
            out[label] = (pos, mod)
            pos += mod.ngens
        return out

    def dst_offsets(self):
        out = {}
        pos = 0
        for label, mod in self.dst:
            out[label] = (pos, mod)
            pos += mod.ngens
        return out

    def apply(self, vec):
        out = matvec(self.matrix, list(vec))
        reduced = []
        pos = 0
        for _, mod in self.dst:
            reduced.extend(mod.reduce(out[pos : pos + mod.ngens]))
            pos += mod.ngens
        return tuple(reduced)


def _assemble(src, dst, blocks, ring):
    """blocks: {(dst_label, src_label): matrix} -> one big matrix."""
    src_off = {}
    pos = 0
    for label, mod in src:
        src_off[label] = pos
        pos += mod.ngens
    total_src = pos
    dst_off = {}
    pos = 0
    for label, mod in dst:
        dst_off[label] = pos
        pos += mod.ngens
    total_dst = pos
    M = _zeros(total_dst, total_src)
    for (dl, sl), B in blocks.items():
        r0, c0 = dst_off[dl], src_off[sl]
        for i, row in enumerate(B):
            for j, val in enumerate(row):
                M[r0 + i][c0 + j] += val
    if ring:
        M = [[v % ring for v in row] for row in M]
    return LinearMap(src=src, dst=dst, matrix=M, ring=ring)


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
            block = _mmul(sk.push[(e, b)], sk.inter[(e, a)])
            key = (b, a)
            blocks[key] = _madd(blocks[key], block) if key in blocks else block
            diag = _mneg(_mmul(sk.push[(e, a)], sk.inter[(e, a)]))
            key = (a, a)
            blocks[key] = _madd(blocks[key], diag) if key in blocks else diag
    return _assemble(src, dst, blocks, sk.ring)


# -- subdivision -------------------------------------------------------------


@dataclass
class SubdividedSkeleton:
    """The r-fold edge subdivision of a base skeleton.

    New vertices are labelled (e, n) for e a base edge and 1 <= n <= r-1;
    each carries CH1 = CH0[e] (+) Zeta[e] and CH0_vertex = CH0[e]; each
    of the r copies of e carries CH0[e].
    """

    base: ChainSkeleton
    r: int
    graph: DualGraph

    def chain_zero(self):
        chain = {v: self.base.ch1[v].zero() for v in self.base.graph.vertices}
        for e in self.base.graph.edges:
            zeta = self.base.zeta.get(e)
            znil = zeta.zero() if zeta else ()
            for n in range(1, self.r):
                chain[(e, n)] = (self.base.ch0_edge[e].zero(), znil)
        return chain

    def random_chain(self, rng):
        chain = {v: self.base.ch1[v].random_element(rng) for v in self.base.graph.vertices}
        for e in self.base.graph.edges:
            zeta = self.base.zeta.get(e)
            for n in range(1, self.r):
                alpha = self.base.ch0_edge[e].random_element(rng)
                zpart = zeta.random_element(rng) if zeta else ()
                chain[(e, n)] = (alpha, zpart)
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
    """The assembled vertex-to-vertex map of the subdivision, restricted
    to the pullback parts of the fresh vertices (the section ledger has
    no matrix columns: its relations are handled by normalize_chain)."""
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
        bump((v, v), _mneg(_mmul(sk.push[(e, v)], sk.inter[(e, v)])))
        bump((w, w), _mneg(_mmul(sk.push[(e, w)], sk.inter[(e, w)])))
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


def normalize_chain(ssk: SubdividedSkeleton, chain: dict) -> dict:
    """Zero every section-ledger part by shifting it one slot toward the
    upper endpoint, transferring into CH1[w(e)] at the last slot.

    Idempotent; preserves the assembled map's image by the model's
    construction.  Raises MissingTransferMap if a nonzero ledger class
    reaches the upper endpoint of an edge with no transfer map.
    """
    sk = ssk.base
    out = dict(chain)
    for e in sk.graph.edges:
        _, w = e
        carry = None
        for n in range(1, ssk.r):
            alpha, zpart = out[(e, n)]
            zmod = sk.zeta.get(e)
            if zmod is not None and carry is not None:
                zpart = zmod.reduce(tuple(a + b for a, b in zip(zpart, carry)))
            carry = zpart if zpart and any(zpart) else None
            out[(e, n)] = (alpha, zmod.zero() if zmod is not None else ())
        if carry is not None:
            T = sk.transfer.get(e)
            if T is None:
                raise MissingTransferMap(f"edge {e!r} needs a transfer map")
            moved = matvec(T, list(carry))
            out[w] = sk.ch1[w].reduce(tuple(a + b for a, b in zip(out[w], moved)))
    return out


def is_normalized(ssk: SubdividedSkeleton, chain: dict) -> bool:
    return all(
        not any(chain[(e, n)][1])
        for e in ssk.base.graph.edges
        for n in range(1, ssk.r)
    )


def telescope_check(ssk: SubdividedSkeleton, chain: dict, c: int, enforce_divisibility: bool = True) -> list:
    """Per original edge: sum_n n*(-2a_n + a_(n-1) + a_(n+1)) = a_0 - a_r
    in CH0[e] (+) Z/c, for a normalized chain; needs c | r.

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
    if not is_normalized(ssk, chain):
        raise ValueError("chain must be normalized first")
    report = []
    sk = ssk.base
    for e in sk.graph.edges:
        v, w = e
        mod = sk.ch0_edge[e]
        alpha = {0: _redc(matvec(sk.inter[(e, v)], list(chain[v])), c)}
        alpha[ssk.r] = _redc(matvec(sk.inter[(e, w)], list(chain[w])), c)
        for n in range(1, ssk.r):
            alpha[n] = _redc(list(chain[(e, n)][0]), c)
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
    """True iff m * coker(matrix) = 0, over Z (ring=0) or Z/ring."""
    if m < 1:
        raise ValueError("need m >= 1")
    rows = len(matrix)
    if rows == 0:
        return True
    rels = [list(row) for row in matrix]
    extra = []
    if ring:
        for i in range(rows):
            col = [0] * rows
            col[i] = ring
            extra.append(col)
    # append the relation columns
    full = [rels[i] + [col[i] for col in extra] for i in range(rows)]
    facs = invariant_factors(full)
    if len(facs) < rows:
        return False
    return all(m % f == 0 for f in facs)


# -- the transfer demonstration ----------------------------------------------


def transfer_single(ssk: SubdividedSkeleton, z: dict, m: int):
    """Try to realize m*z (edge-indexed zero-cycles) through the
    subdivided map and verify the edge-difference identity.

    Returns (solvable, verified, chain or None).
    """
    sk = ssk.base
    c = sk.ring
    if c < 2:
        raise ValueError("transfer demo needs a finite modulus ring")
    if any(mod.factors for mod in list(sk.ch1.values()) + list(sk.ch0_edge.values()) + list(sk.ch0_vertex.values())):
        raise ValueError("transfer demo supports free modules only")
    lm = phi_map_subdivided(ssk)
    dst_off = lm.dst_offsets()
    total_dst = len(lm.matrix)
    beta = [0] * total_dst
    for e in sk.graph.edges:
        pos, mod = dst_off[(e, 1)]
        for k, val in enumerate(z[e]):
            beta[pos + k] = m * val % c
    x = solve_mod(lm.matrix, beta, c)
    if x is None:
        return False, False, None
    # unpack into a chain (ledger parts zero by construction)
    chain = ssk.chain_zero()
    pos = 0
    for label, mod in lm.src:
        vec = tuple(v % c for v in x[pos : pos + mod.ngens])
        if label in sk.ch1:
            chain[label] = mod.reduce(vec)
        else:
            chain[label] = (mod.reduce(vec), chain[label][1])
        pos += mod.ngens
    chain = normalize_chain(ssk, chain)
    verified = True
    for e in sk.graph.edges:
        v, w = e
        lhs = _redc(
            [
                a - b
                for a, b in zip(
                    matvec(sk.inter[(e, v)], list(chain[v])),
                    matvec(sk.inter[(e, w)], list(chain[w])),
                )
            ],
            c,
        )
        target = [m * val % c for val in z[e]]
        if lhs != target:
            verified = False
    return True, verified, chain


def surjectivity_transfer_demo(
    sk: ChainSkeleton, r: int, c: int, trials: int, seed: int, m: int = 1
) -> dict:
    """Random targets z; for each, attempt the subdivided realization of
    m*z and verify it maps onto m*z under the edge-difference map."""
    if c < 2:
        raise ValueError("need c >= 2")
    if r % c != 0:
        raise RDivisibilityViolated(f"c={c} does not divide r={r}")
    ssk = subdivide(sk, r)
    rng = random.Random(seed)
    solved = verified = 0
    for _ in range(trials):
        z = {e: sk.ch0_edge[e].random_element(rng) for e in sk.graph.edges}
        ok, good, _ = transfer_single(ssk, z, m)
        if ok:
            solved += 1
            if good:
                verified += 1
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
