"""Exact integer matrix normal forms, over Z and over Z/c.

``smith_normal_form`` diagonalizes over Z by unimodular row/column
operations with a deterministic pivot rule: smallest nonzero absolute
value, ties broken by lowest row then lowest column.  The transforms
are returned, so linear systems over Z are solved through the diagonal
form.  Their entries still grow (to about 1,900 bits on dense 40-row
maps), so it serves only c = 0.

Over Z/c with c >= 2 nothing needs the integers: Z/c splits by CRT into
the rings Z/q for the prime powers q = p^e exactly dividing c, and
``_echelon_mod`` row-reduces over each Z/q, pivoting on an entry of
least p-valuation, which divides every remaining entry, so all entries
stay in [0, q) (Storjohann-Mulders, "Fast algorithms for linear algebra
modulo N", ESA 1998).  ``solve_mod`` takes a list of right-hand sides:
for c >= 2 it carries them as trailing columns through one elimination
per prime power and back-substitutes each, for c = 0 it computes one
Smith form for all of them; ``cokernel_killed_by`` reads the cokernel
off the pivots of the same elimination.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .coeffs import prime_powers


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(A, B):
    """A B for matrices as lists of rows.  When B has no rows (inner
    dimension 0) the product has rows of width 0, since B cannot show its
    width: a block product may come out narrower than its place, which is
    why ``skeleton`` adds blocks where they land instead of merging them."""
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def matvec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def smith_normal_form(A):
    """(U, D, V, rank) with U*A*V = D; D diagonal, d_1 | d_2 | ... positive.

    One loop per diagonal position k: move the pivot (smallest nonzero
    |value| in the block from (k, k) on, then lowest row, then lowest
    column) to (k, k), make it positive, and subtract the floor-quotient
    multiple of row k from each lower row and of column k from each later
    column.  The remainders are smaller than the pivot, so repeat until
    row and column k are clear; then add into row k the first lower row
    with a block entry that d_k does not divide, and repeat again.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    D = [row[:] for row in A]
    U, V = identity(rows), identity(cols)
    k = 0
    while k < min(rows, cols):
        block = [(abs(a), i, j) for i in range(k, rows) for j, a in enumerate(D[i]) if a and j >= k]
        if not block:
            break
        _, i, j = min(block)
        D[k], D[i], U[k], U[i] = D[i], D[k], U[i], U[k]
        for row in D + V:
            row[k], row[j] = row[j], row[k]
        if D[k][k] < 0:
            D[k], U[k] = [-a for a in D[k]], [-a for a in U[k]]
        d = D[k][k]
        for i in range(k + 1, rows):
            q = D[i][k] // d
            if q:
                D[i] = [a - q * b for a, b in zip(D[i], D[k])]
                U[i] = [a - q * b for a, b in zip(U[i], U[k])]
        for j in range(k + 1, cols):
            q = D[k][j] // d
            if q:
                for row in D + V:
                    row[j] -= q * row[k]
        if any(D[i][k] for i in range(k + 1, rows)) or any(D[k][k + 1:]):
            continue
        bad = next((i for i in range(k + 1, rows) if any(a % d for a in D[i][k + 1:])), None)
        if bad is None:
            k += 1
        else:
            D[k] = [a + b for a, b in zip(D[k], D[bad])]
            U[k] = [a + b for a, b in zip(U[k], U[bad])]
    return U, D, V, k


def invariant_factors(A):
    """Positive diagonal entries d_1 | d_2 | ... of the Smith form."""
    _, D, _, rank = smith_normal_form(A)
    return [D[i][i] for i in range(rank)]


def _echelon_mod(A, q, ncols):
    """Row echelon form of the int matrix A over Z/q, q a prime power p^e,
    pivoting only in the first ``ncols`` columns; columns past them (the
    right-hand sides of a system) go through the same row operations.

    Each step pivots on an entry of least p-valuation among the rows not
    yet used (ties: lowest row, then lowest column), scales its row so
    that the pivot is p^v itself, and clears the pivot's column below it.
    Every remaining entry has valuation >= v, so all steps are exact in
    Z/q and the pivots never decrease.

    Returns (pivots, pivot_cols, rows): rows[k] is the k-th pivot row,
    holding p^v = pivots[k] at column pivot_cols[k], with its first
    ``ncols`` entries divisible by pivots[k] and zero in the earlier
    pivot columns; the rows past len(pivots) are zero in the first
    ``ncols`` columns.  Over Z/q the cokernel of the first ``ncols``
    columns is the sum of the Z/pivots[k] and one Z/q per row without a
    pivot.
    """
    D = [[x % q for x in row] for row in A]
    pivots, pivot_cols = [], []
    for k in range(len(D)):
        best = _least_valuation_entry(D, k, q, ncols)
        if best is None:
            break
        g, i, j = best
        D[k], D[i] = D[i], D[k]
        unit = pow(D[k][j] // g, -1, q)
        if unit != 1:
            D[k] = [x * unit % q for x in D[k]]
        pivot_row = D[k]
        for i in range(k + 1, len(D)):
            t = D[i][j] // g
            if t:
                D[i] = [(x - t * y) % q for x, y in zip(D[i], pivot_row)]
        pivots.append(g)
        pivot_cols.append(j)
    return pivots, pivot_cols, D


def _least_valuation_entry(D, k, q, ncols):
    """(gcd(a, q), i, j) for the first entry a = D[i][j], j < ncols, of
    least p-valuation in rows k on, scanning by row, then column; None if
    those entries are zero.  Rows from k on are zero in the earlier pivot
    columns, so whole rows are scanned, without slicing off the columns
    past ncols."""
    best = None
    for i in range(k, len(D)):
        for j, a in enumerate(D[i]):
            if a and j < ncols:
                g = gcd(a, q)
                if g == 1:
                    return g, i, j
                if best is None or g < best[0]:
                    best = (g, i, j)
    return best


def _solve_prime_power(A, ncols, targets, q):
    """For each b in targets, one solution of A x = b over Z/q (q a prime
    power) or None, from a single elimination of [A | targets]."""
    augmented = [row + [b[i] for b in targets] for i, row in enumerate(A)]
    pivots, pivot_cols, rows = _echelon_mod(augmented, q, ncols)
    out = []
    for t in range(ncols, ncols + len(targets)):
        if any(row[t] for row in rows[len(pivots):]):
            out.append(None)
            continue
        x = [0] * ncols  # free columns stay 0
        for k in reversed(range(len(pivots))):
            # row k is zero at the earlier pivots and x is still zero at its own
            residual = (rows[k][t] - sum(a * v for a, v in zip(rows[k], x))) % q
            if residual % pivots[k]:
                x = None
                break
            x[pivot_cols[k]] = residual // pivots[k]
        out.append(x)
    return out


def cokernel_killed_by(A, m, c):
    """True iff m kills the cokernel of the int matrix A over Z (c = 0)
    or Z/c: over Z the Smith form has one invariant factor per row, each
    dividing m; over Z/c, for each prime power q exactly dividing c and
    not dividing m, every row has a pivot in ``_echelon_mod`` and every
    pivot divides m (see there for the cokernel over Z/q)."""
    rows = len(A)
    if rows == 0:
        return True
    if c == 0:
        facs = invariant_factors(A)
        return len(facs) == rows and all(m % f == 0 for f in facs)
    for _, q in prime_powers(c):
        if m % q == 0:
            continue
        pivots = _echelon_mod(A, q, len(A[0]))[0]
        if len(pivots) < rows or any(m % g for g in pivots):
            return False
    return True


def solve_mod(A, ncols, targets, c):
    """For each b in ``targets``, one solution x of A x = b over Z (c = 0)
    or Z/c (c >= 2), or None; the list of answers is in target order.

    A is rows x ``ncols``, given explicitly because a matrix without rows
    does not show it; every b has length rows and every x length ncols.
    A is reduced once for all targets.  Over Z the Smith form's diagonal
    congruences d_i y_i = r_i are solved exactly.  Over Z/c each prime
    power q exactly dividing c is solved by ``_echelon_mod`` and the
    solutions are joined by CRT into x with entries in [0, c).
    """
    rows = len(A)
    if any(len(b) != rows for b in targets) or any(len(row) != ncols for row in A):
        raise ValueError("dimension mismatch")
    if rows == 0:
        return [[0] * ncols for _ in targets]
    if c:
        xs, modulus = [[0] * ncols for _ in targets], 1
        for _, q in prime_powers(c):
            lift = pow(modulus, -1, q)
            for t, xq in enumerate(_solve_prime_power(A, ncols, targets, q)):
                if xq is None:
                    xs[t] = None
                elif xs[t] is not None:
                    xs[t] = [v + modulus * ((w - v) * lift % q) for v, w in zip(xs[t], xq)]
            modulus *= q
        return xs
    U, D, V, _ = smith_normal_form(A)
    return [_solve_diagonal(U, D, V, b) for b in targets]


def _solve_diagonal(U, D, V, b):
    """One solution of A x = b over Z from U A V = D, or None."""
    rows, cols = len(D), len(V)
    r = matvec(U, b)
    y = [0] * cols
    for i in range(rows):
        d = D[i][i] if i < min(rows, cols) else 0
        if d == 0:
            if r[i] != 0:
                return None
        elif r[i] % d != 0:
            return None
        else:
            y[i] = r[i] // d
    return matvec(V, y)
