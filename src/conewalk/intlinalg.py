"""Exact integer matrix normal forms.

``smith_normal_form`` diagonalizes by unimodular row/column operations
with a deterministic pivot rule: smallest nonzero absolute value, ties
broken by lowest row then lowest column.  The transforms are returned,
so linear systems over Z and Z/c can be solved through the diagonal
form.
"""

from __future__ import annotations

from math import gcd


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(A, B):
    if not A or not B:
        return [[0] * (len(B[0]) if B else 0) for _ in A]
    n, k, m = len(A), len(B), len(B[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for j in range(m):
            out[i][j] = sum(Ai[t] * B[t][j] for t in range(k))
    return out


def matvec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def smith_normal_form(A):
    """(U, D, V, rank) with U*A*V = D; D diagonal, d_1 | d_2 | ... positive."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    D = [row[:] for row in A]
    U = identity(rows)
    V = identity(cols)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        D[dst] = [a + q * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, q):
        for row in D:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def negate_row(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]

    k = 0
    while k < min(rows, cols):
        # deterministic pivot: smallest |value|, then lowest row, then column
        pivot = None
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                a = D[i][j]
                if a != 0 and (best is None or abs(a) < best):
                    best = abs(a)
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])
        if D[k][k] < 0:
            negate_row(k)
        dirty = True
        while dirty:
            dirty = False
            for i in range(k + 1, rows):
                if D[i][k] % D[k][k] != 0:
                    add_row(k, i, -(D[i][k] // D[k][k]))
                    swap_rows(k, i)
                    if D[k][k] < 0:
                        negate_row(k)
                    dirty = True
            if dirty:
                continue
            for i in range(k + 1, rows):
                if D[i][k]:
                    add_row(k, i, -(D[i][k] // D[k][k]))
            for j in range(k + 1, cols):
                if D[k][j] % D[k][k] != 0:
                    q = -(D[k][j] // D[k][k])
                    add_col(k, j, q)
                    swap_cols(k, j)
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(k + 1, cols):
                if D[k][j]:
                    add_col(k, j, -(D[k][j] // D[k][k]))
            # divisibility fix-up: d_k must divide the rest of the block
            for i in range(k + 1, rows):
                bad = next((j for j in range(k + 1, cols) if D[i][j] % D[k][k] != 0), None)
                if bad is not None:
                    add_row(i, k, 1)
                    dirty = True
                    break
        k += 1
    rank = sum(1 for i in range(min(rows, cols)) if D[i][i] != 0)
    return U, D, V, rank


def invariant_factors(A):
    """Positive diagonal entries d_1 | d_2 | ... of the Smith form."""
    _, D, _, rank = smith_normal_form(A)
    return [abs(D[i][i]) for i in range(rank)]


def solve_mod(A, b, c):
    """One solution x of A x = b over Z (c = 0) or Z/c, or None.

    A is rows x cols; b has length rows.  Over Z/c every congruence
    d_i y_i = r_i (mod c) is solved through gcd reduction.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    if len(b) != rows:
        raise ValueError("dimension mismatch")
    if rows == 0:
        return [0] * cols
    U, D, V, rank = smith_normal_form(A)
    r = matvec(U, b)
    y = [0] * cols
    for i in range(rows):
        d = D[i][i] if i < min(rows, cols) else 0
        ri = r[i]
        if c:
            ri %= c
        if d == 0:
            if c == 0:
                if ri != 0:
                    return None
            elif ri % c != 0:
                return None
            continue
        if c == 0:
            if ri % d != 0:
                return None
            y[i] = ri // d
        else:
            g = gcd(d, c)
            if ri % g != 0:
                return None
            cc = c // g
            y[i] = (ri // g) * pow(d // g, -1, cc) % cc
    x = matvec(V, y)
    if c:
        x = [v % c for v in x]
    return x
