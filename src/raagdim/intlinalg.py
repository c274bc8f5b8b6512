"""Exact integer linear algebra: fraction-free rank, determinants, Smith
normal form, and integer linear solves.

Matrices are lists of lists of Python ints.  Rank and determinant both
read one Bareiss elimination (`_bareiss`), which keeps all intermediate
values integral; obstruction certificates must never touch a float.
"""

from __future__ import annotations


def _bareiss(mat):
    """Fraction-free elimination of an integer matrix.

    Returns (rank over Q, last pivot signed by the row swaps); for a
    nonsingular square matrix the signed last pivot is the determinant.
    """
    m = [list(r) for r in mat]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank, sign, prev = 0, 1, 1
    for col in range(nc):
        p = next((i for i in range(rank, nr) if m[i][col]), None)
        if p is None:
            continue
        if p != rank:
            m[rank], m[p] = m[p], m[rank]
            sign = -sign
        row_r = m[rank]
        pivot = row_r[col]
        for i in range(rank + 1, nr):
            row_i = m[i]
            head = row_i[col]
            for j in range(col + 1, nc):
                row_i[j] = (pivot * row_i[j] - head * row_r[j]) // prev
            row_i[col] = 0
        prev = pivot
        rank += 1
        if rank == nr:
            break
    return rank, sign * prev


def integer_rank(mat) -> int:
    """Rank over Q of an integer matrix."""
    return _bareiss(mat)[0]


def integer_det(mat) -> int:
    """Determinant of a square integer matrix."""
    rank, last = _bareiss(mat)
    return last if rank == len(mat) else 0


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat):
    """Return (D, U, V) with U @ mat @ V = D, U and V unimodular, D diagonal
    with nonnegative entries satisfying d_i | d_{i+1}."""
    D = [list(r) for r in mat]
    nr = len(D)
    nc = len(D[0]) if nr else 0
    U = _identity(nr)
    V = _identity(nc)

    def row_op(i, j, q):  # row_i -= q * row_j
        for t in range(nc):
            D[i][t] -= q * D[j][t]
        for t in range(nr):
            U[i][t] -= q * U[j][t]

    def col_op(i, j, q):  # col_i -= q * col_j
        for t in range(nr):
            D[t][i] -= q * D[t][j]
        for t in range(nc):
            V[t][i] -= q * V[t][j]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for t in range(nr):
            D[t][i], D[t][j] = D[t][j], D[t][i]
        for t in range(nc):
            V[t][i], V[t][j] = V[t][j], V[t][i]

    def find_pivot(t):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if D[i][j] and (best is None or abs(D[i][j]) < abs(D[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(nr, nc):
        pos = find_pivot(t)
        if pos is None:
            break
        i, j = pos
        swap_rows(t, i)
        swap_cols(t, j)
        # Clear row and column t by Euclidean steps.
        while True:
            dirty = False
            for i in range(t + 1, nr):
                if D[i][t]:
                    q = D[i][t] // D[t][t]
                    row_op(i, t, q)
                    if D[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    col_op(j, t, q)
                    if D[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty and all(D[i][t] == 0 for i in range(t + 1, nr)) and all(
                D[t][j] == 0 for j in range(t + 1, nc)
            ):
                break
        # Enforce divisibility d_t | everything below.
        fixed = True
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if D[i][j] % D[t][t]:
                    row_op(t, i, -1)  # add row i to row t, then redo
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1

    for i in range(min(nr, nc)):
        if D[i][i] < 0:
            for j in range(nc):
                D[i][j] = -D[i][j]
            for j in range(nr):
                U[i][j] = -U[i][j]
    return D, U, V


def solve_integer(mat, rhs):
    """Integer solution x of mat @ x = rhs, or None when unsolvable over Z."""
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    D, U, V = smith_normal_form(mat)
    c = [sum(U[i][j] * rhs[j] for j in range(nr)) for i in range(nr)]
    z = [0] * nc
    for i in range(min(nr, nc)):
        d = D[i][i]
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d:
                return None
            z[i] = c[i] // d
    for i in range(min(nr, nc), nr):
        if c[i] != 0:
            return None
    return [sum(V[i][j] * z[j] for j in range(nc)) for i in range(nc)]
