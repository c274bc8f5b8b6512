"""Exact integer linear algebra: fraction-free rank, determinants, Smith
normal form, and sparse integer linear solves.

Matrices are lists of lists of Python ints.  Dense rank and determinant
both read one Bareiss elimination (`_bareiss`), which keeps all
intermediate values integral; obstruction certificates must never touch
a float.  `sparse_rank` and `solve_integer` (for any number of right-hand
sides at once) read sparse rows, the boundary-row format of `homology`,
share one elimination on unit pivots (`_unit_pivots`) and build a dense
matrix only for the core it leaves.  A column is any int, such as a face
id of L or a configuration space's facet key, and a solution is a
{column: value} dict, so no column count is passed.
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
            # No swap: the row pass cleared column t, and the column pass, which leaves it alone, row t.
            if not dirty:
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


class CoreTooLarge(ValueError):
    """The dense core of an integer solve has more than INTEGRAL_ENTRY_CAP
    entries; the message names its shape."""


# `solve_integer` refuses a dense core above this many entries (rows x
# columns) before building it.  The Smith normal form and its transforms
# are dense: on a 2-core host it takes 5.4 s on a 260 x 840 matrix and
# 22 s on 408 x 1296, growing about as entries^1.6.
INTEGRAL_ENTRY_CAP = 600_000


def _unit_pivots(rows, rhss=()):
    """Eliminate sparse integer rows on +-1 pivots.

    rows: one row of (column, coeff) pairs per equation, columns ints; a
    column listed twice in a row adds up.  Every row operation adds an
    integer multiple of a unit pivot row, so it is unimodular; each
    right-hand side in `rhss` (a list by row) is updated alongside.
    The pivot is the unit entry of least Markowitz cost (row entries - 1)
    x (column entries - 1), ties broken by row and then column, so no
    hash order enters.  A cost is recomputed when its row changes and when
    it is popped, so a column that lost rows may keep an older, higher
    cost for a while.

    Returns (active, pivots, core): the rows as {column: coeff} dicts,
    the (row, column) pivots in order, and the ids of the nonempty rows
    left without a unit entry.  A pivot's column is zero in every later
    pivot row and in the core.
    """
    import heapq

    active = []
    for row in rows:
        summed: dict = {}
        for j, a in row:
            summed[j] = summed.get(j, 0) + a
        active.append({j: a for j, a in summed.items() if a})
    where: dict = {}  # column -> active rows holding it
    for i, row in enumerate(active):
        for j in row:
            where.setdefault(j, set()).add(i)
    heap: list = []

    def push(i, cols):
        row = active[i]
        for j in cols:
            if row.get(j) in (1, -1):
                heapq.heappush(heap, ((len(row) - 1) * (len(where[j]) - 1), i, j))

    for i, row in enumerate(active):
        push(i, row)
    done = [False] * len(active)
    pivots = []
    while heap:
        cost, i, j = heapq.heappop(heap)
        row = active[i]
        if done[i] or row.get(j) not in (1, -1):
            continue
        now = (len(row) - 1) * (len(where[j]) - 1)
        if now > cost:  # the row or column has grown since the push
            heapq.heappush(heap, (now, i, j))
            continue
        done[i] = True
        pivots.append((i, j))
        for t in row:
            where[t].discard(i)
        a = row[j]
        for h in list(where[j]):
            other = active[h]
            q = other[j] * a  # other[j] / a, as a = +-1
            for t, v in row.items():
                w = other.get(t, 0) - q * v
                if w:
                    other[t] = w
                    where[t].add(h)
                else:
                    del other[t]
                    where[t].discard(h)
            for b in rhss:
                b[h] -= q * b[i]
            push(h, other)
    core = [i for i, row in enumerate(active) if not done[i] and row]
    return active, pivots, core


def sparse_rank(rows) -> int:
    """Rank over Q of sparse rows (the format of `solve_integer`): the
    number of unit pivots plus the rank of the core they leave."""
    active, pivots, core = _unit_pivots(rows)
    if not core:
        return len(pivots)
    cols = sorted({j for i in core for j in active[i]})
    return len(pivots) + integer_rank([[active[i].get(j, 0) for j in cols] for i in core])


def _back_substitute(active, pivots, b, x):
    """Fill the pivot columns of x, last pivot first, from the eliminated
    rows and right-hand side; every other column keeps its value (0 when
    absent)."""
    for i, j in reversed(pivots):
        row = active[i]
        x[j] = row[j] * (b[i] - sum(v * x.get(t, 0) for t, v in row.items() if t != j))
    return x


def solve_integer(rows, rhss):
    """Integer solutions x of A x = b, one per b in rhss, as {column: value}
    dicts, or None when some b has no integer solution.

    rows: sparse rows as for `_unit_pivots`, whose one elimination serves
    every b.  Only the core, the rows with no unit entry left, goes through
    a dense Smith normal form, one for all b (raising CoreTooLarge above
    INTEGRAL_ENTRY_CAP entries); the pivot columns are then back-substituted
    and every column left out of x is 0.
    """
    bs = [list(b) for b in rhss]
    active, pivots, core = _unit_pivots(rows, bs)
    empty = [i for i, row in enumerate(active) if not row]
    if any(b[i] for b in bs for i in empty):
        return None
    xs = [{} for _ in bs]
    if core:
        cols = sorted({j for i in core for j in active[i]})
        if len(core) * len(cols) > INTEGRAL_ENTRY_CAP:
            raise CoreTooLarge(f"integer core too large ({len(core)} x {len(cols)} entries > "
                               f"{INTEGRAL_ENTRY_CAP})")
        D, U, V = smith_normal_form([[active[i].get(j, 0) for j in cols] for i in core])
        for b, x in zip(bs, xs):
            c = [sum(u * b[i] for u, i in zip(U_row, core)) for U_row in U]
            z = [0] * len(cols)
            for t, ct in enumerate(c):
                d = D[t][t] if t < len(cols) else 0
                if d == 0:
                    if ct:
                        return None
                elif ct % d:
                    return None
                else:
                    z[t] = ct // d
            for j, V_row in zip(cols, V):
                x[j] = sum(v * zt for v, zt in zip(V_row, z))
    return [_back_substitute(active, pivots, b, x) for b, x in zip(bs, xs)]
