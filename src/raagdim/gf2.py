"""Sparse GF(2) linear algebra on rows of int column keys.

A row is a collection of its columns, each an int key listed at most once;
only the order of the keys matters, so any order-preserving labels of the
columns serve.  Elimination pivots on the largest key of each row (the
dense highest-bit rule).  A row whose largest key is not yet a pivot
becomes that pivot as given, with no copy; only a row that meets a pivot is
copied into a set and reduced there, one symmetric difference per step.
So no row, given or stored, is ever mutated, and elimination without fill
costs what the rows hold, not their width.  `solve` names the equations of
an inconsistency from that one pass: it records each pivot's equation, in
the order the pivots are made, and the pivots a reduced pivot's row was
reduced by.  Exactness is the point: no floats anywhere.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right


def _reduce(piv, row):
    """Reduce the row by the pivot rows until its largest key is new.

    Returns (that key, the reduced row, the pivot keys it was reduced by,
    in order), with None and an empty row once the row cancels.  A row
    whose largest key is new at once comes back as given, reduced by
    nothing (``()``); any other is copied into a set before the first
    reduction step, so neither the row nor a pivot is mutated.  Each step
    lowers the largest key, so no pivot is listed twice."""
    c = max(row) if row else None
    if c not in piv:
        return c, row, ()
    r, used = set(row), []
    while True:
        used.append(c)
        r.symmetric_difference_update(piv[c])
        if not r:
            return None, r, used
        c = max(r)
        if c not in piv:
            return c, r, used


def _echelon(rows):
    """Pivot dict {largest key: row} from incremental elimination."""
    piv: dict = {}
    for row in rows:
        c, r, _ = _reduce(piv, row)
        if c is not None:
            piv[c] = r
    return piv


def _back_substitute(piv, order, x):
    """Add each pivot column of `order` (ascending) to the set x when its
    row has odd parity on x.  A row has no key above its own pivot, and x
    never holds that key when the row is visited, so the row's parity on x
    is the sum of its lower columns; most rows miss x, which `isdisjoint`
    tells without building the intersection."""
    for c in order:
        row = piv[c]
        if not x.isdisjoint(row) and len(x.intersection(row)) & 1:
            x.add(c)
    return x


def rank(rows) -> int:
    return len(_echelon(rows))


def kernel_basis(rows, ncols) -> list:
    """Basis of {x : A x = 0} over the columns 0..ncols-1, one key set per
    basis vector: each free column f set alone, with the pivot columns
    back-substituted.  Only the pivots above f can fire: a pivot row below
    f holds no key as high as f, nor any pivot column added after it."""
    piv = _echelon(rows)
    order = sorted(piv)
    return [_back_substitute(piv, order[bisect_right(order, f):], {f}) for f in range(ncols) if f not in piv]


def solve(equations, ncols):
    """Solve A x = b over GF(2) in one elimination.

    equations: a list of (keys, rhs_bit) pairs, one per equation, its
    variables given by a collection of nonnegative column keys, each at
    most once.  Each is eliminated as it arrives, so only the pivot rows
    are ever held, and a row is kept as given until it meets a pivot (a
    copy when it needs the rhs key -1, below every variable); no row is
    mutated.  ncols is the number of unknowns; elimination does not read
    it, as the keys only order the unknowns and need not lie below it.
    Returns (x, None) on success, x the set of keys set to 1 with free
    variables 0, or (None, witness) at the first equation that reads 0 = 1:
    the ascending list of equation indices whose sum reads 0 = 1, that
    equation's the largest.  Each pivot's equation index is appended to an
    int array as the pivot is made, so the array runs parallel to the pivot
    dict's creation order.  A reduced pivot's key also maps to the pivots its
    row was reduced by, and the first 0 = 1 walks both back to its witness.
    """
    piv: dict = {}
    origin = array("q")
    below: dict = {}
    for i, (keys, rhs) in enumerate(equations):
        c, r, used = _reduce(piv, (*keys, -1) if rhs & 1 else keys)
        if c == -1:
            # A reduced pivot is its equation plus pivots made before it, so
            # walking back in creation order settles each one's parity before
            # it is visited; a pivot kept as given is its equation alone.
            odd, witness = set(used), [i]
            for p, j in zip(reversed(piv), reversed(origin)):
                if p in odd:
                    witness.append(j)
                    odd.symmetric_difference_update(below.get(p, ()))
            return None, sorted(witness)
        if c is not None:
            piv[c] = r
            origin.append(i)
            if used:
                below[c] = used
    # The key -1 in x is the rhs column, read as the constant 1.
    x = _back_substitute(piv, sorted(piv), {-1})
    x.discard(-1)
    return x, None
