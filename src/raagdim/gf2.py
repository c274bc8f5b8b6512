"""Sparse GF(2) linear algebra on sets of int column keys.

A row is the set of its columns, each an int key; only the order of the
keys matters, so any order-preserving labels of the columns serve.
Elimination pivots on the largest key of each row (the dense highest-bit
rule), which keeps the inner loop at one symmetric difference per
reduction.  A row holds only its own entries, so elimination without fill
costs what the rows hold, not their width.  Exactness is the point: no
floats anywhere.
"""

from __future__ import annotations


def _reduce(piv, r):
    """Clear the largest key of the set r, in place, by the pivot rows until
    one is new, and return that key; None once r is empty."""
    while r:
        c = max(r)
        if c not in piv:
            return c
        r ^= piv[c]
    return None


def _echelon(rows):
    """Pivot dict {largest key: row} from incremental elimination."""
    piv: dict = {}
    for row in rows:
        r = set(row)
        c = _reduce(piv, r)
        if c is not None:
            piv[c] = r
    return piv


def _back_substitute(piv, x):
    """Add each pivot column to the set x, in ascending order, when its row
    has odd parity on x.  A row has no key above its own pivot, and x never
    holds that key when the row is visited, so the row's parity on x is the
    sum of its lower columns."""
    for c in sorted(piv):
        if len(x.intersection(piv[c])) & 1:
            x.add(c)
    return x


def rank(rows) -> int:
    return len(_echelon(rows))


def kernel_basis(rows, ncols) -> list:
    """Basis of {x : A x = 0} over the columns 0..ncols-1, one key set per
    basis vector: each free column set alone, with the pivot columns
    back-substituted."""
    piv = _echelon(rows)
    return [_back_substitute(piv, {f}) for f in range(ncols) if f not in piv]


def solve(equations, ncols, want_witness=False):
    """Solve A x = b over GF(2).

    equations: iterable of (keys, rhs_bit) pairs, one per equation, its
    variables given by nonnegative column keys; each is eliminated as it
    arrives, so only the pivot rows are ever held.  ncols is the number of
    unknowns; elimination does not read it, as the keys only order the
    unknowns and need not lie below it.
    Returns (x, None) on success, x the set of keys set to 1 with free
    variables 0, or (None, witness) when inconsistent; the witness (only
    computed when requested) is the ascending list of equation indices
    whose sum reads 0 = 1.  Witness tracking lengthens every row it
    touches, so solve without it first.

    Row i is laid out by key as  variables | rhs | witness:  the variables
    at their own keys, the rhs at -1, and the key -2 - i marking the
    equation, so the pivot on a variable always comes first.
    """
    piv: dict = {}
    for i, (keys, rhs) in enumerate(equations):
        r = set(keys)
        if rhs & 1:
            r.add(-1)
        if want_witness:
            r.add(-2 - i)
        c = _reduce(piv, r)
        if c is not None and c >= 0:
            piv[c] = r
        elif c == -1:
            return None, sorted(-2 - key for key in r if key < -1) if want_witness else None
    # The key -1 in x is the rhs column, read as the constant 1.
    x = _back_substitute(piv, {-1})
    x.discard(-1)
    return x, None
