"""Dense GF(2) linear algebra on Python int bitsets.

Rows are ints; bit j is column j.  Elimination pivots on the highest set
bit of each row, which keeps the inner loop at one xor per reduction and
needs no column scans.  Exactness is the point: no floats anywhere.
"""

from __future__ import annotations


def _reduce(piv, r):
    """r with leading bits cleared by the pivot rows until one is new."""
    while r:
        c = r.bit_length() - 1
        if c not in piv:
            break
        r ^= piv[c]
    return r


def _echelon(rows):
    """Pivot dict {leading_bit: row} from incremental elimination."""
    piv: dict = {}
    for row in rows:
        r = _reduce(piv, row)
        if r:
            piv[r.bit_length() - 1] = r
    return piv


def _back_substitute(piv, x):
    """Set each pivot column of x, in ascending order, so that its row has
    even parity on x.  A row has no bit above its own leading bit, and x
    never holds that bit when the row is visited, so the row's parity on x
    is the sum of its lower columns."""
    for c in sorted(piv):
        if (piv[c] & x).bit_count() & 1:
            x |= 1 << c
    return x


def rank(rows) -> int:
    return len(_echelon(rows))


def kernel_basis(rows, ncols) -> list:
    """Basis of {x : A x = 0}, one bitmask per basis vector: each free
    column set alone, with the pivot columns back-substituted."""
    piv = _echelon(rows)
    return [_back_substitute(piv, 1 << f) for f in range(ncols) if f not in piv]


def solve(equations, ncols, want_witness=False):
    """Solve A x = b over GF(2).

    equations: iterable of (mask, rhs_bit) pairs, one per equation, each
    eliminated as it arrives, so only the pivot rows are ever held.
    Returns (x_mask, None) on success with free variables set to 0, or
    (None, witness) when inconsistent; the witness (only computed when
    requested, which needs len(equations)) is the list of equation indices
    whose sum reads 0 = 1.  Witness tracking widens every row by one bit
    per equation, so solve without it first.

    Row i is laid out as  variables | rhs | witness:  the variables above
    bit n, the rhs at bit n, and bit i of the low n bits marking the
    equation, where n is the number of equations with a witness and 0
    without one.
    """
    n = len(equations) if want_witness else 0
    var_mask = (1 << ncols) - 1
    piv: dict = {}
    for i, (mask, rhs) in enumerate(equations):
        r = (mask & var_mask) << (n + 1) | (rhs & 1) << n
        if want_witness:
            r |= 1 << i
        r = _reduce(piv, r)
        c = r.bit_length() - 1
        if c > n:
            piv[c] = r
        elif c == n:
            return None, indices_from_mask(r ^ (1 << n)) if want_witness else None
    # Bit n of x is the rhs column, read as the constant 1.
    return _back_substitute(piv, 1 << n) >> (n + 1), None


def indices_from_mask(mask) -> list:
    """Set bit positions in ascending order, in one pass over the binary
    digits (shifting the mask once per bit would be quadratic)."""
    return [i for i, b in enumerate(reversed(bin(mask))) if b == "1"]
