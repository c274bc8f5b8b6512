"""Dense GF(2) linear algebra on Python int bitsets.

Rows are ints; bit j is column j.  Elimination pivots on the highest set
bit of each row, which keeps the inner loop at one xor per reduction and
needs no column scans.  Exactness is the point: no floats anywhere.
"""

from __future__ import annotations


def _echelon(rows):
    """Pivot dict {leading_bit: row} from incremental elimination."""
    piv: dict = {}
    for row in rows:
        r = row
        while r:
            c = r.bit_length() - 1
            if c in piv:
                r ^= piv[c]
            else:
                piv[c] = r
                break
    return piv


def rank(rows) -> int:
    return len(_echelon(rows))


def kernel_basis(rows, ncols) -> list:
    """Basis of {x : A x = 0}, one bitmask per basis vector.

    Free columns are set one at a time and pivot columns back-substituted
    in ascending order (a pivot row only involves lower columns besides
    its own leading bit).
    """
    piv = _echelon(rows)
    basis = []
    for f in range(ncols):
        if f in piv:
            continue
        x = 1 << f
        for c in sorted(piv):
            row = piv[c]
            if ((row & ~(1 << c)) & x).bit_count() & 1:
                x |= 1 << c
        basis.append(x)
    return basis


def solve(equations, ncols, want_witness=False):
    """Solve A x = b over GF(2).

    equations: iterable of (mask, rhs_bit) pairs, one per equation, each
    eliminated as it arrives, so only the pivot rows are ever held.
    Returns (x_mask, None) on success with free variables set to 0, or
    (None, witness) when inconsistent; the witness (only computed when
    requested) is the list of equation indices whose sum reads 0 = 1.
    Witness tracking widens row i by i + 1 bits, so solve without it first.
    """
    var_mask = (1 << ncols) - 1
    aug = 1 << ncols
    piv: dict = {}
    for i, (mask, rhs) in enumerate(equations):
        r = (mask & var_mask) | (aug if rhs & 1 else 0)
        if want_witness:
            r |= 1 << (ncols + 1 + i)
        while True:
            rv = r & var_mask
            if not rv:
                if r & aug:
                    if want_witness:
                        return None, indices_from_mask(r >> (ncols + 1))
                    return None, None
                break
            c = rv.bit_length() - 1
            if c in piv:
                r ^= piv[c]
            else:
                piv[c] = r
                break

    x = 0
    for c in sorted(piv):
        row = piv[c]
        val = (row >> ncols) & 1
        val ^= ((row & ((1 << c) - 1)) & x).bit_count() & 1
        if val:
            x |= 1 << c
    return x, None


def indices_from_mask(mask) -> list:
    """Set bit positions in ascending order, in one pass over the binary
    digits (shifting the mask once per bit would be quadratic)."""
    return [i for i, b in enumerate(reversed(bin(mask))) if b == "1"]
