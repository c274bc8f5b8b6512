"""Reference oracle: dense GF(2) elimination on Python int bitsets.

Row i of `solve` is one int laid out as  variables | rhs | witness:  the
variables above bit n, the rhs at bit n, and bit i of the low n bits
marking the equation, where n is the number of equations.  Elimination
pivots on the highest set bit, the rule `raagdim.gf2` applies to the
largest key of a sparse row; the witness bits ride along in every row.
"""

from __future__ import annotations


def _reduce(piv, r):
    while r:
        c = r.bit_length() - 1
        if c not in piv:
            break
        r ^= piv[c]
    return r


def indices_from_mask(mask) -> list:
    """Set bit positions in ascending order."""
    return [i for i, b in enumerate(reversed(bin(mask))) if b == "1"]


def solve(equations, ncols):
    """(x_mask, None) with free variables 0, or (None, witness) with the
    ascending indices of equations summing to 0 = 1."""
    n = len(equations)
    var_mask = (1 << ncols) - 1
    piv: dict = {}
    for i, (mask, rhs) in enumerate(equations):
        r = _reduce(piv, (mask & var_mask) << (n + 1) | (rhs & 1) << n | 1 << i)
        c = r.bit_length() - 1
        if c > n:
            piv[c] = r
        elif c == n:
            return None, indices_from_mask(r ^ (1 << n))
    x = 1 << n
    for c in sorted(piv):
        if (piv[c] & x).bit_count() & 1:
            x |= 1 << c
    return x >> (n + 1), None
