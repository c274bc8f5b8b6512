"""Reference: the GF(2) solve on explicit rows, eliminating every row as
given and back-substituting over every pivot.

`raagdim.gf2.solve` holds a pivot kept as given unbuilt and visits only
the pivots that can be odd; the tests compare its primitive and witness
with this one, which reads every row.
"""

from __future__ import annotations


def _reduce(piv, row):
    """Reduce the row by the pivot rows until its largest key is new:
    (that key, the reduced row, the pivots it was reduced by), with None
    once the row cancels.  Neither the row nor a pivot is mutated."""
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


def solve(equations):
    """(x, None) with x the set of keys set to 1, free variables 0, or
    (None, witness) at the first equation that reads 0 = 1, the witness
    the ascending indices of the equations whose sum reads 0 = 1."""
    piv, origin, below = {}, [], {}
    for i, (keys, rhs) in enumerate(equations):
        c, r, used = _reduce(piv, (*keys, -1) if rhs & 1 else keys)
        if c == -1:
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
    x = {-1}
    for c in sorted(piv):
        row = piv[c]
        if len(x.intersection(row)) & 1:
            x.add(c)
    x.discard(-1)
    return x, None
