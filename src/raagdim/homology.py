"""Exact simplicial homology over GF(2) and over the rationals.

Homology is reduced throughout (the augmentation lives in degree -1), so
the Betti numbers of a point are all zero and b0 counts components minus
one.  Rational ranks come from exact integer elimination: unit pivots on
the sparse rows, then fraction-free elimination of the core they leave.

Simplicial boundaries are read in one format, the `cells + signed boundary
rows` interface: one row of sorted ``(lower cell id, coeff)`` pairs per
d-cell, ids indexing the (d-1)-cells, from `boundary_rows(K, d)`.  Over
GF(2) a row is the list of its ids with an odd coefficient (`_parity_rows`),
eliminated sparsely by `gf2`; over Q, `intlinalg.sparse_rank` reads the
signed rows themselves.  The configuration space plugs into the GF(2)
`solve_coboundary` through its facet-key rows alone (``facet_keys(d)``).
The cochain phi is a sequence in the order of those rows, the cell order,
and a primitive comes back on cell keys, so the solve builds no cell, of
degree d or d-1.  Over Z, `obstruction.certify_vanishing` solves on L and
pulls back, and falls back to its `_integer_solve` on the space's signed
facet keys (``signed_facet_keys(d)``).
"""

from __future__ import annotations

from . import gf2, intlinalg
from .complexes import SimplicialComplex


def simplex_boundary(face: tuple):
    """Signed facets of an oriented simplex; vertices assumed rank-sorted."""
    if len(face) == 1:
        return []
    return [(face[:i] + face[i + 1 :], (-1) ** i) for i in range(len(face))]


def boundary_rows(K: SimplicialComplex, d: int) -> tuple:
    """Signed boundary of every d-face as (facet id, sign) pairs sorted by id,
    one row per face of K.faces_of_dim(d), ids indexing K.faces_of_dim(d - 1).

    In degree 0 every vertex's row is the single augmentation cell (id 0),
    so homology read from these rows is reduced.
    """
    faces = K.faces_of_dim(d)
    if d == 0:
        return tuple(((0, 1),) for _ in faces)
    ids = {f: i for i, f in enumerate(K.faces_of_dim(d - 1))}
    return tuple(tuple(sorted((ids[sub], sign) for sub, sign in simplex_boundary(f))) for f in faces)


def _parity_rows(rows):
    """Each row over GF(2): the lower cell ids with an odd coefficient.
    Yields the rows one at a time, so no list is held."""
    for row in rows:
        yield [i for i, coeff in row if coeff % 2]


def _betti(K: SimplicialComplex, rank) -> tuple:
    """Reduced Betti numbers for k = 0..dim K, given rank(rows) of the
    degree-d boundary rows."""
    if K.dim < 0:
        return ()
    # No face has degree dim + 1.
    ranks = [rank(boundary_rows(K, d)) for d in range(K.dim + 1)] + [0]
    return tuple(len(K.faces_of_dim(k)) - ranks[k] - ranks[k + 1] for k in range(K.dim + 1))


def mod2_betti(K: SimplicialComplex) -> tuple:
    """dim H_k(K; Z/2) for k = 0..dim K."""
    return _betti(K, lambda rows: gf2.rank(_parity_rows(rows)))


def rational_betti(K: SimplicialComplex) -> tuple:
    """dim_Q H_k(K; Q) for k = 0..dim K, by exact integer elimination."""
    return _betti(K, intlinalg.sparse_rank)


def cycle_space(K: SimplicialComplex, k: int) -> tuple:
    """Basis of the GF(2) cycle space Z_k, each cycle a frozenset of k-faces.

    Degree 0 uses the reduced convention (a 0-cycle has evenly many
    vertices), matching the reduced homology used everywhere else.
    """
    if k < 0 or k > K.dim:
        return ()
    cols = K.faces_of_dim(k)
    # The kernel wants the boundary matrix by lower cell: row i lists the
    # k-faces whose boundary meets cell i (row order does not change it).
    by_lower: dict = {}
    for j, row in enumerate(boundary_rows(K, k)):
        for i, coeff in row:
            by_lower.setdefault(i, []).append((j, coeff))
    basis = gf2.kernel_basis(_parity_rows(by_lower.values()), len(cols))
    cycles = [frozenset(cols[i] for i in x) for x in basis]
    return tuple(sorted(cycles, key=lambda c: (len(c), sorted(c))))


def solve_coboundary(phi, degree: int, space):
    """Find x with (delta x) = phi over GF(2) on the m-cells of a cell
    complex.

    phi: the values on the m-cells, a sequence in cell order, one per row
    (a ValueError when its length differs).  space: cell complex exposing
    count_cells(d) and facet_keys(d), one row of facet keys per m-cell in
    cell order, the keys increasing strictly in the order of the
    (m-1)-cells.  Builds no cell.

    Returns (primitive, witness) from one `gf2.solve`: `primitive` is a
    {key: 1} dict on the keys of the (m-1)-cells in its support, in key
    order (cell order), when solvable, otherwise None.  The witness of an
    unsolvable system is the ascending list of the indices of m-cells
    forming a cycle on which phi evaluates to 1.
    """
    n_lower = space.count_cells(degree - 1) if degree > 0 else 0
    x, witness = gf2.solve(list(zip(space.facet_keys(degree), phi, strict=True)), n_lower)
    return (None, witness) if x is None else (dict.fromkeys(sorted(x), 1), None)
