"""Exact simplicial homology over GF(2) and over the rationals.

Homology is reduced throughout (the augmentation lives in degree -1), so
the Betti numbers of a point are all zero and b0 counts components minus
one.  Rational ranks come from fraction-free integer elimination.

Every boundary is read in one format, the `cells + signed boundary rows`
interface: one row of sorted ``(lower cell id, coeff)`` pairs per d-cell,
ids indexing the (d-1)-cells.  `boundary_rows(K, d)` serves simplicial
complexes; the quotient pair complexes plug into `solve_coboundary` through
``cells_of_degree(d)`` and ``boundary_rows(d)``.  One converter per ring
(`_gf2_masks`, `_int_matrix`) turns rows into the matrices eliminated;
the integer coboundary solve (`intlinalg.solve_integer`) reads the rows
themselves.
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


def _gf2_masks(rows):
    """Each row as a GF(2) bitmask: bit i is set when lower cell i has an odd
    coefficient.  Yields the masks one at a time, so no list is held."""
    for row in rows:
        mask = 0
        for i, coeff in row:
            if coeff % 2:
                mask ^= 1 << i
        yield mask


def _int_matrix(rows, n: int) -> list:
    """The rows as a dense integer matrix over n lower cells."""
    mat = []
    for row in rows:
        dense = [0] * n
        for i, coeff in row:
            dense[i] += coeff
        mat.append(dense)
    return mat


def _betti(K: SimplicialComplex, rank) -> tuple:
    """Reduced Betti numbers for k = 0..dim K, given rank(rows, n) of the
    degree-d boundary rows over their n lower cells."""
    if K.dim < 0:
        return ()
    # Degree 0 rows index the one augmentation cell; no face has degree dim + 1.
    ranks = [rank(boundary_rows(K, d), len(K.faces_of_dim(d - 1)) if d else 1)
             for d in range(K.dim + 1)] + [0]
    return tuple(len(K.faces_of_dim(k)) - ranks[k] - ranks[k + 1] for k in range(K.dim + 1))


def mod2_betti(K: SimplicialComplex) -> tuple:
    """dim H_k(K; Z/2) for k = 0..dim K."""
    return _betti(K, lambda rows, n: gf2.rank(_gf2_masks(rows)))


def rational_betti(K: SimplicialComplex) -> tuple:
    """dim_Q H_k(K; Q) for k = 0..dim K, by fraction-free elimination."""
    return _betti(K, lambda rows, n: intlinalg.integer_rank(_int_matrix(rows, n)))


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
    basis = gf2.kernel_basis(_gf2_masks(by_lower.values()), len(cols))
    cycles = [frozenset(cols[i] for i in gf2.indices_from_mask(mask)) for mask in basis]
    return tuple(sorted(cycles, key=lambda c: (len(c), sorted(c))))


class _ParityEquations:
    """The GF(2) rows of delta x = phi, rebuilt on each pass over them, so
    no list of row masks is ever held."""

    def __init__(self, rows, rhs):
        self.rows = rows
        self.rhs = rhs

    def __len__(self):
        return len(self.rhs)

    def __iter__(self):
        return zip(_gf2_masks(self.rows), self.rhs)


def solve_coboundary(phi, degree: int, space, coefficients: str = "gf2"):
    """Find x with (delta x) = phi on the m-cells of a cell complex.

    phi: mapping from m-cells to coefficients (missing cells read as 0).
    space: cell complex exposing cells_of_degree(d) and boundary_rows(d).

    Returns (primitive, witness): `primitive` is a dict on (m-1)-cells when
    solvable, otherwise None and `witness` is a list of m-cells forming a
    cycle on which phi evaluates to 1 (GF(2)) resp. nontrivially.
    """
    m_cells = space.cells_of_degree(degree)
    lower = space.cells_of_degree(degree - 1) if degree > 0 else ()
    rows = space.boundary_rows(degree)
    if coefficients == "gf2":
        eqs = _ParityEquations(rows, [phi.get(cell, 0) % 2 for cell in m_cells])
        x, _ = gf2.solve(eqs, len(lower))
        if x is None:
            _, witness = gf2.solve(eqs, len(lower), want_witness=True)
            return None, [m_cells[i] for i in witness]
        prim = {lower[i]: 1 for i in gf2.indices_from_mask(x)}
        return prim, None
    if coefficients == "int":
        rhs = [phi.get(cell, 0) for cell in m_cells]
        sol = intlinalg.solve_integer(rows, rhs, len(lower))
        if sol is None:
            return None, []
        return {lower[i]: v for i, v in enumerate(sol) if v}, None
    raise ValueError(f"unknown coefficient ring {coefficients!r}")
