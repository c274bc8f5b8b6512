"""Exact simplicial homology over GF(2) and over the rationals.

Homology is reduced throughout (the augmentation lives in degree -1), so
the Betti numbers of a point are all zero and b0 counts components minus
one.  Rational ranks come from exact integer elimination: unit pivots on
the sparse rows, then fraction-free elimination of the core they leave.

Simplicial boundaries are read in one format, the `cells + signed boundary
rows` interface: one row of sorted ``(lower cell id, coeff)`` pairs per
d-cell, ids indexing the (d-1)-cells, from `boundary_rows(K, d)`.  Over
GF(2) a row is the set of its ids with an odd coefficient (`_parity_rows`),
eliminated sparsely by `gf2`; over Q, `intlinalg.sparse_rank` reads the
signed rows themselves.  The configuration space plugs into
`solve_coboundary` through ``cells_of_degree(d)`` and its facet-key rows,
read back by ``key_cell``: unsigned (``facet_keys(d)``) over GF(2), signed
(``signed_facet_keys(d)``) over Z, where `intlinalg.solve_integer` reads
them themselves.  Neither ring builds the (d-1)-cells.  The integer solve
is the fallback of the route that solves on L and pulls back
(`obstruction.certify_vanishing`).
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


def solve_coboundary(phi, degree: int, space, coefficients: str = "gf2"):
    """Find x with (delta x) = phi on the m-cells of a cell complex.

    phi: mapping from m-cells to coefficients (missing cells read as 0).
    space: cell complex exposing cells_of_degree(d), key_cell(key) and
    rows of facet keys, which increase strictly in the order of the
    (m-1)-cells: over GF(2) count_cells(d) and facet_keys(d), over Z
    signed_facet_keys(d).  Neither ring builds the (m-1)-cells.

    Returns (primitive, witness): `primitive` is a dict on (m-1)-cells, in
    cell order, when solvable, otherwise None and `witness` is a list of
    m-cells forming a cycle on which phi evaluates to 1 (GF(2)) resp.
    nontrivially.

    For the top cocycle of a configuration space, `certify_vanishing`
    first solves over Z on L and pulls the result back, which builds no
    (m-1)-cell; it comes here over Z only as the fallback, when L's top
    rows leave a core after their unit pivots or some right-hand side on L
    has no integer solution.
    """
    m_cells = space.cells_of_degree(degree)
    if coefficients == "gf2":
        n_lower = space.count_cells(degree - 1) if degree > 0 else 0
        eqs = list(zip(space.facet_keys(degree), [phi.get(cell, 0) % 2 for cell in m_cells]))
        x, _ = gf2.solve(eqs, n_lower)
        if x is None:
            _, witness = gf2.solve(eqs, n_lower, want_witness=True)
            return None, [m_cells[i] for i in witness]
        return {space.key_cell(key): 1 for key in sorted(x)}, None
    if coefficients == "int":
        rows = (zip(keys, signs) for keys, signs in space.signed_facet_keys(degree))
        sol = intlinalg.solve_integer(rows, [phi.get(cell, 0) for cell in m_cells])
        if sol is None:
            return None, []
        return {space.key_cell(key): v for key, v in sorted(sol.items()) if v}, None
    raise ValueError(f"unknown coefficient ring {coefficients!r}")
