"""Exact simplicial homology over GF(2) and over the rationals.

Homology is reduced throughout (the augmentation lives in degree -1), so
the Betti numbers of a point are all zero and b0 counts components minus
one.  Rational ranks come from fraction-free integer elimination.

The coboundary solver works on any finite cell complex presented through
the `cells + signed boundary rows` interface (an object with
``cells_of_degree(d)`` and ``boundary_rows(d)``, one row of sorted
``(lower cell id, coeff)`` pairs per d-cell, ids indexing
``cells_of_degree(d - 1)``), which is how the quotient pair complexes plug
in.
"""

from __future__ import annotations

from . import gf2, intlinalg
from .complexes import SimplicialComplex


def simplex_boundary(face: tuple):
    """Signed facets of an oriented simplex; vertices assumed rank-sorted."""
    if len(face) == 1:
        return []
    return [(face[:i] + face[i + 1 :], (-1) ** i) for i in range(len(face))]


def boundary_gf2_rows(K: SimplicialComplex, k: int):
    """Rows of the reduced degree-k boundary matrix over GF(2).

    Rows are indexed by (k-1)-faces (the one augmentation row when k == 0),
    columns by k-faces; returned as int bitmasks.
    """
    cols = K.faces_of_dim(k)
    if k == 0:
        return [gf2.mask_from_indices(range(len(cols)))], cols
    rows_idx = {f: i for i, f in enumerate(K.faces_of_dim(k - 1))}
    rows = [0] * len(rows_idx)
    for j, f in enumerate(cols):
        for sub, _sign in simplex_boundary(f):
            rows[rows_idx[sub]] ^= 1 << j
    return rows, cols


def boundary_int_matrix(K: SimplicialComplex, k: int):
    """Reduced integer boundary matrix in degree k (rows: (k-1)-faces, or
    the augmentation row when k == 0; cols: k-faces)."""
    cols = K.faces_of_dim(k)
    if k == 0:
        return [[1] * len(cols)], cols
    rows_f = K.faces_of_dim(k - 1)
    rows_idx = {f: i for i, f in enumerate(rows_f)}
    mat = [[0] * len(cols) for _ in rows_f]
    for j, f in enumerate(cols):
        for sub, sign in simplex_boundary(f):
            mat[rows_idx[sub]][j] = sign
    return mat, cols


def mod2_betti(K: SimplicialComplex) -> tuple:
    """dim H_k(K; Z/2) for k = 0..dim K."""
    if K.dim < 0:
        return ()
    ranks = []
    for k in range(K.dim + 2):
        rows, cols = boundary_gf2_rows(K, k)
        ranks.append(gf2.rank(rows) if cols else 0)
    out = []
    for k in range(K.dim + 1):
        n_k = len(K.faces_of_dim(k))
        out.append(n_k - ranks[k] - ranks[k + 1])
    return tuple(out)


def rational_betti(K: SimplicialComplex) -> tuple:
    """dim_Q H_k(K; Q) for k = 0..dim K, by fraction-free elimination."""
    if K.dim < 0:
        return ()
    ranks = []
    for k in range(K.dim + 2):
        mat, cols = boundary_int_matrix(K, k)
        ranks.append(intlinalg.integer_rank(mat) if (mat and cols) else 0)
    out = []
    for k in range(K.dim + 1):
        n_k = len(K.faces_of_dim(k))
        out.append(n_k - ranks[k] - ranks[k + 1])
    return tuple(out)


def cycle_space(K: SimplicialComplex, k: int) -> tuple:
    """Basis of the GF(2) cycle space Z_k, each cycle a frozenset of k-faces.

    Degree 0 uses the reduced convention (a 0-cycle has evenly many
    vertices), matching the reduced homology used everywhere else.
    """
    if k < 0 or k > K.dim:
        return ()
    rows, cols = boundary_gf2_rows(K, k)
    basis = gf2.kernel_basis(rows, len(cols))
    out = []
    for mask in basis:
        out.append(frozenset(cols[i] for i in gf2.indices_from_mask(mask)))
    return tuple(sorted(out, key=lambda c: (len(c), sorted(c))))


def is_cycle(K: SimplicialComplex, chain, degree: int) -> bool:
    """GF(2) cycle test, reduced in degree 0."""
    if degree == 0:
        return len(chain) % 2 == 0
    acc: set = set()
    for f in chain:
        for sub, _sign in simplex_boundary(f):
            acc.symmetric_difference_update({sub})
    return not acc


class _ParityEquations:
    """The GF(2) rows of delta x = phi, rebuilt on each pass over them, so
    no list of row masks is ever held."""

    def __init__(self, rows, rhs):
        self.rows = rows
        self.rhs = rhs

    def __len__(self):
        return len(self.rhs)

    def __iter__(self):
        for row, bit in zip(self.rows, self.rhs):
            mask = 0
            for i, coeff in row:
                if coeff % 2:
                    mask ^= 1 << i
            yield mask, bit


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
        mat = []
        for row in rows:
            dense = [0] * len(lower)
            for i, coeff in row:
                dense[i] += coeff
            mat.append(dense)
        rhs = [phi.get(cell, 0) for cell in m_cells]
        if not mat:
            return ({}, None) if not any(rhs) else (None, [])
        sol = intlinalg.solve_integer(mat, rhs)
        if sol is None:
            return None, []
        return {lower[i]: v for i, v in enumerate(sol) if v}, None
    raise ValueError(f"unknown coefficient ring {coefficients!r}")
