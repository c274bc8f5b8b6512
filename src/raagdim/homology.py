"""Exact simplicial homology over GF(2) and over the rationals.

Homology is reduced throughout (the augmentation lives in degree -1), so
the Betti numbers of a point are all zero and b0 counts components minus
one.  Each degree's mod-2 rank r2(d) is eliminated once per complex and
kept on it, so both Betti tuples read one `gf2.rank` per degree.  Rational
ranks rQ(d) are read off those wherever they are pinned: rQ(d) = r2(d)
whenever the mod-2 Betti number in degree d - 1 or d is 0 (in degree -1 it
is, on a nonempty complex).  Proof: rQ >= r2, as a minor that is odd is a
nonzero integer; and b^Q_k = f_k - rQ(k) - rQ(k + 1) >= 0, so b^2_k = 0
forces rQ(k) = r2(k) and rQ(k + 1) = r2(k + 1).  Only a degree left
unpinned is eliminated over Z: unit pivots on the sparse rows, then
fraction-free elimination of the core they leave.

Simplicial boundaries are read off `K.facet_rows(d)`, built once per
degree in the face order and the facet order `complexes` owns (the last
vertex dropped first, `complexes.facet_ids`), so each row's ids increase
with no sort, and the j-th facet has sign (-1)^(d - j),
`complexes.facet_signs(d)`, the one copy of the sign rule.  Every
coefficient is +-1, so the GF(2) rows are the id rows as they are,
eliminated sparsely by `gf2`; over Q, `intlinalg.sparse_rank` reads the
signed rows, `boundary_rows(K, d)`.
The configuration space plugs into the GF(2) `solve_coboundary` as a
`gf2.System`: each d-cell's largest facet key, read without its row
(``largest_facet_keys(d)``), each cell's facet-key row read off
``facet_keys(d)``, which builds the whole degree in one pass when the
elimination or the back-substitution first reads a row, and the d-cells
whose row holds a key (``cofacets``), which give the parities of the rows
left unread.  So a solve that reads no row builds none (none of 9,600 on
cone(suspension(cycle(8)))), with the pivots, primitive and witness of
the elimination that reads every row.
The cochain phi is a sequence in the cell order, and a primitive comes
back as the keys of its support, so the solve builds no cell, of degree
d or d-1.  Over Z, `obstruction.certify_vanishing`
solves on L and pulls back, and falls back to its `_integer_solve` on the
space's top facet keys, each zipped with one sign vector.
"""

from __future__ import annotations

from functools import partial

from . import gf2, intlinalg
from .complexes import SimplicialComplex, facet_signs


def boundary_rows(K: SimplicialComplex, d: int) -> tuple:
    """Signed boundary of every d-face as (facet id, sign) pairs by
    increasing id: `K.facet_rows(d)` with `facet_signs(d)`."""
    signs = facet_signs(d)
    return tuple(tuple(zip(row, signs, strict=True)) for row in K.facet_rows(d))


def _mod2_ranks(K: SimplicialComplex) -> tuple:
    """r2(d), the GF(2) rank of the degree-d boundary, for d = 0..dim K,
    then 0 (no face has degree dim + 1): one `gf2.rank` per degree, kept
    on K."""
    table = K._mod2_rank_table
    if not table:
        table += [gf2.rank(K.facet_rows(d)) for d in range(K.dim + 1)] + [0]
    return tuple(table)


def _betti(K: SimplicialComplex, ranks) -> tuple:
    """Reduced Betti numbers for k = 0..dim K, given ranks[d] of the
    degree-d boundary for d = 0..dim K + 1."""
    return tuple([len(K.faces_of_dim(k)) - ranks[k] - ranks[k + 1] for k in range(K.dim + 1)])


def mod2_betti(K: SimplicialComplex) -> tuple:
    """dim H_k(K; Z/2) for k = 0..dim K."""
    return _betti(K, _mod2_ranks(K))


def rational_betti(K: SimplicialComplex) -> tuple:
    """dim_Q H_k(K; Q) for k = 0..dim K: the mod-2 ranks where they pin the
    rational ones (the module docstring has the rule), exact integer
    elimination in each degree d they leave open, b^2_(d-1) and b^2_d both
    nonzero (never d = 0, as b^2_(-1) = 0)."""
    ranks = list(_mod2_ranks(K))
    betti2 = _betti(K, ranks)
    for d in range(1, K.dim + 1):
        if betti2[d - 1] and betti2[d]:
            ranks[d] = intlinalg.sparse_rank(boundary_rows(K, d))
    return _betti(K, ranks)


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
    for j, row in enumerate(K.facet_rows(k)):
        for i in row:
            by_lower.setdefault(i, []).append(j)
    basis = gf2.kernel_basis(by_lower.values(), len(cols))
    cycles = [frozenset(cols[i] for i in x) for x in basis]
    return tuple(sorted(cycles, key=lambda c: (len(c), sorted(c))))


def solve_coboundary(phi, degree: int, space):
    """Find x with (delta x) = phi over GF(2) on the m-cells of a cell
    complex.

    phi: the values on the m-cells, a sequence in cell order, one per cell
    (a ValueError when its length differs).  space: cell complex exposing
    count_cells(d), indexed_cells(d), largest_facet_keys(d), facet_keys(d)
    and cofacets(d, key), the keys of the (m-1)-cells increasing strictly
    in their cell order.  Builds no cell, and the rows only when the
    elimination or the back-substitution first reads one: the solve reads
    a `gf2.System` of each row's largest key, the i-th row as
    `facet_keys(m)[i]` and the holders of a key, its cofacets, read for
    the parities of the rows it has not read.

    Returns (primitive, witness) from one `gf2.solve`: `primitive` is the
    support of x, the keys of (m-1)-cells where it is 1, as a tuple in key
    order (cell order), when solvable, otherwise None.  The witness of an
    unsolvable system is the ascending list of the indices of m-cells
    forming a cycle on which phi evaluates to 1.
    """
    cells = space.indexed_cells(degree)
    if len(phi) != len(cells):
        raise ValueError(f"phi has {len(phi)} values for {len(cells)} cells of degree {degree}")
    system = gf2.System(space.largest_facet_keys(degree), phi, lambda i: space.facet_keys(degree)[i],
                        partial(space.cofacets, degree))
    n_lower = space.count_cells(degree - 1) if degree > 0 else 0
    x, witness = gf2.solve(system, n_lower)
    return (None, witness) if x is None else (tuple(sorted(x)), None)
