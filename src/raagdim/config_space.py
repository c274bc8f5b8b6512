"""The configuration space of unordered disjoint simplex pairs.

An ordered pair (sigma, tau) of disjoint closed simplices is a product
cell with the boundary

    d(sigma x tau) = d(sigma) x tau + (-1)^dim(sigma) sigma x d(tau)

(`pair_cell_boundary`).  The configuration space is the quotient of these
ordered pairs by the factor swap, which acts on an oriented product cell
with the sign (-1)^(dim sigma * dim tau).  Cells of the quotient are
unordered pairs; the stored representative puts the simplex with the
lower-ranked minimal vertex first, and every sign in the quotient boundary
is derived from that single convention.

ConfigurationSpace works on an index of K.  Every face gets an id (by
dimension, then rank tuple) and an int vertex bitmask, so disjointness is
`mask_a & mask_b == 0`.  Each degree is enumerated once, already in cell
order (the order of `cell_key`), with no sort; a cell's id is its position
in `cells_of_degree(d)`.  `boundary_rows(d)` holds the signed boundary of
every d-cell as sorted (lower id, sign) pairs, built once per degree for
the coboundary solve and its re-check.  `count_cells(d)` counts a degree
without building it, and `boundary(cell)` computes one cell's boundary
without enumerating anything.

Chains are plain dicts {cell: int}; GF(2) chains are frozensets of cells.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property

from .complexes import SimplicialComplex
from .homology import boundary_rows, simplex_boundary


def pair_cell_boundary(cell):
    """Signed boundary of an ordered product cell (a, b)."""
    a, b = cell
    out = []
    for sub, sign in simplex_boundary(a):
        out.append(((sub, b), sign))
    flip = (-1) ** (len(a) - 1)
    for sub, sign in simplex_boundary(b):
        out.append(((a, sub), flip * sign))
    return out


def chain_boundary(chain, boundary_fn, mod: int | None = None) -> dict:
    """Boundary of a chain given a per-cell boundary function."""
    items = chain.items() if isinstance(chain, dict) else ((c, 1) for c in chain)
    acc: dict = {}
    for cell, coeff in items:
        for sub, sign in boundary_fn(cell):
            acc[sub] = acc.get(sub, 0) + coeff * sign
    if mod:
        return {c: v % mod for c, v in acc.items() if v % mod}
    return {c: v for c, v in acc.items() if v}


class ConfigurationSpace:
    """Unordered disjoint pairs {sigma, tau}; the quotient cell complex."""

    def __init__(self, K: SimplicialComplex):
        self.K = K
        self._degrees: dict = {}
        self._rows: dict = {}

    def canonical(self, a: tuple, b: tuple):
        """Canonical representative and the sign relating (a, b) to it."""
        rk = self.K.rank
        if rk[a[0]] < rk[b[0]]:
            return (a, b), 1
        return (b, a), (-1) ** ((len(a) - 1) * (len(b) - 1))

    def cell_key(self, cell):
        """Sort key of the cell order; defined on any pair of vertex tuples."""
        rk = self.K.rank
        a, b = cell
        return (len(a), len(b), tuple(rk[v] for v in a), tuple(rk[v] for v in b))

    @cached_property
    def _faces(self):
        """Faces by id (dimension, then rank tuple) with their vertex bitmasks
        and first-vertex ranks, plus each dimension's id range and first
        ranks."""
        rk = self.K.rank
        faces = [f for k in range(self.K.dim + 1) for f in self.K.faces_of_dim(k)]
        masks = [sum(1 << rk[v] for v in f) for f in faces]
        first = [rk[f[0]] for f in faces]
        spans, start = [], 0
        for k in range(self.K.dim + 1):
            stop = start + len(self.K.faces_of_dim(k))
            spans.append((start, stop, first[start:stop]))
            start = stop
        return faces, masks, first, spans

    @cached_property
    def _face_ids(self) -> dict:
        return {f: g for g, f in enumerate(self._faces[0])}

    def _pairs(self, d: int):
        """Face-id pairs (a, b) of the d-cells, in cell order.

        Ids follow dimension, then rank tuple, so ordering by the id of a,
        then of b, is the order of cell_key.  Every b lies in the suffix of
        its dimension whose first vertex ranks above the first vertex of a.
        """
        _faces, masks, first, spans = self._faces
        top = len(spans) - 1
        for i in range(max(0, d - top), min(d, top) + 1):
            a_start, a_stop, _ = spans[i]
            b_start, b_stop, b_first = spans[d - i]
            for ga in range(a_start, a_stop):
                ma = masks[ga]
                for gb in range(b_start + bisect_right(b_first, first[ga]), b_stop):
                    if not ma & masks[gb]:
                        yield ga, gb

    def _degree(self, d: int):
        """The d-cells in cell order and the map from face-id pair to cell id."""
        if d not in self._degrees:
            faces = self._faces[0]
            ids = {pair: i for i, pair in enumerate(self._pairs(d))}
            self._degrees[d] = tuple((faces[ga], faces[gb]) for ga, gb in ids), ids
        return self._degrees[d]

    def cells_of_degree(self, d: int) -> tuple:
        return self._degree(d)[0]

    def count_cells(self, d: int) -> int:
        """Exact number of d-cells, without building them."""
        return sum(1 for _ in self._pairs(d))

    def cell_id(self, cell) -> int:
        """Position of a canonical cell in cells_of_degree."""
        a, b = cell
        fid = self._face_ids
        return self._degree(len(a) + len(b) - 2)[1][fid[a], fid[b]]

    def boundary_rows(self, d: int) -> tuple:
        """Signed boundary of every d-cell as (lower id, sign) pairs sorted by
        id, one row per cell in cell order; computed once per degree."""
        if d in self._rows:
            return self._rows[d]
        faces, _masks, first, spans = self._faces
        # Face ids run by dimension, so a facet's id is where its dimension
        # starts plus its index there.  Unaugmented: a vertex has no facets.
        facets = [()] * len(self.K.faces_of_dim(0))
        for k in range(1, len(spans)):
            start = spans[k - 1][0]
            facets += [[(start + i, sign) for i, sign in row] for row in boundary_rows(self.K, k)]
        lower = self._degree(d - 1)[1]
        rows = []
        for ga, gb in self._degree(d)[1]:
            row = []
            # Dropping the first vertex of a can put b first.
            for sa, sign in facets[ga]:
                if first[sa] < first[gb]:
                    row.append((lower[sa, gb], sign))
                else:
                    swap = (-1) ** ((len(faces[sa]) - 1) * (len(faces[gb]) - 1))
                    row.append((lower[gb, sa], swap * sign))
            # Every facet of b starts at or after b's first vertex.
            flip = (-1) ** (len(faces[ga]) - 1)
            for sb, sign in facets[gb]:
                row.append((lower[ga, sb], flip * sign))
            row.sort()
            rows.append(tuple(row))
        self._rows[d] = rows = tuple(rows)
        return rows

    def boundary(self, cell):
        """Signed boundary of one cell, sorted by cell_key; enumerates nothing.

        The terms never merge: {a', b} = {a, b'} would need a = b.
        """
        out = []
        for (a, b), sign in pair_cell_boundary(cell):
            rep, flip = self.canonical(a, b)
            out.append((rep, sign * flip))
        out.sort(key=lambda term: self.cell_key(term[0]))
        return tuple(out)
