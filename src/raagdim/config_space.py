"""The configuration space of unordered disjoint simplex pairs.

Its cells are unordered pairs {a, b} of disjoint closed simplices of K; the
stored representative puts the simplex with the lower-ranked minimal vertex
first.  It is the quotient of the deleted product, whose ordered cells have
the boundary d(a x b) = da x b + (-1)^dim(a) a x db, by the factor swap,
which acts with the sign (-1)^(dim a * dim b).

ConfigurationSpace works on an index of K.  Every face gets an id (by
dimension, then rank tuple), an int vertex bitmask, so disjointness is
`mask_a & mask_b == 0`, and a row of (facet id, sign) pairs taken from
`homology.boundary_rows`; this facet table is built once.  Each degree is
enumerated once, already in cell order (by the id of a, then of b), with
no sort; a cell's id is its position in `cells_of_degree(d)`.

`boundary_rows(d)` holds the signed boundary of every d-cell as sorted
(lower id, sign) pairs, built once per degree for the coboundary solve and
its re-check.  `boundary(chain)` is the GF(2) boundary of a chain: the
facets {a', b} and {a, b'} of its cells, as face-id pairs, counted mod 2 by
`chain_boundary`, with no enumeration, no signs and no sort of the cells.
`count_cells(d)` counts a degree without building it.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property

from .complexes import SimplicialComplex
from .homology import boundary_rows


def chain_boundary(chain, facets) -> set:
    """GF(2) boundary of a chain: the facets of an odd number of its cells.

    `facets(cell)` lists the facets of one cell, none of them twice.
    """
    odd: set = set()
    for cell in chain:
        odd.symmetric_difference_update(facets(cell))
    return odd


class ConfigurationSpace:
    """Unordered disjoint pairs {sigma, tau}; the quotient cell complex."""

    def __init__(self, K: SimplicialComplex):
        self.K = K
        self._degrees: dict = {}
        self._rows: dict = {}

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

    @cached_property
    def _facets(self) -> list:
        """Each face's facets as (facet id, sign) pairs sorted by id, by face
        id.  Ids run by dimension, so a facet's id is where its dimension
        starts plus its index there.  Unaugmented: a vertex has no facets."""
        spans = self._faces[3]
        facets = [()] * len(self.K.faces_of_dim(0))
        for k in range(1, len(spans)):
            start = spans[k - 1][0]
            facets += [tuple((start + i, sign) for i, sign in row) for row in boundary_rows(self.K, k)]
        return facets

    def _pairs(self, d: int):
        """Face-id pairs (a, b) of the d-cells, in cell order.

        Ids follow dimension, then rank tuple, so cell order is the order of
        the id of a, then of b.  Every b lies in the suffix of its dimension
        whose first vertex ranks above the first vertex of a.
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

    def cell_id(self, cell) -> int | None:
        """Position of the cell {a, b} in cells_of_degree, either half first;
        None when the halves are not disjoint faces of K."""
        a, b = cell
        fid, first = self._face_ids, self._faces[2]
        ga, gb = fid.get(a), fid.get(b)
        if ga is None or gb is None:
            return None
        if first[gb] < first[ga]:
            ga, gb = gb, ga
        return self._degree(len(a) + len(b) - 2)[1].get((ga, gb))

    def boundary_rows(self, d: int) -> tuple:
        """Signed boundary of every d-cell as (lower id, sign) pairs sorted by
        id, one row per cell in cell order; computed once per degree."""
        if d in self._rows:
            return self._rows[d]
        faces, _masks, first, _spans = self._faces
        facets = self._facets
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

    def boundary(self, chain) -> tuple:
        """GF(2) boundary of a chain of cells as stored (lower-ranked first
        vertex first): the cells in the boundary of an odd number of them,
        in cell order.  Enumerates nothing.

        The facets {a', b} and {a, b'} of one cell never coincide, as that
        would need a = b.
        """
        faces, _masks, first, _spans = self._faces
        fid, facets = self._face_ids, self._facets

        def pair_facets(pair):
            ga, gb = pair
            # As in boundary_rows: only a facet of a can put b first.
            return [(sa, gb) if first[sa] < first[gb] else (gb, sa) for sa, _ in facets[ga]] + [
                (ga, sb) for sb, _ in facets[gb]
            ]

        odd = chain_boundary([(fid[a], fid[b]) for a, b in chain], pair_facets)
        return tuple((faces[ga], faces[gb]) for ga, gb in sorted(odd))
