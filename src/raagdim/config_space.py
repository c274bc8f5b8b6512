"""The configuration space of unordered disjoint simplex pairs.

Its cells are unordered pairs {a, b} of disjoint closed simplices of K; the
stored representative puts the simplex with the lower-ranked minimal vertex
first.  It is the quotient of the deleted product, whose ordered cells have
the boundary d(a x b) = da x b + (-1)^dim(a) a x db, by the factor swap,
which acts with the sign (-1)^(dim a * dim b).

ConfigurationSpace works on an index of K.  Every face gets an id (by
dimension, then rank tuple), an int vertex bitmask, so disjointness is
`mask_a & mask_b == 0`, and its facet ids, built once straight from the
face ids (drop each vertex, in id order).  Each degree is enumerated
once, as face-id pairs (a, b) already in cell order (by the id of a, then
of b), with no sort; `indexed_cells(d)` hands them out, and
`cells_of_degree(d)`, uncached, turns them into pairs of faces.

A cell has one name: its key a * F + b (`cell_key`, read back by
`key_cell`), from the face ids (a, b) in stored order, F the number of
faces.  The key increases strictly in cell order.  The facets {a', b}
and {a, b'} of a cell are read off the facet table as keys, by one
first-vertex argument (`_facet_rows`): a stored cell has a's first vertex
below b's, so every facet of a that keeps that vertex stays first, with
key a' * F + b, and only the one that drops it can swap; every facet of
b starts at or after b's first vertex, so never comes first.
`boundary(pairs)` reads a chain as the face-id pairs of its cells and
counts their facets mod 2 by `chain_boundary`, with no enumeration, no
signs and no sort of the cells.  `facet_keys(d)` lists the facet keys of
every d-cell, the rows of the GF(2) coboundary solve and its re-check,
which the solve holds as its pivot rows without a copy;
`signed_facet_keys(d)` puts the signs, read off the dimensions, on those
rows, the one copy of the sign rule, and serves the integer solve and
re-check.  So no solve, over either ring, builds a cell of
degree d or d - 1.  `count_cells(d)` counts a degree by popcounts over
one face bitset per vertex, without enumerating it.  For a complex on
signed vertices, `minus_ids` is the projection table that the push to
the product with the minus copy reads: each face's minus copy, by id.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property, reduce
from operator import or_

from .complexes import SimplicialComplex
from .octa import minus_lift, project


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
        self._counts: dict = {}
        self._keys: dict = {}
        self._signed: dict = {}

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

    @property
    def faces(self) -> list:
        """The faces of K by id."""
        return self._faces[0]

    @cached_property
    def face_ids(self) -> dict:
        """Face -> id."""
        return {f: g for g, f in enumerate(self._faces[0])}

    @cached_property
    def minus_ids(self) -> list:
        """The projection table of a complex on signed vertices (label, sign)
        that holds the minus copy `minus_lift(project(f))` of each face f (OL
        and every doubled complex do): by face id, the id of that copy."""
        fid = self.face_ids
        return [fid[minus_lift(project(f))] for f in self._faces[0]]

    @cached_property
    def _facet_ids(self) -> list:
        """Each face's facet ids by face id, in id order: dropping the last
        vertex first, as a lower rank tuple has a lower id.  Unaugmented: a
        vertex has no facets."""
        fid = self.face_ids
        return [tuple([fid[f[:i] + f[i + 1 :]] for i in range(len(f) - 1, -1, -1)]) if len(f) > 1 else ()
                for f in self._faces[0]]

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

    def _degree(self, d: int) -> tuple:
        """The face-id pairs of the d-cells in cell order, enumerated once."""
        if d not in self._degrees:
            self._degrees[d] = tuple(self._pairs(d))
        return self._degrees[d]

    def cells_of_degree(self, d: int) -> tuple:
        """The d-cells in cell order, as pairs of faces; built on every read."""
        faces = self._faces[0]
        return tuple([(faces[ga], faces[gb]) for ga, gb in self._degree(d)])

    def indexed_cells(self, d: int) -> tuple:
        """The faces by id, and the face-id pairs (a, b) of the d-cells in cell order."""
        return self._faces[0], self._degree(d)

    @cached_property
    def _holders(self) -> list:
        """Per dimension, per vertex: the bitset of the dimension's faces
        holding the vertex, bit p for its p-th face."""
        faces, _masks, _first, spans = self._faces
        out = []
        for start, stop, _ in spans:
            bits = {v: bytearray((stop - start) // 8 + 1) for v in self.K.vertices}
            for p, f in enumerate(faces[start:stop]):
                for v in f:
                    bits[v][p >> 3] |= 1 << (p & 7)
            out.append({v: int.from_bytes(b, "little") for v, b in bits.items()})
        return out

    def count_cells(self, d: int) -> int:
        """Exact number of d-cells, counted once and without enumerating
        them: in each dimension split a face a pairs with the faces of its
        first-vertex suffix (as in `_pairs`) that hold none of its vertices."""
        if d not in self._counts:
            faces, _masks, first, spans = self._faces
            top, total = len(spans) - 1, 0
            for i in range(max(0, d - top), min(d, top) + 1):
                (a_start, a_stop, _), (b_start, b_stop, b_first) = spans[i], spans[d - i]
                holders, everything = self._holders[d - i], (1 << (b_stop - b_start)) - 1
                for ga in range(a_start, a_stop):
                    s = bisect_right(b_first, first[ga])
                    meet = reduce(or_, map(holders.__getitem__, faces[ga]))
                    total += ((everything >> s << s) & ~meet).bit_count()
            self._counts[d] = total
        return self._counts[d]

    def cell_key(self, cell) -> int | None:
        """Key a * F + b of the cell {a, b} in stored order, either half
        first, as in facet_keys; None when a half is not a face of K.  It
        does not check that the halves are disjoint."""
        a, b = cell
        fid, first = self.face_ids, self._faces[2]
        ga, gb = fid.get(a), fid.get(b)
        if ga is None or gb is None:
            return None
        if first[gb] < first[ga]:
            ga, gb = gb, ga
        return ga * len(fid) + gb

    def key_cell(self, key: int) -> tuple:
        """The cell with the given key, as stored."""
        faces = self._faces[0]
        ga, gb = divmod(key, len(faces))
        return faces[ga], faces[gb]

    def _facet_rows(self, pairs):
        """The keys of the facets {a', b}, then {a, b'}, of each cell (a, b)
        of `pairs`, each facet in stored order; one list per cell.

        The one copy of the swap rule: of a's facets, in id order, only the
        last drops a's first vertex, so only it can put b first (the module
        docstring has the argument).  The two kinds never coincide, as that
        would need a = b.  What a alone fixes is built once per run of cells
        that share a, as a degree's cells do in cell order."""
        faces, _masks, first, _spans = self._faces
        facet_ids, F = self._facet_ids, len(faces)
        prev = None
        for ga, gb in pairs:
            if ga != prev:
                prev, ids, aF = ga, facet_ids[ga], ga * F
                if ids:
                    keep, drop = [sa * F for sa in ids[:-1]], ids[-1]
                    drop_first, dropF = first[drop], drop * F
            if ids:
                row = [k + gb for k in keep]
                row.append(dropF + gb if drop_first < first[gb] else gb * F + drop)
                row += [aF + sb for sb in facet_ids[gb]]
            else:
                row = [aF + sb for sb in facet_ids[gb]]
            yield row

    def facet_keys(self, d: int) -> tuple:
        """Unsigned boundary of every d-cell as a list of facet keys, one list
        per cell in cell order; computed once per degree."""
        if d not in self._keys:
            self._keys[d] = tuple(self._facet_rows(self._degree(d)))
        return self._keys[d]

    def signed_facet_keys(self, d: int) -> tuple:
        """Signed boundary of every d-cell: each row of `facet_keys(d)` with
        the signs of its facets, as a (keys, signs) pair; computed once per
        degree.

        The j-th facet of an n-face (n > 0) drops vertex n - j, sign
        (-1)^(n - j), so the signs depend on the dimension alone; a facet of
        b carries (-1)^dim(a) on top, and a facet a' of a stored after b (its
        key in b's block) the swap sign (-1)^(dim(a') * dim(b)).
        """
        if d not in self._signed:
            faces, F = self._faces[0], len(self._faces[0])
            dim = [len(f) - 1 for f in faces]
            unswapped: dict = {}  # (dim a, dim b) -> signs of the facets of a, then of b
            rows = []
            for (ga, gb), keys in zip(self._degree(d), self.facet_keys(d)):
                da, db = dim[ga], dim[gb]
                signs = unswapped.get((da, db))
                if signs is None:
                    signs = unswapped[da, db] = tuple([(-1) ** (da - j) for j in range(da + 1) if da] +
                                                      [(-1) ** (da + db - j) for j in range(db + 1) if db])
                if (da - 1) * db % 2:
                    signs = tuple([-s if j <= da and key // F == gb else s
                                   for j, (key, s) in enumerate(zip(keys, signs))])
                rows.append((keys, signs))
            self._signed[d] = tuple(rows)
        return self._signed[d]

    def boundary(self, pairs) -> tuple:
        """GF(2) boundary of a chain given by the face-id pairs (a, b) of its
        cells, in stored order: the keys of the cells in the boundary of an
        odd number of them, in cell order.  Enumerates nothing.
        `chain_boundary` asks for the facets of each cell once, in chain
        order, so they are read off one pass of `_facet_rows`."""
        rows = self._facet_rows(pairs)
        return tuple(sorted(chain_boundary(pairs, lambda _pair: next(rows))))
