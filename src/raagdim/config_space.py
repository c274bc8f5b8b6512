"""The configuration space of unordered disjoint simplex pairs.

Its cells are unordered pairs {a, b} of disjoint closed simplices of K; the
stored representative puts the simplex with the lower-ranked minimal vertex
first.  It is the quotient of the deleted product, whose ordered cells have
the boundary d(a x b) = da x b + (-1)^dim(a) a x db, by the factor swap,
which acts with the sign (-1)^(dim a * dim b).

ConfigurationSpace works on an index of K, all in ints, read off
`K.ranked_faces()` (every complex type answers it).  Every face gets an id
(by dimension, then rank tuple: the face order `complexes` owns), its rank
tuple, an int vertex bitmask, so disjointness is `mask_a & mask_b == 0`
and meshing an alternation of bits (spaced out, bit 2r for rank r, in
`spread` for the nonstrict rule), and its facet ids, built once through
`rank_ids`, the one dict that names a face by id, on its rank tuple (drop
each vertex, in id order).  Each degree is enumerated once, as face-id
pairs (a, b) already in cell order (by the id of a, then of b), with no
sort; `indexed_cells(d)` hands them out with the rank tuples, which the
moment oracle reads, and `cells_of_degree(d)`, uncached, turns them into
pairs of faces for the scripts, the tests and the benchmark's tracer:
nothing in the package reads it.  The faces as vertex tuples are built
only on first read, from the rank tuples, by what hands out cells
(`cells_of_degree`, `key_cell`) or words a failure.

The space of a complex on signed vertices, OL or a doubled complex, is
built from its base, not from its face set, which it never builds.  A
signed vertex (v, s) ranks 2 r(v) + [s = +], so a face of the base with
ranks (r0, .., rk) lifts to the rank tuples (2 r0 + e0, .., 2 rk + ek),
with a plus copy over every vertex for OL and over delta only for a
doubled complex (`octa.lift_ranks`, the only lifting rule); sorting each
dimension's lifts, int tuples with no key, gives the id order, as a
doubled complex's own vertex order is a suborder of OL's.  So the index,
and with it the cell order, the keys, every solve and every certificate,
are those of the space on the face set.  For the same reason a doubled
complex's chain can be named in OL's space, which holds its faces in the
same order: the certificate paths name it in the doubled complex's own
space, the lemma suite in OL's, whose facet ids and minus copies it
builds once per complex.  OL's cells are counted on L
without building the index, by the identity

    n_d = 1/2 * sum 2^|s u t|   over ordered pairs (s, t) of faces of L
                                with dim s + dim t = d.

Proof: two faces of OL are disjoint exactly when their signs differ on
every vertex of L they share, as signed vertices over distinct vertices of
L are distinct.  So over an ordered pair (s, t) of faces of L lie the
ordered disjoint pairs (a, b) with signs free on s, forced opposite to a's
on s n t and free on t - s: 2^|s| * 2^|t - s| = 2^|s u t| of them, of
dimension dim s + dim t.  A cell {a, b} has a != b, so it is counted once
as (a, b) and once as (b, a).  The size guard of the top solve reads only
this count, so a refusal builds nothing of OL.  On any other space
`count_cells` is the length of the enumerated degree.

A cell has one name: its key a * F + b (read back by `key_cell`), from the
face ids (a, b) in stored order, F the number of faces.  The key increases
strictly in cell order.  The facets {a', b} and {a, b'} of a cell are read
off the facet table as keys, by one first-vertex argument (`_first_half`):
a stored cell has a's first vertex below b's, so every facet of a that
keeps that vertex stays first, with key a' * F + b, and only the one that
drops it can swap; every facet of b starts at or after b's first vertex,
so never comes first.  `boundary(pairs)` reads a chain as the face-id
pairs of its cells and takes its GF(2) boundary face by face, with no
enumeration, no signs and no row per cell: as the facets that keep a's
first vertex are first whatever b is, the cells that share a send all
their partners b to each such facet in one set operation, and only the
facet that drops that vertex needs the swap rule, cell by cell; each b's
facets then go to a's partners, one set operation per cell.
`facet_keys(d)` lists the facet keys of every d-cell, the rows of the
coboundary solves and their re-checks: GF(2) reads them as they are, and
the integer side, which solves only the top degree 2k, zips each with one
sign vector (`obstruction._top_signs`), as there every swap sign is 1.
So no solve, over either ring, builds a cell of degree d or d - 1.

For a complex on signed vertices, `minus_ids` is the projection table that
the push to the product with the minus copy reads: each face's minus copy,
by id, through `rank_ids`: as every such space is lifted on OL's ranks
(above), each rank r of the face goes to r & -2, the low bit cleared.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property

from .complexes import SimplicialComplex
from .octa import DoubledComplex, Octahedralization


def chain_boundary(chain, facets) -> set:
    """GF(2) boundary of a chain: the facets of an odd number of its cells,
    toggled cell by cell (the check that a certificate's M is a cycle).

    `facets(cell)` lists the facets of one cell, none of them twice.
    """
    odd: set = set()
    for cell in chain:
        odd.symmetric_difference_update(facets(cell))
    return odd


def _lifted_pair_count(L: SimplicialComplex, d: int) -> int:
    """The number of d-cells of C(OL), read off L's `ranked_faces`: half
    the sum of 2^|s u t| over the ordered pairs (s, t) of faces of L with
    dim s + dim t = d."""
    masks = [[sum([1 << r for r in t]) for t in level] for level in L.ranked_faces()]
    top, total = L.dim, 0
    for i in range(max(0, d - top), min(d, top) + 1):
        total += sum([1 << (ms | mt).bit_count() for ms in masks[i] for mt in masks[d - i]])
    return total // 2


class ConfigurationSpace:
    """Unordered disjoint pairs {sigma, tau}; the quotient cell complex.

    K is a SimplicialComplex, or a complex on signed vertices (an
    Octahedralization or a DoubledComplex) whose index is lifted from its
    base, so that its face set is never built; OL's cells are also counted
    on its base (see the module docstring)."""

    def __init__(self, K: SimplicialComplex | Octahedralization | DoubledComplex):
        self.K = K
        self._degrees: dict = {}
        self._counts: dict = {}
        self._keys: dict = {}

    @cached_property
    def _index(self):
        """Rank tuples of the faces by id (`K.ranked_faces()` in order), with
        their vertex bitmasks and first ranks, plus each dimension's id range
        and first ranks."""
        by_dim = self.K.ranked_faces()
        ranks = [t for level in by_dim for t in level]
        masks = [sum([1 << r for r in t]) for t in ranks]
        first = [t[0] for t in ranks]
        spans, start = [], 0
        for level in by_dim:
            stop = start + len(level)
            spans.append((start, stop, first[start:stop]))
            start = stop
        return ranks, masks, first, spans

    @property
    def ranks(self) -> list:
        """The rank tuples of the faces of K by id."""
        return self._index[0]

    @property
    def masks(self) -> list:
        """The vertex bitmasks of the faces of K by id (bit r for rank r)."""
        return self._index[1]

    @cached_property
    def spread(self) -> list:
        """The vertex bitmasks spaced out, bit 2r for rank r; built on first read."""
        return [sum([1 << 2 * r for r in t]) for t in self._index[0]]

    def ids_of_dim(self, k: int) -> range:
        """The ids of the k-faces of K."""
        start, stop, _ = self._index[3][k]
        return range(start, stop)

    @cached_property
    def rank_ids(self) -> dict:
        """Rank tuple -> face id: the one dict that names a face of K by id."""
        return {t: g for g, t in enumerate(self._index[0])}

    @cached_property
    def faces(self) -> list:
        """The faces of K by id, as vertex tuples; built on first read."""
        vertices = self.K.vertices
        return [tuple([vertices[r] for r in t]) for t in self._index[0]]

    @cached_property
    def minus_ids(self) -> list:
        """The projection table on faces: by face id, the id of the face's
        minus copy (each vertex (v, s) relabelled (v, MINUS)), each rank r
        read as r & -2 (the module docstring has why)."""
        rid = self.rank_ids
        return [rid[tuple([r & -2 for r in t])] for t in self._index[0]]

    @cached_property
    def _facet_ids(self) -> list:
        """Each face's facet ids by face id, in id order: dropping the last
        vertex first, as a lower rank tuple has a lower id.  Unaugmented: a
        vertex has no facets."""
        rid = self.rank_ids
        return [tuple([rid[t[:i] + t[i + 1 :]] for i in range(len(t) - 1, -1, -1)]) if len(t) > 1 else ()
                for t in self._index[0]]

    def _pairs(self, d: int):
        """Face-id pairs (a, b) of the d-cells, in cell order.

        Ids follow dimension, then rank tuple, so cell order is the order of
        the id of a, then of b.  Every b lies in the suffix of its dimension
        whose first vertex ranks above the first vertex of a.
        """
        _ranks, masks, first, spans = self._index
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
        faces = self.faces
        return tuple([(faces[ga], faces[gb]) for ga, gb in self._degree(d)])

    def indexed_cells(self, d: int) -> tuple:
        """The rank tuples of the faces by id, and the face-id pairs (a, b) of
        the d-cells in cell order."""
        return self._index[0], self._degree(d)

    def count_cells(self, d: int) -> int:
        """Exact number of d-cells, counted once.  On OL's space it is read
        off the base, by the count identity of the module docstring, without
        building OL's faces or index; on any other space it is the length of
        the enumerated degree."""
        if not isinstance(self.K, Octahedralization):
            return len(self._degree(d))
        if d not in self._counts:
            self._counts[d] = _lifted_pair_count(self.K.base, d)
        return self._counts[d]

    def key_cell(self, key: int) -> tuple:
        """The cell with the given key, as stored."""
        faces = self.faces
        ga, gb = divmod(key, len(faces))
        return faces[ga], faces[gb]

    def _first_half(self, ga: int) -> tuple:
        """What the first half a of a stored cell (a, b) fixes of its facets
        {a', b}: the ids of a's facets that keep a's first vertex, which stay
        first whatever b is, then the id and the first rank of the one that
        drops it, which stays first only before a b whose first vertex ranks
        above its own (None, None for a vertex, which has no facets).

        The one copy of the swap rule: of a's facets, in id order, only the
        last drops a's first vertex, so only it can put b first (the module
        docstring has the argument)."""
        ids = self._facet_ids[ga]
        if not ids:
            return (), None, None
        return ids[:-1], ids[-1], self._index[2][ids[-1]]

    def _facet_rows(self, pairs):
        """The keys of the facets {a', b}, then {a, b'}, of each cell (a, b)
        of `pairs`, each facet in stored order; one list per cell.

        The two kinds never coincide, as that would need a = b.  What a alone
        fixes (`_first_half`) is built once per run of cells that share a,
        as a degree's cells do in cell order."""
        first = self._index[2]
        facet_ids, F = self._facet_ids, len(first)
        prev = None
        for ga, gb in pairs:
            if ga != prev:
                prev, aF = ga, ga * F
                keep, drop, drop_first = self._first_half(ga)
                keep = [sa * F for sa in keep]
                if drop is not None:
                    dropF = drop * F
            row = [k + gb for k in keep]
            if drop is not None:
                row.append(dropF + gb if drop_first < first[gb] else gb * F + drop)
            row += [aF + sb for sb in facet_ids[gb]]
            yield row

    def facet_keys(self, d: int) -> tuple:
        """Unsigned boundary of every d-cell as a list of facet keys, one list
        per cell in cell order; computed once per degree."""
        if d not in self._keys:
            self._keys[d] = tuple(self._facet_rows(self._degree(d)))
        return self._keys[d]

    def boundary(self, pairs) -> tuple:
        """GF(2) boundary of a chain given by the face-id pairs (a, b) of its
        cells, each in stored order, the cells in any order (a cell listed
        twice cancels): the keys of the cells in the boundary of an odd
        number of them, in cell order.  Enumerates nothing.

        Taken face by face (the module docstring has why): the cells are
        grouped by a, and each group's set B of partners is reduced mod 2.
        The boundary is held as a set of second halves per first half,
        toggled mod 2: the whole of B goes to the set of each facet of a
        that keeps a's first vertex, and each b's facets go to a's set, one
        set operation per cell.  The facet that drops a's first vertex goes
        first or second for each b by the one swap rule (`_first_half`),
        and those keys are toggled into a set of their own."""
        first = self._index[2]
        facet_ids, F = self._facet_ids, len(first)
        groups: dict = {}
        for ga, gb in pairs:
            group = groups.get(ga)
            if group is None:
                groups[ga] = {gb}
            elif gb in group:
                group.remove(gb)
            else:
                group.add(gb)
        odd: dict = {}  # first half -> the second halves it has so far
        loose: set = set()  # keys of the facets that drop a's first vertex
        for ga, group in groups.items():
            keep, drop, drop_first = self._first_half(ga)
            for sa in keep:
                if sa in odd:
                    odd[sa] ^= group
                else:
                    odd[sa] = set(group)
            if drop is not None:
                dropF = drop * F
                loose.symmetric_difference_update([dropF + gb if drop_first < first[gb] else gb * F + drop
                                                   for gb in group])
            toggle = odd.setdefault(ga, set()).symmetric_difference_update
            for gb in group:
                toggle(facet_ids[gb])
        loose.symmetric_difference_update([x * F + y for x, ys in odd.items() for y in ys])
        return tuple(sorted(loose))
