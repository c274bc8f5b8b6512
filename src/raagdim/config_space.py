"""The configuration space of unordered disjoint simplex pairs.

Its cells are unordered pairs {a, b} of disjoint closed simplices of K; the
stored representative puts the simplex with the lower-ranked minimal vertex
first.  It is the quotient of the deleted product, whose ordered cells have
the boundary d(a x b) = da x b + (-1)^dim(a) a x db, by the factor swap,
which acts with the sign (-1)^(dim a * dim b).

ConfigurationSpace works on an index of K, all in ints, read off
`K.ranked_faces()` (every complex type answers it).  Every face gets an id
in the face order `complexes` owns, its rank tuple, an int vertex bitmask,
so disjointness is `mask_a & mask_b == 0` and meshing an alternation of
bits (spaced out, bit 2r for rank r, in `spread` for the nonstrict rule),
and its facet ids in the facet order `complexes.facet_ids` owns, through
`rank_ids`, the one dict that names a face by id, on its rank tuple.  Each
degree is enumerated once, `indexed_cells(d)`, as face-id pairs (a, b)
already in cell order (by the id of a, then of b), with no sort;
`cells_of_degree(d)`, uncached, turns them into pairs of faces for the
scripts, the tests and the benchmark's tracer: nothing in the package
reads it.  The faces as vertex tuples are built only on first read, by
what hands out cells (`cells_of_degree`, `key_cell`) or words a failure.

The space of OL or of a doubled complex is built from its base, not from
its face set, which it never builds: `octa` owns the lift, and its
`ranked_faces` are in the face set's id order.  So the index, and with it
the cell order, the keys, every solve and every certificate, are those of
the space on the face set, and a doubled complex's chain can be named in
OL's space, which holds its faces in the same order: the certificate
paths name it in the doubled complex's own space, the lemma suite in
OL's, whose facet ids and minus copies it builds once per complex.  OL's
cells are counted on L without building the index, by the identity

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
strictly in cell order.  The enumeration yields stored pairs, and
`stored_cells` names any other list of disjoint face-id pairs, listed
either half first, the one copy of that rule (`_stored`) that `verify`,
the integer pullback, `cofacets` and `coboundary` read.  The facets
{a', b} and {a, b'} of a cell are read off the facet table as keys, by
one first-vertex argument (`_first_half`):
a stored cell has a's first vertex below b's, so every facet of a that
keeps that vertex stays first, with key a' * F + b, and only the one that
drops it can swap; every facet of b starts at or after b's first vertex,
so never comes first.  `boundary(pairs)` reads a chain as the face-id
pairs of its cells and takes its GF(2) boundary face by face, with no
enumeration, no signs and no row per cell, on int bitmasks: the boundary
is one int per first half x, bit y set for each second half y it has.  As
the facets that keep a's first vertex are first whatever b is, the cells
that share a send all their partners b to each such facet in one XOR of
the partners' mask, and only the facet that drops that vertex needs the
swap rule, one bit per cell; each b's facets then go to a's mask in one
XOR of b's facet mask.  The masks `1 << g` and each face's facet mask are
built once per space, in full, on the first `boundary` call: about F^2/8
bytes of bits, 4 KB at F = 184, 130 KB at F = 1,023, 2 MB at F = 4,095.
`facet_keys(d)` lists the facet keys of every d-cell, built in one pass
of `_facet_rows` on the first read and kept: the one builder of a row.
Its rows serve the integer solve and its re-check, which solve only the
top degree 2k and zip each row with one sign vector
(`obstruction._top_signs`), as there every swap sign is 1, and the GF(2)
solve.  That solve reads each d-cell's largest facet key without its row
(`largest_facet_keys`: the id order puts it at the swapped drop facet or
at b's last facet), builds the degree's rows only when it first reads
one, and finds the d-cells whose row holds a key through `cofacets`:
those of {s, t} are the cells {c, t} and {s, c} for the cofaces c of one
half disjoint from the other, read off the transpose of the facet table.
Its mod-2 re-check takes the coboundary of the primitive by the same
rule, `coboundary(keys)`, but with the cofaces found by a scan of the
facet table itself, so the two share no table.  So no solve, over either
ring, builds a cell of degree d or d - 1.

For a complex on signed vertices, `minus_ids` is the projection table that
the push to the product with the minus copy reads: each face's minus copy,
by id, through `rank_ids`: as every such space is lifted on OL's ranks,
each rank r of the face goes to r & -2, the low bit cleared.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from functools import cached_property

from .complexes import SimplicialComplex, facet_ids
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
        """Each face's facet ids by face id, in the facet order of
        `complexes.facet_ids`, through `rank_ids`.  Unaugmented: a vertex has
        no facets."""
        ranks, spans = self._index[0], self._index[3]
        n = spans[0][1] if spans else 0
        return [()] * n + facet_ids(ranks[n:], self.rank_ids)

    def _pairs(self, d: int) -> list:
        """Face-id pairs (a, b) of the d-cells, in cell order, as one list.

        Ids follow dimension, then rank tuple, so cell order is the order of
        the id of a, then of b.  Every b lies in the suffix of its dimension
        whose first vertex ranks above the first vertex of a.  Appending to
        one list took about 10% less than a yield per cell, and 17% less
        than a list comprehension per first half, over the top degrees of
        the benchmark's `vanishing` complexes (Python 3.11.7, a shared
        2-core Xeon).
        """
        _ranks, masks, first, spans = self._index
        top = len(spans) - 1
        pairs: list = []
        append = pairs.append
        for i in range(max(0, d - top), min(d, top) + 1):
            a_start, a_stop, _ = spans[i]
            b_start, b_stop, b_first = spans[d - i]
            for ga in range(a_start, a_stop):
                ma = masks[ga]
                for gb in range(b_start + bisect_right(b_first, first[ga]), b_stop):
                    if not ma & masks[gb]:
                        append((ga, gb))
        return pairs

    def indexed_cells(self, d: int) -> tuple:
        """The face-id pairs (a, b) of the d-cells in cell order, enumerated
        once."""
        if d not in self._degrees:
            self._degrees[d] = tuple(self._pairs(d))
        return self._degrees[d]

    def cells_of_degree(self, d: int) -> tuple:
        """The d-cells in cell order, as pairs of faces; built on every read."""
        faces = self.faces
        return tuple([(faces[ga], faces[gb]) for ga, gb in self.indexed_cells(d)])

    def count_cells(self, d: int) -> int:
        """Exact number of d-cells, counted once.  On OL's space it is read
        off the base, by the count identity of the module docstring, without
        building OL's faces or index; on any other space it is the length of
        the enumerated degree."""
        if not isinstance(self.K, Octahedralization):
            return len(self.indexed_cells(d))
        if d not in self._counts:
            self._counts[d] = _lifted_pair_count(self.K.base, d)
        return self._counts[d]

    def _stored(self, pairs) -> list:
        """Disjoint face-id pairs listed either half first, each in stored
        order, the half with the lower first rank first."""
        first = self._index[2]
        return [(a, b) if first[a] < first[b] else (b, a) for a, b in pairs]

    def stored_cells(self, pairs) -> tuple:
        """The cells {a, b} of `pairs`, disjoint face-id pairs listed either
        half first, as two lists in the order of `pairs`: their keys and
        their stored pairs (`_stored`)."""
        stored, F = self._stored(pairs), len(self._index[2])
        return [a * F + b for a, b in stored], stored

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
        per cell in cell order; computed once per degree, in one pass of
        `_facet_rows`, and kept: the only rows the package builds."""
        if d not in self._keys:
            self._keys[d] = tuple(self._facet_rows(self.indexed_cells(d)))
        return self._keys[d]

    def largest_facet_keys(self, d: int) -> list:
        """The largest facet key of every d-cell, in cell order (None for a
        cell with no facets), building the degree's rows only when some
        cell has a vertex half.

        Where both halves have facets, a row (`facet_keys`) holds the keys {a', b} led by a facet of a
        or by b, and the keys {a, b'} led by a, the largest with b's last
        facet, as a row of facet ids increases.  Every facet of a has an id
        below a's, a face of lower dimension.  So when the drop facet stays
        first, a * F + last(b) is the largest key; when it swaps behind b,
        b * F + drop is, if b's id is above a's, and a * F + last(b) is
        otherwise.  On equal dimensions, as in the top degree 2k, b's id is
        always above a's, which ranks lower first.  As a's partners b all
        have one dimension, the keys are read a run of cells that share a
        at a time, and b's id lies above a's for every b of a run or none.
        A run with a vertex half reads its rows off `facet_keys(d)`."""
        first = self._index[2]
        facet_ids, F = self._facet_ids, len(first)
        cells = self.indexed_cells(d)
        tops, i = [], 0
        while i < len(cells):
            ga, gb = cells[i]
            j = bisect_left(cells, (ga + 1,), i)
            _, drop, drop_first = self._first_half(ga)
            if drop is None or not facet_ids[gb]:
                tops += [max(row) if row else None for row in self.facet_keys(d)[i:j]]
            else:
                above, aF = gb > ga, ga * F
                tops += [gb * F + drop if above and drop_first > first[gb] else aF + facet_ids[gb][-1]
                         for _, gb in cells[i:j]]
            i = j
        return tops

    @cached_property
    def _coface_ids(self) -> list:
        """The transpose of the facet table: by face id, the ids of the faces
        that have it as a facet, increasing."""
        cofaces: list = [[] for _ in self._facet_ids]
        for g, ids in enumerate(self._facet_ids):
            for s in ids:
                cofaces[s].append(g)
        return cofaces

    def cofacets(self, d: int, key: int) -> list:
        """The positions, in the cell order of degree d, of the d-cells that
        have the (d - 1)-cell `key` as a facet, each once.

        A cofacet of the stored cell (s, t) adds one vertex to one half: it
        is {c, t} for a coface c of s disjoint from t, or {s, c} for a
        coface c of t disjoint from s, and every such pair is a d-cell.  The
        two kinds never coincide, as that would need s = t, and the
        transpose of the facet table lists each coface of a face once, so
        the list is complete and has no repeats.  Each is put in stored
        order by `_stored` and found in the enumerated degree by bisection,
        cell order being the order of the stored pairs."""
        masks, cofaces, cells = self._index[1], self._coface_ids, self.indexed_cells(d)
        s, t = divmod(key, len(masks))
        ms, mt = masks[s], masks[t]
        pairs = [(c, t) for c in cofaces[s] if not masks[c] & mt] + [(s, c) for c in cofaces[t] if not masks[c] & ms]
        return [bisect_left(cells, pair) for pair in self._stored(pairs)]

    def coboundary(self, keys) -> set:
        """GF(2) coboundary of the cochain that is 1 on the cells `keys`, each
        listed once: the stored cells, as face-id pairs, that have an odd
        number of them as facets.

        The cell {c, o} has the facet {h, o} exactly when h is a facet of c
        and o misses c, so each key {s, t} is a facet of the cells {c, t}
        and {s, c} of `cofacets`, each once, and toggling them over the keys
        leaves the coboundary.  The faces c are found by one scan of the
        facet table itself, not of its transpose, which the solve's
        back-substitution reads through `cofacets`: a check that reads this
        shares no table with it."""
        masks = self._index[1]
        partners: dict = {}  # a half of a key -> the other halves it pairs with
        for key in keys:
            s, t = divmod(key, len(masks))
            partners.setdefault(s, []).append(t)
            partners.setdefault(t, []).append(s)
        cells, halves = [], partners.keys()
        for c, ids in enumerate(self._facet_ids):
            if not halves.isdisjoint(ids):
                mc = masks[c]
                cells += [(c, o) for h in halves & ids for o in partners[h] if not mc & masks[o]]
        return {cell for cell, n in Counter(self._stored(cells)).items() if n & 1}

    @cached_property
    def _bit_tables(self) -> tuple:
        """The one-off tables of `boundary`, built in full on its first call:
        `1 << g` by face id g, and each face's facet mask (bit s for each of
        its facet ids s).  Their ints hold about F^2/8 bytes for F faces
        (plus an object header per int): 4 KB at F = 184, 130 KB at
        F = 1,023, 2 MB at F = 4,095."""
        bits = [1 << g for g in range(len(self._facet_ids))]
        return bits, [sum([bits[s] for s in ids]) for ids in self._facet_ids]

    def boundary(self, pairs) -> tuple:
        """GF(2) boundary of a chain given by the face-id pairs (a, b) of its
        cells, each in stored order, the cells in any order (a cell listed
        twice cancels): the keys of the cells in the boundary of an odd
        number of them, in cell order.  Enumerates nothing.

        Taken face by face (the module docstring has why): the cells are
        grouped by a, and each group's set B of partners is reduced mod 2.
        The boundary is held as one int per first half x, bit y set for
        each second half y it has so far, toggled by XOR (`_bit_tables`):
        the mask of B goes to each facet of a that keeps a's first vertex,
        and each b's facet mask to a's.  The facet that drops a's first
        vertex goes first or second for each b by the one swap rule
        (`_first_half`), one bit at a time.  The keys x * F + y are read
        off the set bits, x ascending, then y, so in key order, which is
        cell order."""
        first = self._index[2]
        bits, facet_masks = self._bit_tables
        F = len(first)
        groups: dict = {}
        for ga, gb in pairs:
            group = groups.get(ga)
            if group is None:
                groups[ga] = {gb}
            elif gb in group:
                group.remove(gb)
            else:
                group.add(gb)
        odd = [0] * F  # by first half x, the mask of the second halves it has so far
        for ga, group in groups.items():
            keep, drop, drop_first = self._first_half(ga)
            mask, own = 0, odd[ga]
            for gb in group:
                mask ^= bits[gb]
                own ^= facet_masks[gb]
            odd[ga] = own
            for sa in keep:
                odd[sa] ^= mask
            if drop is not None:
                for gb in group:
                    if drop_first < first[gb]:
                        odd[drop] ^= bits[gb]
                    else:
                        odd[gb] ^= bits[drop]
        keys = []
        for x, ys in enumerate(odd):
            while ys:
                low = ys & -ys
                keys.append(x * F + low.bit_length() - 1)
                ys ^= low
        return tuple(keys)
