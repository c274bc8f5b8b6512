"""Octahedralization: doubling every vertex of a complex into a signed pair.

A signed vertex is the tuple (base_label, sign) with sign in {-1, +1}.
The vertex order on the doubled complex interleaves the base order:

    v0-, v0+, v1-, v1+, ..., vn-, vn+

and nothing downstream is allowed to use any other order, because the
meshing cocycles read it.  `lift_ranks` is the one lifting rule, on rank
tuples in OL's order: OL's faces and a doubled complex's (`ranked_faces`),
and the lifts of a base face and its minus copy (the lift with no plus
rank), which `verify` and the integer route read, all come from it.  All
three complex types answer `ranked_faces()`: a base its own face order,
which `complexes` owns, and OL and a doubled complex its lifts.
`Octahedralization` reads the order and its ranks off the base, and builds
the doubled face set, its `ranked_faces` read through `vertices`, only
when `complex` is first read: by `raagdim octahedralize`, which writes OL
out, by `scripts/moment_oracle_sweep.py` and by the tests' oracles.  A
`DoubledComplex`, the support of a cycle doubled over one of its
simplices, keeps only the cycle, the simplex and OL, and has no face set.
`analyze`, `verify` and the lemma suite build neither: the configuration
space of OL and of a doubled complex lifts its faces from the base
(`ranked_faces`), and OL's counts its cells on the base.  A doubled
complex's faces are faces of OL, so the lemma suite names its chains in
OL's space, built once per complex, and builds no doubled complex's space.  Nor do these
paths name a face by its vertex tuple, but by its rank tuple or its id
(`ConfigurationSpace.rank_ids`; `verify` maps a stored half's labels to
ranks by `rank`): face tuples are built only for a certificate's stored
cells, an obstructed witness, the lemma suite's moment oracle and the
wording of a failure.  A face's minus copy, the relabelling that the push
to the product with the minus copy applies to every half, is its rank
tuple with each rank's low bit cleared, read by face id from
`ConfigurationSpace.minus_ids`.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, product
from typing import NamedTuple

from .complexes import SimplicialComplex

MINUS = -1
PLUS = +1


def lift_ranks(levels, plus) -> list:
    """The faces of a complex on signed vertices as rank tuples in OL's
    vertex order, one sorted list per dimension, from its base faces'
    rank tuples (`levels`, one list per dimension).

    (v, s) ranks 2 r(v) + 1 for s = PLUS and 2 r(v) for MINUS, so a base
    face with ranks (r0, .., rk) lifts to the tuples (2 r0 + e0, .., 2 rk +
    ek), with ei = 1 allowed only for ri in `plus`.  Sorted with no key,
    each list is the rank-tuple order of the signed complex's own
    `faces_of_dim`: its vertex order is a suborder of OL's."""
    out = []
    for level in levels:
        lifted = [t for f in level for t in product(*[(2 * r, 2 * r + 1) if r in plus else (2 * r,) for r in f])]
        lifted.sort()
        out.append(lifted)
    return out


# Octahedralization's field, subclassed as `_ComplexFields` is.
class _OctaFields(NamedTuple):
    base: SimplicialComplex


class Octahedralization(_OctaFields):
    """The doubled complex of a base, its face set built on first read."""

    @cached_property
    def vertices(self) -> tuple:
        return tuple(sv for v in self.base.vertices for sv in ((v, MINUS), (v, PLUS)))

    @cached_property
    def rank(self) -> dict:
        return {sv: i for i, sv in enumerate(self.vertices)}

    @cached_property
    def complex(self) -> SimplicialComplex:
        """A set of signed vertices spans a face exactly when its bases are
        distinct and span a face of the base: `ranked_faces` read through
        `vertices`."""
        vs = self.vertices
        faces = frozenset([tuple([vs[r] for r in t]) for level in self.ranked_faces() for t in level])
        return SimplicialComplex(vertices=vs, faces=faces)

    def ranked_faces(self) -> list:
        """The faces as rank tuples, one sorted list per dimension, lifted
        from the base's (`ranked_faces`) by `lift_ranks` with a plus copy
        over every vertex, without building `complex`."""
        return lift_ranks(self.base.ranked_faces(), range(len(self.base.vertices)))


def octahedralize(L: SimplicialComplex) -> Octahedralization:
    """Double the vertices of L; the doubled face set is built on first read."""
    return Octahedralization(base=L)


class DoubledComplex(NamedTuple):
    """A cycle support doubled over one of its simplices: the full
    subcomplex of the octahedralized support on the minus copy of the cycle
    plus both lifts of the chosen simplex.  Kept as the cycle, the simplex
    and OL, with no face set: `ConfigurationSpace(doubled)` lifts its
    index from the support (`ranked_faces`), and OL's space holds its
    faces too, with the same order."""

    cycle: frozenset
    delta: tuple
    octa: Octahedralization

    @property
    def vertices(self) -> tuple:
        """OL's vertex order, which `ranked_faces` ranks."""
        return self.octa.vertices

    def ranked_faces(self) -> list:
        """The faces as rank tuples, one sorted list per dimension: the
        support's faces (subsets of the cycle's simplices) lifted by
        `lift_ranks` with a plus copy over delta only."""
        rk = self.octa.base.rank
        support = [set() for _ in self.delta]
        for f in self.cycle:
            t = tuple([rk[v] for v in f])
            for r, level in enumerate(support, 1):
                level.update(combinations(t, r))
        return lift_ranks(support, {rk[v] for v in self.delta})


def double_over(octa: Octahedralization, cycle, delta) -> DoubledComplex:
    """Check a GF(2) cycle and a simplex in it, and keep them for doubling.

    `cycle` is a set of k-simplices of the base carrying coefficient 1;
    `delta` must be one of them.  Cycle-ness of the chain is the caller's
    business (the certificate paths check it); the doubling itself is
    purely structural, and builds no face set.
    """
    L = octa.base
    cycle = frozenset(L.sort_face(f) for f in cycle)
    delta = L.sort_face(delta)
    if delta not in cycle:
        raise ValueError("the chosen simplex does not lie in the cycle")
    dims = {len(f) for f in cycle}
    if len(dims) != 1:
        raise ValueError("cycle support must be pure of one dimension")
    if not cycle <= L.faces:
        raise ValueError("cycle contains simplices outside the complex")
    return DoubledComplex(cycle=cycle, delta=delta, octa=octa)
