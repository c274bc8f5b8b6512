"""Octahedralization: doubling every vertex of a complex into a signed pair.

A signed vertex is the tuple (base_label, sign) with sign in {-1, +1}.
The vertex order on the doubled complex interleaves the base order:

    v0-, v0+, v1-, v1+, ..., vn-, vn+

and nothing downstream is allowed to use any other order, because the
meshing cocycles read it.  This module owns the lift: `lift_ranks`, the one
lifting rule, lifts one list of base rank tuples to OL's ranks.  OL's
`ranked_faces` and a doubled complex's map it over their base levels, and
the covering chain, the product chain and the integer route lift their
faces with it, a minus copy being the lift with no plus rank.  A
`DoubledComplex`, the support of a cycle doubled over one of its
simplices, keeps only the cycle, the simplex and OL, and builds the base
rank tuples of the cycle and of delta once (`cycle_ranks`,
`delta_ranks`), which every lift of it reads; it has no face set.
`Octahedralization` reads the order and its ranks off the base, and builds
the doubled face set, its `ranked_faces` read through `vertices`, only
when `complex` is first read: by `raagdim octahedralize`, by
`scripts/moment_oracle_sweep.py` and by the tests' oracles.  The
configuration space of OL and of a doubled complex reads the lifted
`ranked_faces`, and names a face by its rank tuple or its id
(`ConfigurationSpace.rank_ids`), not by its vertex tuple.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, product
from typing import NamedTuple

from .complexes import SimplicialComplex

MINUS = -1
PLUS = +1


def lift_ranks(faces, plus) -> list:
    """The lifts of base faces, given by their rank tuples, as rank tuples in
    OL's vertex order, in one sorted list.

    (v, s) ranks 2 r(v) + 1 for s = PLUS and 2 r(v) for MINUS, so a base
    face with ranks (r0, .., rk) lifts to the tuples (2 r0 + e0, .., 2 rk +
    ek), with ei = 1 allowed only for ri in `plus`.  Sorted with no key,
    the lifts of one dimension's faces are in the rank-tuple order of the
    signed complex's own `faces_of_dim`: its vertex order is a suborder of
    OL's."""
    lifted = [t for f in faces for t in product(*[(2 * r, 2 * r + 1) if r in plus else (2 * r,) for r in f])]
    lifted.sort()
    return lifted


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
        return [lift_ranks(level, range(len(self.base.vertices))) for level in self.base.ranked_faces()]


def octahedralize(L: SimplicialComplex) -> Octahedralization:
    """Double the vertices of L; the doubled face set is built on first read."""
    return Octahedralization(base=L)


# DoubledComplex's fields, subclassed as `_ComplexFields` is.
class _DoubledFields(NamedTuple):
    cycle: frozenset
    delta: tuple
    octa: Octahedralization


class DoubledComplex(_DoubledFields):
    """A cycle support doubled over one of its simplices: the full
    subcomplex of the octahedralized support on the minus copy of the cycle
    plus both lifts of the chosen simplex.  Kept as the cycle, the simplex
    and OL, with no face set: `ConfigurationSpace(doubled)` lifts its
    index from the support (`ranked_faces`), and OL's space holds its
    faces too, with the same order."""

    @cached_property
    def cycle_ranks(self) -> list:
        """The base rank tuples of the cycle's simplices, built once."""
        rk = self.octa.base.rank
        return [tuple([rk[v] for v in f]) for f in self.cycle]

    @cached_property
    def delta_ranks(self) -> tuple:
        """The base rank tuple of delta, built once."""
        rk = self.octa.base.rank
        return tuple([rk[v] for v in self.delta])

    @property
    def vertices(self) -> tuple:
        """OL's vertex order, which `ranked_faces` ranks."""
        return self.octa.vertices

    def ranked_faces(self) -> list:
        """The faces as rank tuples, one sorted list per dimension: the
        support's faces (subsets of the cycle's simplices) lifted by
        `lift_ranks` with a plus copy over delta only."""
        support = [set() for _ in self.delta]
        for t in self.cycle_ranks:
            for r, level in enumerate(support, 1):
                level.update(combinations(t, r))
        return [lift_ranks(level, self.delta_ranks) for level in support]


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
