"""Octahedralization: doubling every vertex of a complex into a signed pair.

A signed vertex is the tuple (base_label, sign) with sign in {-1, +1}.
The vertex order on the doubled complex interleaves the base order:

    v0-, v0+, v1-, v1+, ..., vn-, vn+

and nothing downstream is allowed to use any other order, because the
meshing cocycles read it.  `Octahedralization` reads the order and its
ranks off the base, and builds the doubled face set only when `complex`
is first read.  `analyze`, `verify` and the lemma suite never read it:
the certificate search, `double_over` and the certificate check read the
order alone, and OL's configuration space lifts OL's faces from the base
as rank tuples (`ranked_faces`) and counts its cells on the base.  Only
`raagdim octahedralize`, which writes OL out, and the tests, as an
oracle, read `complex`.  Projection onto
the base forgets the sign; `minus_lift(project(face))` is a face's minus
copy, the relabelling that the push to the product with the minus copy
applies to every half, read by face id from
`ConfigurationSpace.minus_ids` of the complex that holds the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .complexes import SimplicialComplex, make_complex

MINUS = -1
PLUS = +1


def project(face: tuple) -> tuple:
    """Base simplex under the sign-forgetting projection."""
    return tuple([v for v, _s in face])


def signed_lift(face: tuple, signs) -> tuple:
    return tuple((v, s) for v, s in zip(face, signs))


def minus_lift(face: tuple) -> tuple:
    return tuple([(v, MINUS) for v in face])


@dataclass(frozen=True)
class Octahedralization:
    """The doubled complex of a base, its face set built on first read."""

    base: SimplicialComplex

    @cached_property
    def vertices(self) -> tuple:
        return tuple(sv for v in self.base.vertices for sv in ((v, MINUS), (v, PLUS)))

    @cached_property
    def rank(self) -> dict:
        return {sv: i for i, sv in enumerate(self.vertices)}

    @cached_property
    def complex(self) -> SimplicialComplex:
        """A set of signed vertices spans a face exactly when its bases are
        distinct and span a face of the base."""
        faces = frozenset(signed_lift(f, signs) for f in self.base.faces
                          for signs in product((MINUS, PLUS), repeat=len(f)))
        return SimplicialComplex(vertices=self.vertices, faces=faces)

    def ranked_faces(self) -> list:
        """The faces as rank tuples, one sorted list per dimension, lifted
        from the base without building `complex`: (v, s) ranks 2 r(v) + 1
        for s = PLUS and 2 r(v) for MINUS, so a base face with ranks
        (r0, .., rk) lifts to the 2^(k+1) tuples (2 r0 + e0, .., 2 rk + ek).
        Sorted, each list is the rank-tuple order of `faces_of_dim`."""
        rk = self.base.rank
        out = []
        for k in range(self.base.dim + 1):
            level = [t for f in self.base.faces_of_dim(k) for t in product(*[(2 * rk[v], 2 * rk[v] + 1) for v in f])]
            level.sort()
            out.append(level)
        return out

    def lifts(self, face: tuple) -> tuple:
        """All signed lifts of a base face, in sign-pattern order."""
        return tuple(signed_lift(face, signs) for signs in product((MINUS, PLUS), repeat=len(face)))


def octahedralize(L: SimplicialComplex) -> Octahedralization:
    """Double the vertices of L; the doubled face set is built on first read."""
    return Octahedralization(base=L)


@dataclass(frozen=True)
class DoubledComplex:
    """A cycle support doubled over one of its simplices.

    complex: full subcomplex of the octahedralized support on the minus
    copy of the cycle plus both lifts of the chosen simplex, kept with the
    cycle, the simplex and the octahedralization it was built from.
    """

    complex: SimplicialComplex
    cycle: frozenset
    delta: tuple
    octa: Octahedralization

    @property
    def degree(self) -> int:
        return len(self.delta) - 1


def double_over(octa: Octahedralization, cycle, delta) -> DoubledComplex:
    """Build the doubled complex for a GF(2) cycle and a simplex in it.

    `cycle` is a set of k-simplices of the base carrying coefficient 1;
    `delta` must be one of them.  Faces of the result are the signed lifts
    of faces of the chain's support whose plus vertices all lie over
    `delta`.  Cycle-ness of the chain is the caller's business (the
    certificate paths check it); the doubling itself is purely structural.
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

    support = make_complex(sorted(cycle), vertex_order=L.vertices)
    delta_set = set(delta)
    faces = set()
    for f in support.faces:
        options = [((v, MINUS), (v, PLUS)) if v in delta_set else ((v, MINUS),) for v in f]
        for lift in product(*options):
            faces.add(lift)
    doubled = SimplicialComplex(
        vertices=tuple(sv for sv in octa.vertices if (sv,) in faces),
        faces=frozenset(faces),
    )
    return DoubledComplex(complex=doubled, cycle=cycle, delta=delta, octa=octa)
