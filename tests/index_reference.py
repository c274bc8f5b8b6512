"""Reference oracle: the index of a configuration space, built from the tuple
face set of its complex.

`raagdim.config_space` lifts the index of OL's space from the faces of the
base L and counts OL's cells on L, so OL's tuple face set is never built.
Here every field is built from a complex's face tuples instead (for OL, from
`test_octa.eager_octahedralization`, for a doubled complex from
`doubled_complex`, each its face set by definition, not lifted as
`Octahedralization.complex` is): faces sorted by rank tuple, masks and first
ranks from the vertex ranks, facet and minus ids through a dict on the face
tuples, and each degree's cells by a scan of every pair of faces of the
right dimensions.  The tests compare the two field by field.
"""

from __future__ import annotations

from itertools import product

from push_reference import minus_lift, project
from raagdim.complexes import SimplicialComplex, make_complex
from raagdim.octa import MINUS, PLUS


def doubled_complex(doubled) -> SimplicialComplex:
    """The face set of a doubled complex: the signed lifts of the faces of
    the cycle's support whose plus vertices all lie over delta, on OL's
    vertices in OL's order."""
    support = make_complex(sorted(doubled.cycle), vertex_order=doubled.octa.base.vertices)
    delta = set(doubled.delta)
    faces = set()
    for f in support.faces:
        faces.update(product(*[((v, MINUS), (v, PLUS)) if v in delta else ((v, MINUS),) for v in f]))
    return SimplicialComplex(vertices=tuple(sv for sv in doubled.octa.vertices if (sv,) in faces),
                             faces=frozenset(faces))


def tuple_index(K, rank=None) -> dict:
    """Every field of the index of K's configuration space, by face id, with
    the vertices ranked by `rank` (K's own ranks by default).  A doubled
    complex's space ranks its vertices in OL's order, which its own order
    is a suborder of, so the face order is the same."""
    rk = K.rank if rank is None else rank
    faces = [f for k in range(K.dim + 1) for f in sorted(K.faces_of_dim(k), key=lambda f: [rk[v] for v in f])]
    fid = {f: g for g, f in enumerate(faces)}
    first = [rk[f[0]] for f in faces]
    spans, start = [], 0
    for k in range(K.dim + 1):
        stop = start + len(K.faces_of_dim(k))
        spans.append((start, stop, first[start:stop]))
        start = stop
    return {
        "faces": faces,
        "face_ids": fid,
        "ranks": [tuple(rk[v] for v in f) for f in faces],
        "masks": [sum(1 << rk[v] for v in f) for f in faces],
        "first": first,
        "spans": spans,
        "facet_ids": [tuple(fid[f[:i] + f[i + 1 :]] for i in range(len(f) - 1, -1, -1)) if len(f) > 1 else ()
                      for f in faces],
        "minus_ids": [fid[minus_lift(project(f))] for f in faces],
    }


def scan_cost(index: dict, d: int) -> int:
    """The number of face pairs that `pairs(index, d)` scans."""
    spans = index["spans"]
    return sum((spans[i][1] - spans[i][0]) * (spans[d - i][1] - spans[d - i][0])
               for i in range(len(spans)) if 0 <= d - i < len(spans))


def pairs(index: dict, d: int) -> list:
    """The face-id pairs (a, b) of the d-cells in cell order (by a, then b):
    every disjoint pair of faces whose dimensions sum to d, the half with
    the lower-ranked first vertex first."""
    masks, first, spans = index["masks"], index["first"], index["spans"]
    found = []
    for i in range(len(spans)):
        if 0 <= d - i < len(spans):
            found += [(a, b) for a in range(*spans[i][:2]) for b in range(*spans[d - i][:2])
                      if not masks[a] & masks[b] and first[a] < first[b]]
    return sorted(found)
