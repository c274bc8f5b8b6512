"""Reference oracles: the closed star and the full subcomplex, written
straight from their definitions on face tuples.  `raagdim` reads neither
(the star/link search recurses on `complexes.link`); the tests check
`link`, `join` and the minus copy of OL against them.
"""

from __future__ import annotations

from raagdim.complexes import SimplicialComplex


def star(K: SimplicialComplex, sigma) -> SimplicialComplex:
    """Closed star: all faces of all cofaces of sigma."""
    s = K.sort_face(sigma)
    if s not in K.faces:
        raise ValueError(f"simplex {sigma!r} is not a face")
    rk = K.rank
    faces = {f for f in K.faces if tuple(sorted(set(f) | set(s), key=rk.__getitem__)) in K.faces}
    verts = tuple(v for v in K.vertices if (v,) in faces)
    return SimplicialComplex(vertices=verts, faces=frozenset(faces))


def full_subcomplex(K: SimplicialComplex, vertex_subset) -> SimplicialComplex:
    """The faces of K on vertex_subset."""
    w = set(vertex_subset)
    faces = frozenset(f for f in K.faces if set(f) <= w)
    verts = tuple(v for v in K.vertices if v in w and (v,) in faces)
    return SimplicialComplex(vertices=verts, faces=faces)
