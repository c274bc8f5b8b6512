"""Reference oracles, written straight from their definitions on face
tuples: the closed star and the full subcomplex, which `raagdim` reads
neither of (the star/link search recurses on `complexes.link`; the tests
check `link`, `join` and the minus copy of OL against them), and the
minimal missing clique and the maximal faces, which the tests check
`is_flag` and `SimplicialComplex.maximal_faces` against.
"""

from __future__ import annotations

from itertools import combinations

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


def _size_then_ranks(K: SimplicialComplex):
    rk = K.rank
    return lambda f: (len(f), [rk[v] for v in f])


def minimal_missing_clique(K: SimplicialComplex) -> tuple | None:
    """The least vertex set, by size, then rank tuple, whose pairs are all
    edges of K but which is not a face of K; None when K is flag.  Tries
    every vertex subset of the least size that has one."""
    edges = {frozenset(f) for f in K.faces if len(f) == 2}
    for size in range(1, len(K.vertices) + 1):
        missing = [c for c in combinations(K.vertices, size)
                   if c not in K.faces and all(frozenset(p) in edges for p in combinations(c, 2))]
        if missing:
            return min(missing, key=_size_then_ranks(K))
    return None


def maximal_faces(K: SimplicialComplex) -> tuple:
    """The faces of K with no face of K as a strict superset, by size, then
    rank tuple."""
    out = [f for f in K.faces if not any(set(f) < set(g) for g in K.faces)]
    return tuple(sorted(out, key=_size_then_ranks(K)))
