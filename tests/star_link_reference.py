"""Reference oracle: the star/link lower bound without pruning.

Every vertex link is searched to its exact bound, whatever the bound found
so far, and the link is built by the subset test on f + sigma.  Among
equal values the first candidate in the order floor, full simplex,
certificate, vertex links (in vertex order) is kept, the rule that
`raagdim.bounds.vkdim_lower` must reproduce with its pruned search.
"""

from __future__ import annotations

from raagdim.complexes import SimplicialComplex
from raagdim.obstruction import certify_nonvanishing


def link(K: SimplicialComplex, sigma) -> SimplicialComplex:
    s = K.sort_face(sigma)
    if s not in K.faces:
        raise ValueError(f"simplex {sigma!r} is not a face")
    ss = set(s)
    rk = K.rank
    faces = {f for f in K.faces if not (set(f) & ss) and tuple(sorted(f + s, key=rk.__getitem__)) in K.faces}
    verts = tuple(v for v in K.vertices if (v,) in faces)
    return SimplicialComplex(vertices=verts, faces=frozenset(faces))


def _top_certificate(L: SimplicialComplex, floor: int):
    for degree in range(L.dim, -1, -1):
        if 2 * degree <= floor:
            return None
        cert = certify_nonvanishing(L, degree)
        if cert is not None:
            return degree, cert
    return None


def _link_bounds(L: SimplicialComplex, depth: int, cache: dict):
    for v in L.vertices:
        lk = link(L, (v,))
        if lk.dim >= 0:
            sub, why = vkdim_lower(lk, depth, cache)
            yield v, sub, why


def vkdim_lower(L: SimplicialComplex, depth: int = 3, _cache=None):
    """(value, explanation), exact, for a nonempty complex."""
    if _cache is None:
        _cache = {}
    if (L, depth) in _cache:
        return _cache[L, depth]
    if L.dim < 0:
        return None, "empty complex"
    best = (-1, "sphere floor: the doubled vertex pair")
    if L.dim >= 0 and len(L.vertices) == L.dim + 1:
        best = (L.dim - 1, f"octahedral sphere of dimension {L.dim}")
    found = _top_certificate(L, best[0])
    if found is not None:
        best = (2 * found[0], f"covering-chain certificate in degree {found[0]}")
    if depth > 0:
        for v, sub, why in _link_bounds(L, depth - 1, _cache):
            if sub + 1 > best[0]:
                best = (sub + 1, f"star/link at vertex {v!r}: link gives {sub} ({why})")
    _cache[L, depth] = best
    return best
