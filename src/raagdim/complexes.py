"""Finite abstract simplicial complexes with a fixed total vertex order.

A complex stores every nonempty face as a tuple of vertex labels sorted by
rank (position in the vertex order).  Keeping the full face set makes
membership tests O(1), which the pair-cell constructions downstream depend
on; everything here runs at desk scale.

This module owns the face order: by dimension, then rank tuple.
`faces_of_dim(k)` lists the k-faces in it and `ranked_faces()` their rank
tuples, built once, which every index reads or lifts (OL's and a doubled
complex's), and `facet_rows(d)` the facet ids of the d-faces, built once
per degree, which every simplicial boundary reads (`homology` and
`verify`'s cycle check), with the signs `facet_signs(d)` over Z.
`maximal_faces` and `is_flag` read their answers off that order, with no
sort of their own.  The constructors that can grow a complex past its
input, `make_complex`, `flag_completion` and `join`, refuse to build more
than `MAX_FACES` faces.

The vertex order is part of the data, not a per-call argument.  The meshing
cocycles read it, so two complexes with the same faces but different orders
are different objects.  All types are immutable values and all operations
are pure functions.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, product
from typing import NamedTuple

# The most faces `make_complex`, `flag_completion` and `join` build; past
# it they raise a ValueError naming the count.  A simplex on n vertices has
# 2^n - 1 faces, and a cone, suspension or join at depth d at least 2^d.
MAX_FACES = 10**6

# SimplicialComplex's fields; subclassing them gives it the `__dict__` that
# its cached properties fill.
class _ComplexFields(NamedTuple):
    vertices: tuple
    faces: frozenset


class SimplicialComplex(_ComplexFields):
    """Face-closed set of simplices over an ordered vertex set.

    vertices: labels in rank order (rank = index, contiguous from 0).
    faces: every nonempty face, each a tuple sorted by rank.

    The empty complex has dimension -1.  The empty simplex is never stored.
    """

    @cached_property
    def rank(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def dim(self) -> int:
        return max((len(f) for f in self.faces), default=0) - 1

    @cached_property
    def _by_dim(self) -> dict:
        buckets: dict = {}
        for f in self.faces:
            buckets.setdefault(len(f) - 1, []).append(f)
        rk = self.rank
        return {
            d: tuple(sorted(fs, key=lambda f: tuple(rk[v] for v in f)))
            for d, fs in buckets.items()
        }

    def faces_of_dim(self, k: int) -> tuple:
        return self._by_dim.get(k, ())

    @cached_property
    def _ranked(self) -> tuple:
        rk = self.rank
        return tuple([tuple([tuple([rk[v] for v in f]) for f in self.faces_of_dim(k)]) for k in range(self.dim + 1)])

    def ranked_faces(self) -> tuple:
        """The rank tuples of `faces_of_dim(k)`, one tuple per dimension k."""
        return self._ranked

    @cached_property
    def _facet_table(self) -> dict:
        return {}

    def facet_rows(self, d: int) -> tuple:
        """The facet ids of every d-face, one row per face of
        `faces_of_dim(d)`, ids indexing `faces_of_dim(d - 1)`; built once per
        degree (`_facet_rows`)."""
        table = self._facet_table
        if d not in table:
            table[d] = _facet_rows(self._ranked, d)
        return table[d]

    def sort_face(self, vertices) -> tuple:
        rk = self.rank
        vs = tuple(vertices)
        for v in vs:
            if v not in rk:
                raise ValueError(f"unknown vertex {v!r}")
        if len(set(vs)) != len(vs):
            raise ValueError(f"repeated vertex in {vs!r}")
        return tuple(sorted(vs, key=rk.__getitem__))

    def maximal_faces(self) -> tuple:
        """The faces that are a facet of no face, in the face order."""
        covered = {f[:i] + f[i + 1 :] for f in self.faces for i in range(len(f))}
        return tuple([f for k in range(self.dim + 1) for f in self.faces_of_dim(k) if f not in covered])

    def face_counts(self) -> tuple:
        return tuple(len(self.faces_of_dim(k)) for k in range(self.dim + 1))


def facet_signs(d: int) -> tuple:
    """The sign (-1)^(d - j) of the j-th facet of a d-face, in the order of
    `facet_rows` (the j-th drops vertex d - j): the one copy of the sign
    rule."""
    return tuple([(-1) ** (d - j) for j in range(d + 1)])


def _facet_rows(ranked: tuple, d: int) -> tuple:
    """The facet ids of the d-faces, read off their rank tuples `ranked[d]`,
    dropping the last vertex first, so each row's ids increase.  In degree 0
    every vertex's row is the single augmentation cell (id 0), so homology
    read from these rows is reduced."""
    if d == 0:
        return ((0,),) * len(ranked[0])
    ids = {t: i for i, t in enumerate(ranked[d - 1])}
    return tuple([tuple([ids[t[:i] + t[i + 1 :]] for i in range(d, -1, -1)]) for t in ranked[d]])


def make_complex(faces, vertex_order=None) -> SimplicialComplex:
    """Build the face closure of `faces` with a given or derived vertex order.

    Vertex order defaults to first appearance in the input.
    """
    faces = [tuple(f) for f in faces]
    for f in faces:
        if len(set(f)) != len(f):
            raise ValueError(f"repeated vertex within simplex {f!r}")
    if vertex_order is None:
        seen: dict = {}
        for f in faces:
            for v in f:
                seen.setdefault(v, None)
        vertex_order = tuple(seen)
    else:
        vertex_order = tuple(vertex_order)
        if len(set(vertex_order)) != len(vertex_order):
            raise ValueError("repeated vertex in vertex_order")
        missing = {v for f in faces for v in f} - set(vertex_order)
        if missing:
            raise ValueError(f"vertex_order is missing {sorted(map(repr, missing))}")
    rk = {v: i for i, v in enumerate(vertex_order)}
    closed: set = set()
    for f in faces:
        if (1 << len(f)) - 1 > MAX_FACES:
            raise ValueError(f"a simplex on {len(f)} vertices has 2^{len(f)} - 1 faces, more than {MAX_FACES}")
        # Combinations of a rank-sorted simplex come out rank-sorted.
        f = tuple(sorted(f, key=rk.__getitem__))
        for r in range(1, len(f) + 1):
            closed.update(combinations(f, r))
        if len(closed) > MAX_FACES:
            raise ValueError(f"the face closure has {len(closed)} faces so far, more than {MAX_FACES}")
    used = sorted({v for f in closed for v in f}, key=rk.__getitem__)
    return SimplicialComplex(vertices=tuple(used), faces=frozenset(closed))


def from_graph(vertices, edges) -> SimplicialComplex:
    """The graph itself as a 1-dimensional complex (no clique filling)."""
    faces = [(v,) for v in vertices] + [tuple(e) for e in edges]
    return make_complex(faces, vertex_order=tuple(vertices))


def _all_cliques(vertex_order, adjacency):
    """Yield every clique (as a rank-sorted tuple), smaller cliques first,
    then in rank-tuple order.

    Standard max-vertex extension, so each clique appears exactly once.
    """
    rank = {v: i for i, v in enumerate(vertex_order)}
    level = [((v,), {u for u in adjacency[v] if rank[u] > rank[v]}) for v in vertex_order]
    yield from (clique for clique, _ in level)
    while level:
        # Each clique is yielded as it is built, so a reader that stops
        # early has built no more than it read.
        nxt = []
        for clique, cands in level:
            for u in sorted(cands, key=rank.__getitem__):
                nxt.append((clique + (u,), {w for w in cands & adjacency[u] if rank[w] > rank[u]}))
                yield nxt[-1][0]
        level = nxt


def _adjacency(vertices, edges) -> dict:
    adj = {v: set() for v in vertices}
    for e in edges:
        u, v = tuple(e)
        if u == v:
            raise ValueError(f"loop edge {e!r}")
        if u not in adj or v not in adj:
            raise ValueError(f"edge {e!r} uses an unknown vertex")
        adj[u].add(v)
        adj[v].add(u)
    return adj


def flag_completion(vertices, edges) -> SimplicialComplex:
    """The flag complex on a simple graph: faces are the cliques."""
    vertices = tuple(vertices)
    if len(set(vertices)) != len(vertices):
        raise ValueError(f"repeated vertex in {vertices!r}")
    adj = _adjacency(vertices, edges)
    faces = []
    for clique in _all_cliques(vertices, adj):
        faces.append(clique)
        if len(faces) > MAX_FACES:
            raise ValueError(f"the flag complex has {len(faces)} cliques so far, more than {MAX_FACES}")
    return SimplicialComplex(vertices=vertices, faces=frozenset(faces))


class FlagWitness(NamedTuple):
    """Result of a flag test: `missing_clique` is a minimal non-face whose
    1-skeleton is complete, present exactly when the complex is not flag."""

    missing_clique: tuple | None

    @property
    def flag(self) -> bool:
        return self.missing_clique is None


def is_flag(K: SimplicialComplex) -> FlagWitness:
    """The first clique of K's 1-skeleton that is not a face, if any: as the
    cliques come smallest first, then in rank-tuple order, it is minimal."""
    adj = _adjacency(K.vertices, K.faces_of_dim(1))
    return FlagWitness(next((c for c in _all_cliques(K.vertices, adj) if c not in K.faces), None))


def link(K: SimplicialComplex, sigma) -> SimplicialComplex:
    """{f - sigma : f a face of K strictly containing sigma}; dropping
    sigma's vertices keeps each face in rank order."""
    s = K.sort_face(sigma)
    if s not in K.faces:
        raise ValueError(f"simplex {sigma!r} is not a face")
    ss = set(s)
    n = len(s)
    faces = {tuple(v for v in f if v not in ss) for f in K.faces if len(f) > n and ss.issubset(f)}
    verts = tuple(v for v in K.vertices if (v,) in faces)
    return SimplicialComplex(vertices=verts, faces=frozenset(faces))


def join_face_count(a: int, b: int) -> int:
    """The faces of a join of complexes of a and b faces, refused past `MAX_FACES`."""
    count = (a + 1) * (b + 1) - 1
    if count > MAX_FACES:
        raise ValueError(f"the join would have {count} faces, more than {MAX_FACES}")
    return count


def join(A: SimplicialComplex, B: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; vertex order is A's order followed by B's."""
    if set(A.vertices) & set(B.vertices):
        raise ValueError("join factors must have disjoint vertex sets")
    join_face_count(len(A.faces), len(B.faces))
    faces = set(A.faces) | set(B.faces)
    for fa, fb in product(A.faces, B.faces):
        faces.add(fa + fb)
    return SimplicialComplex(vertices=A.vertices + B.vertices, faces=frozenset(faces))


def skeleton(K: SimplicialComplex, k: int) -> SimplicialComplex:
    faces = frozenset(f for f in K.faces if len(f) - 1 <= k)
    verts = tuple(v for v in K.vertices if (v,) in faces)
    return SimplicialComplex(vertices=verts, faces=faces)


def relabeled(K: SimplicialComplex, mapping) -> SimplicialComplex:
    """Rename vertices through `mapping`, preserving the order."""
    verts = tuple(mapping[v] for v in K.vertices)
    if len(set(verts)) != len(verts):
        raise ValueError("relabeling is not injective")
    faces = frozenset(tuple(mapping[v] for v in f) for f in K.faces)
    return SimplicialComplex(vertices=verts, faces=faces)
