"""Complex construction and flag operations."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from complex_reference import full_subcomplex, star
from raagdim.complexes import (
    flag_completion,
    is_flag,
    join,
    link,
    make_complex,
    relabeled,
    skeleton,
)
from raagdim.zoo import cycle, random_flag, simplex


def brute_cliques(vertices, edges):
    """Independent clique oracle: test every vertex subset directly."""
    adj = {frozenset(e) for e in edges}
    out = []
    for r in range(1, len(vertices) + 1):
        for sub in combinations(vertices, r):
            if all(frozenset((u, v)) in adj for u, v in combinations(sub, 2)):
                out.append(frozenset(sub))
    return set(out)


def test_from_maximal_c4():
    K = make_complex([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    assert len(K.vertices) == 4
    assert K.face_counts() == (4, 4)
    assert K.dim == 1


def test_from_maximal_full_triangle():
    K = make_complex([("a", "b", "c")])
    assert K.face_counts() == (3, 3, 1)
    assert ("a", "c") in K


def test_from_maximal_point_and_duplicate_error():
    assert make_complex([("a",)]).face_counts() == (1,)
    with pytest.raises(ValueError):
        make_complex([("a", "a")])


def test_vertex_order_first_appearance_and_override():
    K = make_complex([("b", "a"), ("c", "a")])
    assert K.vertices == ("b", "a", "c")
    K2 = make_complex([("b", "a"), ("c", "a")], vertex_order=("a", "b", "c"))
    assert K2.vertices == ("a", "b", "c")
    assert ("a", "b") in K2.faces


def test_empty_complex_dimension():
    assert make_complex([]).dim == -1


def test_flag_completion_c4_adds_nothing():
    K = flag_completion("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    assert K.dim == 1
    assert K.face_counts() == (4, 4)


def test_flag_completion_k4_is_tetrahedron():
    K = flag_completion("abcd", list(combinations("abcd", 2)))
    assert K.dim == 3
    assert K.face_counts() == (4, 6, 4, 1)


def test_flag_completion_octahedron_graph_matches_clique_oracle():
    # K_{2,2,2}: all edges except the three diagonal pairs.
    verts = ["a", "A", "b", "B", "c", "C"]
    opposite = {"a": "A", "A": "a", "b": "B", "B": "b", "c": "C", "C": "c"}
    edges = [(u, v) for u, v in combinations(verts, 2) if opposite[u] != v]
    K = flag_completion(verts, edges)
    assert K.face_counts() == (6, 12, 8)
    assert K.dim == 2  # no tetrahedra
    assert {frozenset(f) for f in K.faces} == brute_cliques(verts, edges)


@given(st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_flag_completion_is_flag(seed):
    K = random_flag(7, 0.45, seed)
    assert is_flag(K).flag


def test_is_flag_witness_empty_triangle():
    K = make_complex([("a", "b"), ("b", "c"), ("a", "c")])
    w = is_flag(K)
    assert not w.flag
    assert set(w.missing_clique) == {"a", "b", "c"}


def test_is_flag_simplex_and_c4():
    assert is_flag(simplex(3)).flag
    assert is_flag(cycle(4)).flag


def test_link_star_join_basics():
    c4 = cycle(4)
    lk = link(c4, ("c0",))
    assert lk.face_counts() == (2,)
    stv = star(c4, ("c0",))
    assert stv.face_counts() == (3, 2)  # path of length 2
    two = make_complex([("x",), ("y",)])
    two2 = make_complex([("u",), ("v",)])
    j = join(two, two2)
    assert j.face_counts() == (4, 4)
    assert is_flag(j).flag
    with pytest.raises(ValueError):
        link(c4, ("c0", "c2"))


def test_join_vertex_order_and_disjointness():
    a = make_complex([("x", "y")])
    b = make_complex([("z",)])
    assert join(a, b).vertices == ("x", "y", "z")
    with pytest.raises(ValueError):
        join(a, make_complex([("x",)]))


def test_skeleton_and_full_subcomplex():
    s3 = simplex(3)
    sk = skeleton(s3, 1)
    assert sk.face_counts() == (4, 6)
    sub = full_subcomplex(s3, {"v0", "v1"})
    assert sub.face_counts() == (2, 1)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_star_equals_link_join_simplex(seed):
    K = random_flag(6, 0.5, seed)
    for f in sorted(K.faces):
        lk = link(K, f)
        st_direct = star(K, f)
        simp = full_subcomplex(K, set(f))
        joined = join(lk, simp)
        assert {frozenset(x) for x in joined.faces} == {frozenset(x) for x in st_direct.faces}


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_operations_commute_with_order_preserving_relabel(seed):
    K = random_flag(6, 0.5, seed)
    mapping = {v: f"z{i}" for i, v in enumerate(K.vertices)}
    R = relabeled(K, mapping)
    assert skeleton(R, 1).faces == relabeled(skeleton(K, 1), mapping).faces
    for v in K.vertices:
        assert link(R, (mapping[v],)).faces == relabeled(link(K, (v,)), mapping).faces
        assert star(R, (mapping[v],)).faces == relabeled(star(K, (v,)), mapping).faces
