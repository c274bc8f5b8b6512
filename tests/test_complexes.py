"""Complex construction and flag operations."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from complex_reference import full_subcomplex, maximal_faces, minimal_missing_clique, star
from raagdim import complexes, zoo
from raagdim.complexes import (
    flag_completion,
    is_flag,
    join,
    link,
    make_complex,
    relabeled,
    skeleton,
)
from raagdim.octa import octahedralize
from raagdim.zoo import ZOO, cycle, random_flag, simplex


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
    assert ("a", "c") in K.faces


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


@st.composite
def shuffled_complexes(draw, n_max):
    """The closure of random simplices on the labels 0..n-1, flag or not,
    under a shuffled vertex order."""
    n = draw(st.integers(1, n_max))
    order = draw(st.permutations(range(n)))
    simplices = draw(st.lists(st.sets(st.sampled_from(order), min_size=1, max_size=4), min_size=1, max_size=10))
    return make_complex([tuple(f) for f in simplices] + [(v,) for v in order], vertex_order=order)


@st.composite
def hollow_complexes(draw):
    """Every (s-1)-subset of n vertices and some of the s-subsets, under a
    shuffled vertex order: each s-subset left out is a missing clique, all
    of one size."""
    n, size = draw(st.integers(4, 7)), draw(st.integers(3, 4))
    labels = [f"v{i}" for i in range(n)]
    tops = draw(st.sets(st.sampled_from(list(combinations(labels, size)))))
    return make_complex(list(combinations(labels, size - 1)) + list(tops), vertex_order=draw(st.permutations(labels)))


@given(st.one_of(shuffled_complexes(7), hollow_complexes(),
                 shuffled_complexes(5).map(lambda L: octahedralize(L).complex)))
@settings(max_examples=150, deadline=None)
def test_flag_witness_and_maximal_faces_match_the_oracles(K):
    assert is_flag(K).missing_clique == minimal_missing_clique(K)
    assert K.maximal_faces() == maximal_faces(K)


def test_ranked_faces_are_the_faces_of_each_dimension_read_through_rank():
    for entry in ZOO:
        K = entry.complex()
        rk = K.rank
        assert K.ranked_faces() == tuple(tuple(tuple(rk[v] for v in f) for f in K.faces_of_dim(k))
                                         for k in range(K.dim + 1)), entry.name
        assert K.ranked_faces() is K.ranked_faces()


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


def test_the_face_budget_is_checked_before_the_faces_are_built(monkeypatch):
    monkeypatch.setattr(complexes, "MAX_FACES", 20)
    # Exactly at the cap builds: a path on 10 vertices and one more vertex.
    assert len(make_complex([(i, i + 1) for i in range(9)] + [(10,)]).faces) == 20
    assert len(join(make_complex([(0, 1)]), make_complex([(2,), (3,)])).faces) == 11

    def unbuilt(*args):
        raise AssertionError("a face was built past the cap")

    with monkeypatch.context() as m:
        m.setattr(complexes, "combinations", unbuilt)
        with pytest.raises(ValueError, match=r"a simplex on 5 vertices has 2\^5 - 1 faces, more than 20"):
            make_complex([tuple(range(5))])
    with pytest.raises(ValueError, match="the face closure has 21 faces so far, more than 20"):
        make_complex([(i, i + 1) for i in range(10)])
    with monkeypatch.context() as m:
        m.setattr(complexes, "product", unbuilt)
        # 3 faces and 5: (3 + 1) * (5 + 1) - 1 = 23.
        with pytest.raises(ValueError, match="the join would have 23 faces, more than 20"):
            join(make_complex([(0, 1)]), make_complex([(2, 3), (4,), (5,)]))
    # The clique count runs as the cliques come, so K_10's 1,023 are never
    # all listed.
    pulled = []
    cliques = complexes._all_cliques

    def counted(*args):
        for clique in cliques(*args):
            pulled.append(clique)
            yield clique

    monkeypatch.setattr(complexes, "_all_cliques", counted)
    with pytest.raises(ValueError, match="the flag complex has 21 cliques so far, more than 20"):
        flag_completion(range(10), list(combinations(range(10), 2)))
    assert len(pulled) == 21


def test_zoo_generators_refuse_past_the_face_budget_before_building(monkeypatch):
    # The count each generator's arguments imply is checked before any list
    # is built: at the cap the complex is built, one past it nothing is.
    monkeypatch.setattr(complexes, "MAX_FACES", 20)
    at_cap = {"simplex": (3, 15), "points": (20, 20), "cycle": (10, 20), "path": (10, 19), "tree": (10, 19),
              "octahedron_boundary": (1, 8), "random_flag": (5, 5)}
    for name, (value, faces) in at_cap.items():
        # random_flag(5, 0.0, 0) draws all 10 candidate edges and keeps none.
        args = (value, 0.0, 0) if name == "random_flag" else (value,)
        assert len(zoo.GENERATORS[name](*args).faces) == faces, name

    def unbuilt(*args, **kwargs):
        raise AssertionError("a generator built past the face budget")

    for target, attr in ((zoo, "make_complex"), (zoo, "flag_completion"), (zoo, "join"), (zoo.random, "Random")):
        monkeypatch.setattr(target, attr, unbuilt)
    past = [("simplex", "k", 4), ("points", "n", 21), ("cycle", "n", 11), ("path", "n", 11), ("tree", "n", 11),
            ("octahedron_boundary", "k", 2), ("random_flag", "n", 6)]
    huge = [("simplex", "k", 10**9), ("points", "n", 99999999999), ("cycle", "n", 10**9), ("path", "n", 10**9),
            ("tree", "n", 10**9), ("octahedron_boundary", "k", 10**9), ("random_flag", "n", 10**6)]
    for name, param, value in past + huge:
        args = (value, 0.5, 0) if name == "random_flag" else (value,)
        with pytest.raises(ValueError, match=rf"^{name} with {param} = {value}: .*, more than 20$"):
            zoo.GENERATORS[name](*args)
    with pytest.raises(ValueError, match=r"^cycle with n = 1000000000: it has 2n = 2000000000 faces, more than 20$"):
        zoo.build_named("cone(cycle(1000000000))")


def test_cliques_are_listed_as_they_are_built():
    # Each clique reads the adjacency once, as it is built; a reader that
    # stops early has built no more cliques than it read.
    class Counted(dict):
        reads = 0

        def __getitem__(self, v):
            Counted.reads += 1
            return dict.__getitem__(self, v)

    gen = complexes._all_cliques(tuple(range(10)), Counted({v: set(range(10)) - {v} for v in range(10)}))
    assert [next(gen) for _ in range(12)] == [(v,) for v in range(10)] + [(0, 1), (0, 2)]
    assert Counted.reads == 12
    assert len(list(gen)) == 2**10 - 1 - 12


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
