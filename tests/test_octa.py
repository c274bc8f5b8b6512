"""Vertex doubling, the minus copy, and doubling a cycle over a simplex.

A doubled complex has no face set of its own; its face set by definition
(`index_reference.doubled_complex`, the oracle its lifted index is checked
against) is checked here."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from complex_reference import full_subcomplex
from index_reference import doubled_complex
from push_reference import project
from raagdim.complexes import SimplicialComplex, is_flag, join, make_complex, relabeled
from raagdim.homology import cycle_space
from raagdim.octa import MINUS, PLUS, double_over, octahedralize
from raagdim.zoo import ZOO, cycle, points, random_flag, simplex


def brute_doubled_faces(L):
    """Independent oracle: all sign patterns over all faces, by definition."""
    out = set()
    for f in L.faces:
        for signs in product((MINUS, PLUS), repeat=len(f)):
            out.add(tuple((v, s) for v, s in zip(f, signs)))
    return out


def eager_octahedralization(L):
    """The doubled complex built eagerly: the interleaved vertex order and
    every signed lift of every face."""
    verts = tuple(sv for v in L.vertices for sv in ((v, MINUS), (v, PLUS)))
    return SimplicialComplex(vertices=verts, faces=frozenset(brute_doubled_faces(L)))


def test_face_set_is_built_on_first_read_and_matches_the_eager_construction():
    for L in [entry.complex() for entry in ZOO] + [random_flag(7, 0.5, seed) for seed in range(10)]:
        o = octahedralize(L)
        eager = eager_octahedralization(L)
        assert o.rank == eager.rank
        assert "complex" not in vars(o)
        assert o.complex == eager
        assert o.rank == o.complex.rank
        assert o.vertices == o.complex.vertices


def test_octahedralize_edge_is_four_cycle():
    o = octahedralize(simplex(1))
    assert o.complex.face_counts() == (4, 4)
    assert o.complex.dim == 1
    assert is_flag(o.complex).flag


def test_octahedralize_point_doubles():
    o = octahedralize(points(1))
    assert o.complex.face_counts() == (2,)


def test_octahedralize_c4_counts():
    o = octahedralize(cycle(4))
    assert o.complex.face_counts() == (8, 16)


def test_octahedralize_interleaved_vertex_order():
    o = octahedralize(cycle(3))
    base = o.base.vertices
    expect = []
    for v in base:
        expect.extend([(v, MINUS), (v, PLUS)])
    assert o.complex.vertices == tuple(expect)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_face_count_formula_and_definition(seed):
    L = random_flag(6, 0.5, seed)
    o = octahedralize(L)
    assert set(o.complex.faces) == brute_doubled_faces(L)
    for k in range(L.dim + 1):
        expect = sum(2 ** (len(f)) for f in L.faces_of_dim(k))
        assert len(o.complex.faces_of_dim(k)) == expect


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_doubling_preserves_flagness(seed):
    L = random_flag(6, 0.5, seed)
    assert is_flag(octahedralize(L).complex).flag


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_projection_is_dimension_preserving_and_onto(seed):
    L = random_flag(6, 0.45, seed)
    o = octahedralize(L)
    images = set()
    for f in o.complex.faces:
        p = project(f)
        assert len(p) == len(f)
        assert p in L.faces
        images.add(p)
    assert images == set(L.faces)


def test_doubling_commutes_with_join():
    a = cycle(4)
    b = relabeled(points(2), {"p0": "q0", "p1": "q1"})
    both = octahedralize(join(a, b)).complex
    factorwise = join(octahedralize(a).complex, octahedralize(b).complex)
    assert both.vertices == factorwise.vertices
    assert both.faces == factorwise.faces


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_doubling_commutes_with_join_random(seed):
    a = random_flag(4, 0.5, seed)
    b = relabeled(random_flag(3, 0.5, seed + 1), {f"r{i}": f"s{i}" for i in range(3)})
    if a.dim < 0 or b.dim < 0:
        return
    both = octahedralize(join(a, b)).complex
    factorwise = join(octahedralize(a).complex, octahedralize(b).complex)
    assert both.vertices == factorwise.vertices and both.faces == factorwise.faces


def minus_copy(octa):
    """The full subcomplex on the minus vertices."""
    return full_subcomplex(octa.complex, {(v, MINUS) for v in octa.base.vertices})


def test_minus_copy_isomorphic_to_base():
    L = cycle(4)
    mc = minus_copy(octahedralize(L))
    assert {project(f) for f in mc.faces} == set(L.faces)
    assert len(mc.faces) == len(L.faces)


def test_minus_copy_of_point():
    mc = minus_copy(octahedralize(points(1)))
    assert mc.face_counts() == (1,)


# --- doubling a cycle over a simplex ---------------------------------------


def test_double_over_single_edge_gives_four_cycle():
    L = simplex(1)
    o = octahedralize(L)
    m = frozenset({("v0", "v1")})
    d = doubled_complex(double_over(o, m, ("v0", "v1")))
    assert d.face_counts() == (4, 4)
    assert d.faces == o.complex.faces


def test_double_over_c4_counts():
    L = cycle(4)
    o = octahedralize(L)
    m = frozenset(L.faces_of_dim(1))
    d = doubled_complex(double_over(o, m, ("c0", "c1")))
    assert len(d.vertices) == 6
    # Lifts within the allowed signs: 4 over the doubled edge, 2 + 1 + 2
    # over the remaining three edges of the square.
    assert d.face_counts() == (6, 9)


def test_double_over_zero_cycle():
    L = points(2)
    o = octahedralize(L)
    d = doubled_complex(double_over(o, frozenset({("p0",), ("p1",)}), ("p0",)))
    assert d.face_counts() == (3,)


def test_double_over_rejects_bad_input():
    L = cycle(4)
    o = octahedralize(L)
    with pytest.raises(ValueError):
        double_over(o, frozenset(L.faces_of_dim(1)), ("c0", "c2"))  # not a face
    with pytest.raises(ValueError):
        double_over(o, frozenset([("c1", "c2")]), ("c0", "c1"))  # delta outside


def test_double_over_excludes_faces_outside_the_support():
    # Ambient square with one chord: the chord must not leak into the
    # doubled complex when the cycle is just the square.
    L = make_complex(
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]
    )
    o = octahedralize(L)
    m = frozenset({("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")})
    d = doubled_complex(double_over(o, m, ("a", "b")))
    for f in d.faces_of_dim(1):
        assert set(project(f)) != {"a", "c"}
    assert d.face_counts() == (6, 9)


def lift_levels(levels, plus) -> list:
    """Oracle: every level lifted in one pass, each level's lifts sorted on
    their own."""
    return [sorted(t for f in level for t in product(*[(2 * r, 2 * r + 1) if r in plus else (2 * r,) for r in f]))
            for level in levels]


def test_one_level_lift_mapped_over_levels_matches_the_all_levels_lift():
    for L in [entry.complex() for entry in ZOO]:
        o = octahedralize(L)
        assert o.ranked_faces() == lift_levels(L.ranked_faces(), range(len(L.vertices)))
        for k in range(L.dim + 1):
            for cyc in cycle_space(L, k)[:1]:
                for delta in dict.fromkeys([min(cyc), max(cyc)]):
                    doubled = double_over(o, cyc, delta)
                    rk = L.rank
                    support = [{tuple(rk[v] for v in f) for s in cyc for f in combinations(s, r)}
                               for r in range(1, k + 2)]
                    assert doubled.cycle_ranks == [tuple(rk[v] for v in f) for f in doubled.cycle]
                    assert doubled.delta_ranks == tuple(rk[v] for v in delta)
                    assert doubled.ranked_faces() == lift_levels(support, {rk[v] for v in delta})
