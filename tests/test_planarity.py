"""Brute-force planarity against known graphs and a library cross-check."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from planarity_reference import _paths_between, is_planar, one_skeleton
from raagdim.octa import octahedralize
from raagdim.zoo import cycle, path, tree

networkx = pytest.importorskip("networkx")


def test_known_graphs():
    k5 = list(combinations(range(5), 2))
    assert not is_planar(range(5), k5).planar
    k33 = [(i, j + 3) for i in range(3) for j in range(3)]
    assert not is_planar(range(6), k33).planar
    assert is_planar(range(4), list(combinations(range(4), 2))).planar
    assert is_planar(range(5), k5[:-1]).planar  # K5 minus an edge


def test_petersen_not_planar():
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    result = is_planar(range(10), edges)
    assert not result.planar
    assert result.witness is not None


def test_doubled_trees_are_planar():
    for L in (path(3), path(4), tree(6, 0), tree(7, 3)):
        v, e = one_skeleton(octahedralize(L).complex)
        assert is_planar(v, e).planar


def test_doubled_square_is_k44():
    v, e = one_skeleton(octahedralize(cycle(4)).complex)
    result = is_planar(v, e)
    assert not result.planar


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_matches_library_on_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    p = rng.uniform(0.2, 0.7)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    g = networkx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    expected, _ = networkx.check_planarity(g)
    assert is_planar(range(n), edges).planar == expected


def test_path_search_is_exhaustive():
    # K10 has sum_{j<=8} 8!/(8-j)! = 109,601 simple paths between two
    # vertices, more than any fixed cap small enough to be a shortcut.
    adj = {v: set(range(10)) - {v} for v in range(10)}
    paths = _paths_between(adj, 0, 1, banned=set())
    assert len(paths) == 109601
    assert len(set(paths)) == len(paths)
