"""Deleted products, the unordered quotient, and the transfer map."""

import random
from itertools import combinations

from hypothesis import given, settings, strategies as st

from raagdim.config_space import ConfigurationSpace, chain_boundary, pair_cell_boundary
from raagdim.octa import octahedralize
from raagdim.zoo import cycle, points, random_flag


class DeletedProduct:
    """Oracle: ordered disjoint pairs of simplices of K, as a cell complex
    with the product boundary; the configuration space is its quotient."""

    def __init__(self, K):
        self.K = K

    def cells_of_degree(self, d: int):
        cells = []
        for i in range(d + 1):
            j = d - i
            for a in self.K.faces_of_dim(i):
                sa = set(a)
                for b in self.K.faces_of_dim(j):
                    if not (sa & set(b)):
                        cells.append((a, b))
        return tuple(cells)

    @staticmethod
    def boundary(cell):
        return pair_cell_boundary(cell)


def transfer(chain, space) -> dict:
    """Oracle: lift a quotient chain back to the ordered deleted product.

    Each unordered cell maps to the sum of its two ordered representatives,
    the swapped one carrying the orientation sign of the swap.
    """
    items = chain.items() if isinstance(chain, dict) else ((c, 1) for c in chain)
    out: dict = {}
    for (a, b), coeff in items:
        sign = (-1) ** ((len(a) - 1) * (len(b) - 1))
        out[(a, b)] = out.get((a, b), 0) + coeff
        out[(b, a)] = out.get((b, a), 0) + sign * coeff
    return {c: v for c, v in out.items() if v}


def brute_ordered_disjoint_pairs(K, d):
    """Oracle: scan all ordered face pairs for disjointness and degree."""
    out = []
    for a in sorted(K.faces):
        for b in sorted(K.faces):
            if (len(a) - 1) + (len(b) - 1) == d and not set(a) & set(b):
                out.append((a, b))
    return out


def test_deleted_product_two_points():
    K = points(2)
    dp = DeletedProduct(K)
    assert len(dp.cells_of_degree(0)) == 2
    assert dp.cells_of_degree(1) == ()


def test_deleted_product_three_points():
    assert len(DeletedProduct(points(3)).cells_of_degree(0)) == 6


def test_deleted_product_c4_top_cells():
    K = cycle(4)
    dp = DeletedProduct(K)
    cells = dp.cells_of_degree(2)
    assert len(cells) == 4  # ordered pairs of the two opposite edge pairs
    assert set(cells) == set(brute_ordered_disjoint_pairs(K, 2))


def test_configuration_space_c4():
    K = cycle(4)
    cs = ConfigurationSpace(K)
    top = cs.cells_of_degree(2)
    assert len(top) == 2
    assert {frozenset((a, b)) for a, b in top} == {
        frozenset({("c0", "c1"), ("c2", "c3")}),
        frozenset({("c1", "c2"), ("c0", "c3")}),
    }
    assert len(cs.cells_of_degree(0)) == 6
    assert len(cs.cells_of_degree(1)) == 8


def test_configuration_space_two_points_single_cell():
    assert len(ConfigurationSpace(points(2)).cells_of_degree(0)) == 1


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_unordered_count_is_half_the_ordered_count(seed):
    K = random_flag(6, 0.5, seed)
    dp = DeletedProduct(K)
    cs = ConfigurationSpace(K)
    for d in range(2 * K.dim + 1):
        assert 2 * len(cs.cells_of_degree(d)) == len(dp.cells_of_degree(d))


def test_boundary_of_c4_square_cell():
    K = cycle(4)
    cs = ConfigurationSpace(K)
    cell = cs.canonical(("c0", "c1"), ("c2", "c3"))[0]
    bd = {c for c, v in cs.boundary(cell) if v % 2}
    expect = set()
    for vtx in ("c0", "c1"):
        expect.add(cs.canonical((vtx,), ("c2", "c3"))[0])
    for vtx in ("c2", "c3"):
        expect.add(cs.canonical(("c0", "c1"), (vtx,))[0])
    assert bd == expect


def test_swap_sign_convention():
    K = cycle(4)
    cs = ConfigurationSpace(K)
    a, b = ("c0", "c1"), ("c2", "c3")
    rep1, s1 = cs.canonical(a, b)
    rep2, s2 = cs.canonical(b, a)
    assert rep1 == rep2
    assert s1 == 1
    assert s2 == (-1) ** ((len(a) - 1) * (len(b) - 1))


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_boundary_squared_zero_on_quotient_and_product(seed):
    K = octahedralize(random_flag(5, 0.5, seed)).complex
    cs = ConfigurationSpace(K)
    for d in range(2 * K.dim + 1):
        for cell in cs.cells_of_degree(d)[:40]:
            once = chain_boundary({cell: 1}, cs.boundary)
            twice = chain_boundary(once, cs.boundary)
            assert not twice
            p_once = chain_boundary({cell: 1}, pair_cell_boundary)
            p_twice = chain_boundary(p_once, pair_cell_boundary)
            assert not p_twice


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_transfer_is_a_chain_map(seed):
    rng = random.Random(seed)
    K = octahedralize(random_flag(5, 0.5, seed)).complex
    cs = ConfigurationSpace(K)
    for d in range(1, 2 * K.dim + 1):
        cells = cs.cells_of_degree(d)
        if not cells:
            continue
        chain = {c: rng.randint(-2, 2) for c in rng.sample(list(cells), min(5, len(cells)))}
        chain = {c: v for c, v in chain.items() if v}
        lhs = chain_boundary(transfer(chain, cs), pair_cell_boundary)
        rhs = transfer(chain_boundary(chain, cs.boundary), cs)
        assert lhs == rhs


def test_transfer_formula_and_zero():
    K = cycle(4)
    cs = ConfigurationSpace(K)
    cell = cs.cells_of_degree(2)[0]
    a, b = cell
    t = transfer({cell: 1}, cs)
    assert t == {(a, b): 1, (b, a): (-1) ** ((len(a) - 1) * (len(b) - 1))}
    assert transfer({}, cs) == {}


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_every_cell_is_disjoint_and_within_budget_counting(seed):
    K = random_flag(6, 0.5, seed)
    cs = ConfigurationSpace(K)
    for d in range(-1, 2 * K.dim + 2):
        counted = ConfigurationSpace(K).count_cells(d)
        cells = cs.cells_of_degree(d)
        for a, b in cells:
            assert not set(a) & set(b)
        assert counted == len(cells) == cs.count_cells(d)


def rank_sorted_cells(K, d):
    """Oracle: every disjoint pair of degree d in canonical form, sorted by
    the rank-tuple cell key -- the enumeration the index replaces."""
    cs = ConfigurationSpace(K)
    found = []
    for i in range(d + 1):
        j = d - i
        if i < j:
            continue
        fi, fj = K.faces_of_dim(i), K.faces_of_dim(j)
        pairs = combinations(fi, 2) if i == j else ((a, b) for a in fi for b in fj)
        for a, b in pairs:
            if not set(a) & set(b):
                found.append(cs.canonical(a, b)[0])
    return sorted(found, key=cs.cell_key)


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_indexed_enumeration_matches_rank_sorted_oracle(seed):
    K = octahedralize(random_flag(5, 0.5, seed)).complex
    cs = ConfigurationSpace(K)
    for d in range(2 * K.dim + 1):
        cells = cs.cells_of_degree(d)
        assert list(cells) == rank_sorted_cells(K, d)
        assert [cs.cell_id(c) for c in cells] == list(range(len(cells)))


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_boundary_rows_match_per_cell_boundary(seed):
    K = octahedralize(random_flag(5, 0.5, seed)).complex
    cs = ConfigurationSpace(K)
    for d in range(2 * K.dim + 1):
        lower = cs.cells_of_degree(d - 1)
        rows = cs.boundary_rows(d)
        assert len(rows) == len(cs.cells_of_degree(d))
        for cell, row in zip(cs.cells_of_degree(d), rows):
            assert [i for i, _ in row] == sorted({i for i, _ in row})
            assert tuple((lower[i], sign) for i, sign in row) == cs.boundary(cell)
