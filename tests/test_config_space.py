"""Deleted products, the unordered quotient, and the transfer map.

The signed per-cell boundary of the quotient lives here as the oracle for
the configuration space's GF(2) boundary; other test modules import it
from here.
"""

import random
from functools import cached_property, partial
from itertools import combinations

from hypothesis import given, settings, strategies as st

import facet_reference
import index_reference
import integer_recheck
from complex_reference import simplex_boundary
from raagdim.complexes import skeleton
from raagdim.config_space import ConfigurationSpace, chain_boundary
from raagdim.homology import boundary_rows, cycle_space
from raagdim.obstruction import _top_signs, certify_vanishing
from raagdim.octa import Octahedralization, double_over, octahedralize
from raagdim.suite import run_suite
from raagdim.zoo import ZOO, cycle, octahedron_boundary, points, random_flag
from test_octa import eager_octahedralization


def pair_cell_boundary(cell):
    """Oracle: signed boundary of an ordered product cell (a, b),
    d(a x b) = da x b + (-1)^dim(a) a x db."""
    a, b = cell
    flip = (-1) ** (len(a) - 1)
    return [((sub, b), sign) for sub, sign in simplex_boundary(a)] + [
        ((a, sub), flip * sign) for sub, sign in simplex_boundary(b)
    ]


def canonical(K, a, b):
    """Oracle: the stored representative of {a, b} (lower-ranked first
    vertex first) and the swap sign relating (a, b) to it."""
    if K.rank[a[0]] < K.rank[b[0]]:
        return (a, b), 1
    return (b, a), (-1) ** ((len(a) - 1) * (len(b) - 1))


def cell_key(K, cell):
    """Oracle: sort key of the cell order, from rank tuples."""
    a, b = cell
    return (len(a), len(b), tuple(K.rank[v] for v in a), tuple(K.rank[v] for v in b))


def signed_boundary(K, cell):
    """Oracle: signed boundary of one quotient cell, sorted by cell_key."""
    out = []
    for (a, b), sign in pair_cell_boundary(cell):
        rep, flip = canonical(K, a, b)
        out.append((rep, sign * flip))
    return tuple(sorted(out, key=lambda term: cell_key(K, term[0])))


def face_id(cs, face) -> int:
    """The id of a face of the space's complex, through its rank tuple."""
    rank = cs.K.vertices.index
    return cs.rank_ids[tuple(rank(v) for v in face)]


def pairs_of(cs, cells) -> list:
    """The face-id pairs of cells as stored, which `cs.boundary` reads."""
    return [(face_id(cs, a), face_id(cs, b)) for a, b in cells]


def signed_chain_boundary(chain, boundary_fn) -> dict:
    """Oracle: integer boundary of a chain {cell: coeff} (or a collection of
    cells, each with coefficient 1) given a signed per-cell boundary."""
    items = chain.items() if isinstance(chain, dict) else ((c, 1) for c in chain)
    acc: dict = {}
    for cell, coeff in items:
        for sub, sign in boundary_fn(cell):
            acc[sub] = acc.get(sub, 0) + coeff * sign
    return {c: v for c, v in acc.items() if v}


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
    cell = (("c0", "c1"), ("c2", "c3"))
    expect = [((vtx,), ("c2", "c3")) for vtx in ("c0", "c1")]
    expect += [(("c0", "c1"), (vtx,)) for vtx in ("c2", "c3")]
    assert set(map(cs.key_cell, cs.boundary(pairs_of(cs, [cell])))) == {canonical(K, a, b)[0] for a, b in expect}
    assert not cs.boundary(pairs_of(cs, [cell, cell]))


def test_swap_sign_convention():
    K = cycle(4)
    cs = ConfigurationSpace(K)
    a, b = ("c0", "c1"), ("c2", "c3")
    rep1, s1 = canonical(K, a, b)
    rep2, s2 = canonical(K, b, a)
    assert rep1 == rep2
    assert s1 == 1
    assert s2 == (-1) ** ((len(a) - 1) * (len(b) - 1))
    # The key of the stored cell reads back as that cell.
    ga, gb = pairs_of(cs, [rep1])[0]
    assert cs.key_cell(ga * len(cs.faces) + gb) == rep1


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_boundary_squared_zero_on_quotient_and_product(seed):
    K = octahedralize(random_flag(5, 0.5, seed)).complex
    cs = ConfigurationSpace(K)
    signed = partial(signed_boundary, K)
    for d in range(2 * K.dim + 1):
        for cell in cs.cells_of_degree(d)[:40]:
            F = len(cs.faces)
            assert not cs.boundary([divmod(key, F) for key in cs.boundary(pairs_of(cs, [cell]))])
            once = signed_chain_boundary({cell: 1}, signed)
            assert not signed_chain_boundary(once, signed)
            p_once = signed_chain_boundary({cell: 1}, pair_cell_boundary)
            assert not signed_chain_boundary(p_once, pair_cell_boundary)


def test_chain_boundary_counts_facets_mod_2():
    def facets(f):
        return [f[:i] + f[i + 1 :] for i in range(len(f))]

    assert chain_boundary([("a", "b"), ("b", "c")], facets) == {("a",), ("c",)}
    assert chain_boundary([("a", "b"), ("b", "c"), ("a", "c")], facets) == set()
    # A vertex's facet is the empty face: an even vertex count is a cycle.
    assert chain_boundary([("a",), ("b",)], facets) == set()
    assert chain_boundary([("a",)], facets) == {()}


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_boundary_is_odd_support_of_signed_oracle(seed):
    rng = random.Random(seed)
    L = random_flag(6, 0.5, seed)
    cycles = [(k, c) for k in range(1, L.dim + 1) for c in cycle_space(skeleton(L, k), k)]
    if not cycles:
        return
    k, cyc = cycles[rng.randrange(len(cycles))]
    K = index_reference.doubled_complex(double_over(octahedralize(skeleton(L, k)), cyc,
                                                    sorted(cyc)[rng.randrange(len(cyc))]))
    cs = ConfigurationSpace(K)
    signed = partial(signed_boundary, K)
    for d in range(2 * K.dim + 1):
        cells = cs.cells_of_degree(d)
        for _ in range(3):
            chain = rng.sample(cells, rng.randint(0, min(12, len(cells))))
            odd = [c for c, v in signed_chain_boundary(chain, signed).items() if v % 2]
            assert tuple(map(cs.key_cell, cs.boundary(pairs_of(cs, chain)))) == tuple(
                sorted(odd, key=lambda c: cell_key(K, c)))


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
        lhs = signed_chain_boundary(transfer(chain, cs), pair_cell_boundary)
        rhs = transfer(signed_chain_boundary(chain, partial(signed_boundary, K)), cs)
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
    found = []
    for i in range(d + 1):
        j = d - i
        if i < j:
            continue
        fi, fj = K.faces_of_dim(i), K.faces_of_dim(j)
        pairs = combinations(fi, 2) if i == j else ((a, b) for a in fi for b in fj)
        for a, b in pairs:
            if not set(a) & set(b):
                found.append(canonical(K, a, b)[0])
    return sorted(found, key=lambda cell: cell_key(K, cell))


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_indexed_enumeration_matches_rank_sorted_oracle(seed):
    K = octahedralize(random_flag(5, 0.5, seed)).complex
    cs = ConfigurationSpace(K)
    for d in range(2 * K.dim + 1):
        cells = cs.cells_of_degree(d)
        assert list(cells) == rank_sorted_cells(K, d)
        # Keys rise strictly in cell order and name each cell.
        F = len(cs.faces)
        keys = [a * F + b for a, b in pairs_of(cs, cells)]
        assert keys == sorted(set(keys))
        assert [cs.key_cell(key) for key in keys] == list(cells)


def octahedralized_and_doubled(L):
    """OL's face set, and the face sets of the complexes of `doubled_over`."""
    yield octahedralize(L).complex
    yield from map(index_reference.doubled_complex, doubled_over(L))


def test_facet_table_matches_homology_boundary_rows():
    complexes = [entry.complex() for entry in ZOO] + [random_flag(7, 0.5, seed) for seed in range(20)]
    for K in (D for L in complexes for D in octahedralized_and_doubled(L)):
        cs = ConfigurationSpace(K)
        # Face ids run by dimension; a vertex has no facets (unaugmented).
        signed, start = [()] * len(K.faces_of_dim(0)), 0
        for k in range(1, K.dim + 1):
            signed += [tuple((start + i, sign) for i, sign in row) for row in boundary_rows(K, k)]
            start += len(K.faces_of_dim(k - 1))
        assert cs._facet_ids == [tuple(i for i, _ in row) for row in signed]
        # The signs of facet_signs: the j-th facet of an n-face, in id
        # order, has sign (-1)^(n - j).
        assert [tuple(sign for _, sign in row) for row in signed] == [
            tuple((-1) ** (len(row) - 1 - j) for j in range(len(row))) for row in signed]


def test_top_facet_keys_with_the_top_signs_reproduce_the_cell_id_boundary_rows():
    # The integer solve and re-check read only the top degree 2k, each row
    # of facet_keys(2k) zipped with one sign vector; the oracle keeps the
    # swap sign of every degree, which is 1 there.  A space of dimension 0
    # has no facets in its top degree, which the integer side never reads.
    complexes = [entry.complex() for entry in ZOO] + [random_flag(7, 0.5, seed) for seed in range(20)]
    for K in (D for L in complexes for D in octahedralized_and_doubled(L) if D.dim > 0):
        cs, d = ConfigurationSpace(K), 2 * K.dim
        rows, lower = integer_recheck.boundary_rows(cs, d), integer_recheck.cell_ids(cs, d - 1)
        signs = _top_signs(d)
        assert [tuple(sorted(zip([lower[cs.key_cell(key)] for key in keys], signs, strict=True)))
                for keys in cs.facet_keys(d)] == list(rows)


def facet_rule_spaces():
    """Configuration spaces on which the facet rows meet the per-cell rule:
    each zoo entry, its OL and the doubled complexes over it, and
    random_flag(n, p, s) for n in 6..10, p in 0.3..0.7, with its OL for
    n <= 7 (a larger OL has too many cells for a quick test)."""
    for entry in ZOO:
        L = entry.complex()
        yield from (L, *octahedralized_and_doubled(L))
    for n in range(6, 11):
        for p in (0.3, 0.5, 0.7):
            for seed in range(2):
                L = random_flag(n, p, seed)
                yield from (L, octahedralize(L).complex) if n <= 7 else (L,)


def test_facet_keys_match_the_per_cell_rule_row_by_row():
    for K in facet_rule_spaces():
        cs = ConfigurationSpace(K)
        for d in range(2 * K.dim + 1):
            pairs = cs.indexed_cells(d)
            rows = cs.facet_keys(d)
            assert len(rows) == len(pairs)
            for pair, row in zip(pairs, rows):
                assert row == facet_reference.cell_facet_keys(cs, pair), (K.maximal_faces(), d, pair)


def base_pair_count(L, d):
    """Oracle: the d-cells of OL's configuration space counted on the base.
    An ordered pair (s, t) of faces of L lifts to 2^|s u t| ordered disjoint
    pairs of OL (opposite signs over shared vertices, any sign elsewhere),
    and each unordered cell is counted twice."""
    return sum(2 ** len(set(s) | set(t)) for s in L.faces for t in L.faces if len(s) + len(t) - 2 == d) // 2


def built_nothing(cs) -> bool:
    """Whether the space has built neither its index nor a degree."""
    return "_index" not in vars(cs) and not cs._degrees


def test_lifted_count_matches_enumeration_in_every_degree():
    bases = [entry.complex() for entry in ZOO] + [random_flag(7, 0.5, seed) for seed in range(20)]
    for L in bases:
        octa = octahedralize(L)
        counting, built = ConfigurationSpace(octa), ConfigurationSpace(octa.complex)
        for d in range(-1, 2 * L.dim + 2):
            n = len(built.cells_of_degree(d))
            assert counting.count_cells(d) == n == built.count_cells(d) == base_pair_count(L, d), (L.maximal_faces(), d)
        assert built_nothing(counting)


@given(st.integers(3, 7), st.floats(0.2, 0.8), st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_lifted_count_of_the_octahedralization_matches_the_base_oracle(n, p, seed):
    L = random_flag(n, p, seed)
    octa = octahedralize(L)
    counting, built = ConfigurationSpace(octa), ConfigurationSpace(octa.complex)
    for d in range(-1, 2 * L.dim + 2):
        assert counting.count_cells(d) == base_pair_count(L, d) == len(built.cells_of_degree(d))
    assert built_nothing(counting)


# Degrees whose oracle scan passes more face pairs than this are compared
# on their counts alone.
SCAN_CAP = 60_000


def assert_lifted_index_matches_the_tuple_oracle(L):
    """OL's space, lifted from L, against the index of OL's tuple face set,
    field by field, and against the space built on that face set."""
    octa, eager = octahedralize(L), eager_octahedralization(L)
    lifted, ref = ConfigurationSpace(octa), index_reference.tuple_index(eager)
    ranks, masks, first, spans = lifted._index
    assert ranks == ref["ranks"]
    assert masks == ref["masks"]
    assert first == ref["first"]
    assert spans == ref["spans"]
    assert lifted._facet_ids == ref["facet_ids"]
    assert lifted.faces == ref["faces"]
    assert lifted.minus_ids == ref["minus_ids"]
    assert [[lifted.faces[g] for g in lifted.ids_of_dim(k)] for k in range(L.dim + 1)] == [
        list(eager.faces_of_dim(k)) for k in range(L.dim + 1)]
    assert lifted._index == ConfigurationSpace(eager)._index
    for d in range(-1, 2 * L.dim + 2):
        count = lifted.count_cells(d)
        assert count == base_pair_count(L, d), (L.maximal_faces(), d)
        if index_reference.scan_cost(ref, d) > SCAN_CAP:
            continue
        pairs = index_reference.pairs(ref, d)
        assert list(lifted.indexed_cells(d)) == pairs, (L.maximal_faces(), d)
        assert count == len(pairs)
        assert list(lifted.facet_keys(d)) == [facet_reference.cell_facet_keys(lifted, pair) for pair in pairs]
    for doubled in doubled_over(L):
        assert_lifted_doubled_index_matches_the_tuple_oracle(doubled)


def test_lifted_index_matches_the_tuple_oracle_on_the_zoo():
    for entry in ZOO:
        assert_lifted_index_matches_the_tuple_oracle(entry.complex())


@given(st.integers(3, 9), st.floats(0.2, 0.8), st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_lifted_index_matches_the_tuple_oracle(n, p, seed):
    assert_lifted_index_matches_the_tuple_oracle(random_flag(n, p, seed))


def doubled_over(L):
    """The doubled complexes over the first cycle of each degree of L, at
    its first and at its last simplex."""
    for k in range(L.dim + 1):
        K = skeleton(L, k)
        for cyc in cycle_space(K, k)[:1]:
            for delta in dict.fromkeys([min(cyc), max(cyc)]):
                yield double_over(octahedralize(K), cyc, delta)


def boundary_spaces():
    """The spaces of `facet_rule_spaces`, and the spaces lifted from the
    base: OL's and the doubled complexes', for the zoo and random_flag(n,
    p, s) with n in 6..9 (OL only for n <= 7)."""
    yield from map(ConfigurationSpace, facet_rule_spaces())
    bases = [entry.complex() for entry in ZOO]
    bases += [random_flag(n, p, seed) for n in range(6, 10) for p in (0.3, 0.5, 0.7) for seed in range(2)]
    for L in bases:
        if len(L.vertices) <= 7:
            yield ConfigurationSpace(octahedralize(L))
        yield from (ConfigurationSpace(doubled) for doubled in doubled_over(L))


def test_boundary_matches_the_per_cell_rule_in_any_chain_order():
    # Each degree whole, and chains drawn with replacement, part of them
    # listed again, in cell order and shuffled (verify hands over the pairs
    # of a set): a cell listed an even number of times cancels.
    rng = random.Random(20)
    for cs in boundary_spaces():
        for d in range(2 * len(cs._index[3]) - 1):
            pairs = cs.indexed_cells(d)
            chains = [list(pairs)]
            for _ in range(3):
                chain = rng.choices(pairs, k=rng.randint(1, 40)) if pairs else []
                chain += chain[: rng.randint(0, len(chain))]
                chains += [sorted(chain), rng.sample(chain, len(chain))]
            for chain in chains:
                assert cs.boundary(chain) == facet_reference.boundary(cs, chain), (cs.K, d)


def test_boundary_of_the_obstructed_witness_matches_the_per_cell_oracle():
    L = octahedron_boundary(3)
    result = certify_vanishing(L)
    assert result.status == "obstructed"
    cs = ConfigurationSpace(octahedralize(L))
    chain = pairs_of(cs, result.witness_cycle)
    assert len(chain) == 648
    assert cs.boundary(chain) == facet_reference.boundary(cs, chain) == ()
    # Without its first cell, and with five cells listed three times, in
    # shuffled order, the witness has the first cell's boundary.
    broken = chain[1:] + chain[1:6] * 2
    random.Random(3).shuffle(broken)
    assert cs.boundary(broken) == facet_reference.boundary(cs, broken) == facet_reference.boundary(cs, chain[:1])
    assert cs.boundary(broken)


def mixed_chain(cs, rng, degrees) -> list:
    """Cells drawn from each of `degrees`, each listed 1 to 4 times, in
    shuffled order: a cell listed an even number of times cancels."""
    chain = []
    for d in degrees:
        pairs = cs.indexed_cells(d)
        for pair in rng.sample(pairs, min(len(pairs), rng.randint(1, 30))):
            chain += [pair] * rng.randint(1, 4)
    rng.shuffle(chain)
    return chain


@given(st.integers(7, 9), st.floats(0.3, 0.8), st.integers(0, 10**6), st.booleans())
@settings(max_examples=30, deadline=None)
def test_boundary_matches_the_per_cell_rule_on_chains_that_mix_degrees(n, p, seed, doubled):
    # One mask per first half holds second halves of every dimension once
    # the chain mixes degrees; OL's faces number in the hundreds here, so a
    # mask spans several machine words.
    rng = random.Random(seed)
    L = random_flag(n, p, seed)
    cs = ConfigurationSpace(rng.choice(list(doubled_over(L))) if doubled else octahedralize(L))
    F, top = len(cs.ranks), 2 * len(cs._index[3]) - 2
    degrees = [d for d in range(top + 1) if cs.indexed_cells(d)]
    for _ in range(3):
        chain = mixed_chain(cs, rng, rng.sample(degrees, min(len(degrees), rng.randint(2, 4))))
        assert cs.boundary(chain) == facet_reference.boundary(cs, chain), (L.maximal_faces(), doubled)
    # A cycle (the boundary of random cells one degree up) has none; with
    # one cell dropped (and the rest listed 1 or 3 times), that cell's,
    # which a cell of degree >= 1 has.
    for d in [d for d in degrees if d >= 2]:
        cycle = [divmod(key, F) for key in facet_reference.boundary(cs, mixed_chain(cs, rng, [d]))]
        assert cs.boundary(cycle) == ()
        if cycle:
            dropped = cycle.pop(rng.randrange(len(cycle)))
            broken = [pair for pair in cycle for _ in range(rng.choice((1, 3)))]
            rng.shuffle(broken)
            assert cs.boundary(broken) == facet_reference.boundary(cs, [dropped]) != ()
    # A single cell with a vertex half, first or second, of degree >= 1.
    ranks = cs.ranks
    for d in [d for d in degrees if d >= 1]:
        for pair in cs.indexed_cells(d):
            if len(ranks[pair[0]]) == 1 or len(ranks[pair[1]]) == 1:
                assert cs.boundary([pair]) == facet_reference.boundary(cs, [pair]) != ()


def count_bit_table_builds(monkeypatch) -> tuple:
    """Spy on `boundary` and on the builder of its bit tables: the spaces
    each was called on, one entry per call or build."""
    calls, built = [], []
    boundary, build = ConfigurationSpace.boundary, ConfigurationSpace._bit_tables.func

    def counted_boundary(space, pairs):
        calls.append(space)
        return boundary(space, pairs)

    def counted_build(space):
        built.append(space)
        return build(space)

    tables = cached_property(counted_build)
    tables.__set_name__(ConfigurationSpace, "_bit_tables")
    monkeypatch.setattr(ConfigurationSpace, "boundary", counted_boundary)
    monkeypatch.setattr(ConfigurationSpace, "_bit_tables", tables)
    return calls, built


def test_the_bit_tables_are_built_once_per_space_and_only_where_boundary_is_called(monkeypatch):
    calls, built = count_bit_table_builds(monkeypatch)
    # A solvable top class has no witness, so no chain's boundary is taken.
    assert certify_vanishing(random_flag(12, 0.5, 1)).status == "primitive"
    assert calls == built == []
    # The lemma suite's `cycle` check takes many chains' boundaries in one
    # OL space: each space where it ran builds its tables exactly once.
    result = run_suite(0, 3)
    assert result.complexes == 3 and not result.failures
    spaces = {id(space): space for space in calls}
    assert len(spaces) == 3 and len(calls) > len(spaces)
    assert sorted(map(id, built)) == sorted(spaces)
    assert all(isinstance(space.K, Octahedralization) for space in built)


def test_stored_cells_names_every_cell_by_its_key_whichever_half_is_listed_first():
    # Every degree of the zoo's OL spaces and doubled spaces: the
    # enumeration yields stored pairs, whose keys a * F + b increase.
    for L in [entry.complex() for entry in ZOO]:
        for cs in [ConfigurationSpace(octahedralize(L))] + list(map(ConfigurationSpace, doubled_over(L))):
            F = len(cs.ranks)
            for d in range(2 * L.dim + 1):
                pairs = list(cs.indexed_cells(d))
                keys = [a * F + b for a, b in pairs]
                assert all(x < y for x, y in zip(keys, keys[1:])), (L.maximal_faces(), d)
                assert all(cs.ranks[a][0] < cs.ranks[b][0] for a, b in pairs)
                assert cs.stored_cells(pairs) == (keys, pairs)
                assert cs.stored_cells([(b, a) for a, b in pairs]) == (keys, pairs)


def assert_lifted_doubled_index_matches_the_tuple_oracle(doubled):
    """The doubled complex's space, lifted from the cycle's support, against
    the index of its tuple face set ranked in OL's order, field by field,
    and against the space built on that face set."""
    K = index_reference.doubled_complex(doubled)
    lifted, built = ConfigurationSpace(doubled), ConfigurationSpace(K)
    ref = index_reference.tuple_index(K, doubled.octa.rank)
    ranks, masks, first, spans = lifted._index
    assert ranks == ref["ranks"]
    assert masks == ref["masks"]
    assert first == ref["first"]
    assert spans == ref["spans"]
    assert lifted._facet_ids == ref["facet_ids"] == built._facet_ids
    assert lifted.faces == ref["faces"] == built.faces
    # The space on the face set ranks a suborder of OL's vertices, so its
    # ranks' low bits are no signs and it has no minus copies.
    assert lifted.minus_ids == ref["minus_ids"]
    # The doubled complex's own vertex order is a suborder of OL's, so its
    # own rank tuples order the faces as the lifted ones do.
    own = K.rank
    assert sorted(K.vertices, key=doubled.octa.rank.__getitem__) == list(K.vertices)
    assert built.ranks == [tuple(own[v] for v in f) for f in lifted.faces]
    for d in range(-1, 2 * len(doubled.delta)):
        assert lifted.count_cells(d) == built.count_cells(d), (doubled.cycle, doubled.delta, d)
        if index_reference.scan_cost(ref, d) > SCAN_CAP:
            continue
        pairs = index_reference.pairs(ref, d)
        assert list(lifted.indexed_cells(d)) == pairs == list(built.indexed_cells(d))
        assert lifted.facet_keys(d) == built.facet_keys(d)
