"""Meshing cocycles, covering chains, certificates, and their identities."""

import random
from functools import partial
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import certificate_reference
import gf2_dense
import integer_recheck
import push_reference
from push_reference import mesh_number, minus_lift, project
import raagdim
from raagdim import gf2, io_json, obstruction
from raagdim.complexes import skeleton
from raagdim.config_space import ConfigurationSpace
from raagdim.homology import cycle_space
from raagdim.intlinalg import integer_det
from raagdim.obstruction import (
    certify_nonvanishing,
    certify_vanishing,
    check_star_condition,
    covering_pair_chain,
    delta_product_chain,
    mesh_values,
    moment_intersection,
    moment_values,
    nonstrict_values,
    push_terms,
    push_to_product,
    top_mesh_cocycle,
)
from raagdim.octa import MINUS, PLUS, DoubledComplex, Octahedralization, double_over, octahedralize
from raagdim.suite import SuiteResult, check_complex, run_suite
from raagdim.verify import verify_certificate
from raagdim.zoo import (ZOO, build_named, cone, cycle, octahedron_boundary, path, points, random_flag, simplex,
                         suspension, tree)
from test_config_space import doubled_over, face_id, pair_cell_boundary, pairs_of, signed_boundary, signed_chain_boundary
from test_pins import load_workloads

RANK4 = {"v0": 0, "v1": 1, "v2": 2, "v3": 3}


def test_mesh_number_formula_cases():
    # Strictly interleaved with the lower vertex leading: +1.
    assert mesh_number(("v0", "v2"), ("v1", "v3"), RANK4) == 1
    # Swapped order picks up (-1)^k.
    assert mesh_number(("v1", "v3"), ("v0", "v2"), RANK4) == -1
    # Separated pairs do not mesh.
    assert mesh_number(("v0", "v1"), ("v2", "v3"), RANK4) == 0


def test_mesh_degree_zero_all_pairs_mesh():
    assert mesh_number(("v0",), ("v1",), RANK4) == 1
    assert mesh_number(("v1",), ("v0",), RANK4) == 1


def spread_of(ranks) -> int:
    """The spread bitmask of a rank tuple, bit 2r for rank r, as
    `ConfigurationSpace.spread` holds it."""
    return sum(1 << 2 * r for r in ranks)


def ranks_indicator(a, b) -> int:
    """`nonstrict_values` on one pair of rank tuples."""
    return nonstrict_values([spread_of(a), spread_of(b)], [0], [1])[0]


def rank_indicator(sigma: tuple, b: tuple, rank: dict) -> int:
    """`nonstrict_values` on two faces of OL given as vertex tuples, ranked
    by `rank`."""
    return ranks_indicator([rank[v] for v in sigma], [rank[w] for w in b])


def reference_nonstrict(sigma: tuple, b: tuple, rank: dict):
    """What `nonstrict_values` gives on two faces given as vertex tuples, by
    the reference indicator (its outcome, a value or a ValueError's
    message), which refuses halves of two sizes: the mask rule reads them
    as 0, unless b has a plus vertex."""
    if len(sigma) != len(b):
        return 0 if all(s == MINUS for _v, s in b) else "second simplex must lie in the minus copy"
    return outcome(push_reference.nonstrict_mesh_indicator, sigma, b, rank)


def test_nonstrict_mesh_examples():
    o = octahedralize(simplex(1))
    rank = o.rank
    delta_minus = (("v0", MINUS), ("v1", MINUS))
    for indicator in (rank_indicator, push_reference.nonstrict_mesh_indicator):
        # The diagonal pair contributes.
        assert indicator(delta_minus, delta_minus, rank) == 1
        # v0+ <= v0- fails.
        assert indicator((("v0", PLUS), ("v1", MINUS)), delta_minus, rank) == 0
        # v1+ <= v1- fails.
        assert indicator((("v0", MINUS), ("v1", PLUS)), delta_minus, rank) == 0
        with pytest.raises(ValueError):
            indicator(delta_minus, (("v0", MINUS), ("v1", PLUS)), rank)


def test_nonstrict_mesh_checks_every_sign_after_the_pattern_breaks():
    o = octahedralize(simplex(1))
    # v0+ <= v0- fails at the first position; b's plus vertex comes after it.
    with pytest.raises(ValueError):
        rank_indicator((("v0", PLUS), ("v1", MINUS)), (("v0", MINUS), ("v1", PLUS)), o.rank)
    with pytest.raises(ValueError):
        push_reference.nonstrict_mesh_indicator((("v0", PLUS), ("v1", MINUS)), (("v0", MINUS), ("v1", PLUS)), o.rank)
    # The rule reads a sign off its rank's parity: on OL and on the doubled
    # complexes, lifted on OL's ranks, a vertex is a plus vertex exactly
    # when its rank is odd.  Each face, behind a pattern broken at once,
    # raises exactly when it has a plus vertex.
    for L in [entry.complex() for entry in ZOO] + [random_flag(7, 0.5, seed) for seed in range(10)]:
        for K in [octahedralize(L), *doubled_over(L)]:
            assert all((s == PLUS) == (r % 2 == 1) for r, (_v, s) in enumerate(K.vertices))
            for t in (t for level in K.ranked_faces() for t in level):
                shifted = [r + 1 for r in t]
                if any(K.vertices[r][1] == PLUS for r in t):
                    with pytest.raises(ValueError, match="minus copy"):
                        ranks_indicator(shifted, t)
                else:
                    assert ranks_indicator(shifted, t) == 0


def rank_sets(ranks, sizes) -> list:
    """Every set of the given sizes drawn from `ranks`, as sorted tuples."""
    return [t for size in sizes for t in combinations(ranks, size)]


def test_both_mask_rules_equal_the_tuple_oracles_on_every_pair_of_rank_sets():
    # Meshing on every disjoint pair of rank sets below 12 of sizes 1-5 with
    # b0 > a0, as a stored cell has: the oracle refuses two sizes, which the
    # mask rule reads as False.
    sets = rank_sets(range(12), range(1, 6))
    masks = [sum(1 << r for r in t) for t in sets]
    pairs = [(i, j) for i, a in enumerate(sets) for j, b in enumerate(sets)
             if a[0] < b[0] and not masks[i] & masks[j]]
    expect = [len(sets[i]) == len(sets[j]) and push_reference.interleaves(sets[i], sets[j]) for i, j in pairs]
    assert mesh_values(masks, pairs) == expect
    # Any 2s ranks split in exactly one way into an alternating a, b with a
    # leading: C(12, 2s) meshing pairs of size s.
    assert sum(expect) == sum(len(list(combinations(range(12), 2 * size))) for size in range(1, 6)) == 2046
    # Nonstrict: every set of ranks below 12 against every set of its even
    # ones, of sizes 1-5, as one list; two sizes read 0.
    halves = sets + rank_sets(range(0, 12, 2), range(1, 6))
    spread = [spread_of(t) for t in halves]
    terms = [(i, j) for i in range(len(sets)) for j in range(len(sets), len(halves))]
    assert nonstrict_values(spread, [i for i, _ in terms], [j for _, j in terms]) == [
        len(halves[i]) == len(halves[j]) and push_reference.nonstrict_rank_indicator(halves[i], halves[j])
        for i, j in terms]
    # A second set with an odd rank is refused, alone or among minus copies.
    odd = [t for t in rank_sets(range(12), range(1, 4)) if any(r & 1 for r in t)]
    spread = [spread_of(t) for t in [(0,), *odd]]
    for j, t in enumerate(odd, 1):
        with pytest.raises(ValueError, match="second simplex must lie in the minus copy"):
            push_reference.nonstrict_rank_indicator(t, t)
        with pytest.raises(ValueError, match="second simplex must lie in the minus copy"):
            nonstrict_values(spread, [0, 0, 0], [0, j, 0])


@given(st.lists(st.integers(0, 200), min_size=1, max_size=8, unique=True),
       st.lists(st.integers(0, 200), min_size=1, max_size=8, unique=True), st.booleans())
@settings(max_examples=300, deadline=None)
def test_both_mask_rules_equal_the_tuple_oracles_on_wide_ranks(xs, ys, even):
    # Ranks up to 200, so the masks span several int digits; any two sets of
    # one size, overlapping or not.
    a, b = sorted(xs), sorted(ys)[: len(xs)]
    a = a[: len(b)]
    assert mesh_values([sum(1 << r for r in a), sum(1 << r for r in b)], [(0, 1)]) == [
        push_reference.interleaves(a, b)]
    if even:
        b = sorted({r & -2 for r in b})
        a = a[: len(b)]
    assert outcome(ranks_indicator, a, b) == outcome(push_reference.nonstrict_rank_indicator, a, b)


def push_cells(cells, cs) -> set:
    """`push_to_product` of a GF(2) chain, given as cells, its terms read
    back as cells."""
    faces = cs.faces
    return {(faces[a], faces[b]) for a, b in push_to_product(pairs_of(cs, cells), cs)}


def mod2(chain: dict) -> set:
    """The support of an integer chain's mod-2 reduction."""
    return {c for c, v in chain.items() if v % 2}


def evaluate_nonstrict_on_product(chain, rank) -> int:
    """Integer pairing of the nonstrict meshing cocycle with a product chain
    {cell: coeff} on cells, its faces ranked by `rank`."""
    return sum(coeff * rank_indicator(a, b, rank) for (a, b), coeff in chain.items())


def test_push_single_cell_formula():
    o = octahedralize(cycle(4))
    cs = ConfigurationSpace(o.complex)
    cell = next(c for c in cs.cells_of_degree(2) if len(c[0]) == 2)
    a, b = cell
    sign = (-1) ** ((len(a) - 1) * (len(b) - 1))
    assert push_reference.push_to_product({cell: 1}, o) == {
        (a, minus_lift(project(b))): 1,
        (b, minus_lift(project(a))): sign,
    }
    assert push_cells([cell], cs) == {(a, minus_lift(project(b))), (b, minus_lift(project(a)))}
    # A cell listed twice cancels.
    assert push_cells([cell, cell], cs) == set() == push_to_product([], cs)


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_push_is_a_chain_map(seed):
    # Over Z, on the integer reference push.
    rng = random.Random(seed)
    L = random_flag(5, 0.5, seed)
    if L.dim < 1:
        return
    o = octahedralize(L)
    cs = ConfigurationSpace(o.complex)
    push = partial(push_reference.push_to_product, octa=o)
    for d in range(1, 2 * L.dim + 1):
        cells = cs.cells_of_degree(d)
        if not cells:
            continue
        chain = {c: rng.randint(-2, 2) for c in rng.sample(list(cells), min(4, len(cells)))}
        chain = {c: v for c, v in chain.items() if v}
        lhs = signed_chain_boundary(push(chain), pair_cell_boundary)
        rhs = push(signed_chain_boundary(chain, partial(signed_boundary, o.complex)))
        assert lhs == rhs


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_push_and_indicator_match_their_reference_oracles(seed):
    # On the space of OL's face set, whose minus copies the reference push
    # derives from the octahedralization.
    rng = random.Random(seed)
    o = octahedralize(random_flag(6, 0.5, seed))
    cs, rank = ConfigurationSpace(o.complex), o.rank
    for d in range(2 * cs.K.dim + 1):
        cells = cs.cells_of_degree(d)
        if not cells:
            continue
        chain = rng.sample(cells, min(6, len(cells)))
        pushed = push_reference.push_to_product(dict.fromkeys(chain, 1), o)
        assert push_cells(chain, cs) == mod2(pushed)
        # The pushed cells, and the unpushed halves (which may carry plus
        # vertices), against both indicators, errors included.
        for sigma, b in list(pushed) + chain:
            assert outcome(rank_indicator, sigma, b, rank) == reference_nonstrict(sigma, b, rank)


def test_push_is_the_reference_push_mod_2_in_every_degree():
    # Random GF(2) chains of every degree, on the zoo and random flags; the
    # reference push is the integer one, signs included, reduced mod 2.
    rng = random.Random(0)
    cancelled = 0
    for L in [entry.complex() for entry in ZOO] + [random_flag(7, 0.5, seed) for seed in range(6)]:
        o = octahedralize(L)
        cs = ConfigurationSpace(o)
        faces = cs.faces
        for d in range(2 * L.dim + 1):
            pairs = cs.indexed_cells(d)
            if not pairs:
                continue
            chain = rng.sample(pairs, min(12, len(pairs)))
            cells = {(faces[a], faces[b]): 1 for a, b in chain}
            pushed = push_to_product(chain, cs)
            assert {(faces[a], faces[b]) for a, b in pushed} == mod2(push_reference.push_to_product(cells, o))
            terms = [term for halves in push_terms(chain, cs) for term in zip(*halves)]
            assert len(terms) == 2 * len(chain)
            cancelled += len(terms) != len(set(terms))
    # Some sampled chain has two cells pushing to one product term, so the
    # toggle really cancels.
    assert cancelled


def lifted_and_built_spaces(L, rng):
    """(octahedralization, space, doubled complex or None) triples: OL's
    space, lifted from the base and built on the face set, and over a
    random cycle of L the doubled complex's space, lifted from the cycle's
    support, with OL's space of that cycle's skeleton, the two spaces
    `delta_product_chain` reads.  A space built on a doubled complex's own
    face set ranks a suborder of OL's vertices, so it has no minus copies."""
    o = octahedralize(L)
    out = [(o, ConfigurationSpace(o), None), (o, ConfigurationSpace(o.complex), None)]
    cycles = [(k, c) for k in range(1, L.dim + 1) for c in cycle_space(skeleton(L, k), k)]
    if cycles:
        k, cyc = cycles[rng.randrange(len(cycles))]
        ok = octahedralize(skeleton(L, k))
        doubled = double_over(ok, cyc, sorted(cyc)[rng.randrange(len(cyc))])
        out += [(ok, ConfigurationSpace(ok), doubled), (ok, ConfigurationSpace(doubled), doubled)]
    return out


def outcome(rule, *args):
    """The rule's value, or the message of the ValueError it raises."""
    try:
        return rule(*args)
    except ValueError as exc:
        return str(exc)


@given(st.integers(5, 8), st.floats(0.3, 0.7), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_rank_rules_match_their_tuple_oracles(n, p, seed):
    rng = random.Random(seed)
    L = random_flag(n, p, seed)
    for o, cs, doubled in lifted_and_built_spaces(L, rng):
        ranks, faces = cs.ranks, cs.faces
        # The projection table, face by face.
        assert cs.minus_ids == [face_id(cs, minus_lift(project(f))) for f in faces]
        # The nonstrict rule on random faces (a second half with a plus
        # vertex raises, one of another size reads 0), on the minus copies
        # too.
        ids = list(range(len(faces)))
        draws = [(rng.choice(ids), rng.choice(ids)) for _ in range(60)]
        draws += [(a, cs.minus_ids[b]) for a, b in draws]
        for a, b in draws:
            assert outcome(lambda: nonstrict_values(cs.spread, [a], [b])[0]) == reference_nonstrict(
                faces[a], faces[b], o.rank)
        # The same draws whose second half is a minus copy, as one list.
        minus_draws = [(a, b) for a, b in draws if cs.minus_ids[b] == b]
        assert nonstrict_values(cs.spread, [a for a, _ in minus_draws], [b for _, b in minus_draws]) == [
            reference_nonstrict(faces[a], faces[b], o.rank) for a, b in minus_draws]
        # push_terms and push_to_product against the reference push, in
        # three degrees.
        degrees = range(2 * len(ranks[-1]) - 1)
        for d in rng.sample(degrees, min(3, len(degrees))):
            pairs = cs.indexed_cells(d)
            if not pairs:
                continue
            pairs = rng.sample(pairs, min(8, len(pairs)))

            def on_faces(terms):
                return {(faces[a], faces[b]) for a, b in terms}

            cells = dict.fromkeys([(faces[a], faces[b]) for a, b in pairs], 1)
            assert on_faces(push_to_product(pairs, cs)) == mod2(push_reference.push_to_product(cells, o))
            for (a, b), *terms in zip(pairs, *[zip(*halves) for halves in push_terms(pairs, cs)]):
                assert len(terms) == 2
                assert on_faces(terms) == set(push_reference.push_to_product({(faces[a], faces[b]): 1}, o))
        if doubled is not None:
            expect = certificate_reference.delta_product_chain(doubled)
            assert on_faces(delta_product_chain(doubled, cs)) == mod2(expect)


# --- the four identities ----------------------------------------------------


def all_top_cells(o):
    cs = ConfigurationSpace(o.complex)
    k = o.base.dim
    return [c for c in cs.cells_of_degree(2 * k) if len(c[0]) == k + 1]


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_pullback_identity_every_cell(seed):
    L = random_flag(6, 0.5, seed)
    if L.dim < 1:
        return
    # Over Z, on the integer reference push, signs included.
    o = octahedralize(L)
    for a, b in all_top_cells(o):
        pushed = push_reference.push_to_product({(a, b): 1}, o)
        assert mesh_number(a, b, o.rank) == evaluate_nonstrict_on_product(pushed, o.rank)


def interleaving_reference(sigma, tau, rank):
    """Oracle: the cocycle from the merged vertex sequence.  The pair meshes
    when the merged ranks alternate between the two simplices, starting with
    sigma (+1) or with tau ((-1)^k)."""
    merged = sorted([(rank[v], 0) for v in sigma] + [(rank[v], 1) for v in tau])
    sides = [side for _r, side in merged]
    if sides == [0, 1] * len(sigma):
        return 1
    if sides == [1, 0] * len(sigma):
        return (-1) ** (len(sigma) - 1)
    return 0


@given(st.integers(3, 7), st.floats(0.2, 0.8), st.integers(0, 10**6))
@example(6, 0.5, 0)
@settings(max_examples=20, deadline=None)
def test_stored_top_cells_mesh_0_or_1_so_the_top_cocycle_is_integral(n, p, seed):
    # A stored cell leads with the lower-ranked first vertex, so only its own
    # order can interleave: the integer cocycle is top_mesh_cocycle itself.
    L = random_flag(n, p, seed)
    if L.dim < 1:
        return
    o = octahedralize(L)
    space = ConfigurationSpace(o.complex)
    values = {cell: mesh_number(cell[0], cell[1], o.rank) for cell in space.cells_of_degree(2 * L.dim)}
    for a, b in values:
        assert values[a, b] == interleaving_reference(a, b, o.rank)
        assert mesh_number(b, a, o.rank) == interleaving_reference(b, a, o.rank)
    assert set(values.values()) <= {0, 1}
    assert top_mesh_cocycle(space, L.dim) == list(values.values())


def lemma_pairs(L, cap=4):
    out = []
    for cyc in cycle_space(L, L.dim):
        for delta in sorted(cyc):
            out.append((cyc, delta))
    return out[:cap]


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_pushforward_cycle_and_evaluation_identities(seed):
    L = random_flag(7, 0.5, seed)
    if L.dim < 1 or L.dim > 2:
        return
    o = octahedralize(L)
    # As in the lemma suite, every chain is named in OL's space.
    space = ConfigurationSpace(o)
    for cyc, delta in lemma_pairs(L):
        doubled = double_over(o, cyc, delta)
        omega = covering_pair_chain(doubled, space)[1]
        product = delta_product_chain(doubled, space)
        assert push_to_product(omega, space) == product  # holds with or without the star condition
        if check_star_condition(cyc, delta).holds:
            assert not space.boundary(omega)
        assert sum(nonstrict_values(space.spread, [a for a, _ in product], [b for _, b in product])) % 2 == 1


# --- covering chain examples -------------------------------------------------


def covering_cells(doubled):
    """`covering_pair_chain` with its pairs read back as cells by `key_cell`;
    the pairs come in cell order, each once."""
    space, pairs = covering_pair_chain(doubled, ConfigurationSpace(doubled))
    keys = [a * len(space.faces) + b for a, b in pairs]
    assert keys == sorted(set(keys))
    return space, pairs, [space.key_cell(key) for key in keys]


def set_based_covering_chain(doubled, space):
    """Oracle: the covering filter on the base vertex sets of both halves."""
    delta = set(doubled.delta)
    return frozenset((a, b) for a, b in space.cells_of_degree(2 * len(doubled.delta) - 2)
                     if delta <= {v for v, _ in a} | {v for v, _ in b})


def test_covering_chain_matches_the_set_based_filter_on_zoo_certificates():
    found = 0
    for entry in ZOO:
        L = entry.complex()
        for k in range(L.dim + 1):
            cert = certify_nonvanishing(L, k)
            if cert is None:
                continue
            doubled = double_over(octahedralize(skeleton(L, k)), cert.cycle, cert.delta)
            space, _pairs, omega = covering_cells(doubled)
            assert frozenset(omega) == cert.omega == set_based_covering_chain(doubled, space)
            found += 1
    assert found >= 10


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_covering_chain_matches_the_set_based_filter_on_random_pairs(seed):
    rng = random.Random(seed)
    L = random_flag(7, 0.5, seed)
    for k in range(L.dim + 1):
        basis = cycle_space(skeleton(L, k), k)
        if not basis:
            continue
        # A sum of basis cycles (nonzero: the basis is independent), doubled
        # over a random simplex.
        cyc = frozenset()
        for c in rng.sample(basis, rng.randint(1, len(basis))):
            cyc ^= c
        doubled = double_over(octahedralize(skeleton(L, k)), cyc, rng.choice(sorted(cyc)))
        space, _pairs, omega = covering_cells(doubled)
        assert frozenset(omega) == set_based_covering_chain(doubled, space)


def test_covering_chain_single_edge():
    o = octahedralize(simplex(1))
    doubled = double_over(o, frozenset({("v0", "v1")}), ("v0", "v1"))
    _space, _pairs, omega = covering_cells(doubled)
    # The two diagonal pairs of the doubled edge (a 4-cycle).
    assert len(omega) == 2
    for a, b in omega:
        assert {v for v, _ in a} == {"v0", "v1"}
        assert {v for v, _ in b} == {"v0", "v1"}


def test_covering_chain_c4_frozen_values():
    L = cycle(4)
    o = octahedralize(L)
    doubled = double_over(o, frozenset(L.faces_of_dim(1)), ("c0", "c1"))
    space, pairs, omega = covering_cells(doubled)
    # Hand-derived: 4+2+4+4+4 qualifying pairs, 5 of them meshed.
    assert len(omega) == 18
    assert sum(mesh_number(a, b, o.rank) for a, b in omega) == 5
    assert not space.boundary(pairs)


def test_covering_chain_empty_cycle():
    o = octahedralize(points(2))
    doubled = double_over(o, frozenset({("p0",), ("p1",)}), ("p0",))
    _space, _pairs, omega = covering_cells(doubled)
    # Degree 0: pairs of distinct vertices covering the doubled point.
    assert len(omega) == 2 * 2 - 1
    assert sum(mesh_number(a, b, o.rank) for a, b in omega) % 2 == 1


# --- the pair-intersection condition -----------------------------------------


def test_star_condition_flag_top_is_automatic():
    for L in (cycle(4), octahedron_boundary(2)):
        for cyc in cycle_space(L, L.dim):
            for delta in sorted(cyc):
                assert check_star_condition(cyc, delta).holds


def test_star_condition_single_simplex():
    assert check_star_condition({("a", "b", "c")}, ("a", "b", "c")).holds


def test_star_condition_violation_on_tetrahedron_boundary():
    K = skeleton(simplex(3), 2)
    (cyc,) = cycle_space(K, 2)
    delta = sorted(cyc)[0]
    report = check_star_condition(cyc, delta)
    assert not report.holds
    a, b = report.violation
    assert set(delta) <= set(a) | set(b)
    assert not set(a) & set(b) <= set(delta)


def test_three_cycle_always_violates():
    L = cycle(3)
    (cyc,) = cycle_space(L, 1)
    for delta in sorted(cyc):
        assert not check_star_condition(cyc, delta).holds


@given(st.integers(0, 3), st.lists(st.lists(st.integers(0, 7), min_size=4, max_size=4), min_size=1, max_size=9),
       st.integers(0, 100))
@settings(max_examples=200, deadline=None)
def test_star_condition_on_bitmasks_matches_the_set_scan(k, draws, pick):
    # Any set of k-simplices on eight labels, with delta one of them or
    # any k-simplex, some of whose vertices may lie in no simplex.
    simplices = {tuple(sorted(set(d)))[: k + 1] for d in draws}
    cyc = frozenset(s for s in simplices if len(s) == k + 1)
    if not cyc:
        return
    deltas = sorted(cyc) + [tuple(range(8 - k - 1, 8))]
    delta = deltas[pick % len(deltas)]
    assert check_star_condition(cyc, delta) == certificate_reference.check_star_condition(cyc, delta)


@given(st.integers(3, 9), st.floats(0.3, 0.9), st.integers(0, 10**6), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_one_star_table_per_cycle_matches_the_set_scan_at_every_simplex(n, p, seed, k):
    # One table per candidate cycle, as the search builds it, read at every
    # simplex of the cycle and at a facet of some, which a simplex paired
    # with itself covers: the report, holds and violation, is the set
    # scan's, and check_star_condition reads the same table.
    L = random_flag(n, p, seed)
    if k > L.dim:
        return
    basis = cycle_space(L, k)
    for cyc in [*basis[:3], *[a ^ b for a, b in combinations(basis[:3], 2)]]:
        table = obstruction._star_table(cyc)
        assert table[0] == sorted(cyc)
        for delta in sorted(cyc) + [s[1:] for s in sorted(cyc)[::5] if k]:
            slow = certificate_reference.check_star_condition(cyc, delta)
            assert obstruction._star_report(table, delta) == slow == check_star_condition(cyc, delta), (cyc, delta)


def bench_star_inputs():
    """(cycle, delta) over the benchmark's analyze complexes: each basis
    cycle of each degree and each sum of two, at each of its simplices."""
    wl = load_workloads()
    for name in ("certify", "vanishing", "integral"):
        workload = wl.WORKLOADS[name]
        for case, data in zip(workload.cases, wl.build_inputs(raagdim, workload)):
            if "max_cells" in case.options:
                continue
            L = io_json.complex_from_json(data)
            for k in range(L.dim + 1):
                basis = cycle_space(skeleton(L, k), k)
                for cyc in [*basis[:4], *[a ^ b for a, b in zip(basis[:4], basis[1:5])]]:
                    for delta in sorted(cyc):
                        yield cyc, delta


def test_star_condition_on_bitmasks_matches_the_set_scan_on_the_bench_complexes():
    reports = [(check_star_condition(cyc, delta), certificate_reference.check_star_condition(cyc, delta))
               for cyc, delta in bench_star_inputs()]
    assert all(fast == slow for fast, slow in reports)
    assert {fast.holds for fast, _slow in reports} == {True, False}


# --- certificates -------------------------------------------------------------


def test_certify_c4():
    cert = certify_nonvanishing(cycle(4), 1)
    assert cert is not None
    assert cert.cycle == frozenset(cycle(4).faces_of_dim(1))


def test_certify_tree_none():
    assert certify_nonvanishing(tree(6, 0), 1) is None


def test_certify_octahedron_full_sphere():
    L = octahedron_boundary(2)
    cert = certify_nonvanishing(L, 2)
    assert cert is not None
    assert cert.cycle == frozenset(L.faces_of_dim(2))


def test_certify_hollow_triangle_none():
    assert certify_nonvanishing(cycle(3), 1) is None


def test_certify_degree_zero():
    cert = certify_nonvanishing(points(3), 0)
    assert cert is not None and cert.degree == 0


def test_certify_sub_top_degree_on_skeleton():
    # The 1-skeleton of the tetrahedron boundary carries square cycles that
    # pass the pair-intersection condition even though triangles fail it.
    K = skeleton(simplex(3), 2)
    cert = certify_nonvanishing(K, 1)
    assert cert is not None
    assert len(cert.cycle) == 4


def test_certify_vanishing_paths_and_simplex():
    for L in (path(3), path(4), simplex(2)):
        result = certify_vanishing(L)
        assert result.status == "primitive"


def test_certify_vanishing_c4_obstructed_with_witness():
    result = certify_vanishing(cycle(4))
    assert result.status == "obstructed"
    o = octahedralize(cycle(4))
    space = ConfigurationSpace(o.complex)
    witness = frozenset(result.witness_cycle)
    assert not space.boundary(pairs_of(space, witness))
    assert sum(mesh_number(a, b, o.rank) for a, b in witness) % 2 == 1


def has_boundary(self, pairs):
    return (0,)


def meshes_nowhere(masks, pairs):
    return [0] * len(pairs)


@pytest.mark.parametrize("owner, name, fault, messages", [
    (ConfigurationSpace, "boundary", has_boundary,
     ("covering chain failed to be a cycle", "inconsistency witness is not a cycle")),
    (obstruction, "mesh_values", meshes_nowhere,
     ("covering chain evaluated to 0", "inconsistency witness does not pair to 1")),
])
def test_both_witness_self_checks_refuse_a_chain_that_is_no_witness(monkeypatch, owner, name, fault, messages):
    L = cycle(5)
    # The solve reads the true cocycle, so it is still obstructed; only the witness checks are faulted.
    phi = top_mesh_cocycle(ConfigurationSpace(octahedralize(L)), L.dim)
    monkeypatch.setattr(obstruction, "top_mesh_cocycle", lambda space, degree: phi)
    monkeypatch.setattr(owner, name, fault)
    with pytest.raises(RuntimeError, match=messages[0]):
        certify_nonvanishing(cycle(4), 1)
    with pytest.raises(RuntimeError, match=messages[1]):
        certify_vanishing(L)


def test_certify_vanishing_refuses_by_count_without_building_cells(monkeypatch):
    def refuse_to_build(self, d):
        raise AssertionError(f"degree {d} was built")

    monkeypatch.setattr(ConfigurationSpace, "cells_of_degree", refuse_to_build)
    monkeypatch.setattr(ConfigurationSpace, "facet_keys", refuse_to_build)
    # The guard's count enumerates no face pairs either.
    monkeypatch.setattr(ConfigurationSpace, "_pairs", refuse_to_build)
    result = certify_vanishing(cone(octahedron_boundary(3)), max_cells=1000)
    assert result.status == "skipped"
    assert result.reason == "cell budget exceeded (117504 > 1000)"


def test_certificate_search_never_builds_the_octahedralization_face_set(monkeypatch):
    def no_face_set(self):
        raise AssertionError("a face set was built")

    # Search, check and suite read the doubled complex's space, lifted from
    # the cycle's support, and its push, never a face set of OL; a doubled
    # complex has no face set to build.
    monkeypatch.setattr(Octahedralization, "complex", property(no_face_set))
    assert not hasattr(DoubledComplex, "complex")
    found = 0
    for entry in ZOO:
        L = entry.complex()
        for k in range(L.dim + 1):
            cert = certify_nonvanishing(L, k)
            if cert is not None:
                assert verify_certificate(L, io_json.certificate_from_json(io_json.certificate_to_json(cert))).ok
                found += 1
    assert found >= 10
    result = SuiteResult()
    for L in (cycle(4), suspension(cycle(4)), octahedron_boundary(2), random_flag(7, 0.5, 3)):
        check_complex(L, result)
    assert result.checks > 0 and not result.failures


def test_a_refusal_builds_nothing_of_the_octahedralization(monkeypatch):
    def built(self):
        raise AssertionError("the refusal built part of OL")

    # The size guard counts the cells on L: neither OL's face set nor the
    # space's index (which lifts L's faces) is built before it refuses.
    monkeypatch.setattr(Octahedralization, "complex", property(built))
    monkeypatch.setattr(ConfigurationSpace, "_index", property(built))
    result = certify_vanishing(cone(octahedron_boundary(3)), max_cells=1000)
    assert (result.status, result.reason) == ("skipped", "cell budget exceeded (117504 > 1000)")


def test_the_top_solve_never_builds_the_octahedralization_face_set(monkeypatch):
    def no_face_set(self):
        raise AssertionError("the face set of OL was built")

    monkeypatch.setattr(Octahedralization, "complex", property(no_face_set))
    statuses = set()
    for entry in ZOO:
        L = entry.complex()
        if L.dim >= 1:
            statuses.add(certify_vanishing(L, integral=True).status)
    assert statuses == {"primitive", "obstructed"}
    # The lemma suite reads OL's space too.
    assert not run_suite(seed=0, count=5).failures


def dense_top_solve(L):
    """Oracle: the top GF(2) solve as dense bitmasks over the reference
    signed boundary rows on cell ids, as (primitive, witness)."""
    octa = octahedralize(L)
    space = ConfigurationSpace(octa.complex)
    phi = top_mesh_cocycle(space, L.dim)
    cells, lower = space.cells_of_degree(2 * L.dim), space.cells_of_degree(2 * L.dim - 1)
    eqs = [(sum(1 << i for i, coeff in row if coeff % 2), v)
           for row, v in zip(integer_recheck.boundary_rows(space, 2 * L.dim), phi, strict=True)]
    x, witness = gf2_dense.solve(eqs, len(lower))
    if x is None:
        return None, tuple(cells[i] for i in witness)
    return {lower[i]: 1 for i in gf2_dense.indices_from_mask(x)}, None


def bench_vanishing_complexes():
    """The benchmark's analyze cases that reach the top solve within the
    default cell budget, decoded as the benchmark decodes them."""
    wl = load_workloads()
    for name in ("vanishing", "integral"):
        workload = wl.WORKLOADS[name]
        for case, data in zip(workload.cases, wl.build_inputs(raagdim, workload)):
            if "max_cells" not in case.options:
                yield case.name, io_json.complex_from_json(data)


def test_top_solve_matches_the_dense_signed_row_solve():
    # The sparse solve on facet keys eliminates as the dense one on cell ids,
    # so the primitive (cells and their order) and the witness are the same.
    cases = [(f"random_flag({9 + i % 4},{(0.4, 0.55, 0.7)[i % 3]},{i})",
              random_flag(9 + i % 4, (0.4, 0.55, 0.7)[i % 3], i)) for i in range(20)]
    # Obstructed cases, so that the witnesses are compared too.
    cases += [("cycle(5)", cycle(5)), ("suspension(cycle(4))", suspension(cycle(4)))]
    statuses = set()
    for name, L in cases + list(bench_vanishing_complexes()):
        if L.dim < 1:
            continue
        result = certify_vanishing(L)
        primitive, witness = dense_top_solve(L)
        space = ConfigurationSpace(octahedralize(L).complex)
        assert result.witness_cycle == witness, name
        assert [space.key_cell(key) for key in result.primitive or ()] == list(primitive or {}), name
        statuses.add(result.status)
    assert statuses == {"primitive", "obstructed"}


def test_largest_keys_and_cofacets_read_off_the_facet_rows():
    # Each cell's largest facet key, read without its row, is the largest
    # key of its facet_keys row, the cofacets of each (d - 1)-cell are the
    # transpose of facet_keys(d), and so is a cochain's coboundary: on OL's
    # top degree for the zoo, the benchmark's vanishing and integral cases
    # and random flag complexes of dimension at most 3, and on every degree
    # of those complexes, where a cell may have a vertex half.
    bases = [(entry.name, entry.complex()) for entry in ZOO] + list(bench_vanishing_complexes())
    flags = [(f"random_flag(8,{p},{seed})", random_flag(8, p, seed)) for p in (0.4, 0.6, 0.8) for seed in range(4)]
    bases += [(name, L) for name, L in flags if L.dim <= 3]
    spaces = 0
    for name, L in bases:
        degrees = [(octahedralize(L), 2 * L.dim)] + [(L, d) for d in range(2 * L.dim + 1)]
        for K, d in degrees:
            space = ConfigurationSpace(K)
            rows = ConfigurationSpace(K).facet_keys(d)
            assert space.largest_facet_keys(d) == [max(row) if row else None for row in rows], (name, d)
            transpose: dict = {}
            for i, row in enumerate(rows):
                for key in row:
                    transpose.setdefault(key, []).append(i)
            lower = space.stored_cells(space.indexed_cells(d - 1))[0] if d else []
            assert {key: sorted(space.cofacets(d, key)) for key in lower if transpose.get(key)} == transpose, (name, d)
            assert not any(space.cofacets(d, key) for key in lower if key not in transpose), (name, d)
            # The coboundary of a cochain, taken by the scan of the facet
            # table, is the set of cells with an odd number of its keys.
            cells = space.indexed_cells(d)
            for keys in (set(lower[::3]), set(lower[1::2])):
                odd = {cells[i] for i, row in enumerate(rows) if len(keys.intersection(row)) & 1}
                assert space.coboundary(keys) == odd, (name, d)
            spaces += 1
    assert spaces > 100


def _spy_rows_and_holders(monkeypatch):
    """Lists that record each degree whose rows the space builds, one entry
    per `facet_keys` pass, and each key whose cofacets it reads."""
    built, read = [], []
    facet_keys, cofacets = ConfigurationSpace.facet_keys, ConfigurationSpace.cofacets

    def spy(self, d):
        if d not in self._keys:
            built.append(d)
        return facet_keys(self, d)

    monkeypatch.setattr(ConfigurationSpace, "facet_keys", spy)
    monkeypatch.setattr(ConfigurationSpace, "cofacets",
                        lambda self, d, key: read.append(key) or cofacets(self, d, key))
    return built, read


def test_the_top_solve_builds_only_the_rows_it_meets(monkeypatch):
    # On cone(suspension(cycle(8))) no row meets a pivot, and the pivots
    # kept as given with rhs 0 outnumber the rest: the back-substitution
    # reads the parity of every pivot off its rhs and the cofacets of x's
    # keys, each key's once, so the solve reads none of the 9,600 top rows,
    # and the re-check takes the coboundary of x with no row; neither reads
    # facet_keys, so no row is built.
    def refuse(self, d):
        raise AssertionError(f"facet_keys({d}) was read")

    _, read = _spy_rows_and_holders(monkeypatch)
    monkeypatch.setattr(ConfigurationSpace, "facet_keys", refuse)
    L = cone(suspension(cycle(8)))
    result = certify_vanishing(L)
    assert result.status == "primitive" and len(result.primitive) == 240
    assert read and len(read) == len(set(read)) and set(read) <= set(result.primitive)
    assert ConfigurationSpace(octahedralize(L)).count_cells(2 * L.dim) == 9600


@pytest.mark.parametrize("name, by_holders", [
    ("cone(suspension(cycle(5)))", True), ("cone(cycle(8))", True), ("cone(cone(cycle(6)))", True),
    ("tree6", False), ("random_flag(12,0.5,1)", False)])
def test_the_top_solve_reads_holders_only_when_unbuilt_pivots_are_the_most(name, by_holders, monkeypatch):
    # On the cones no row meets a pivot: the solve reads no row, so the
    # top degree is never built, and reads the parities through the
    # cofacets of x's keys.  On tree6 and random_flag(12,0.5,1) the unseen
    # pivots are no more than the built and odd ones: the back-substitution
    # reads the row of every pivot, so the top degree is built in one pass,
    # and reads no cofacets.
    L = build_named(name)
    built, read = _spy_rows_and_holders(monkeypatch)
    result = certify_vanishing(L)
    assert result.status == "primitive"
    if by_holders:
        assert built == [] and read and set(read) <= set(result.primitive)
    else:
        assert read == [] and built == [2 * L.dim]


@pytest.mark.parametrize("name, integral, reads_rows", [
    ("random_flag(12,0.5,1)", False, True), ("tree6", False, True), ("tree6", True, True),
    ("cone(suspension(cycle(5)))", False, False), ("cone(cycle(8))", False, False),
    ("cone(cone(cycle(6)))", False, False), ("cone(suspension(cycle(5)))", True, False),
    ("cone(cycle(8))", True, False), ("cone(cone(cycle(6)))", True, False)])
def test_each_row_the_gf2_solve_reads_is_facet_keys_own_from_one_pass(name, integral, reads_rows, monkeypatch):
    # The solve's rows have one builder: each row it reads through
    # System.row is the very list that facet_keys(2k) holds, from the one
    # _facet_rows pass of the top degree.  A solve that reads no row builds
    # none: on the cones no pass runs, unless the Z re-check reads the top
    # rows, in its one pass.
    spaces, reads, passes = [], [], []
    solve_coboundary, solve = obstruction.solve_coboundary, gf2.solve
    facet_rows = ConfigurationSpace._facet_rows
    monkeypatch.setattr(obstruction, "solve_coboundary",
                        lambda phi, degree, space: spaces.append(space) or solve_coboundary(phi, degree, space))

    def spy(system, ncols):
        def row(i):
            keys = system.row(i)
            reads.append((i, keys))
            return keys

        return solve(gf2.System(system.tops, system.rhs, row, system.holders), ncols)

    monkeypatch.setattr(gf2, "solve", spy)
    monkeypatch.setattr(ConfigurationSpace, "_facet_rows",
                        lambda self, pairs: passes.append((self, pairs)) or facet_rows(self, pairs))
    L = build_named(name)
    result = certify_vanishing(L, integral=integral)
    assert result.status == "primitive" and result.integral_checked == integral
    (space,) = spaces
    top = space.indexed_cells(2 * L.dim)
    assert all(s is space and pairs is top for s, pairs in passes)
    if reads_rows:
        assert len(passes) == 1
        rows = space.facet_keys(2 * L.dim)
        assert reads and all(row is rows[i] for i, row in reads)
    else:
        assert reads == [] and len(passes) == int(integral)


def test_mutual_exclusion_never_both():
    for L in (cycle(4), path(3), cycle(3), simplex(2), octahedron_boundary(2)):
        cert = certify_nonvanishing(L, L.dim)
        if L.dim >= 1:
            vr = certify_vanishing(L)
            assert not (cert is not None and vr.status == "primitive")


# --- moment curve oracle -------------------------------------------------------


def test_moment_oracle_reference_cells():
    rank = {i: i for i in range(6)}
    assert moment_intersection((0, 2), (1, 3), rank) == 1
    assert moment_intersection((1, 3), (0, 2), rank) == -1
    assert moment_intersection((0, 1), (2, 3), rank) == 0
    assert moment_intersection((0, 2, 4), (1, 3, 5), rank) == 1


def test_moment_oracle_degree_zero():
    rank = {"a": 0, "b": 1}
    assert moment_intersection(("a",), ("b",), rank) == 1


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_moment_oracle_matches_cocycle_both_orders(seed):
    L = random_flag(6, 0.5, seed)
    if L.dim < 1:
        return
    o = octahedralize(L)
    for cell in all_top_cells(o)[:300]:
        a, b = cell
        assert moment_intersection(a, b, o.rank) == mesh_number(a, b, o.rank)
        assert moment_intersection(b, a, o.rank) == mesh_number(b, a, o.rank)


def test_moment_oracle_parallel_chords_give_zero():
    # Chords 0-3 and 1-2 of the moment curve in the plane are parallel.
    rank = {i: i for i in range(4)}
    assert moment_intersection((0, 3), (1, 2), rank) == 0
    assert mesh_number((0, 3), (1, 2), rank) == 0


@pytest.mark.parametrize("sigma, tau", [
    ((0, 2), (1, 3, 5)),  # unequal sizes
    ((0,), (1, 2)),       # unequal sizes
    ((0, 2, 4), (1, 3)),  # unequal sizes
    ((0, 2), (2, 3)),     # a shared vertex
])
def test_moment_oracle_refuses_pairs_outside_its_domain(sigma, tau):
    rank = {i: i for i in range(6)}
    before = obstruction._raw_moment_pairing.cache_info().currsize
    with pytest.raises(ValueError):
        moment_intersection(sigma, tau, rank)
    if len(sigma) != len(tau):
        # The index reader checks dimensions only: stored cells are disjoint.
        with pytest.raises(ValueError):
            moment_values((sigma, tau), [(0, 1)])
    # Refused before the memoized solve, so no bad key is stored.
    assert obstruction._raw_moment_pairing.cache_info().currsize == before


def test_moment_oracle_entry_points_agree_on_every_top_cell():
    # The suite's spaces on OL, and random flag complexes on the base and on
    # OL's face set, as scripts/moment_oracle_sweep.py reads them.
    cases = []
    for K in (cycle(5), suspension(cycle(4)), octahedron_boundary(2)):
        o = octahedralize(K)
        cases.append((ConfigurationSpace(o), o.rank, K.dim))
    for seed in (1, 3, 16):  # seeds whose base has top cells
        K = random_flag(7, 0.45, seed)
        cases += [(ConfigurationSpace(J), J.rank, J.dim) for J in (K, octahedralize(K).complex)]
    for space, rank, k in cases:
        ranks, pairs = space.ranks, space.indexed_cells(2 * k)
        faces = space.faces
        assert pairs
        values = moment_values(ranks, pairs)
        assert values == [moment_intersection(faces[a], faces[b], rank) for a, b in pairs]
        assert values == mesh_values(space.masks, pairs)


def test_moment_oracle_memo_is_exact(monkeypatch):
    cached = obstruction._raw_moment_pairing
    asked = set()

    def recording(pa, pb):
        asked.add((pa, pb))
        return cached(pa, pb)

    monkeypatch.setattr(obstruction, "_raw_moment_pairing", recording)
    cached.cache_clear()
    run_suite(0, 5)
    info = cached.cache_info()
    assert info.misses == len(asked) == info.currsize
    assert info.hits > 0
    for pa, pb in asked:
        assert cached.__wrapped__(pa, pb) == cached(pa, pb)

    cached.cache_clear()
    cold = run_suite(7, 5)
    warm = run_suite(7, 5)
    assert (cold.complexes, cold.checks, cold.failures) == (warm.complexes, warm.checks, warm.failures)


def moment_system(pa, pb):
    """The oracle's square system: columns a_i and -b_j on the moment curve
    in R^(2k), then one affine row per simplex."""
    k = len(pa) - 1
    n = 2 * k
    cols = [obstruction._moment_point(t, n) for t in pa] + [[-x for x in obstruction._moment_point(t, n)] for t in pb]
    mat = [[col[r] for col in cols] for r in range(n)]
    return mat + [[1] * (k + 1) + [0] * (k + 1), [0] * (k + 1) + [1] * (k + 1)]


def tangent_frame_det(pa, pb):
    """Reference: the determinant of the frame (a_i - a_0, b_j - b_0)."""
    n = 2 * (len(pa) - 1)
    frame = [
        [x - y for x, y in zip(obstruction._moment_point(t, n), obstruction._moment_point(pts[0], n))]
        for pts in (pa, pb)
        for t in pts[1:]
    ]
    return integer_det([[col[r] for col in frame] for r in range(n)])


def frame_sign_rule(pa, pb):
    """Reference sign rule: 0 on parallel hulls or when the Cramer signs put
    the common point outside a simplex, else the tangent frame's sign."""
    mat = moment_system(pa, pb)
    rhs = [0] * (len(mat) - 2) + [1, 1]
    det = integer_det(mat)
    if det == 0:
        return 0
    for i in range(len(mat)):
        sub = [row[:i] + [rhs[r]] + row[i + 1 :] for r, row in enumerate(mat)]
        if (integer_det(sub) > 0) != (det > 0):
            return 0
    return 1 if tangent_frame_det(pa, pb) > 0 else -1


@given(st.integers(1, 3).flatmap(lambda k: st.permutations(range(12)).map(
    lambda ts: (tuple(sorted(ts[: k + 1])), tuple(sorted(ts[k + 1 : 2 * k + 2]))))))
@example(((0, 3), (1, 2)))  # parallel chords in the plane
@example(((2, 3, 7), (1, 5, 6)))  # parallel hulls in R^4
@settings(max_examples=150, deadline=None)
def test_moment_system_det_is_the_tangent_frame_det(pair):
    pa, pb = pair
    assert integer_det(moment_system(pa, pb)) == tangent_frame_det(pa, pb)
    assert obstruction._raw_moment_pairing.__wrapped__(pa, pb) == frame_sign_rule(pa, pb)
