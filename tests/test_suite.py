"""The randomized identity driver itself."""

import random
from functools import cached_property

import pytest
from raagdim import obstruction, suite
from raagdim.complexes import make_complex, skeleton
from raagdim.obstruction import (StarConditionReport, moment_values, nonstrict_values, push_terms,
                                 top_mesh_cocycle)
from raagdim.octa import octahedralize
from raagdim.config_space import ConfigurationSpace
from raagdim.suite import SuiteResult, check_complex, run_suite
from raagdim.zoo import ZOO, cycle, octahedron_boundary, random_flag, simplex, suspension


def flipped_top_mesh_cocycle(space, degree):
    """Fault: the meshing test inverted."""
    return [1 - v for v in top_mesh_cocycle(space, degree)]


def first_twice_push_terms(pairs, space):
    """Fault: the swap term replaced by the first product term."""
    firsts, _seconds = push_terms(pairs, space)
    return firsts, firsts


def dropped_push_to_product(pairs, space):
    """Fault: the push keeps only its first product term, not the swap."""
    out: set = set()
    for sigma, tau in pairs:
        out.symmetric_difference_update([(sigma, space.minus_ids[tau])])
    return out


def negated_moment_values(ranks, pairs):
    """Fault: the moment oracle's sign flipped.

    Swapped in at the suite's binding: the oracle memoizes its exact solve,
    so a fault at `intlinalg.integer_det` would be masked on a warm cache.
    """
    return [-v for v in moment_values(ranks, pairs)]


def star_condition_always_holds(cycle, delta):
    """Fault: the pair-intersection condition reported as holding."""
    return StarConditionReport(holds=True, violation=None)


def empty_chain(*_args):
    """Fault: a product chain, or a push, that is always empty."""
    return set()


_build_minus_ids = ConfigurationSpace.minus_ids.func


def _corrupted_minus_ids(space):
    """Fault: the first top face's minus copy is the last top face's."""
    table = _build_minus_ids(space)
    top = space.ids_of_dim(len(space.ranks[-1]) - 1)
    table[top[0]] = table[top[-1]]
    return table


corrupted_minus_ids = cached_property(_corrupted_minus_ids)
corrupted_minus_ids.__set_name__(ConfigurationSpace, "minus_ids")

# Each fault: its (owner, name, replacement) patches, swapped in by name.
FAULTS = {
    "top_mesh_cocycle": [(suite, "top_mesh_cocycle", flipped_top_mesh_cocycle)],
    # Both bindings of the one push rule: the suite's pullback check and
    # `push_to_product`.
    "push_terms": [(obstruction, "push_terms", first_twice_push_terms), (suite, "push_terms", first_twice_push_terms)],
    "push_to_product": [(suite, "push_to_product", dropped_push_to_product)],
    "moment_values": [(suite, "moment_values", negated_moment_values)],
    "minus_ids": [(ConfigurationSpace, "minus_ids", corrupted_minus_ids)],
    "check_star_condition": [(suite, "check_star_condition", star_condition_always_holds)],
    "empty_product_chain": [(suite, "delta_product_chain", empty_chain)],
    # The push emptied too, so the pushforward check agrees and the
    # evaluation check is reached.
    "delta_product_chain": [(suite, "push_to_product", empty_chain), (suite, "delta_product_chain", empty_chain)],
}


def inject(monkeypatch, fault):
    for patch in FAULTS[fault]:
        monkeypatch.setattr(*patch)


# Seed 3 samples the suspension of the 6-cycle first.
SC6 = tuple((pole, f"s.c{i}", f"s.c{j}") for pole in ("north", "south")
            for i, j in ((0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)))
PAIR = f"cycle {list(SC6)}, delta ('north', 's.c0', 's.c1')"
FIRST_CELL = "cell ((('north', -1), ('s.c0', -1), ('s.c1', -1)), (('north', 1), ('s.c0', 1), ('s.c1', 1)))"
# run_suite(3, 5) under each fault: (complexes, checks, failures), each
# failure as (check, shrunk maximal faces, detail).
FAULT_PINS = {
    "top_mesh_cocycle": (1, 1, [("pullback", (("south", "s.c4", "s.c5"),),
                                 f"{FIRST_CELL}: cocycle 0 != pushed evaluation 1")]),
    "push_terms": (1, 1, [("pullback", (("south", "s.c4", "s.c5"),),
                           f"{FIRST_CELL}: cocycle True != pushed evaluation 2")]),
    "push_to_product": (1, 2449, [("pushforward", SC6,
                                   f"{PAIR}: push of covering chain differs from product chain")]),
    "moment_values": (1, 2467, [("moment-oracle", (("south", "s.c4", "s.c5"),),
                                 f"{FIRST_CELL}: geometric intersection disagrees with the cocycle")]),
    "minus_ids": (1, 2, [("pullback", (("north", "s.c4", "s.c5"), ("south", "s.c3", "s.c4"), ("south", "s.c4", "s.c5")),
                          "cell ((('north', -1), ('s.c0', -1), ('s.c1', -1)), (('north', 1), ('s.c0', 1), "
                          "('s.c5', -1))): cocycle True != pushed evaluation 2")]),
    # No tried pair of seed 3's samples breaks the condition, so this reads
    # as the run without the fault; the boundary of the 3-simplex shows it.
    "check_star_condition": (5, 12746, []),
    "empty_product_chain": (1, 2449, [("pushforward", SC6,
                                       f"{PAIR}: push of covering chain differs from product chain")]),
    "delta_product_chain": (1, 2451, [("evaluation", SC6, f"{PAIR}: product chain evaluates to 0")]),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_each_injected_fault_pins_the_whole_suite_result(monkeypatch, fault):
    inject(monkeypatch, fault)
    res = run_suite(seed=3, count=5)
    failures = [(f.check, f.complex_maximal, f.detail) for f in res.failures]
    assert (res.complexes, res.checks, failures) == FAULT_PINS[fault]


@pytest.mark.parametrize("fault, check", [("check_star_condition", "cycle"), ("delta_product_chain", "evaluation")])
def test_cycle_and_evaluation_faults_are_caught_on_the_boundary_of_the_3_simplex(monkeypatch, fault, check):
    # Over the first triangle, the pair v0v1v3, v0v2v3 breaks the condition,
    # and the covering chain has a boundary of 48 cells.
    K = skeleton(simplex(3), 2)
    inject(monkeypatch, fault)
    monkeypatch.setattr(suite, "_sample_complex", lambda rng: K)
    res = run_suite(seed=0, count=1)
    triangles = (("v0", "v1", "v2"), ("v0", "v1", "v3"), ("v0", "v2", "v3"), ("v1", "v2", "v3"))
    wording = {"cycle": "covering chain has boundary", "evaluation": "product chain evaluates to 0"}[check]
    detail = f"cycle {list(triangles)}, delta ('v0', 'v1', 'v2'): {wording}"
    assert (res.complexes, res.checks) == (1, 114)
    # Dropping any triangle leaves no top cycle, so nothing shrinks away.
    assert [(f.check, f.complex_maximal, f.detail) for f in res.failures] == [(check, triangles, detail)]
    probe = SuiteResult()
    check_complex(make_complex(triangles), probe)
    assert [f.check for f in probe.failures] == [check]


def test_suite_deterministic_for_fixed_seed():
    a = run_suite(seed=7, count=5)
    b = run_suite(seed=7, count=5)
    assert (a.complexes, a.checks, len(a.failures)) == (b.complexes, b.checks, len(b.failures))
    assert not a.failures


def test_suite_counts_grow_with_count():
    small = run_suite(seed=1, count=2)
    big = run_suite(seed=1, count=6)
    assert big.checks > small.checks


def test_injected_faults_are_caught_and_shrunk(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(suite, "top_mesh_cocycle", flipped_top_mesh_cocycle)
        res = run_suite(seed=3, count=5)
    assert res.failures
    assert res.failures[0].check == "pullback"
    # Caught on the first cell of the first complex.
    assert res.complexes == 1 and res.checks == 1
    # The shrunk counterexample is still a genuine complex.
    assert res.failures[0].complex_maximal

    with monkeypatch.context() as m:
        inject(m, "push_terms")
        res = run_suite(seed=3, count=5)
    assert res.failures
    assert res.failures[0].check == "pullback"

    monkeypatch.setattr(suite, "push_to_product", dropped_push_to_product)
    res = run_suite(seed=3, count=5)
    assert res.failures
    assert res.failures[0].check == "pushforward"


def test_the_swap_term_of_a_stored_top_cell_never_meshes():
    # So the push needs no factor-switch sign, and the pullback check reads
    # nu' of the first term alone: on a stored cell (a, b) the minus copy of
    # a's first vertex ranks at or below a's first vertex, which ranks below
    # b's.  Checked on the top cells of every skeleton's space, the cells of
    # two faces of one dimension, in every even degree.
    for L in [entry.complex() for entry in ZOO] + [random_flag(8, 0.5, seed) for seed in range(20)]:
        space = ConfigurationSpace(octahedralize(L))
        ranks = space.ranks
        for d in range(0, 2 * L.dim + 1, 2):
            pairs = [(a, b) for a, b in space.indexed_cells(d)[1] if len(ranks[a]) == len(ranks[b])]
            assert pairs
            _firsts, (bs, pas) = push_terms(pairs, space)
            assert len(bs) == len(pas) == len(pairs) and not any(nonstrict_values(space.spread, bs, pas))
    res = SuiteResult()
    for K in (cycle(5), octahedron_boundary(2), suspension(cycle(4))):
        check_complex(K, res)
    assert not res.failures


def test_injected_oracle_fault_is_caught_and_shrunk(monkeypatch):
    monkeypatch.setattr(suite, "moment_values", negated_moment_values)
    res = run_suite(seed=3, count=5)
    assert res.failures
    fail = res.failures[0]
    assert fail.check == "moment-oracle"
    # The reported complex is shrunk from the first sample, and still fails.
    rng = random.Random(3)
    sampled = None
    while sampled is None:
        sampled = suite._sample_complex(rng)
    assert len(fail.complex_maximal) < len(sampled.maximal_faces())
    shrunk = make_complex(fail.complex_maximal)
    probe = SuiteResult()
    check_complex(shrunk, probe)
    assert [f.check for f in probe.failures] == ["moment-oracle"]


def test_a_passing_check_builds_no_cell_tuple(monkeypatch):
    # Every identity and the moment oracle read face-id pairs and rank
    # tuples; only a failure's wording names a cell by its faces.
    cases = (cycle(5), octahedron_boundary(2), suspension(cycle(4)))
    counts = []
    for K in cases:
        res = SuiteResult()
        check_complex(K, res)
        counts.append(res.checks)
    suite_checks = run_suite(0, 5).checks

    def refuse(self, *args):
        raise AssertionError("a cell was named by its faces")

    monkeypatch.setattr(ConfigurationSpace, "cells_of_degree", refuse)
    monkeypatch.setattr(ConfigurationSpace, "faces", property(refuse))
    for K, checks in zip(cases, counts):
        res = SuiteResult()
        check_complex(K, res)
        assert not res.failures and res.checks == checks
    res = run_suite(0, 5)
    assert (res.complexes, res.checks, res.failures) == (5, suite_checks, [])


def test_check_complex_builds_no_space_but_ols(monkeypatch):
    # Every doubled complex's chains are named in OL's space, built once.
    built = []
    init = ConfigurationSpace.__init__

    def record(self, K):
        built.append(K)
        init(self, K)

    monkeypatch.setattr(ConfigurationSpace, "__init__", record)
    for K in (cycle(5), octahedron_boundary(2), suspension(cycle(4)), skeleton(simplex(3), 2)):
        built.clear()
        check_complex(K, SuiteResult())
        assert built == [octahedralize(K)]


def test_corrupted_minus_table_entry_is_caught(monkeypatch):
    inject(monkeypatch, "minus_ids")
    res = run_suite(seed=3, count=5)
    assert res.failures
    assert res.failures[0].check in ("pullback", "pushforward")
