"""The randomized identity driver itself."""

import random
from functools import cached_property

from raagdim import obstruction, suite
from raagdim.complexes import make_complex
from raagdim.obstruction import moment_intersection, nonstrict_rank_indicator, push_terms, top_mesh_cocycle
from raagdim.octa import octahedralize
from raagdim.config_space import ConfigurationSpace
from raagdim.suite import SuiteResult, check_complex, run_suite
from raagdim.zoo import cycle, octahedron_boundary, suspension


def flipped_top_mesh_cocycle(space, degree):
    """Fault: the meshing test inverted."""
    return [1 - v for v in top_mesh_cocycle(space, degree)]


def dropped_swap_push_terms(pairs, space):
    """Fault: the push terms keep only the first product term, not the swap."""
    for first, second, _sign in push_terms(pairs, space):
        yield first, second, 0


def dropped_push_to_product(chain, space):
    """Fault: the push keeps only its first product term, not the swap."""
    out: dict = {}
    for (sigma, tau), coeff in chain.items():
        cell = (sigma, space.minus_ids[tau])
        out[cell] = out.get(cell, 0) + coeff
    return {c: v for c, v in out.items() if v}


def negated_moment_intersection(sigma, tau, rank):
    """Fault: the moment oracle's sign flipped.

    Swapped in at the suite's binding: the oracle memoizes its exact solve,
    so a fault at `intlinalg.integer_det` would be masked on a warm cache.
    """
    return -moment_intersection(sigma, tau, rank)


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
        m.setattr(obstruction, "push_terms", dropped_swap_push_terms)
        res = run_suite(seed=3, count=5)
    assert res.failures
    assert res.failures[0].check == "pushforward"

    monkeypatch.setattr(suite, "push_to_product", dropped_push_to_product)
    res = run_suite(seed=3, count=5)
    assert res.failures
    assert res.failures[0].check == "pushforward"


def test_the_swap_term_of_a_stored_top_cell_never_meshes():
    # So the pullback check cannot see a dropped swap term: on a stored cell
    # (a, b) the minus copy of a's first vertex ranks at or below a's first
    # vertex, which ranks below b's.  The pushforward check catches it.
    res = SuiteResult()
    for K in (cycle(5), octahedron_boundary(2), suspension(cycle(4))):
        space = ConfigurationSpace(octahedralize(K))
        pairs = space.indexed_cells(2 * K.dim)[1]
        ranks, minus = space.ranks, space.minus_ranks
        assert pairs
        for _first, (b, pa), _sign in push_terms(pairs, space):
            assert nonstrict_rank_indicator(ranks[b], ranks[pa], minus) == 0
        check_complex(K, res)
    assert not res.failures


def test_injected_oracle_fault_is_caught_and_shrunk(monkeypatch):
    monkeypatch.setattr(suite, "moment_intersection", negated_moment_intersection)
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


def test_corrupted_minus_table_entry_is_caught(monkeypatch):
    build = ConfigurationSpace.minus_ids.func

    def corrupted(space):
        """Fault: the first top face's minus copy is the last top face's."""
        table = build(space)
        top = space.ids_of_dim(len(space.ranks[-1]) - 1)
        table[top[0]] = table[top[-1]]
        return table

    fault = cached_property(corrupted)
    fault.__set_name__(ConfigurationSpace, "minus_ids")
    monkeypatch.setattr(ConfigurationSpace, "minus_ids", fault)
    res = run_suite(seed=3, count=5)
    assert res.failures
    assert res.failures[0].check in ("pullback", "pushforward")
