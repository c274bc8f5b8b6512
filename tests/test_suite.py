"""The randomized identity driver itself."""

import random
from functools import cached_property

from raagdim import suite
from raagdim.complexes import make_complex
from raagdim.obstruction import mesh_number, moment_intersection
from raagdim.config_space import ConfigurationSpace
from raagdim.suite import SuiteResult, check_complex, run_suite


def flipped_mesh_number(sigma, tau, rank):
    """Fault: the meshing test inverted."""
    return 1 - abs(mesh_number(sigma, tau, rank))


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
        m.setattr(suite, "mesh_number", flipped_mesh_number)
        res = run_suite(seed=3, count=5)
    assert res.failures
    assert res.failures[0].check == "pullback"
    # The shrunk counterexample is still a genuine complex.
    assert res.failures[0].complex_maximal

    monkeypatch.setattr(suite, "push_to_product", dropped_push_to_product)
    res = run_suite(seed=3, count=5)
    assert res.failures
    assert res.failures[0].check == "pushforward"


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
        fid, top = space.face_ids, space.faces_of_dim(len(space.faces[-1]) - 1)
        table[fid[top[0]]] = table[fid[top[-1]]]
        return table

    fault = cached_property(corrupted)
    fault.__set_name__(ConfigurationSpace, "minus_ids")
    monkeypatch.setattr(ConfigurationSpace, "minus_ids", fault)
    res = run_suite(seed=3, count=5)
    assert res.failures
    assert res.failures[0].check in ("pullback", "pushforward")
