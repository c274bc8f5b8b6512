"""The randomized identity driver itself."""

from raagdim import suite
from raagdim.obstruction import mesh_number
from raagdim.octa import minus_lift, project
from raagdim.suite import run_suite


def flipped_mesh_number(sigma, tau, rank):
    """Fault: the meshing test inverted."""
    return 1 - abs(mesh_number(sigma, tau, rank))


def dropped_push_to_product(chain, octa):
    """Fault: the push keeps only its first product term, not the swap."""
    out: dict = {}
    for (sigma, tau), coeff in chain.items():
        cell = (sigma, minus_lift(project(tau)))
        out[cell] = out.get(cell, 0) + coeff
    return {c: v for c, v in out.items() if v}


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
