"""The randomized identity driver itself."""

from raagdim.suite import run_suite


def test_suite_deterministic_for_fixed_seed():
    a = run_suite(seed=7, count=5)
    b = run_suite(seed=7, count=5)
    assert (a.complexes, a.checks, len(a.failures)) == (b.complexes, b.checks, len(b.failures))
    assert not a.failures


def test_suite_counts_grow_with_count():
    small = run_suite(seed=1, count=2)
    big = run_suite(seed=1, count=6)
    assert big.checks > small.checks


def test_injected_faults_are_caught_and_shrunk():
    res = run_suite(seed=3, count=5, inject="mesh-flip")
    assert res.failures
    assert res.failures[0].check == "pullback"
    # The shrunk counterexample is still a genuine complex.
    assert res.failures[0].complex_maximal

    res = run_suite(seed=3, count=5, inject="transfer-drop")
    assert res.failures
    assert res.failures[0].check == "pushforward"
