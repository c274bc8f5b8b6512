"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import importlib.util
import os
import sys
import time
from functools import partial

from index_reference import doubled_complex
from planarity_reference import is_planar, one_skeleton
from push_reference import mesh_number
from raagdim.bounds import analyze
from raagdim.complexes import join, relabeled, skeleton
from raagdim.config_space import ConfigurationSpace
from raagdim.homology import mod2_betti
from raagdim.obstruction import (
    certify_nonvanishing,
    certify_vanishing,
    check_star_condition,
    moment_intersection,
)
from raagdim.octa import octahedralize
from raagdim.suite import run_suite
from raagdim.zoo import ZOO, cycle, octahedron_boundary, path, points, random_flag, simplex, tree
from test_config_space import signed_boundary, signed_chain_boundary

SEARCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "find_star_violation.py")


def load_search():
    """The violation search, loaded from its script by path (registered
    first, as an import registers a module, so that its record class is
    found by its module's name)."""
    spec = importlib.util.spec_from_file_location("find_star_violation", SEARCH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_criterion_1_c4_end_to_end():
    t0 = time.perf_counter()
    r = analyze(cycle(4))
    elapsed = time.perf_counter() - t0
    assert r.actdim == (4, 4)
    assert r.vkdim == (2, 2)
    assert r.gd == 2
    assert r.l2dim == 2
    assert r.conjecture_status == "verified"
    assert elapsed < 1.0
    print(f"\nCRITERION 1 PASS: square cycle gives actdim 4, vkdim 2, gd 2, "
          f"l2dim 2, conjecture verified in {elapsed:.3f}s")


def test_criterion_2_octahedron_boundary():
    t0 = time.perf_counter()
    L = octahedron_boundary(2)
    r = analyze(L)
    elapsed = time.perf_counter() - t0
    assert r.actdim == (6, 6)
    assert r.actdim[0] == 2 * r.gd
    assert r.certificate is not None
    assert r.certificate.cycle == frozenset(L.faces_of_dim(2))  # the full sphere
    # Configuration-space scale check: hundreds of top pair cells.
    space = ConfigurationSpace(octahedralize(L).complex)
    n_top = len(space.cells_of_degree(4))
    assert n_top > 500
    assert elapsed < 60.0
    print(f"\nCRITERION 2 PASS: octahedron boundary exact actdim 6 = 2 gd, "
          f"certificate on the full sphere cycle, {n_top} top cells, {elapsed:.1f}s")


def test_criterion_3_vanishing_half():
    t0 = time.perf_counter()
    cases = [("path3", path(3)), ("path4", path(4)), ("tree6", tree(6, 0)), ("simplex2", simplex(2))]
    for name, L in cases:
        k = L.dim
        result = certify_vanishing(L)
        assert result.status == "primitive", name
        r = analyze(L)
        assert r.actdim is not None and r.actdim[1] <= 2 * k + 1, name
        if k == 1:
            verts, edges = one_skeleton(octahedralize(L).complex)
            assert is_planar(verts, edges).planar, name
    print(f"\nCRITERION 3 PASS: coboundary primitives found for all four complexes, "
          f"actdim upper bounds at 2k+1, doubled 1-complexes planar "
          f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_4_lemma_suite_50_complexes():
    t0 = time.perf_counter()
    result = run_suite(seed=20260810, count=50)
    assert result.complexes >= 50
    assert not result.failures, result.failures
    print(f"\nCRITERION 4 PASS: {result.complexes} seeded complexes, "
          f"{result.checks} identity checks, zero failures "
          f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_5_moment_curve_oracle_agreement():
    t0 = time.perf_counter()
    family = [
        cycle(4), cycle(5), cycle(6),
        path(2), path(3), path(4),
        simplex(1), simplex(2),
        points(2), points(3),
        octahedron_boundary(1), octahedron_boundary(2),
        skeleton(simplex(3), 2),
    ]
    for seed in range(16):
        K = random_flag(9, 0.4, seed=seed * 101 + 7)
        if 1 <= K.dim <= 2:
            family.append(K)
    # Doubled complexes as stress members beyond the stated vertex budget.
    family.append(octahedralize(cycle(4)).complex)
    family.append(octahedralize(simplex(2)).complex)
    family.append(octahedralize(octahedron_boundary(2)).complex)
    checked = 0
    for K in family:
        assert len(K.vertices) <= 16 and K.dim <= 2
        space = ConfigurationSpace(K)
        k = K.dim
        for cell in space.cells_of_degree(2 * k):
            if len(cell[0]) != k + 1:
                continue
            a, b = cell
            assert moment_intersection(a, b, K.rank) == mesh_number(a, b, K.rank), (K.vertices, cell)
            checked += 1
    assert checked > 1000
    print(f"\nCRITERION 5 PASS: geometric intersection numbers match the cocycle "
          f"on {checked} top cells across {len(family)} complexes "
          f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_6_mutual_exclusion_and_flag_completeness():
    t0 = time.perf_counter()
    both = 0
    for entry in ZOO:
        L = entry.complex()
        k = L.dim
        cert = certify_nonvanishing(L, k)
        vanish = certify_vanishing(L) if k >= 1 else None
        if cert is not None and vanish is not None:
            assert vanish.status != "primitive", entry.name
        top_h = mod2_betti(L)[k] if k >= 0 else 0
        if top_h and entry.flag:
            assert cert is not None, f"{entry.name}: flag with top homology must certify"
        both += 1
    print(f"\nCRITERION 6 PASS: {both} zoo entries, vanishing and nonvanishing "
          f"never both succeed; every flag entry with top homology certified "
          f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_7_star_condition_failure_exhibit():
    t0 = time.perf_counter()
    exhibit = load_search().find_star_violation(seed=0, budget=40)
    assert exhibit is not None
    report = check_star_condition(exhibit.cycle, exhibit.delta)
    assert not report.holds
    # Re-verify the nonzero boundary independently.
    from raagdim.obstruction import covering_pair_chain
    from raagdim.octa import double_over

    octa = octahedralize(exhibit.complex)
    doubled = double_over(octa, exhibit.cycle, exhibit.delta)
    space, pairs = covering_pair_chain(doubled, ConfigurationSpace(doubled))
    F = len(space.faces)
    omega = [space.key_cell(a * F + b) for a, b in pairs]
    signed = signed_chain_boundary(omega, partial(signed_boundary, doubled_complex(doubled)))
    boundary = {c for c, v in signed.items() if v % 2}
    assert len(boundary) == exhibit.boundary_size
    assert exhibit.boundary_cell in boundary
    print(f"\nCRITERION 7 PASS: condition violation with nonzero boundary found; "
          f"violating pair {exhibit.violating_pair}, boundary hits "
          f"{exhibit.boundary_size} cells, e.g. {exhibit.boundary_cell} "
          f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_8_join_lemma_consistency():
    t0 = time.perf_counter()
    factors = {
        "points2": (points(2), 0),
        "cycle4": (cycle(4), 2),
    }
    # Exact factor values: certificate lower bounds meet the top-degree cap.
    for name, (L, expect) in factors.items():
        cert = certify_nonvanishing(L, L.dim)
        assert cert is not None and 2 * L.dim == expect, name

    pairs = [("points2", "points2"), ("points2", "cycle4"), ("cycle4", "cycle4")]
    for na, nb in pairs:
        A, _va = factors[na]
        B, _vb = factors[nb]
        J = join(relabeled(A, {v: f"a.{v}" for v in A.vertices}),
                 relabeled(B, {v: f"b.{v}" for v in B.vertices}))
        cert = certify_nonvanishing(J, J.dim)
        assert cert is not None, (na, nb)
        join_lower = 2 * J.dim
        va, vb = factors[na][1], factors[nb][1]
        assert join_lower >= va + vb + 2
        # Both sides exactly determined here: the join formula is an equality.
        assert join_lower == va + vb + 2, (na, nb)
    print(f"\nCRITERION 8 PASS: join certificates match the join formula exactly "
          f"on {len(pairs)} pairs ({time.perf_counter() - t0:.1f}s)")


def test_roundtrip_invariant_zoo_certificates():
    # Generate -> analyze -> certificate -> verify, for every zoo entry
    # with nonzero top mod-2 homology (and flagness, so a certificate must
    # exist).
    from raagdim import io_json
    from raagdim.verify import verify_certificate

    count = 0
    for entry in ZOO:
        L = entry.complex()
        if L.dim < 0 or not entry.flag:
            continue
        if not mod2_betti(L)[L.dim]:
            continue
        r = analyze(L)
        assert r.certificate is not None, entry.name
        data = io_json.certificate_from_json(io_json.certificate_to_json(r.certificate))
        back = io_json.complex_from_json(io_json.complex_to_json(L))
        outcome = verify_certificate(back, data)
        assert outcome.ok, (entry.name, outcome.failed_check, outcome.detail)
        count += 1
    assert count >= 6
    print(f"\nROUNDTRIP PASS: {count} zoo certificates survive serialize + re-verify")
