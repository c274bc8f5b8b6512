"""The dimension bound engine."""

import importlib.util
import os
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from raagdim import bounds, intlinalg, obstruction
from raagdim.bounds import analyze, geometric_dimension, l2_dimension, vkdim_lower
from raagdim.complexes import link, make_complex
from raagdim.homology import rational_betti
from raagdim.obstruction import certify_nonvanishing, certify_vanishing
from raagdim.zoo import (
    ZOO, build_named, cone, cycle, octahedron_boundary, path, points, random_flag, simplex, suspension, tree,
)

import star_link_reference


def test_geometric_dimension():
    assert geometric_dimension(cycle(4)) == 2
    assert geometric_dimension(points(1)) == 1
    assert geometric_dimension(octahedron_boundary(2)) == 3
    assert geometric_dimension(make_complex([])) == 0


def test_l2_dimension():
    assert l2_dimension(rational_betti(cycle(4))) == 2
    assert l2_dimension(rational_betti(simplex(2))) is None
    assert l2_dimension(rational_betti(octahedron_boundary(2))) == 3
    assert l2_dimension(rational_betti(points(2))) == 1


def star_link_bound(L, vertex):
    """The bound through one vertex star: the link's bound plus one."""
    sub, why = vkdim_lower(link(L, (vertex,)), 2)
    return sub + 1, why


def test_star_link_bound_on_cone():
    L = cone(cycle(4))
    apex = L.vertices[0]
    bound, why = star_link_bound(L, apex)
    assert bound == 3
    assert "covering-chain" in why


def test_star_link_bound_leaf_is_trivial():
    L = path(3)
    leaf_bound, _ = star_link_bound(L, "p0")
    mid_bound, _ = star_link_bound(L, "p1")
    assert leaf_bound == 0
    assert mid_bound == 1


def test_vkdim_lower_monotone_in_depth():
    L = cone(cycle(4))
    shallow, _ = vkdim_lower(L, depth=0)
    deep, _ = vkdim_lower(L, depth=2)
    assert deep >= shallow
    assert deep == 3


def top_certified(count=20):
    """The zoo, the complexes of the certify benchmark and `count` random
    flag complexes, each with a top-degree certificate."""
    named = [entry.complex() for entry in ZOO if entry.flag]
    named += [build_named(expr) for expr in (
        "octahedron_boundary(4)", "octahedron_boundary(3)", "suspension(suspension(cycle(5)))",
        "join(cycle(4),cycle(4))")]
    drawn = (random_flag(n, p, s) for n in range(6, 11) for p in (0.3, 0.4, 0.5, 0.6, 0.7) for s in range(40))
    found = [L for L in named if certify_nonvanishing(L, L.dim) is not None]
    randoms = [L for L in drawn if L.dim >= 1 and certify_nonvanishing(L, L.dim) is not None]
    assert len(randoms) >= count
    return found + randoms[:count]


def test_no_link_reaches_the_2k_ceiling(monkeypatch):
    # What lets analyze skip the links once a top certificate gives 2k.
    built = []

    def recorded_link(K, sigma):
        built.append((K.vertices, sigma))
        return link(K, sigma)

    checked = 0
    for L in top_certified():
        cache: dict = {}
        for v in L.vertices:
            lk = link(L, (v,))
            if lk.dim >= 0:
                sub, _ = vkdim_lower(lk, bounds.STAR_DEPTH - 1, cache)
                assert sub <= 2 * L.dim - 1, (L.vertices, v)
        with monkeypatch.context() as m:
            m.setattr(bounds, "link", recorded_link)
            report = analyze(L)
        assert not built, built[0]
        assert report.vkdim[0] == 2 * L.dim and report.certificate is not None
        assert not any(r.rule == "star-link" for r in report.records)
        checked += 1
    assert checked >= 30


@given(st.integers(1, 9), st.sampled_from((0.3, 0.5, 0.7, 0.9)), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_vkdim_lower_stays_below_twice_the_dimension(n, p, seed):
    L = random_flag(n, p, seed)
    assert vkdim_lower(L)[0] <= 2 * L.dim


@pytest.mark.parametrize("n, p, seed", [(8, 0.8, 1), (9, 0.6, 7), (10, 0.7, 1), (11, 0.6, 0), (11, 0.7, 0)])
def test_vkdim_lower_memo_answers_as_a_cold_call(monkeypatch, n, p, seed):
    # A link met at one remaining depth or threshold must not answer for
    # another: a pair is the cold value, and None means the cold value
    # does not beat the threshold.
    calls = []

    def recorded(L, depth=3, _cache=None, _above=-2):
        result = vkdim_lower(L, depth, _cache, _above)
        calls.append((L, depth, _above, result))
        return result

    monkeypatch.setattr(bounds, "vkdim_lower", recorded)
    analyze(random_flag(n, p, seed))
    monkeypatch.undo()
    assert calls
    for L, depth, above, result in calls:
        cold = vkdim_lower(L, depth)
        if result is None:
            assert cold[0] <= above, (L.vertices, depth, above)
        else:
            assert result == cold, (L.vertices, depth, above)


def check_against_reference(L):
    """vkdim_lower at every depth <= 3 and every threshold -2..2 dim L
    against the unpruned reference, cold and through one memo that sees
    the thresholds falling and then rising; vertex and edge links against
    the reference's link."""
    for sigma in L.faces_of_dim(0) + L.faces_of_dim(1):
        assert link(L, sigma) == star_link_reference.link(L, sigma), sigma
    shared: dict = {}
    thresholds = [*range(2 * L.dim, -3, -1), *range(-2, 2 * L.dim + 1)]
    for depth in range(4):
        expected = star_link_reference.vkdim_lower(L, depth)
        assert vkdim_lower(L, depth) == expected, (L.vertices, depth)
        for above in thresholds:
            want = expected if expected[0] > above else None
            assert vkdim_lower(L, depth, _above=above) == want, (L.vertices, depth, above)
            assert vkdim_lower(L, depth, shared, above) == want, (L.vertices, depth, above, "memo")


@given(st.integers(5, 10), st.sampled_from((0.3, 0.4, 0.5, 0.6, 0.7, 0.8)), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_pruned_search_matches_the_reference_on_random_flags(n, p, seed):
    check_against_reference(random_flag(n, p, seed))


@pytest.mark.parametrize("entry", [e for e in ZOO if e.flag], ids=lambda e: e.name)
def test_pruned_search_matches_the_reference_on_the_zoo(entry):
    check_against_reference(entry.complex())


def test_vkdim_lower_refuses_a_value_above_twice_the_dimension(monkeypatch):
    # The pruning rests on value <= 2 dim L; a link bound claimed above what
    # a link can give breaks it, and the search says so.  path(3) has no
    # certificate, so the search reaches its links.
    real = vkdim_lower
    monkeypatch.setattr(bounds, "vkdim_lower", lambda L, depth, cache, above: (2 * L.dim + 2, "fake"))
    with pytest.raises(RuntimeError, match="exceeds twice the dimension"):
        real(path(3))


def census_sample(count):
    """The first `count` complexes of scripts/census.py's sample from seed 0."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location("census_script", os.path.join(root, "scripts", "census.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.sample(0, count))


@pytest.mark.parametrize("L", [e.complex() for e in ZOO] + census_sample(30),
                         ids=[e.name for e in ZOO] + [f"census-{i}" for i in range(30)])
def test_analyze_records_the_bound_that_vkdim_lower_returns(L):
    # analyze and vkdim_lower read one search: apart from the obstructed
    # solve's witness, the best certified vkdim lower record is the bound.
    lows = [r.value for r in analyze(L, allow_non_flag=True).records
            if (r.quantity, r.kind) == ("vkdim", "lower") and r.in_interval and r.rule != "cocycle-pairing-witness"]
    assert max(lows, default=-1) == vkdim_lower(L)[0]


@pytest.mark.parametrize("expr", ["cycle(4)", "octahedron_boundary(2)", "suspension(cycle(5))"])
def test_the_obstructed_solve_records_its_witness_when_the_search_finds_no_top_certificate(monkeypatch, expr):
    L = build_named(expr)
    found = analyze(L)
    search = bounds.certify_nonvanishing
    monkeypatch.setattr(bounds, "certify_nonvanishing", lambda K, degree: None if degree == L.dim else search(K, degree))
    report = analyze(L)
    assert report.certificate is None and report.vanishing.status == "obstructed"
    assert ("vkdim", "lower", 2 * L.dim, "cocycle-pairing-witness") in [
        (r.quantity, r.kind, r.value, r.rule) for r in report.records]
    assert (report.vkdim, report.embdim, report.actdim) == (found.vkdim, found.embdim, found.actdim)


@st.composite
def flag_complex_and_vertex_order(draw):
    """A random flag complex's maximal faces and a vertex order for it."""
    L = random_flag(draw(st.integers(5, 8)), draw(st.sampled_from((0.4, 0.5, 0.6, 0.7))), draw(st.integers(0, 10**6)))
    return L.maximal_faces(), tuple(draw(st.permutations(L.vertices)))


@given(flag_complex_and_vertex_order())
@example((((("r0", "r1", "r3", "r4"), ("r2", "r3", "r4", "r6"), ("r1", "r2", "r3", "r4", "r5")),
           ("r3", "r5", "r4", "r6", "r1", "r0", "r2"))))
@settings(max_examples=30, deadline=None)
def test_certified_intervals_under_two_vertex_orders_overlap(case):
    # The certificate search can find more in one vertex order than in
    # another (in the example: vkdim [4, 7] in the order r0..r6, [3, 7] in
    # the other), so the intervals need not be equal; each certified lower
    # end still holds for the complex, so it is at most the other's upper end.
    faces, order = case
    reports = [analyze(make_complex(faces, vertex_order=o)) for o in (sorted(order), order)]
    for quantity in ("vkdim", "embdim", "actdim"):
        (lo1, hi1), (lo2, hi2) = [getattr(r, quantity) for r in reports]
        assert lo1 <= hi2 and lo2 <= hi1, (quantity, reports)


def test_analyze_c4_exact():
    r = analyze(cycle(4))
    assert (r.gd, r.l2dim) == (2, 2)
    assert r.vkdim == (2, 2)
    assert r.actdim == (4, 4)
    assert r.conjecture_status == "verified"
    assert r.certificate is not None


def test_analyze_octahedron_matches_double_gd():
    r = analyze(octahedron_boundary(2))
    assert r.actdim == (6, 6)
    assert r.actdim[1] == 2 * r.gd
    assert r.vkdim == (4, 4)
    assert r.conjecture_status == "verified"


def test_analyze_paths_and_trees():
    for L in (path(3), path(4), tree(6, 0)):
        r = analyze(L)
        assert r.vkdim == (1, 1)
        assert r.actdim == (3, 3)
        assert r.conjecture_status == "vacuous"
        assert r.vanishing is not None and r.vanishing.status == "primitive"


def test_analyze_full_simplices_free_abelian():
    for k in (0, 1, 2):
        r = analyze(simplex(k))
        assert r.actdim == (k + 1, k + 1)
        assert r.vkdim == (k - 1, k - 1)
        assert r.embdim == (k, k)


def test_analyze_discrete_sets():
    r = analyze(points(2))
    assert r.actdim == (2, 2)
    assert r.vkdim == (0, 0)
    r = analyze(points(3))
    assert r.actdim == (2, 2)


def test_analyze_cone_keeps_dim2_gap_honest():
    r = analyze(cone(cycle(4)))
    assert r.vkdim == (3, 3)
    assert r.actdim == (5, 6)
    # The speculative dimension-2 upper bound is recorded but not certified.
    speculative = [b for b in r.records if b.quantity == "actdim" and b.value == 5 and not b.in_interval]
    assert speculative and any("dim-2" in c for b in speculative for c in b.caveats)


def test_analyze_suspension_exact():
    r = analyze(suspension(cycle(4)))
    assert r.actdim == (6, 6)


def test_analyze_non_flag_needs_flag_or_flagless_mode():
    with pytest.raises(ValueError):
        analyze(cycle(3))
    r = analyze(cycle(3), allow_non_flag=True)
    assert r.actdim is None
    assert r.vkdim == (1, 1)
    assert r.warnings


def test_analyze_empty_rejected():
    with pytest.raises(ValueError):
        analyze(make_complex([]))


def test_analyze_tetrahedron_boundary_skeleton():
    # Non-flag 2-cycle with no certificate pair; the solver decides, and it
    # decides vanishing: without flagness the top class actually dies here,
    # while square cycles in the 1-skeleton still force a lower bound.
    from raagdim.complexes import skeleton
    from raagdim.zoo import simplex as zsimplex

    K = skeleton(zsimplex(3), 2)
    r = analyze(K, allow_non_flag=True)
    assert r.vanishing is not None and r.vanishing.status == "primitive"
    assert r.vkdim == (2, 3)


def test_every_bound_record_has_rule_and_detail():
    for entry in ZOO[:8]:
        L = entry.complex()
        r = analyze(L, allow_non_flag=not entry.flag)
        for b in r.records:
            assert b.rule and b.detail
            assert b.kind in ("lower", "upper")
        lo, hi = r.vkdim
        assert lo <= hi
        lo, hi = r.embdim
        assert lo <= hi
        if r.actdim is not None:
            assert r.actdim[0] <= r.actdim[1]


def test_zoo_expectations():
    for entry in ZOO:
        if not entry.expected:
            continue
        L = entry.complex()
        r = analyze(L, allow_non_flag=not entry.flag)
        for quantity, (value, rule) in entry.expected.items():
            span = getattr(r, "actdim" if quantity == "actdim" else "vkdim")
            assert span == (value, value), f"{entry.name}: {quantity} = {span}, expected {value}"
            assert any(b.rule == rule for b in r.records if b.quantity == quantity), (
                f"{entry.name}: no {quantity} bound from rule {rule}"
            )


def test_conjecture_holds_across_the_zoo():
    # Whenever top mod-2 homology is nonzero and a certificate exists, the
    # action dimension lower bound clears twice the l2 dimension.
    from raagdim.homology import mod2_betti

    for entry in ZOO:
        if not entry.flag:
            continue
        L = entry.complex()
        r = analyze(L)
        if mod2_betti(L)[L.dim] and r.certificate is not None:
            assert r.l2dim is not None
            assert r.actdim[0] >= 2 * r.l2dim
            assert r.conjecture_status == "verified"


def test_integral_solve_tightens_mod2_only_bounds():
    # Non-flag hollow triangle: top homology is nonzero, so the mod-2
    # solve alone leaves the embedding bound caveated; the integer solve
    # certifies it.
    base = analyze(cycle(3), allow_non_flag=True)
    assert base.embdim == (2, 3)
    tight = analyze(cycle(3), allow_non_flag=True, integral=True)
    assert tight.embdim == (2, 2)
    assert tight.vanishing.integral_primitive is not None
    assert tight.vanishing.integral_checked and not tight.vanishing.reason


# The 6-vertex real projective plane (not flag).  Its integer solve keeps a
# core with no unit entry after the unit pivots, so it reaches the Smith
# normal form.
RP2 = make_complex([(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
                    (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)])


def test_integral_solve_is_refused_before_the_dense_matrix(monkeypatch):
    # The route on L runs the Smith normal form on its 1 x 3 core, under
    # the cap; the full solve's core is refused before it is built.
    snf = intlinalg.smith_normal_form

    def refuse(mat):
        if len(mat) * len(mat[0]) > 100:
            raise AssertionError("the Smith normal form ran past the cap")
        return snf(mat)

    monkeypatch.setattr(intlinalg, "INTEGRAL_ENTRY_CAP", 100)
    monkeypatch.setattr(intlinalg, "smith_normal_form", refuse)
    result = certify_vanishing(RP2, integral=True)
    assert result.status == "primitive"
    assert not result.integral_checked and result.integral_primitive is None
    shape = re.fullmatch(r"integer core too large \((\d+) x (\d+) entries > 100\)", result.reason)
    assert shape and int(shape[1]) * int(shape[2]) > 100
    report = analyze(RP2, integral=True, allow_non_flag=True)
    assert f"integer coboundary solve skipped: {result.reason}" in report.warnings


def test_integer_primitive_is_rechecked_over_z(monkeypatch):
    # cycle(3)'s route returns None, so it falls back to the full integer solve.
    solve = obstruction.solve_integer

    def tripled(rows, rhss):
        xs = solve(rows, rhss)
        return None if xs is None else [{j: 3 * v for j, v in x.items()} for x in xs]  # still right mod 2

    monkeypatch.setattr(obstruction, "solve_integer", tripled)
    with pytest.raises(RuntimeError, match="integer primitive fails verification"):
        certify_vanishing(cycle(3), integral=True)


def test_integral_solve_checks_systems_the_whole_matrix_cap_refused():
    # 1884 x 4056 equations x unknowns: refused when the cap counted the
    # whole dense system; the unit pivots leave no core.
    report = analyze(random_flag(8, 0.5, 16), integral=True)
    assert report.vanishing.integral_checked and report.vanishing.integral_primitive is not None
    assert not report.warnings
    rp2 = certify_vanishing(RP2, integral=True)
    assert rp2.integral_checked and rp2.integral_primitive is not None and not rp2.reason

