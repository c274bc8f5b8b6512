"""The integer top primitive pulled back from L, and its fallback to the
full integer solve on the configuration space."""

import pytest
from hypothesis import example, given, settings, strategies as st

import integer_recheck
from raagdim import obstruction
from raagdim.complexes import make_complex
from raagdim.config_space import ConfigurationSpace
from raagdim.homology import solve_coboundary
from raagdim.obstruction import _pullback_primitive, certify_vanishing, top_mesh_cocycle
from raagdim.octa import octahedralize
from raagdim.zoo import cone, cycle, random_flag, tree
from test_bounds import RP2
from test_obstruction import bench_vanishing_complexes

TETRAHEDRON_BOUNDARY = make_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def top_system(L):
    octa = octahedralize(L)
    space = ConfigurationSpace(octa.complex)
    return octa, space, top_mesh_cocycle(octa, space, L.dim)


def check_route_against_full_solve(L):
    """When the route returns, the cell-id re-check accepts its primitive and
    the full integer solve is solvable too.  Returns whether it returned."""
    octa, space, phi = top_system(L)
    k = L.dim
    values = _pullback_primitive(octa, space, k)
    if values is None:
        return False
    primitive = {space.key_cell(key): v for key, v in values.items()}
    assert integer_recheck.recheck(space, 2 * k, phi, primitive)
    full, _ = solve_coboundary(phi, 2 * k, space, coefficients="int")
    assert full is not None and integer_recheck.recheck(space, 2 * k, phi, full)
    return True


@given(st.integers(6, 10), st.floats(0.3, 0.7), st.integers(0, 10**6))
@example(8, 0.5, 16)
@settings(max_examples=25, deadline=None)
def test_route_primitive_passes_the_cell_id_recheck_and_the_full_solve_agrees(n, p, seed):
    L = random_flag(n, p, seed)
    if L.dim >= 1:
        check_route_against_full_solve(L)


def test_route_on_the_bench_cases():
    taken = {name for name, L in bench_vanishing_complexes() if L.dim >= 1 and check_route_against_full_solve(L)}
    # The two non-flag integral cases fall back; every flag case takes the route.
    assert taken == {name for name, L in bench_vanishing_complexes() if L.dim >= 1} - {"cycle3", "tetrahedron_boundary"}


@pytest.mark.parametrize("L", [cycle(3), TETRAHEDRON_BOUNDARY, RP2], ids=["cycle3", "tetrahedron_boundary", "RP2"])
def test_fallback_returns_the_full_solves_own_primitive_and_reason(L):
    octa, space, phi = top_system(L)
    assert _pullback_primitive(octa, space, L.dim) is None
    full, _ = solve_coboundary(phi, 2 * L.dim, space, coefficients="int")
    result = certify_vanishing(L, integral=True)
    assert result.integral_primitive == full and result.reason == ""
    assert result.integral_checked


def test_route_builds_neither_degree_2k_minus_1_nor_boundary_rows(monkeypatch):
    # The route (cone(cycle(5))) and the fallback (the other three) alike
    # read facet keys and enumerate no (2k-1)-cell.
    pairs = ConfigurationSpace._pairs
    for L in (cone(cycle(5)), cycle(3), TETRAHEDRON_BOUNDARY, RP2):
        low = 2 * L.dim - 1

        def refuse_low(self, d):
            if d == low:
                raise AssertionError(f"degree {d} was built")
            return pairs(self, d)

        monkeypatch.setattr(ConfigurationSpace, "_pairs", refuse_low)
        result = certify_vanishing(L, integral=True)
        assert result.integral_checked and result.integral_primitive and not result.reason
        assert all(len(a) + len(b) - 2 == low for a, b in result.integral_primitive)


def test_tripled_route_primitive_fails_verification(monkeypatch):
    solve = obstruction.unit_pivot_solve

    def tripled(rows, rhss):
        xs = solve(rows, rhss)
        return None if xs is None else [{j: 3 * v for j, v in x.items()} for x in xs]  # still right mod 2

    monkeypatch.setattr(obstruction, "unit_pivot_solve", tripled)
    with pytest.raises(RuntimeError, match="integer primitive fails verification"):
        certify_vanishing(cone(cycle(5)), integral=True)


def test_route_without_its_sign_fails_verification(monkeypatch):
    indicator = obstruction.nonstrict_mesh_indicator

    def unsigned(sigma, b, rank):
        # Cancels the route's (-1)^k; in odd degree the primitive flips sign.
        return (-1) ** (len(sigma) - 1) * indicator(sigma, b, rank)

    monkeypatch.setattr(obstruction, "nonstrict_mesh_indicator", unsigned)
    with pytest.raises(RuntimeError, match="integer primitive fails verification"):
        certify_vanishing(tree(6), integral=True)
