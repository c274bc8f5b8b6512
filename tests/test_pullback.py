"""The integer top primitive pulled back from L, and its fallback to the
full integer solve on the configuration space."""

import pytest
from hypothesis import example, given, settings, strategies as st

import integer_recheck
from raagdim import intlinalg, obstruction
from raagdim.complexes import make_complex
from raagdim.config_space import ConfigurationSpace
from raagdim.obstruction import _integer_solve, _pullback_primitive, certify_vanishing, top_mesh_cocycle
from raagdim.octa import octahedralize
from raagdim.zoo import cone, cycle, path, random_flag, tree
from test_bounds import RP2
from test_obstruction import bench_vanishing_complexes

TETRAHEDRON_BOUNDARY = make_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def top_system(L):
    octa = octahedralize(L)
    space = ConfigurationSpace(octa.complex)
    return octa, space, top_mesh_cocycle(space, L.dim)


def on_cells(space, values: dict) -> dict:
    """A cochain on cell keys as a dict on cells, for the cell-id oracle."""
    return {space.key_cell(key): v for key, v in values.items()}


def check_route_against_full_solve(L):
    """When the route returns, the cell-id re-check accepts its primitive and
    the full integer solve is solvable too.  Returns whether it returned."""
    octa, space, phi = top_system(L)
    k = L.dim
    values = _pullback_primitive(octa, space, k)
    if values is None:
        return False
    assert list(values) == sorted(values)
    phi_cells = dict(zip(space.cells_of_degree(2 * k), phi, strict=True))
    assert integer_recheck.recheck(space, 2 * k, phi_cells, on_cells(space, values))
    full = _integer_solve(phi, 2 * k, space)
    assert full is not None and integer_recheck.recheck(space, 2 * k, phi_cells, on_cells(space, full))
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
    full = _integer_solve(phi, 2 * L.dim, space)
    result = certify_vanishing(L, integral=True)
    assert list(result.integral_primitive.items()) == list(full.items()) and result.reason == ""
    assert result.integral_checked
    phi_cells = dict(zip(space.cells_of_degree(2 * L.dim), phi, strict=True))
    assert integer_recheck.recheck(space, 2 * L.dim, phi_cells, on_cells(space, full))


def test_route_sends_the_core_left_on_L_to_the_smith_normal_form(monkeypatch):
    # RP2's top boundary rows on L leave, after their unit pivots, the 1 x 3
    # core {12: -2, 13: 2, 14: -2}; the route takes it through the Smith
    # normal form like the full solve, finds no psi_a there, and falls back.
    shapes = []
    snf = intlinalg.smith_normal_form

    def spy(mat):
        shapes.append((len(mat), len(mat[0])))
        return snf(mat)

    monkeypatch.setattr(intlinalg, "smith_normal_form", spy)
    octa, space, phi = top_system(RP2)
    assert _pullback_primitive(octa, space, RP2.dim) is None
    assert shapes == [(1, 3)]
    result = certify_vanishing(RP2, integral=True)
    assert result.integral_checked and result.integral_primitive and not result.reason
    phi_cells = dict(zip(space.cells_of_degree(2 * RP2.dim), phi, strict=True))
    assert integer_recheck.recheck(space, 2 * RP2.dim, phi_cells, on_cells(space, result.integral_primitive))


def test_route_builds_neither_degree_2k_minus_1_nor_boundary_rows(monkeypatch):
    # The route (cone(cycle(5))) and the fallback (cycle3, the tetrahedron
    # boundary, RP2) alike read facet keys and enumerate no (2k-1)-cell.
    # With and without the integer solve, on a primitive (path(3)) and on an
    # obstructed witness (cycle(4)) too, the vanishing path names no cell by
    # its faces: it neither builds cells_of_degree nor reads a key back.
    def refuse_cells(self, *args):
        raise AssertionError("a cell was named by its faces")

    monkeypatch.setattr(ConfigurationSpace, "cells_of_degree", refuse_cells)
    monkeypatch.setattr(ConfigurationSpace, "key_cell", refuse_cells)
    pairs = ConfigurationSpace._pairs
    cases = [(path(3), "primitive"), (cycle(4), "obstructed"), (cone(cycle(5)), "primitive"),
             (cycle(3), "primitive"), (TETRAHEDRON_BOUNDARY, "primitive"), (RP2, "primitive")]
    for L, status in cases:
        low = 2 * L.dim - 1

        def refuse_low(self, d):
            if d == low:
                raise AssertionError(f"degree {d} was built")
            return pairs(self, d)

        monkeypatch.setattr(ConfigurationSpace, "_pairs", refuse_low)
        faces = ConfigurationSpace(octahedralize(L).complex).faces

        def degree(key):
            return len(faces[key // len(faces)]) + len(faces[key % len(faces)]) - 2

        for integral in (False, True):
            result = certify_vanishing(L, integral=integral)
            assert result.status == status
            if status == "obstructed":
                assert result.witness_cycle and result.primitive is None
                continue
            assert result.primitive and all(degree(key) == low for key in result.primitive)
            assert result.integral_checked == integral and not result.reason
            if integral:
                assert result.integral_primitive and all(degree(key) == low for key in result.integral_primitive)


def test_tripled_route_primitive_fails_verification(monkeypatch):
    solve = obstruction.solve_integer

    def tripled(rows, rhss):
        xs = solve(rows, rhss)
        return None if xs is None else [{j: 3 * v for j, v in x.items()} for x in xs]  # still right mod 2

    monkeypatch.setattr(obstruction, "solve_integer", tripled)
    with pytest.raises(RuntimeError, match="integer primitive fails verification"):
        certify_vanishing(cone(cycle(5)), integral=True)


def test_route_without_its_sign_fails_verification(monkeypatch):
    indicator = obstruction.nonstrict_rank_indicator

    def unsigned(a, b):
        # Cancels the route's (-1)^k; in odd degree the primitive flips sign.
        return (-1) ** (len(a) - 1) * indicator(a, b)

    monkeypatch.setattr(obstruction, "nonstrict_rank_indicator", unsigned)
    with pytest.raises(RuntimeError, match="integer primitive fails verification"):
        certify_vanishing(tree(6), integral=True)
