"""Exact homology, cycle spaces, and the coboundary solver."""

import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import gf2_eager
from complex_reference import eliminated_rational_betti, simplex_boundary
from raagdim.config_space import ConfigurationSpace
from raagdim import complexes, gf2, homology, intlinalg
from raagdim.complexes import SimplicialComplex, make_complex
from raagdim.bounds import analyze
from raagdim.homology import (
    boundary_rows,
    cycle_space,
    mod2_betti,
    rational_betti,
    solve_coboundary,
)
from raagdim import obstruction
from raagdim.obstruction import _integer_solve, _recheck, certify_vanishing, top_mesh_cocycle
from raagdim.octa import octahedralize
from raagdim.zoo import ZOO, build_named, cone, cycle, octahedron_boundary, path, points, random_flag, simplex, tree
from raagdim.intlinalg import integer_rank
from test_bounds import RP2
from test_config_space import pairs_of, signed_boundary


def brute_kernel_members(K, k):
    """Independent cycle oracle: enumerate every GF(2) chain and keep the
    ones with zero boundary (reduced in degree 0)."""
    faces = K.faces_of_dim(k)
    out = []
    for r in range(len(faces) + 1):
        for sub in combinations(faces, r):
            if k == 0:
                if len(sub) % 2 == 0:
                    out.append(frozenset(sub))
                continue
            acc = set()
            for f in sub:
                for facet, _ in simplex_boundary(f):
                    acc ^= {facet}
            if not acc:
                out.append(frozenset(sub))
    return set(out)


def test_betti_c4():
    assert mod2_betti(cycle(4)) == (0, 1)
    assert rational_betti(cycle(4)) == (0, 1)


def test_betti_full_triangle_contractible():
    assert mod2_betti(simplex(2)) == (0, 0, 0)
    assert rational_betti(simplex(2)) == (0, 0, 0)


def test_betti_octahedron_two_sphere():
    assert mod2_betti(octahedron_boundary(2)) == (0, 0, 1)
    assert rational_betti(octahedron_boundary(2)) == (0, 0, 1)


def test_betti_components_minus_one():
    assert mod2_betti(points(4))[0] == 3


def test_cycle_space_c4_unique_generator():
    basis = cycle_space(cycle(4), 1)
    assert len(basis) == 1
    assert basis[0] == frozenset(cycle(4).faces_of_dim(1))


def test_cycle_space_tree_empty():
    assert cycle_space(tree(6, 0), 1) == ()
    assert cycle_space(path(4), 1) == ()


def test_cycle_space_octahedron_matches_brute_kernel():
    K = octahedron_boundary(2)
    basis = cycle_space(K, 2)
    members = brute_kernel_members(K, 2)
    assert len(basis) == 1
    assert basis[0] in members
    # Kernel size 2^rank: the only cycles are 0 and the full sphere.
    assert members == {frozenset(), frozenset(K.faces_of_dim(2))}


def test_cycle_space_degree0_reduced():
    basis = cycle_space(points(3), 0)
    assert len(basis) == 2
    for b in basis:
        assert len(b) % 2 == 0


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_boundary_squared_zero_int_and_mod2(seed):
    K = random_flag(6, 0.55, seed)
    for k in range(K.dim):
        # Compose d_k . d_{k+1} = 0, the augmentation included at k = 0;
        # integer zeros are zero mod 2 as well.
        lower, upper = boundary_rows(K, k), boundary_rows(K, k + 1)
        assert len(lower) == len(K.faces_of_dim(k)) and len(upper) == len(K.faces_of_dim(k + 1))
        for row in upper:
            acc = {}
            for j, sign in row:
                for i, coeff in lower[j]:
                    acc[i] = acc.get(i, 0) + sign * coeff
            assert not any(acc.values())


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_betti_numbers_satisfy_reduced_euler_poincare(seed):
    K = random_flag(7, 0.5, seed)
    euler = sum((-1) ** k * len(K.faces_of_dim(k)) for k in range(K.dim + 1)) - 1
    for betti in (mod2_betti(K), rational_betti(K)):
        assert sum((-1) ** k * b for k, b in enumerate(betti)) == euler


def test_boundary_rows_index_the_facets():
    # Every degree against the rows built from the label-tuple oracle, each
    # sorted by facet id; the GF(2) rows are their ids.
    assert boundary_rows(cycle(4), 0) == (((0, 1),),) * 4
    for K in [entry.complex() for entry in ZOO] + [random_flag(7, 0.5, seed) for seed in range(20)]:
        for d in range(K.dim + 1):
            if d == 0:
                expect = (((0, 1),),) * len(K.faces_of_dim(0))
            else:
                ids = {f: i for i, f in enumerate(K.faces_of_dim(d - 1))}
                expect = tuple(tuple(sorted((ids[sub], sign) for sub, sign in simplex_boundary(f)))
                               for f in K.faces_of_dim(d))
            rows = boundary_rows(K, d)
            assert rows == expect, (K.maximal_faces(), d)
            assert K.facet_rows(d) == tuple(tuple(i for i, _ in row) for row in rows)


def test_facet_signs_are_the_signs_of_the_simplex_boundary():
    # facet_rows drops the last vertex first; degree 0 is the augmentation.
    assert complexes.facet_signs(0) == (1,)
    for d in range(1, 9):
        face = tuple(range(d + 1))
        signs = dict(simplex_boundary(face))
        assert complexes.facet_signs(d) == tuple(signs[face[:i] + face[i + 1 :]] for i in range(d, -1, -1))


def test_analyze_builds_each_signed_boundary_table_of_l_once(monkeypatch):
    # The rational Betti numbers read boundary_rows only in the degrees the
    # mod-2 numbers leave unpinned, each once; the integer pullback zips L's
    # facet rows with facet_signs itself.
    built = []
    build = homology.boundary_rows

    def record(K, d):
        built.append((K, d))
        return build(K, d)

    for module in [m for name, m in sys.modules.items() if name.startswith("raagdim")]:
        if getattr(module, "boundary_rows", None) is build:
            monkeypatch.setattr(module, "boundary_rows", record)
    # random_flag(9, 0.5, 3) has mod-2 Betti numbers (0, 3, 0, 0), so every
    # degree is pinned; RP2's (0, 1, 1) leave degree 2 open.
    for L, allow, unpinned in ((random_flag(9, 0.5, 3), False, []), (RP2, True, [2])):
        built.clear()
        analyze(L, allow_non_flag=allow, integral=True)
        betti2 = mod2_betti(L)
        assert [d for d in range(1, L.dim + 1) if betti2[d - 1] and betti2[d]] == unpinned
        assert [d for K, d in built if K is L] == unpinned


def test_analyze_builds_each_facet_table_of_l_once(monkeypatch):
    # The Betti numbers over both rings, the cycle basis and the integer
    # pullback all read L's one table per degree.
    built = []
    build = complexes._facet_rows

    def record(ranked, d):
        built.append((ranked, d))
        return build(ranked, d)

    monkeypatch.setattr(complexes, "_facet_rows", record)
    for L in (octahedron_boundary(2), random_flag(9, 0.5, 3)):
        built.clear()
        analyze(L, integral=True)
        ranked = L.ranked_faces()
        assert [d for r, d in built if r is ranked] == list(range(L.dim + 1))


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_cycle_space_members_really_cycles(seed):
    K = random_flag(7, 0.5, seed)
    for k in range(0, K.dim + 1):
        for chain in cycle_space(K, k):
            if k == 0:
                assert len(chain) % 2 == 0
                continue
            acc = set()
            for f in chain:
                for facet, _ in simplex_boundary(f):
                    acc ^= {facet}
            assert not acc


def test_rational_nonzero_implies_mod2_nonzero_on_zoo():
    for entry in ZOO:
        K = entry.complex()
        bq = rational_betti(K)
        b2 = mod2_betti(K)
        for i, b in enumerate(bq):
            if b:
                assert b2[i], f"{entry.name}: rational class without mod-2 class in degree {i}"


def dense_rational_betti(K):
    """Oracle: the Bareiss rank of each boundary matrix laid out densely."""
    def rank(rows):
        # Columns no row holds are zero and leave the rank alone.
        n = 1 + max((i for row in rows for i, _ in row), default=-1)
        mat = []
        for row in rows:
            dense = [0] * n
            for i, coeff in row:
                dense[i] += coeff
            mat.append(dense)
        return integer_rank(mat)

    ranks = [rank(boundary_rows(K, d)) for d in range(K.dim + 1)] + [0]
    return homology._betti(K, ranks)


def test_rational_betti_matches_the_dense_elimination():
    assert rational_betti(RP2) == dense_rational_betti(RP2) == (0, 0, 0)
    assert mod2_betti(RP2) == (0, 1, 1)
    for K in [entry.complex() for entry in ZOO] + [octahedron_boundary(3), random_flag(9, 0.6, 2)]:
        assert rational_betti(K) == dense_rational_betti(K), K.vertices


@given(st.integers(0, 10**6), st.integers(3, 9), st.floats(0.2, 0.9))
@settings(max_examples=40, deadline=None)
def test_rational_betti_pinned_by_the_mod2_ranks_matches_every_degree_eliminated(seed, n, p):
    # A random flag complex, then a non-flag one: random simplices on n
    # vertices (its 2-faces need not fill its triangles).
    rng = random.Random(seed)
    others = make_complex([rng.sample(range(n), rng.randint(1, min(n, 4))) for _ in range(rng.randint(1, 8))])
    for K in (random_flag(n, p, seed), others):
        assert rational_betti(K) == eliminated_rational_betti(K), K.maximal_faces()


def test_rational_betti_eliminates_only_the_unpinned_degrees(monkeypatch):
    # The 6-vertex RP2: b^2 = (0, 1, 1), so only degree 2 is eliminated over
    # Z, and it reads b^Q = (0, 0, 0).  A cone has every b^2 = 0, so every
    # rank is read off the mod-2 ones; so has the octahedral 2-sphere, whose
    # one nonzero b^2_2 has b^2_1 = 0 below it.  `seen` holds the length of
    # each signed table eliminated over Z.
    seen = []
    rank = intlinalg.sparse_rank

    def record(rows):
        seen.append(len(rows))
        return rank(rows)

    monkeypatch.setattr(intlinalg, "sparse_rank", record)
    assert (mod2_betti(RP2), rational_betti(RP2)) == ((0, 1, 1), (0, 0, 0))
    assert seen == [len(RP2.faces_of_dim(2))]
    for K in (cone(cycle(5)), cone(RP2), cone(cone(octahedron_boundary(2))), octahedron_boundary(2)):
        seen.clear()
        assert rational_betti(K) == mod2_betti(K) == eliminated_rational_betti(K)
        assert seen == []


def test_both_betti_tuples_read_one_gf2_rank_per_degree(monkeypatch):
    calls = []
    rank = gf2.rank

    def record(rows):
        calls.append(len(rows))
        return rank(rows)

    monkeypatch.setattr(gf2, "rank", record)
    # Fresh complexes, as the ranks are kept on the complex.
    for K in (SimplicialComplex(*RP2), random_flag(9, 0.5, 3), cone(cycle(5))):
        calls.clear()
        mod2_betti(K), rational_betti(K), mod2_betti(K)
        assert calls == [len(K.faces_of_dim(d)) for d in range(K.dim + 1)]


# --- coboundary solving ----------------------------------------------------


def test_solve_coboundary_zero_is_zero():
    space = ConfigurationSpace(octahedralize(path(3)).complex)
    n = space.count_cells(2)
    assert n > 0
    prim, witness = solve_coboundary([0] * n, 2, space)
    assert witness is None
    assert prim == ()


def test_a_phi_one_entry_short_is_refused_by_both_solves_and_the_recheck(monkeypatch):
    # phi is read by position: one entry short must raise, not pair off
    # fewer equations.
    octa = octahedralize(path(3))
    space = ConfigurationSpace(octa.complex)
    phi = top_mesh_cocycle(space, 1)
    for solve, modulus, message in ((lambda *args: solve_coboundary(*args)[0], 2, "phi has 11 values for 12 cells"),
                                    (_integer_solve, 0, "argument 2 is shorter")):
        prim = solve(phi, 2, space)
        _recheck(space, 2, phi, prim, modulus, "primitive")
        with pytest.raises(ValueError, match=message):
            solve(phi[:-1], 2, space)
        with pytest.raises(ValueError, match="argument 2 is shorter"):
            _recheck(space, 2, phi[:-1], prim, modulus, "primitive")
    # certify_vanishing's own fallback to the full integer solve, reached
    # with a short phi past the GF(2) solve and its re-check.
    monkeypatch.setattr(obstruction, "top_mesh_cocycle", lambda space, degree: top_mesh_cocycle(space, degree)[:-1])
    monkeypatch.setattr(obstruction, "solve_coboundary", lambda phi, degree, space: ((), None))
    monkeypatch.setattr(obstruction, "_recheck", lambda *args: None)
    monkeypatch.setattr(obstruction, "_pullback_primitive", lambda octa, space, k: None)
    with pytest.raises(ValueError, match="argument 2 is shorter"):
        certify_vanishing(path(3), integral=True)


@given(st.integers(3, 7), st.sampled_from((0.3, 0.5, 0.7)), st.integers(0, 10**6), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_the_lazy_solve_matches_the_eager_elimination_on_explicit_rows(n, p, seed, lifted, data):
    # The solve reads a row only where it meets one and back-substitutes
    # over the pivots that can be odd; the eager reference reads every row
    # as given.  Primitive and witness must agree, on OL's top degree and
    # on every degree of L (where a cell may have a vertex half), for the
    # meshing cocycle and for random right-hand sides, mostly obstructed.
    import random

    L = random_flag(n, p, seed)
    k = L.dim
    if k < 1:
        return
    K = octahedralize(L) if lifted and k <= 2 else L
    degree = 2 * k if K is not L else data.draw(st.integers(1, 2 * k), label="degree")
    space = ConfigurationSpace(K)
    if not space.indexed_cells(degree) or len(space.indexed_cells(degree)) > 4000:
        return
    if data.draw(st.booleans(), label="mesh") and degree == 2 * k:
        phi = top_mesh_cocycle(space, k)
    else:
        rng = random.Random(seed)
        phi = [rng.randrange(2) for _ in space.indexed_cells(degree)]
    x, witness = gf2_eager.solve(list(zip(ConfigurationSpace(K).facet_keys(degree), phi, strict=True)))
    assert solve_coboundary(phi, degree, space) == (None if x is None else tuple(sorted(x)), witness)


def _cofacet_entries(space, keys):
    """The entries (half, coface) of the cofacet table that the cofacets of
    `keys` read: each coface of a half of a key that misses the other."""
    masks, F = space.masks, len(space.masks)
    return sorted({(h, c) for key in keys for h, o in (divmod(key, F), divmod(key, F)[::-1])
                   for c in space._coface_ids[h] if not masks[c] & masks[o]})


def _short_table(monkeypatch, half, coface):
    """Drop one entry from the cofacet table of every space built in the
    context."""
    table = ConfigurationSpace._coface_ids

    def short(self):
        cofaces = table.func(self)
        cofaces[half] = [c for c in cofaces[half] if c != coface]
        return cofaces

    monkeypatch.setattr(ConfigurationSpace, "_coface_ids", property(short))


@pytest.mark.parametrize("name", ["cone(cycle(5))", "tree6", "path5"])
def test_the_mod2_recheck_reads_no_cofacet_table(name, monkeypatch):
    # The back-substitution reads the parities of the rows it leaves unbuilt
    # through the cofacet table (on cone(cycle(5)); tree6 and path5 build
    # every pivot's row and read no cofacets); the re-check takes the
    # coboundary by a scan of the facet table.  With any one entry dropped
    # that a primitive key's cofacets read, the solve still returns the
    # primitive of the whole table (no dropped entry changes it on these
    # systems), and the re-check still passes it.
    L = build_named(name)
    primitive = certify_vanishing(L).primitive
    space = ConfigurationSpace(octahedralize(L))
    entries = _cofacet_entries(space, primitive)
    assert entries
    for half, coface in entries:
        with monkeypatch.context() as m:
            _short_table(m, half, coface)
            assert certify_vanishing(L).primitive == primitive
            short = ConfigurationSpace(octahedralize(L))
            _recheck(short, 2 * L.dim, top_mesh_cocycle(short, L.dim), primitive, 2, "primitive")


@pytest.mark.parametrize("name, on_L, degree, size, seed", [
    ("path5", True, 2, 1, 0), ("random_flag(6,0.5,7)", False, 4, 3, 2), ("random_flag(6,0.5,18)", False, 4, 2, 1)])
def test_a_dropped_cofacet_that_changes_the_primitive_fails_the_mod2_recheck(name, on_L, degree, size, seed,
                                                                              monkeypatch):
    # Systems whose back-substitution finds pivots through the cofacet
    # table: delta of a few random keys.  Each entry of the table that the
    # primitive's cofacets read is dropped in turn; the solve then returns
    # the primitive of the whole table, or one that the re-check refuses.
    import random

    L = build_named(name)
    K = L if on_L else octahedralize(L)
    space = ConfigurationSpace(K)
    lower = space.stored_cells(space.indexed_cells(degree - 1))[0]
    y = set(random.Random(seed).sample(lower, size))
    phi = [len(y.intersection(row)) & 1 for row in space.facet_keys(degree)]
    primitive, _ = solve_coboundary(phi, degree, ConfigurationSpace(K))
    _recheck(space, degree, phi, primitive, 2, "primitive")
    refused = 0
    for half, coface in _cofacet_entries(space, primitive):
        with monkeypatch.context() as m:
            _short_table(m, half, coface)
            short = ConfigurationSpace(K)
            changed, _ = solve_coboundary(phi, degree, short)
            if changed != primitive:
                with pytest.raises(RuntimeError, match="primitive fails verification"):
                    _recheck(short, degree, phi, changed, 2, "primitive")
                refused += 1
    assert refused


def test_a_flipped_primitive_key_fails_the_mod2_recheck(monkeypatch):
    # A key added to or dropped from the primitive leaves a top cell where
    # delta(x) differs from phi.
    L = cone(cycle(5))
    primitive = certify_vanishing(L).primitive
    space = ConfigurationSpace(octahedralize(L))
    lower = space.stored_cells(space.indexed_cells(2 * L.dim - 1))[0]
    spare = next(key for key in lower if key not in primitive and space.cofacets(2 * L.dim, key))
    for flipped in (primitive[1:], tuple(sorted((*primitive, spare)))):
        with monkeypatch.context() as m:
            m.setattr(obstruction, "solve_coboundary", lambda phi, degree, space, x=flipped: (x, None))
            with pytest.raises(RuntimeError, match="primitive fails verification"):
                certify_vanishing(L)


def test_a_facet_key_row_one_key_short_is_refused_by_the_integer_solve_and_recheck(monkeypatch):
    # The top signs are one vector zipped with every row: a row of another
    # length must raise, not drop a facet.
    space = ConfigurationSpace(octahedralize(path(3)))
    phi = top_mesh_cocycle(space, 1)
    prim = _integer_solve(phi, 2, space)
    _recheck(space, 2, phi, prim, 0, "integer primitive")
    rows = space.facet_keys(2)
    monkeypatch.setattr(space, "facet_keys", lambda d: (rows[0][:-1], *rows[1:]))
    with pytest.raises(ValueError, match="argument 2 is longer"):
        _integer_solve(phi, 2, space)
    with pytest.raises(ValueError, match="argument 2 is longer"):
        _recheck(space, 2, phi, prim, 0, "integer primitive")


def test_an_obstructed_solve_eliminates_once_and_stops_at_its_witness(monkeypatch):
    # One gf2.solve finds the inconsistency and names its witness: it reads
    # the equations of the coboundary system up to the first that reads
    # 0 = 1, the witness's largest index, and no further, and reads no row
    # past it.
    reads, built = [], []
    solve = gf2.solve

    def spy(system, ncols):
        def counted():
            for bit in system.rhs:
                reads[-1] += 1
                yield bit

        assert isinstance(system, gf2.System)
        reads.append(0)
        row = system.row
        return solve(gf2.System(system.tops, counted(), lambda i: built.append(i) or row(i), system.holders), ncols)

    monkeypatch.setattr(gf2, "solve", spy)
    space = ConfigurationSpace(octahedralize(cycle(5)))
    phi = top_mesh_cocycle(space, 1)
    primitive, witness = solve_coboundary(phi, 2, space)
    assert primitive is None
    assert reads == [max(witness) + 1] and reads[0] < len(phi)
    assert built and max(built) <= max(witness)


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_solve_coboundary_recovers_constructed_coboundaries(seed):
    import random

    rng = random.Random(seed)
    K = octahedralize(random_flag(5, 0.5, seed)).complex
    if K.dim < 1:
        return
    space = ConfigurationSpace(K)
    m = 2
    lower = space.cells_of_degree(m - 1)
    if not lower or not space.cells_of_degree(m):
        return
    psi = {c: 1 for c in lower if rng.random() < 0.4}
    # phi = delta(psi), computed directly from the incidence.
    phi = {}
    for cell in space.cells_of_degree(m):
        v = sum(coeff for sub, coeff in signed_boundary(K, cell) if sub in psi) % 2
        if v:
            phi[cell] = 1
    prim, witness = solve_coboundary([phi.get(c, 0) for c in space.cells_of_degree(m)], m, space)
    assert witness is None
    prim = set(map(space.key_cell, prim))
    for cell in space.cells_of_degree(m):
        v = sum(coeff for sub, coeff in signed_boundary(K, cell) if sub in prim) % 2
        assert v == phi.get(cell, 0)


def brute_solvability(phi, m, space):
    """Oracle: solvable iff phi, given by position in cell order, kills
    every GF(2) m-cycle (enumerated)."""
    cells = space.cells_of_degree(m)
    for r in range(len(cells) + 1):
        for sub in combinations(range(len(cells)), r):
            if space.boundary(pairs_of(space, [cells[i] for i in sub])):
                continue
            if sum(phi[i] for i in sub) % 2:
                return False
    return True


def test_solvability_matches_cycle_pairing_oracle_tiny():
    # C(O(edge)) is small enough to enumerate all chains.
    K = octahedralize(simplex(1)).complex
    space = ConfigurationSpace(K)
    cells2 = space.cells_of_degree(2)
    assert len(cells2) == 2
    import itertools

    for bits in itertools.product([0, 1], repeat=2):
        phi = list(bits)
        prim, _ = solve_coboundary(phi, 2, space)
        assert (prim is not None) == brute_solvability(phi, 2, space)


def test_solve_coboundary_integer_route():
    K = octahedralize(path(3)).complex
    space = ConfigurationSpace(K)
    cells = space.cells_of_degree(2)
    # Integer coboundary of a small integer cochain.
    psi = {space.cells_of_degree(1)[0]: 3, space.cells_of_degree(1)[2]: -1}
    phi = {}
    for cell in cells:
        v = sum(coeff * psi.get(sub, 0) for sub, coeff in signed_boundary(K, cell))
        if v:
            phi[cell] = v
    prim = _integer_solve([phi.get(c, 0) for c in cells], 2, space)
    prim = {space.key_cell(key): v for key, v in prim.items()}
    for cell in cells:
        v = sum(coeff * prim.get(sub, 0) for sub, coeff in signed_boundary(K, cell))
        assert v == phi.get(cell, 0)
