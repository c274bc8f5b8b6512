"""Sparse GF(2) algebra and exact integer elimination."""

from fractions import Fraction
from random import Random

from hypothesis import example, given, settings, strategies as st

import gf2_dense
import gf2_eager
from raagdim import gf2, intlinalg
from raagdim.intlinalg import integer_det, integer_rank, smith_normal_form, solve_integer, sparse_rank


def fraction_rank(mat):
    """Independent rank oracle over Q with plain fractions."""
    m = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


small_matrix = st.lists(
    st.lists(st.integers(-6, 6), min_size=1, max_size=5),
    min_size=1,
    max_size=5,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@given(small_matrix)
@settings(max_examples=80, deadline=None)
def test_integer_rank_matches_fraction_oracle(mat):
    assert integer_rank(mat) == fraction_rank(mat)


@given(st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_integer_det_by_permutation_expansion(n, seed):
    import itertools
    import random

    rng = random.Random(seed)
    m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    expected = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term *= m[i][perm[i]]
        expected += sign * term
    assert integer_det(m) == expected


@given(small_matrix)
@settings(max_examples=60, deadline=None)
def test_smith_normal_form_properties(mat):
    D, U, V = smith_normal_form(mat)
    nr, nc = len(mat), len(mat[0])
    prod = [[sum(U[i][k] * mat[k][j] for k in range(nr)) for j in range(nc)] for i in range(nr)]
    prod = [[sum(prod[i][k] * V[k][j] for k in range(nc)) for j in range(nc)] for i in range(nr)]
    assert prod == D
    for i in range(nr):
        for j in range(nc):
            if i != j:
                assert D[i][j] == 0
    diag = [D[i][i] for i in range(min(nr, nc))]
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert abs(integer_det(U)) == 1
    assert abs(integer_det(V)) == 1


def determinantal_divisor(mat, k):
    """gcd of all k x k minors; the classic independent diagonal oracle."""
    from itertools import combinations
    from math import gcd

    g = 0
    for rows in combinations(range(len(mat)), k):
        for cols in combinations(range(len(mat[0])), k):
            minor = [[mat[i][j] for j in cols] for i in rows]
            g = gcd(g, integer_det(minor))
    return g


@given(small_matrix)
@settings(max_examples=40, deadline=None)
def test_smith_diagonal_matches_determinantal_divisors(mat):
    D, _U, _V = smith_normal_form(mat)
    n = min(len(mat), len(mat[0]))
    prev = 1
    for k in range(1, n + 1):
        dk = determinantal_divisor(mat, k)
        if dk == 0:
            # Rank deficit: every remaining diagonal entry is zero.
            assert all(D[i][i] == 0 for i in range(k - 1, n))
            break
        assert D[k - 1][k - 1] == dk // prev
        prev = dk


def sparse_rows(mat):
    """A dense matrix as rows of (column, coeff) pairs, zeros dropped."""
    return [[(j, a) for j, a in enumerate(row) if a] for row in mat]


def dense_snf_solvable(mat, rhs):
    """Oracle: whether mat @ x = rhs has an integer solution, read off the
    whole dense Smith normal form D = U @ mat @ V as D z = U rhs."""
    D, U, _V = smith_normal_form(mat)
    c = [sum(u * b for u, b in zip(row, rhs)) for row in U]
    for i, ci in enumerate(c):
        d = D[i][i] if i < len(mat[0]) else 0
        if (ci % d if d else ci) != 0:
            return False
    return True


def residual(mat, x, rhs):
    """mat @ x - rhs for a solution x given as a {column: value} dict."""
    return [sum(a * x.get(j, 0) for j, a in enumerate(row)) - b for row, b in zip(mat, rhs)]


def solve_one(rows, rhs):
    """`solve_integer` on the one right-hand side rhs: its x, or None."""
    xs = solve_integer(rows, [rhs])
    return None if xs is None else xs[0]


@given(small_matrix, st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_solve_integer_roundtrip(mat, seed):
    import random

    rng = random.Random(seed)
    nc = len(mat[0])
    x0 = [rng.randint(-3, 3) for _ in range(nc)]
    b = [sum(row[j] * x0[j] for j in range(nc)) for row in mat]
    x = solve_one(sparse_rows(mat), b)
    assert x is not None
    assert [sum(row[j] * x.get(j, 0) for j in range(nc)) for row in mat] == b


def test_solve_integer_unsolvable():
    assert solve_one([[(0, 2)]], [1]) is None
    assert solve_one([[(0, 1), (1, 1)], [(0, 1), (1, 1)]], [0, 1]) is None
    assert solve_one([[(0, 1)], []], [0, 1]) is None  # a zero row, rhs 1
    assert solve_one([[(0, 1), (0, -1)]], [1]) is None  # entries that cancel
    assert solve_one([[(0, 2)]], [4]) == {0: 2}
    # One unsolvable right-hand side makes the whole solve None.
    assert solve_integer([[(0, 2)]], [[4], [1]]) is None


@st.composite
def sparse_systems(draw):
    """Random sparse integer systems with entries in -3..3 (so fill-in can
    leave a core with no unit entry) and a right-hand side that is either
    constructed from an integer x0 or drawn freely."""
    nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    mat = [[draw(st.sampled_from((0, 0, 0, -3, -2, -1, 1, 2, 3))) for _ in range(nc)] for _ in range(nr)]
    if draw(st.booleans()):
        x0 = [draw(st.integers(-3, 3)) for _ in range(nc)]
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in mat]
    else:
        rhs = [draw(st.integers(-4, 4)) for _ in range(nr)]
    return mat, rhs


@given(sparse_systems())
@settings(max_examples=300, deadline=None)
def test_solve_integer_agrees_with_dense_snf_oracle(system):
    mat, rhs = system
    x = solve_one(sparse_rows(mat), rhs)
    assert (x is not None) == dense_snf_solvable(mat, rhs)
    if x is not None:
        assert residual(mat, x, rhs) == [0] * len(mat)


@given(st.lists(sparse_systems(), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_solve_integer_on_many_right_hand_sides_agrees_with_one_at_a_time(systems):
    # One matrix, the right-hand sides of all the drawn systems cut to its
    # rows; the unit pivots may leave a core, which then reaches the SNF.
    mat = systems[0][0]
    rhss = [(rhs * len(mat))[: len(mat)] for _, rhs in systems]
    rows = sparse_rows(mat)
    xs = solve_integer(rows, rhss)
    singles = [solve_one(rows, rhs) for rhs in rhss]
    assert xs == (None if None in singles else singles)
    assert (xs is not None) == all(dense_snf_solvable(mat, rhs) for rhs in rhss)
    for x, rhs in zip(xs or (), rhss):
        assert residual(mat, x, rhs) == [0] * len(mat)


def test_only_a_non_unit_core_reaches_the_smith_normal_form(monkeypatch):
    shapes = []

    def spy(mat):
        shapes.append((len(mat), len(mat[0])))
        return smith_normal_form(mat)

    monkeypatch.setattr(intlinalg, "smith_normal_form", spy)
    # x0 - x1 = 1, x1 + x2 = 0: unit pivots clear everything.
    mat = [[1, -1, 0], [0, 1, 1]]
    x = solve_one(sparse_rows(mat), [1, 0])
    assert residual(mat, x, [1, 0]) == [0, 0]
    assert shapes == []
    # x0 + x1 = 3 leaves the core 2 x2 + 4 x3 = 2 - 2 (x0 + x1) = -4.
    mat = [[1, 1, 0, 0], [2, 2, 2, 4]]
    x = solve_one(sparse_rows(mat), [3, 2])
    assert residual(mat, x, [3, 2]) == [0, 0]
    assert shapes == [(1, 2)]
@st.composite
def sparse_rank_rows(draw):
    """Sparse rows with entries in -3..3 (so the unit pivots can leave a
    core), columns listed twice in a row (they add up), and rows whose
    entries cancel to zero."""
    ncols = draw(st.integers(1, 6))
    entry = st.tuples(st.integers(0, ncols - 1), st.sampled_from((-3, -2, -1, 1, 2, 3)))
    rows = draw(st.lists(st.lists(entry, max_size=6), min_size=1, max_size=7))
    if draw(st.booleans()):
        row = draw(st.lists(entry, min_size=1, max_size=3))
        rows.insert(draw(st.integers(0, len(rows))), row + [(j, -a) for j, a in row])
    return rows, ncols


def dense(rows, ncols):
    mat = [[0] * ncols for _ in rows]
    for dense_row, row in zip(mat, rows):
        for j, a in row:
            dense_row[j] += a
    return mat


@given(sparse_rank_rows())
@settings(max_examples=300, deadline=None)
def test_sparse_rank_matches_the_dense_rank(system):
    rows, ncols = system
    mat = dense(rows, ncols)
    assert sparse_rank(rows) == integer_rank(mat) == fraction_rank(mat)


def test_sparse_rank_reads_the_core_left_by_unit_pivots(monkeypatch):
    cores = []

    def spy(mat):
        cores.append(mat)
        return integer_rank(mat)

    monkeypatch.setattr(intlinalg, "integer_rank", spy)
    # x0 + x1 pivots; 2 x0 + 2 x1 + 2 x2 + 4 x3 leaves the core 2 x2 + 4 x3,
    # and 4 x2 + 8 x3 is twice it.
    assert sparse_rank([[(0, 1), (1, 1)], [(0, 2), (1, 2), (2, 2), (3, 4)], [(2, 4), (3, 8)]]) == 2
    assert cores == [[[2, 4], [4, 8]]]
    assert sparse_rank([[(0, 1), (0, -1)], [(1, 1)]]) == 1  # a row that cancels, no core
    assert len(cores) == 1


# --- GF(2) ----------------------------------------------------------------


def keys(mask) -> set:
    """The set bits of a mask, as a sparse row's column keys."""
    return set(gf2_dense.indices_from_mask(mask))


@given(st.lists(st.integers(0, 2**10 - 1), min_size=1, max_size=12), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_gf2_kernel_annihilates_and_has_right_dimension(rows, seed):
    ncols = 10
    rows = [keys(row) for row in rows]
    basis = gf2.kernel_basis(rows, ncols)
    assert len(basis) == ncols - gf2.rank(rows)
    for x in basis:
        assert x <= set(range(ncols))
        for row in rows:
            assert len(row & x) % 2 == 0
    # Basis vectors are independent: their echelon has full size.
    assert gf2.rank(basis) == len(basis)


@given(st.lists(st.integers(0, 2**8 - 1), min_size=1, max_size=10), st.integers(0, 255))
@settings(max_examples=80, deadline=None)
def test_gf2_solve_constructed_system(rows, x0):
    ncols = 8
    eqs = [(keys(row), (row & x0).bit_count() & 1) for row in rows]
    x, _ = gf2.solve(eqs, ncols)
    assert x is not None
    for row, rhs in eqs:
        assert len(row & x) & 1 == rhs


def brute_solutions(eqs, ncols):
    """Oracle: every x in GF(2)^ncols that satisfies all equations."""
    return [x for x in range(1 << ncols) if all((m & x).bit_count() % 2 == r for m, r in eqs)]


def leading_bits(masks):
    """Oracle: the leading bits of the nonzero vectors of the row space."""
    span = {0}
    for m in masks:
        span |= {s ^ m for s in span}
    return {s.bit_length() - 1 for s in span if s}


@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, 2**n - 1), st.integers(0, 1)), max_size=8))))
@settings(max_examples=300, deadline=None)
def test_gf2_solve_matches_brute_force(system):
    ncols, eqs = system
    sparse = [(keys(m), r) for m, r in eqs]
    solutions = brute_solutions(eqs, ncols)
    x, witness = gf2.solve(sparse, ncols)
    assert (x is not None) == bool(solutions)
    if x is not None:
        # The solution with free variables 0 is the only one supported on
        # the pivot columns.
        support = sum(1 << c for c in leading_bits(m for m, _ in eqs))
        assert [s for s in solutions if s & ~support == 0] == [sum(1 << c for c in x)]
        assert witness is None
        return
    # The same pass names the equations that sum to 0 = 1.
    mask = rhs = 0
    for i in witness:
        mask ^= eqs[i][0]
        rhs ^= eqs[i][1]
    assert (mask, rhs) == (0, 1)
    # Elimination stops at the first equation that makes the system
    # inconsistent, and the witness uses it.
    first = next(p for p in range(1, len(eqs) + 1) if not brute_solutions(eqs[:p], ncols))
    assert max(witness) == first - 1


def test_gf2_solve_inconsistent_with_witness():
    # x0 = 1 and x0 = 0: the sum of both equations reads 0 = 1.
    eqs = [({0}, 1), ({0}, 0)]
    x, witness = gf2.solve(eqs, 1)
    assert x is None
    assert witness == [0, 1]


ROW_KINDS = (tuple, list, set, frozenset)


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True),
    st.lists(st.tuples(st.integers(0, 2**n - 1), st.integers(0, 1), st.sampled_from(ROW_KINDS),
                       st.randoms(use_true_random=False)), max_size=12))))
@settings(max_examples=300, deadline=None)
# x1 = 0 is the pivot on x1; x1 + x0 = 1 is reduced by it to the pivot on
# x0; x1 + x0 = 0 is reduced by both to 0 = 1.  The pivot on x1 is reached
# directly and through the pivot on x0, so it cancels: the witness is [1, 2].
@example(([3, 7], [(0b10, 0, list, Random(0)), (0b11, 1, tuple, Random(1)), (0b11, 0, set, Random(2))]))
# x0 = 0 is the pivot on x0; x0 = 0 again cancels; x2 = 1 is the pivot on
# x2, kept as given after that row; x2 + x1 = 0 is reduced by it to the
# pivot on x1; x1 + x0 = 0 is reduced by both to 0 = 1.  The pivots are made
# from equations 0, 2 and 3, so the cancelled equation 1 must not shift x2
# off its own: the witness is [0, 2, 3, 4].
@example(([2, 5, 9], [(0b001, 0, tuple, Random(0)), (0b001, 0, list, Random(1)), (0b100, 1, tuple, Random(2)),
                      (0b110, 0, set, Random(3)), (0b011, 0, list, Random(4))]))
def test_gf2_solve_on_increasing_keys_matches_the_dense_oracle(system):
    # Column j carries the j-th smallest key: any strictly increasing
    # labels give the dense solve's x and witness.  The rows list their
    # keys in any order, as tuples, lists or sets, some fresh, some meeting
    # a pivot, some empty, with odd and even right-hand sides; none is
    # mutated.
    labels, drawn = system
    labels = sorted(labels)
    eqs, sparse = [], []
    for mask, rhs, kind, rng in drawn:
        row = [labels[j] for j in gf2_dense.indices_from_mask(mask)]
        rng.shuffle(row)
        eqs.append((mask, rhs))
        sparse.append((kind(row), rhs))
    before = [(type(keys), list(keys), rhs) for keys, rhs in sparse]
    x, witness = gf2.solve(sparse, len(labels))
    x_dense, witness_dense = gf2_dense.solve(eqs, len(labels))
    assert witness == witness_dense
    expect = None if x_dense is None else {labels[j] for j in gf2_dense.indices_from_mask(x_dense)}
    assert x == expect
    assert [(type(keys), list(keys), rhs) for keys, rhs in sparse] == before
    # rank and kernel_basis read the same kinds of rows, on the columns
    # 0..n-1, and mutate none of them either.
    rows = [type(keys)(labels.index(key) for key in keys) for keys, _rhs in sparse]
    before = [(type(row), list(row)) for row in rows]
    basis = gf2.kernel_basis(rows, len(labels))
    assert len(basis) == len(labels) - gf2.rank(rows) == len(labels) - len(leading_bits(m for m, _ in eqs))
    assert all(len(x.intersection(row)) % 2 == 0 for x in basis for row in rows)
    assert [(type(row), list(row)) for row in rows] == before


def test_gf2_fresh_rows_become_pivots_as_given():
    # Rows as tuples, lists and sets: (2, 0) and [1] arrive with a new
    # largest key and are held as they are; {2, 1} meets the pivots 2 and 1
    # and is reduced, in a set of its own, to {0}; the empty row is 0 = 0.
    rows = [(2, 0), [1], (), {2, 1}]
    piv = gf2._echelon(rows)
    assert piv[2] is rows[0] and piv[1] is rows[1]
    assert piv[0] == {0} and piv[0] is not rows[3]
    assert rows == [(2, 0), [1], (), {2, 1}]
    # x2 + x0 = 1, x1 = 0, 0 = 0, x2 + x1 = 1: the odd rhs of a fresh row
    # stays with its pivot.
    eqs = [((2, 0), 1), ([1], 0), ((), 0), ({2, 1}, 1)]
    assert gf2.solve(eqs, 3) == ({2}, None)
    # An empty row with an odd rhs reads 0 = 1 and is its own witness.
    assert gf2.solve(eqs + [([], 1)], 3) == (None, [4])
    assert eqs == [((2, 0), 1), ([1], 0), ((), 0), ({2, 1}, 1)]


@st.composite
def mostly_triangular_systems(draw):
    """(rows, rhs, strict): rows with distinct largest keys, each with a few
    lower keys, and about a quarter of the right-hand sides 1, with up to
    three rows of any keys (none, or a top that is taken) at random places;
    `strict` when there are none of those."""
    n = draw(st.integers(8, 40))
    tops = draw(st.permutations(range(n)))[:draw(st.integers(n // 2, n))]
    rows = [{t, *draw(st.sets(st.integers(0, t - 1), max_size=3))} if t else {t} for t in tops]
    extra = draw(st.lists(st.sets(st.integers(0, n - 1), max_size=4), max_size=3))
    for row in extra:
        rows.insert(draw(st.integers(0, len(rows))), row)
    rhs = draw(st.lists(st.integers(0, 3).map(lambda v: int(v == 0)), min_size=len(rows), max_size=len(rows)))
    return rows, rhs, not extra


@given(mostly_triangular_systems())
@settings(max_examples=300, deadline=None)
# x0 = 1, x1 + x0 = 0, x2 + x1 = 0: the pivot on x0 is odd, and x0 then
# x1, the key just below the last unbuilt pivot, toggle the next row's
# parity through their holders: x is {0, 1, 2}.
@example(([{0}, {1, 0}, {2, 1}], [1, 0, 0], True))
def test_gf2_solve_by_holders_matches_the_eager_solve(system):
    # Passed as a System with holders read off an index of the rows, the
    # solve meets few pivots, so the pivots kept as given and unbuilt
    # outnumber the rest and their parities are read through the holders
    # of x's keys; with holders None every pivot's row is built and read.
    # Both give the eager solve's x and witness.  A system whose tops are
    # all distinct, with fewer than half of its rhs bits 1, builds no
    # row with holders, and every row without.
    rows, rhs, strict = system
    index: dict = {}
    for i, row in enumerate(rows):
        for key in row:
            index.setdefault(key, []).append(i)
    tops = [max(row) if row else None for row in rows]
    expect = gf2_eager.solve(list(zip(rows, rhs)))
    for holders in (lambda key: index.get(key, ()), None):
        built = []
        x = gf2.solve(gf2.System(tops, rhs, lambda i: built.append(i) or rows[i], holders), 40)
        assert x == expect
        if strict and 2 * sum(rhs) < len(rows):
            assert sorted(built) == ([] if holders else list(range(len(rows))))


def mask_from_indices(indices) -> int:
    """Oracle: set one bit per index."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


@given(st.sets(st.integers(0, 5000), max_size=60))
@settings(max_examples=50, deadline=None)
def test_gf2_mask_indices_roundtrip(indices):
    # The dense oracle reads its solutions and witnesses off bitmasks.
    mask = mask_from_indices(indices)
    assert gf2_dense.indices_from_mask(mask) == sorted(indices)
    assert mask_from_indices(gf2_dense.indices_from_mask(mask)) == mask
