"""Top-degree embedding obstruction machinery for octahedralized complexes.

Two k-simplices with vertices in increasing rank order are *meshed* when
their vertices strictly interleave.  The meshing cocycle assigns +1 to a
meshed ordered pair led by the lower vertex, (-1)^k to the swapped pair,
and 0 otherwise; its mod-2 reduction is the top obstruction cocycle on the
configuration space.  A nonstrict variant pairs simplices of the doubled
complex with simplices of the minus copy; its one copy,
`nonstrict_rank_indicator`, reads rank tuples and a per-vertex table of
minus copies.
The push to the product with the minus copy has one copy too,
`push_terms`: each cell's two product terms and the swap sign, which
`push_to_product` sums and the lemma suite reads cell by cell.

Nonvanishing is certified by a cycle of unordered disjoint pairs that
jointly cover a chosen simplex, built from a GF(2) cycle of the base.  The
covering chain, its boundary, its push to the product and its evaluation
run on the face-id pairs of the doubled complex's configuration space,
whose index is lifted from the cycle's support, so no face set is built;
the certificate stores the pairs as cells once.
Vanishing is certified by an explicit coboundary primitive on cell keys.
A geometric cross-check computes exact signed intersection numbers of
simplices mapped to the moment curve and must reproduce the combinatorial
cocycle.  Like `mesh_values`, it reads cells as face-id pairs on the rank
tuples of the index (`moment_values`); `moment_intersection` is its entry
point on vertex tuples, and both share the one memoized solve on rank
tuples and the one orientation normalization.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .complexes import SimplicialComplex, skeleton
from .config_space import ConfigurationSpace
from .homology import boundary_rows, cycle_space, solve_coboundary
from .intlinalg import CoreTooLarge, integer_det, integer_rank, solve_integer
from .octa import Octahedralization, DoubledComplex, double_over, lift_ranks, octahedralize

# Cycle-basis elements summed per candidate cycle in the certificate search,
# and the default cap on cells of degrees 2k and 2k - 1 in the top solve.
SEARCH_BUDGET = 2
MAX_CELLS = 10**6


# ---------------------------------------------------------------------------
# Cocycles


def _interleaves(a, b) -> bool:
    """a0 < b0 < a1 < b1 < ... < ak < bk, for rank tuples (or iterables of
    ranks, read only up to the first break)."""
    prev = -1
    for x, y in zip(a, b):
        if not prev < x < y:
            return False
        prev = y
    return True


def mesh_number(sigma: tuple, tau: tuple, rank: dict) -> int:
    """Value of the top integral obstruction cocycle on an ordered pair:
    `_interleaves` on the simplices mapped to ranks, led by the simplex
    whose first vertex ranks lower (only that order can interleave)."""
    if len(sigma) != len(tau):
        raise ValueError("meshing is defined for equal-dimensional simplices")
    r = rank.__getitem__
    if r(sigma[0]) < r(tau[0]):
        return int(_interleaves(map(r, sigma), map(r, tau)))
    return (-1) ** (len(sigma) - 1) if _interleaves(map(r, tau), map(r, sigma)) else 0


def nonstrict_rank_indicator(a: tuple, b: tuple, minus) -> int:
    """Nonstrict meshing of a doubled simplex against a minus-copy simplex,
    both as rank tuples: the one copy of the rule.

    The pattern is a0 <= b0 < a1 <= b1 < ... < ak <= bk.  `minus` is the
    per-vertex projection table (`ConfigurationSpace.minus_ranks`): by rank,
    the rank of that vertex's minus copy, so y is a minus vertex exactly when
    minus[y] == y.  Every vertex of `b` is checked for its sign, also after
    the pattern has broken.
    """
    if len(a) != len(b):
        raise ValueError("nonstrict meshing needs equal-dimensional simplices")
    meshed, prev = 1, -1
    for x, y in zip(a, b):
        if minus[y] != y:
            raise ValueError("second simplex must lie in the minus copy")
        if meshed:
            meshed, prev = prev < x <= y, y
    return int(meshed)


def mesh_values(ranks, pairs) -> list:
    """Whether each cell, given by its face-id pair (a, b) in stored order,
    meshes: `_interleaves` on the rank tuples of the space's index
    (`ConfigurationSpace.ranks`).  A stored cell puts the simplex with the
    lower-ranked first vertex first, so only its own order can interleave
    and `mesh_number` is 0 or 1 there.  Meshing reads only the order of the
    ranks, so a doubled complex's own ranks give OL's values."""
    return [_interleaves(ranks[a], ranks[b]) for a, b in pairs]


def push_terms(pairs, space: ConfigurationSpace):
    """The one copy of the push rule: for each cell of `pairs`, a face-id
    pair (sigma, tau) of `space`'s complex, its two product terms (sigma,
    p tau) and (tau, p sigma) and the factor-switch sign (-1)^(dim sigma *
    dim tau) of the second.  p relabels onto the minus copy, read from the
    projection table `space.minus_ids`."""
    minus, ranks = space.minus_ids, space.ranks
    for sigma, tau in pairs:
        yield (sigma, minus[tau]), (tau, minus[sigma]), -1 if (len(ranks[sigma]) - 1) * (len(ranks[tau]) - 1) % 2 else 1


def push_to_product(chain, space: ConfigurationSpace) -> dict:
    """Push a configuration-space chain to the product with the minus copy.

    `chain` maps the face-id pairs (sigma, tau) of its cells to integer
    coefficients; reduce mod 2 when needed.  An unordered pair [sigma, tau]
    goes to its two `push_terms`, the second with the factor-switch sign;
    the terms are face-id pairs of `space`'s complex, which holds every
    minus copy.
    """
    out: dict = {}
    for (first, second, sign), coeff in zip(push_terms(chain, space), chain.values()):
        out[first] = out.get(first, 0) + coeff
        out[second] = out.get(second, 0) + sign * coeff
    return {c: v for c, v in out.items() if v}


# ---------------------------------------------------------------------------
# The covering chain and the pair-intersection (star) condition


def covering_pair_chain(doubled: DoubledComplex):
    """The top GF(2) chain of the doubled complex's configuration space
    supported on disjoint pairs whose projections jointly cover the chosen
    simplex.  Returns (space, pairs): the chain as the face-id pairs of its
    cells, in cell order, in `ConfigurationSpace(doubled)`, whose index is
    lifted from the cycle's support.  A face's cover of delta is read off
    its rank tuple: (v, s) ranks 2 r(v) + [s = +]."""
    space = ConfigurationSpace(doubled)
    k = doubled.degree
    rk = doubled.octa.base.rank
    bit = {2 * rk[v] + s: 1 << i for i, v in enumerate(doubled.delta) for s in (0, 1)}
    ranks, pairs = space.indexed_cells(2 * k)
    # Each face's base vertices in delta, as a bitmask over delta, by face id.
    cover = [sum([bit.get(r, 0) for r in t]) for t in ranks]
    full = (1 << (k + 1)) - 1
    # The doubled complex has dimension k, so its 2k-cells are exactly the
    # disjoint pairs of k-faces.
    return space, tuple([(a, b) for a, b in pairs if cover[a] | cover[b] == full])


class StarConditionReport(NamedTuple):
    """Outcome of the pair-intersection scan: every two cycle simplices that
    jointly cover the chosen simplex must intersect inside it."""

    holds: bool
    violation: tuple | None


def check_star_condition(cycle, delta: tuple) -> StarConditionReport:
    """The first pair (a, b), a <= b in sorted order, of cycle simplices
    that covers delta and meets outside it, on vertex bitmasks."""
    simplices = sorted(cycle)
    bit = {v: 1 << i for i, v in enumerate(dict.fromkeys([v for s in (delta, *simplices) for v in s]))}
    d = sum([bit[v] for v in delta])
    masks = [sum([bit[v] for v in s]) for s in simplices]
    for i, ma in enumerate(masks):
        need = d & ~ma
        for j in range(i, len(masks)):
            mb = masks[j]
            if not need & ~mb and ma & mb & ~d:
                return StarConditionReport(holds=False, violation=(simplices[i], simplices[j]))
    return StarConditionReport(holds=True, violation=None)


def delta_product_chain(doubled: DoubledComplex, space: ConfigurationSpace) -> dict:
    """The product chain (all signed lifts of delta) x (minus copy of the
    cycle), on the face-id pairs of `space`'s complex, which must hold them
    in a suborder of OL's vertex order: both halves lifted by `lift_ranks`
    (a minus copy is the lift with no plus rank), read through
    `space.rank_ids`, after `space.K.rank` on a space not on OL's ranks."""
    rk, rid, ranks = doubled.octa.base.rank, space.rank_ids, space.K.rank
    delta = tuple([rk[v] for v in doubled.delta])
    halves = [lift_ranks([[delta]], delta)[0], lift_ranks([[tuple([rk[v] for v in b]) for b in doubled.cycle]], ())[0]]
    if ranks is not doubled.octa.rank:
        to = [ranks.get(sv) for sv in doubled.octa.vertices]
        halves = [[tuple([to[r] for r in t]) for t in half] for half in halves]
    lifts, minus_cycle = [[rid[t] for t in half] for half in halves]
    return {(a, b): 1 for a in lifts for b in minus_cycle}


# ---------------------------------------------------------------------------
# Certificates


class CycleCertificate(NamedTuple):
    """Machine-checkable witness that the top mod-2 obstruction of the
    octahedralized l-skeleton pairs nontrivially with a cycle."""

    degree: int
    cycle: frozenset
    delta: tuple
    omega: frozenset


def _cycle_candidates(basis):
    for c in basis:
        yield c
    for r in range(2, SEARCH_BUDGET + 1):
        for combo in combinations(range(len(basis)), r):
            acc: frozenset = frozenset()
            for i in combo:
                acc = acc.symmetric_difference(basis[i])
            if acc:
                yield acc


def certify_nonvanishing(L: SimplicialComplex, degree: int):
    """Search for a nonvanishing certificate in the given degree.

    Works on the degree-skeleton of L.  Tries cycle-basis elements first,
    then sums of up to `SEARCH_BUDGET` of them, and every simplex of each
    candidate as the doubling simplex.  Absence of a certificate is a
    legal result (None), never a vanishing claim.
    """
    if degree < 0 or degree > L.dim:
        return None
    K = skeleton(L, degree)
    basis = cycle_space(K, degree)
    if not basis:
        return None
    octa = octahedralize(K)
    for cycle in _cycle_candidates(basis):
        for delta in sorted(cycle):
            report = check_star_condition(cycle, delta)
            if not report.holds:
                continue
            doubled = double_over(octa, cycle, delta)
            space, pairs = covering_pair_chain(doubled)
            if space.boundary(pairs):
                raise RuntimeError(
                    "covering chain failed to be a cycle under the pair-intersection "
                    f"condition (cycle {sorted(cycle)}, delta {delta})"
                )
            if sum(mesh_values(space.ranks, pairs)) % 2 != 1:
                raise RuntimeError(
                    f"covering chain evaluated to 0 (cycle {sorted(cycle)}, delta {delta})"
                )
            faces = space.faces
            return CycleCertificate(
                degree=degree,
                cycle=cycle,
                delta=delta,
                omega=frozenset([(faces[a], faces[b]) for a, b in pairs]),
            )
    return None


class VanishingResult(NamedTuple):
    """Outcome of the top-degree coboundary solve on the configuration space.

    status: 'primitive' (solved; the class vanishes mod 2), 'obstructed'
    (a witness cycle pairs nontrivially), or 'skipped' (size guard or a
    degenerate degree).  `reason` says why the solve, or with status
    'primitive' the requested integer solve, was skipped.  `primitive` and
    `integral_primitive` are {cell key: value} dicts on the (2k-1)-cells of
    C(OL), in key order; `witness_cycle` is a tuple of 2k-cells.
    """

    status: str
    primitive: dict | None
    witness_cycle: tuple | None
    reason: str = ""
    integral_primitive: dict | None = None
    integral_checked: bool = False


def top_mesh_cocycle(space: ConfigurationSpace, degree: int) -> list:
    """The meshing cocycle on the top cells, as its 0/1 values in cell order.

    `mesh_number` is 0 or 1 on a stored cell (`mesh_values`), so this is the
    integer cocycle as well as its mod-2 reduction.  It reads the rank
    tuples of `space`'s index.
    """
    return mesh_values(*space.indexed_cells(2 * degree))


def _recheck(space: ConfigurationSpace, degree: int, phi: list, values: dict, modulus: int, what: str):
    """Check delta(x) = phi on every degree-cell, mod `modulus` (0 for
    exactly over Z), for phi given by position in cell order (a ValueError
    when its length differs) and the cochain x by its values on cell keys
    (a * F + b, as in `space.facet_keys`): from the facet keys mod 2, from
    the signed facet keys over Z."""
    if modulus == 2:
        support = {key for key, v in values.items() if v % 2}
        diffs = (0 if support.isdisjoint(keys) else len(support.intersection(keys))
                 for keys in space.facet_keys(degree))
    else:
        get = values.get
        diffs = (sum([s * get(key, 0) for key, s in zip(keys, signs)]) for keys, signs in space.signed_facet_keys(degree))
    for diff, target in zip(diffs, phi, strict=True):
        diff -= target
        if (diff % modulus if modulus else diff) != 0:
            raise RuntimeError(f"{what} fails verification")


def _pullback_primitive(octa: Octahedralization, space: ConfigurationSpace, k: int) -> dict | None:
    """An integer primitive of the top cocycle pulled back from L, as values
    on cell keys in key order, or None when this route does not apply.

    By the pullback identity (top cocycle = nonstrict cocycle after
    `push_to_product`), if delta_L psi_a = (-1)^k nu'(a, -) on L for every
    k-face a of OL, then x{a, tau} = psi_a(p tau) solves delta x = phi; the
    swap sign (-1)^(k(k-1)) is 1, so x does not depend on the stored order.
    The distinct right-hand sides share one `solve_integer` of L's top
    boundary rows, the full solve's unit pivots and core Smith normal form
    (so it raises CoreTooLarge past the same cap).  None when some psi_a
    has no integer solution.  Builds no (2k-1)-cell, and works on the
    index: r_a on rank tuples, the minus copy of each k-face and the lifts
    of each (k-1)-face of L by `lift_ranks` on L's `ranked_faces`, the lifts
    as face ids through `space.rank_ids`, disjointness on masks and the
    stored order by first ranks.
    """
    L = octa.base
    ranks, masks, rid, minus = space.ranks, space.masks, space.rank_ids, space.minus_ranks
    ranked, sign, F = L.ranked_faces(), (-1) ** k, len(ranks)
    minus_top = lift_ranks([ranked[k]], ())[0]
    tops = space.ids_of_dim(k)
    rhs = [tuple([sign * nonstrict_rank_indicator(ranks[a], b, minus) for b in minus_top]) for a in tops]
    distinct = list(dict.fromkeys(rhs))
    psis = solve_integer(boundary_rows(L, k), distinct)
    if psis is None:
        return None
    lower = [[rid[t] for t in lifts] for lifts in lift_ranks([[t] for t in ranked[k - 1]], range(len(L.vertices)))]
    psi = {r: [(lower[i], v) for i, v in x.items() if v] for r, x in zip(distinct, psis)}
    values: dict = {}
    for a, r in zip(tops, rhs):
        mask, first = masks[a], ranks[a][0]
        for taus, v in psi[r]:
            for tau in taus:
                if not mask & masks[tau]:
                    values[a * F + tau if first < ranks[tau][0] else tau * F + a] = v
    return dict(sorted(values.items()))


def _integer_solve(phi, degree: int, space: ConfigurationSpace):
    """The full integer solve of delta(x) = phi on `space`'s signed facet
    keys, the rows the Z re-check reads: a primitive on keys, in key order
    with no zero value, or None.  Raises `CoreTooLarge` past the cap."""
    sols = solve_integer([zip(*row) for row, _ in zip(space.signed_facet_keys(degree), phi, strict=True)], [phi])
    return None if sols is None else {key: v for key, v in sorted(sols[0].items()) if v}


def certify_vanishing(L: SimplicialComplex, integral: bool = False, max_cells: int = MAX_CELLS) -> VanishingResult:
    """Decide whether the top mod-2 obstruction cocycle is a coboundary.

    Solves delta(x) = phi on the configuration space of the octahedralized
    complex over GF(2), the space `ConfigurationSpace(octa)` whose index is
    lifted from L's faces.  The size guard counts the cells of degrees 2k
    and 2k - 1 on L (`count_cells`), so a refusal, past `max_cells`, builds
    nothing of OL.  On failure returns a witness cycle pairing to 1,
    which simultaneously certifies nonvanishing.  With `integral` set, phi,
    which is also the integer cocycle (see `top_mesh_cocycle`), is
    additionally solved over Z: first on L and pulled back
    (`_pullback_primitive`); when that route finds none, on the whole
    configuration space (`_integer_solve`).  Neither builds a (2k-1)-cell.
    Both call `intlinalg.solve_integer`, refused (with a reason) when a
    dense core of more than `intlinalg.INTEGRAL_ENTRY_CAP` entries is left
    after its unit pivots.  Each primitive found is re-checked exactly,
    mod 2 resp. over Z, on every top cell.
    """
    k = L.dim
    if k < 0:
        raise ValueError("empty complex")
    if k == 0:
        return VanishingResult(status="skipped", primitive=None, witness_cycle=None,
                               reason="degree 0 is handled by the sphere rules")
    octa = octahedralize(L)
    space = ConfigurationSpace(octa)
    n_cells = space.count_cells(2 * k) + space.count_cells(2 * k - 1)
    if n_cells > max_cells:
        return VanishingResult(status="skipped", primitive=None, witness_cycle=None,
                               reason=f"cell budget exceeded ({n_cells} > {max_cells})")
    phi = top_mesh_cocycle(space, k)
    primitive, witness = solve_coboundary(phi, 2 * k, space)
    if primitive is None:
        faces, pairs = space.faces, space.indexed_cells(2 * k)[1]
        chain = [pairs[i] for i in witness]
        if space.boundary(chain):
            raise RuntimeError("inconsistency witness is not a cycle")
        if sum([phi[i] for i in witness]) % 2 != 1:
            raise RuntimeError("inconsistency witness does not pair to 1")
        return VanishingResult(status="obstructed", primitive=None,
                               witness_cycle=tuple([(faces[a], faces[b]) for a, b in chain]))
    _recheck(space, 2 * k, phi, primitive, 2, "primitive")
    integral_prim, reason = None, ""
    if integral:
        try:
            integral_prim = _pullback_primitive(octa, space, k)
            if integral_prim is None:
                integral_prim = _integer_solve(phi, 2 * k, space)
        except CoreTooLarge as exc:
            reason = str(exc)
        if integral_prim is not None:
            _recheck(space, 2 * k, phi, integral_prim, 0, "integer primitive")
    return VanishingResult(status="primitive", primitive=primitive, witness_cycle=None, reason=reason,
                           integral_primitive=integral_prim, integral_checked=integral and not reason)


# ---------------------------------------------------------------------------
# Exact geometric cross-check on the moment curve


def _moment_point(t: int, dim: int) -> list:
    return [t**d for d in range(1, dim + 1)]


@lru_cache(maxsize=None)
def _raw_moment_pairing(pa: tuple, pb: tuple) -> int:
    """Signed intersection of two simplices mapped to the moment curve.

    pa, pb: strictly increasing integer parameter tuples, k+1 each.  The
    barycentric coordinates of the intersection of the two affine hulls in
    R^(2k) solve a square integer system; Cramer determinant signs decide
    interior incidence without ever leaving integers.  Distinct parameters
    keep the map in general position, so a singular system means parallel
    disjoint hulls and contributes 0.  Memoized on the exact parameter
    tuples: each pair is solved once per process, and a raised
    ArithmeticError is not cached.
    """
    k = len(pa) - 1
    if k == 0:
        return 1  # both points land in R^0; the pairing counts the pair once
    n = 2 * k
    cols = [_moment_point(t, n) for t in pa] + [[-x for x in _moment_point(t, n)] for t in pb]
    mat = [[cols[c][r] for c in range(n + 2)] for r in range(n)]
    mat.append([1] * (k + 1) + [0] * (k + 1))
    mat.append([0] * (k + 1) + [1] * (k + 1))
    rhs = [0] * n + [1, 1]
    det = integer_det(mat)
    if det == 0:
        # Parallel affine hulls; confirm there is no common point.
        if integer_rank(mat) == integer_rank([row + [r] for row, r in zip(mat, rhs)]):
            raise ArithmeticError("unexpected degenerate intersection on the moment curve")
        return 0
    for i in range(n + 2):
        sub = [row[:i] + [rhs[r]] + row[i + 1 :] for r, row in enumerate(mat)]
        di = integer_det(sub)
        if di == 0:
            raise ArithmeticError("barycentric coordinate vanished on the moment curve")
        if (di > 0) != (det > 0):
            return 0  # intersection point outside one of the simplices
    # det is the orientation of the tangent frame (a_i - a_0, b_j - b_0):
    # subtract each simplex's first column from its others and expand along
    # the two affine rows, now unit rows; the expansion's sign cancels that
    # of the k negated columns.
    return 1 if det > 0 else -1


@lru_cache(maxsize=None)
def _reference_sign(k: int) -> int:
    """Orientation convention in degree k, fixed once on the canonical
    meshed pair 0,2,..,2k against 1,3,..,2k+1 (whose cocycle value is +1)."""
    raw = _raw_moment_pairing(tuple(range(0, 2 * k + 2, 2)), tuple(range(1, 2 * k + 2, 2)))
    if raw not in (1, -1):
        raise ArithmeticError("reference meshed pair must intersect once")
    return raw


def moment_values(ranks, pairs) -> list:
    """The moment oracle on the index: for each cell, given by its face-id
    pair (a, b), the exact signed moment-curve intersection number of the
    rank tuples ranks[a] and ranks[b], normalized to the cocycle's
    orientation convention (the one copy of that rule).  Stored cells are
    disjoint, as the index checks on masks, so only dimensions are checked."""
    values = []
    for a, b in pairs:
        pa, pb = ranks[a], ranks[b]
        if len(pa) != len(pb):
            raise ValueError("the moment oracle pairs equal-dimensional simplices")
        values.append(_reference_sign(len(pa) - 1) * _raw_moment_pairing(pa, pb))
    return values


def moment_intersection(sigma: tuple, tau: tuple, rank: dict) -> int:
    """Exact signed moment-curve intersection number of an ordered pair of
    vertex tuples: `moment_values` on their rank tuples, once checked
    disjoint."""
    pa = tuple(rank[v] for v in sigma)
    pb = tuple(rank[v] for v in tau)
    if not set(pa).isdisjoint(pb):
        raise ValueError("the moment oracle pairs disjoint simplices")
    return moment_values((pa, pb), ((0, 1),))[0]
