"""Top-degree embedding obstruction machinery for octahedralized complexes.

Two k-simplices with vertices in increasing rank order are *meshed* when
their vertices strictly interleave.  The meshing cocycle assigns +1 to a
meshed ordered pair led by the lower vertex, (-1)^k to the swapped pair,
and 0 otherwise; its mod-2 reduction is the top obstruction cocycle on the
configuration space.  A nonstrict variant pairs simplices of the doubled
complex with the minus copy.  Both are one test on int bitmasks run a list
at a time, `mesh_values` (`nonstrict_values` on spread masks).  The push
to the product with the minus copy has one copy too, `push_terms`: the
cells' two product terms as lists of halves (no sign: it has why), which
`push_to_product` reduces to a set and the lemma suite evaluates.

Nonvanishing is certified by a cycle of unordered disjoint pairs that
jointly cover a chosen simplex, built from a GF(2) cycle of the base.  The
covering chain, its boundary, its push to the product and its evaluation
run on face-id pairs in a space lifted on OL's ranks, so no face set is
built: the certificate paths pass the doubled complex's own space, lifted
from the cycle's support, and the lemma suite OL's, which it has built
already; the certificate stores the pairs as cells once.
Vanishing is certified by an explicit coboundary primitive on cell keys.
A geometric cross-check computes exact signed intersection numbers of
simplices mapped to the moment curve and must reproduce the combinatorial
cocycle.  It reads cells as face-id pairs on the rank tuples of the index
(`moment_values`); `moment_intersection` is its entry point on vertex
tuples, and both share the one memoized solve on rank tuples and the one
orientation normalization.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from functools import lru_cache, reduce
from itertools import chain, combinations
from operator import or_
from typing import NamedTuple

from .complexes import SimplicialComplex, facet_signs
from .config_space import ConfigurationSpace
from .homology import cycle_space, solve_coboundary
from .intlinalg import CoreTooLarge, integer_det, integer_rank, solve_integer
from .octa import Octahedralization, DoubledComplex, double_over, lift_ranks, octahedralize

# The default cap on cells of degrees 2k and 2k - 1 in the top solve.
MAX_CELLS = 10**6


# ---------------------------------------------------------------------------
# Cocycles


def mesh_values(lows, pairs, highs=None) -> list:
    """Whether each cell, given by its face-id pair (a, b), meshes, a0 < b0
    < a1 < .. < ak < bk, on the bitmasks l = lows[a] and h = highs[b] (the
    index's `masks` for both when `highs` is None): the one copy of both
    meshing rules, a list at a time.  A stored cell puts the face with the
    lower first rank first, so its meshing cocycle is 0 or 1.

    The bits of l and h alternate, l's lowest first, exactly when d = h - l
    > 0 and d's runs of ones start at l's bits, d & ~(d << 1) == l.  If a0
    < b0 < .. < ak < bk, d = sum(2^bi - 2^ai) is k + 1 separated runs [ai,
    bi - 1], which start at l's bits.  Conversely, adding to each run [s,
    e] of d its start carries it to the one bit e + 1, a 0 of d below the
    next run, so h = d + l has a bit e + 1 for each run: s < e + 1 < the
    next s.  ROADMAP item 1's rule for |a| = |b| + 1, a leading, is this
    test with a sentinel bit above every rank added to h.
    """
    highs = lows if highs is None else highs
    return [(d := highs[b] - (l := lows[a])) > 0 and d & ~(d << 1) == l for a, b in pairs]


def nonstrict_values(spread, firsts, seconds) -> list:
    """The nonstrict cocycle on product cells, face-id pairs (a, b) of a
    space lifted on OL's ranks, given as the parallel lists of their a's
    and b's: whether a0 <= b0 < a1 <= .. < ak <= bk, 0 on halves of two
    sizes.  On the index's `spread` masks (bit 2r for rank r) that is
    meshing with b shifted up one: 2ai < 2bi + 1 < 2ai+1.  A plus vertex
    has an odd rank (`octa.lift_ranks`), so a b with one, a shifted bit
    4j + 3, is refused: b must lie in the minus copy."""
    highs = {b: spread[b] << 1 for b in set(seconds)}
    union = reduce(or_, highs.values(), 0)
    if union & int("8" * (union.bit_length() // 4 + 1), 16):
        raise ValueError("second simplex must lie in the minus copy")
    return mesh_values(spread, zip(firsts, seconds), highs)


def pairing(space: ConfigurationSpace, pairs) -> tuple:
    """The one witness check, on a chain given by the face-id pairs of its
    cells: its boundary keys and its meshing value, mod 2.  A witness of a
    nonzero top class has no boundary and value 1."""
    return space.boundary(pairs), sum(mesh_values(space.masks, pairs)) % 2


def push_terms(pairs, space: ConfigurationSpace) -> tuple:
    """The one copy of the push rule: for the cells (sigma, tau) of `pairs`,
    face-id pairs of `space`'s complex, the first product terms (sigma, p
    tau) and the second, (tau, p sigma), each as the parallel lists of
    their halves, in order; p is the projection table `space.minus_ids`,
    onto the minus copy.  The second term's factor-switch sign is left
    out, as nothing can see it: it is 1 mod 2, and over Z the nonstrict
    cocycle is 0 there, as tau0 > sigma0 >= sigma0 & -2 = (p sigma)0
    breaks its pattern's tau0 <= (p sigma)0."""
    minus, sigmas, taus = space.minus_ids, [s for s, _ in pairs], [t for _, t in pairs]
    return (sigmas, [minus[t] for t in taus]), (taus, [minus[s] for s in sigmas])


def push_to_product(pairs, space: ConfigurationSpace) -> set:
    """Push a GF(2) configuration-space chain, given by the face-id pairs
    of its cells, to the product with the minus copy: the set of terms that
    an odd number of its cells push to (`push_terms`), face-id pairs of
    `space`'s complex, which holds every minus copy."""
    (a1, b1), (a2, b2) = push_terms(pairs, space)
    return {term for term, n in Counter(chain(zip(a1, b1), zip(a2, b2))).items() if n & 1}


# ---------------------------------------------------------------------------
# The covering chain and the pair-intersection (star) condition


def covering_pair_chain(doubled: DoubledComplex, space: ConfigurationSpace):
    """The top GF(2) chain of the doubled complex's configuration space
    supported on disjoint pairs whose projections jointly cover the chosen
    simplex, named in `space`: a space lifted on OL's ranks that holds the
    doubled k-faces (OL's or the doubled complex's), as for
    `delta_product_chain`.  Returns (space, pairs), the space as given and
    the chain as the face-id pairs of its cells, in cell order.

    The doubled complex has dimension k, so its 2k-cells are exactly the
    disjoint pairs of its k-faces: the cycle's simplices lifted by
    `lift_ranks` with a plus copy over delta, sorted as ids are, and named
    through `space.rank_ids`.  A partner b ranks its first vertex above a's
    (found by bisection on the first ranks), as in a stored cell.  A face's
    cover of delta is read off its rank tuple: (v, s) ranks 2 r(v) + [s = +]."""
    rk = doubled.octa.base.rank
    delta = tuple([rk[v] for v in doubled.delta])
    tops = lift_ranks([[tuple([rk[v] for v in f]) for f in doubled.cycle]], delta)[0]
    rid, masks = space.rank_ids, space.masks
    ids = [rid[t] for t in tops]
    top_masks = [masks[g] for g in ids]
    first = [t[0] for t in tops]
    bit = {2 * r + s: 1 << i for i, r in enumerate(delta) for s in (0, 1)}
    # Each face's base vertices in delta, as a bitmask over delta.
    cover = [sum([bit.get(r, 0) for r in t]) for t in tops]
    full, n = (1 << len(delta)) - 1, len(ids)
    pairs = []
    for i, ga in enumerate(ids):
        ma, need = top_masks[i], full & ~cover[i]
        pairs += [(ga, ids[j]) for j in range(bisect_right(first, first[i]), n)
                  if not ma & top_masks[j] and not need & ~cover[j]]
    return space, tuple(pairs)


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


def delta_product_chain(doubled: DoubledComplex, space: ConfigurationSpace) -> set:
    """The GF(2) product chain (all signed lifts of delta) x (minus copy of
    the cycle), as the set of its face-id pairs in `space`, a space lifted
    on OL's ranks (OL's or the doubled complex's): both halves lifted by
    `lift_ranks` (a minus copy is the lift with no plus rank), read through
    `space.rank_ids`."""
    rk, rid = doubled.octa.base.rank, space.rank_ids
    delta = tuple([rk[v] for v in doubled.delta])
    halves = [lift_ranks([[delta]], delta)[0], lift_ranks([[tuple([rk[v] for v in b]) for b in doubled.cycle]], ())[0]]
    lifts, minus_cycle = [[rid[t] for t in half] for half in halves]
    return {(a, b) for a in lifts for b in minus_cycle}


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
    """Each basis element, then the sum of each two of them, in basis order.
    No sum is empty: the basis is independent."""
    yield from basis
    for a, b in combinations(basis, 2):
        yield a ^ b


def certify_nonvanishing(L: SimplicialComplex, degree: int):
    """Search for a nonvanishing certificate in the given degree.

    Reads the degree-cycles of L itself: they are those of its
    degree-skeleton, and OL's vertex order is the same, as every vertex is
    a 0-face, so no skeleton is built.  Tries each cycle-basis element,
    then each sum of two of them, and every simplex of each candidate as
    the doubling simplex.  Absence of a certificate is a
    legal result (None), never a vanishing claim.
    """
    if degree < 0 or degree > L.dim:
        return None
    basis = cycle_space(L, degree)
    if not basis:
        return None
    octa = octahedralize(L)
    for cycle in _cycle_candidates(basis):
        for delta in sorted(cycle):
            report = check_star_condition(cycle, delta)
            if not report.holds:
                continue
            doubled = double_over(octa, cycle, delta)
            space, pairs = covering_pair_chain(doubled, ConfigurationSpace(doubled))
            boundary, value = pairing(space, pairs)
            if boundary:
                raise RuntimeError(
                    "covering chain failed to be a cycle under the pair-intersection "
                    f"condition (cycle {sorted(cycle)}, delta {delta})"
                )
            if value != 1:
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
    'primitive' the requested integer solve, was skipped.  `primitive` is
    the support, a sorted tuple of keys, and `integral_primitive` a {key:
    value} dict in key order, on the (2k-1)-cells of C(OL);
    `witness_cycle` is a tuple of 2k-cells.
    """

    status: str
    primitive: tuple | None
    witness_cycle: tuple | None
    reason: str = ""
    integral_primitive: dict | None = None
    integral_checked: bool = False


def top_mesh_cocycle(space: ConfigurationSpace, degree: int) -> list:
    """The meshing cocycle on the top cells, as its 0/1 values in cell order.

    The cocycle is 0 or 1 on a stored cell (`mesh_values`), so this is the
    integer cocycle as well as its mod-2 reduction.  It reads the vertex
    bitmasks of `space`'s index.
    """
    return mesh_values(space.masks, space.indexed_cells(2 * degree)[1])


def _top_signs(degree: int) -> tuple:
    """The signs of every row of `facet_keys(degree)`, degree 2k: a cell
    pairs two k-faces a, b, its row lists a's facets, then b's, b's with
    (-1)^k on top, and the swap sign (-1)^((k - 1) k) of a facet of a
    stored after b is 1."""
    signs = facet_signs(degree // 2)
    return signs + tuple([(-1) ** (degree // 2) * s for s in signs])


def _recheck(space: ConfigurationSpace, degree: int, phi: list, x, modulus: int, what: str):
    """Check delta(x) = phi on every degree-cell, mod `modulus` (0 for
    exactly over Z), for phi given by position in cell order (a ValueError
    when its length differs) and the cochain x on cell keys (a * F + b, as
    in `space.facet_keys`): mod 2 its support against the facet keys, over
    Z its values, a dict, against the facet keys with `_top_signs` (a
    ValueError for a row of another length)."""
    if modulus == 2:
        support = set(x)
        diffs = (0 if support.isdisjoint(keys) else len(support.intersection(keys))
                 for keys in space.facet_keys(degree))
    else:
        get, signs = x.get, _top_signs(degree)
        diffs = (sum([s * get(key, 0) for key, s in zip(keys, signs, strict=True)])
                 for keys in space.facet_keys(degree))
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
    rows, `L.facet_rows(k)` zipped with `facet_signs(k)` (no second signed
    copy), the full solve's unit pivots and core Smith normal form (so it
    raises CoreTooLarge past the same cap).  None when some psi_a
    has no integer solution.  Builds no (2k-1)-cell, and works on the
    index: the minus copy of each k-face and the lifts of each (k-1)-face
    of L by `lift_ranks` on L's `ranked_faces`, as face ids through
    `space.rank_ids`, every r_a in one `nonstrict_values` list,
    disjointness on masks and the stored order by first ranks.
    """
    L = octa.base
    ranks, masks, rid = space.ranks, space.masks, space.rank_ids
    ranked, sign, F, tops = L.ranked_faces(), (-1) ** k, len(ranks), space.ids_of_dim(k)
    minus_top = [rid[t] for t in lift_ranks([ranked[k]], ())[0]]
    values = iter(nonstrict_values(space.spread, [a for a in tops for _ in minus_top], minus_top * len(tops)))
    rhs = [tuple([sign * next(values) for _ in minus_top]) for _ in tops]
    distinct = list(dict.fromkeys(rhs))
    signs = facet_signs(k)
    psis = solve_integer([zip(row, signs, strict=True) for row in L.facet_rows(k)], distinct)
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
    """The full integer solve of delta(x) = phi on `space`'s top facet keys
    with `_top_signs`, the rows the Z re-check reads: a primitive on keys,
    in key order with no zero value, or None.  Raises `CoreTooLarge` past
    the cap, and a ValueError for a row of another length."""
    signs = _top_signs(degree)
    sols = solve_integer([zip(keys, signs, strict=True) for keys, _ in zip(space.facet_keys(degree), phi, strict=True)],
                         [phi])
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
        boundary, value = pairing(space, chain)
        if boundary:
            raise RuntimeError("inconsistency witness is not a cycle")
        if value != 1:
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
