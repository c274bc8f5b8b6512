"""Property-test driver for the four chain-level identities.

On seeded random flag complexes (small, with a top cycle) this checks:

  * pullback: the top cocycle equals the nonstrict cocycle pulled through
    the push-to-product map, cell by cell, with exact integers;
  * pushforward: the push of the covering chain equals the product of the
    doubled simplex's lifts with the cycle, mod 2, for every tried pair
    (whether or not the pair-intersection condition holds);
  * cycle: the covering chain has zero boundary whenever the
    pair-intersection condition holds;
  * evaluation: the nonstrict cocycle evaluates to 1 on the product chain
    for every top cycle;

plus agreement of the moment-curve intersection oracle with the cocycle on
(a sample of) top cells.  Failures are reported with a shrunk complex.

Chains are face-id pairs.  The pullback check is one pass over the top
cells of C(OL): phi is `top_mesh_cocycle`, the cocycle that `analyze`
solves against, and each cell's two product terms and swap sign come from
`push_terms`, the push rule that `push_to_product` sums, so the check is
nu'(t1) + s * nu'(t2) = phi cell by cell, with no chain built per cell.
One memo per complex holds nu' of each product cell read, evaluated once
on rank tuples (`nonstrict_rank_indicator`), filled by the pullback check
and read again by the evaluation check.  The moment oracle reads the
same face-id pairs, the first `ORACLE_CELL_CAP` top cells, on their rank
tuples (`moment_values`), so a passing check builds no cell as a pair of
faces; only a failure's wording does.

The driver's own faults live in tests/test_suite.py, which swaps this
module's `push_to_product` for one that keeps only the first product term
(the pushforward identity catches it), its `top_mesh_cocycle` for an
inverted meshing test (the pullback identity catches it on the first
cell), its `moment_values` for a negated oracle (the oracle agreement
catches it), `obstruction.push_terms` for one without the swap term (the
pushforward identity catches it; on a stored cell the swap term never
meshes, so the pullback identity cannot), and the projection table
`ConfigurationSpace.minus_ids` for one with a wrong entry (the pullback or
pushforward identity catches it).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .complexes import SimplicialComplex, make_complex
from .config_space import ConfigurationSpace
from .homology import cycle_space
from .obstruction import (
    check_star_condition,
    covering_pair_chain,
    delta_product_chain,
    moment_values,
    nonstrict_rank_indicator,
    push_terms,
    push_to_product,
    top_mesh_cocycle,
)
from .octa import double_over, octahedralize
from .zoo import cycle as cycle_complex
from .zoo import random_flag, suspension

# Per complex: (cycle, delta) pairs run through the chain identities, and
# top cells cross-checked against the moment-curve oracle.
PAIR_CAP = 6
ORACLE_CELL_CAP = 400


@dataclass
class SuiteFailure:
    check: str
    complex_maximal: tuple
    detail: str


@dataclass
class SuiteResult:
    complexes: int = 0
    checks: int = 0
    failures: list = field(default_factory=list)


def _sample_complex(rng: random.Random) -> SimplicialComplex | None:
    """One random flag complex of dimension <= 2 carrying a top cycle."""
    style = rng.random()
    if style < 0.25:
        K = suspension(cycle_complex(rng.randint(4, 6)))
        return K if len(K.vertices) <= 8 else None
    n = rng.randint(4, 8)
    p = rng.uniform(0.3, 0.65)
    K = random_flag(n, p, seed=rng.randrange(1 << 30))
    if K.dim < 1 or K.dim > 2:
        return None
    if not cycle_space(K, K.dim):
        return None
    return K


def _shrink(K: SimplicialComplex, still_fails) -> SimplicialComplex:
    """Greedy minimization: drop maximal faces while the failure persists."""
    current = K
    changed = True
    while changed:
        changed = False
        for m in current.maximal_faces():
            rest = [f for f in current.maximal_faces() if f != m]
            if not rest:
                continue
            cand = make_complex(rest, vertex_order=current.vertices)
            try:
                if still_fails(cand):
                    current = cand
                    changed = True
                    break
            except Exception:
                continue
    return current


class _Nonstrict(dict):
    """The nonstrict cocycle on the product cells (face-id pairs of OL) that
    are read, each evaluated once, on rank tuples."""

    def __init__(self, space: ConfigurationSpace):
        super().__init__()
        self.ranks, self.minus = space.ranks, space.minus_ranks

    def __missing__(self, term):
        value = self[term] = nonstrict_rank_indicator(self.ranks[term[0]], self.ranks[term[1]], self.minus)
        return value


def check_complex(K: SimplicialComplex, result: SuiteResult) -> None:
    """Run the four identities plus the oracle agreement on one complex."""
    k = K.dim
    octa = octahedralize(K)
    space = ConfigurationSpace(octa)
    top_pairs = space.indexed_cells(2 * k)[1]
    cocycle = top_mesh_cocycle(space, k)
    # Shared by the pullback and the evaluation check.
    nonstrict = _Nonstrict(space)

    for i, (lhs, (first, second, sign)) in enumerate(zip(cocycle, push_terms(top_pairs, space))):
        rhs = nonstrict[first] + sign * nonstrict[second]
        if lhs != rhs:
            result.checks += i + 1
            faces, (a, b) = space.faces, top_pairs[i]
            result.failures.append(SuiteFailure(
                "pullback", K.maximal_faces(),
                f"cell {(faces[a], faces[b])}: cocycle {lhs} != pushed evaluation {rhs}"))
            return
    result.checks += len(top_pairs)

    basis = cycle_space(K, k)
    pairs = []
    for cyc in basis:
        for delta in sorted(cyc):
            pairs.append((cyc, delta))
    pairs = pairs[:PAIR_CAP]
    for cyc, delta in pairs:
        doubled = double_over(octa, cyc, delta)
        dspace, omega = covering_pair_chain(doubled)

        result.checks += 1
        pushed = {c: v % 2 for c, v in push_to_product(dict.fromkeys(omega, 1), dspace).items() if v % 2}
        if pushed != delta_product_chain(doubled, dspace):
            result.failures.append(SuiteFailure(
                "pushforward", K.maximal_faces(),
                f"cycle {sorted(cyc)}, delta {delta}: push of covering chain differs from product chain"))
            return

        star = check_star_condition(cyc, delta)
        if star.holds:
            result.checks += 1
            if dspace.boundary(omega):
                result.failures.append(SuiteFailure(
                    "cycle", K.maximal_faces(),
                    f"cycle {sorted(cyc)}, delta {delta}: covering chain has boundary"))
                return

        result.checks += 1
        if sum([nonstrict[term] for term in delta_product_chain(doubled, space)]) % 2 != 1:
            result.failures.append(SuiteFailure(
                "evaluation", K.maximal_faces(),
                f"cycle {sorted(cyc)}, delta {delta}: product chain evaluates to 0"))
            return

    oracle_pairs = top_pairs[:ORACLE_CELL_CAP]
    for i, (geo, value) in enumerate(zip(moment_values(space.ranks, oracle_pairs), cocycle)):
        if geo != value:
            result.checks += i + 1
            faces, (a, b) = space.faces, oracle_pairs[i]
            result.failures.append(SuiteFailure(
                "moment-oracle", K.maximal_faces(),
                f"cell {(faces[a], faces[b])}: geometric intersection disagrees with the cocycle"))
            return
    result.checks += len(oracle_pairs)


def run_suite(seed: int, count: int) -> SuiteResult:
    rng = random.Random(seed)
    result = SuiteResult()
    attempts = 0
    while result.complexes < count and attempts < 60 * max(count, 1):
        attempts += 1
        K = _sample_complex(rng)
        if K is None:
            continue
        result.complexes += 1
        check_complex(K, result)
        if result.failures:
            fail = result.failures[-1]
            check_name = fail.check

            def still_fails(cand: SimplicialComplex) -> bool:
                probe = SuiteResult()
                check_complex(cand, probe)
                return any(f.check == check_name for f in probe.failures)

            shrunk = _shrink(K, still_fails)
            fail.complex_maximal = shrunk.maximal_faces()
            break
    return result
