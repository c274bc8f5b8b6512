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

Chains are face-id pairs, all in one space per complex, C(OL): every
doubled complex's faces are faces of OL, so each covering chain, its push,
its boundary and the product chain read OL's rank ids, facet ids and minus
copies, built once per complex, and no doubled complex's space is built.
The pullback check compares two lists over the top cells of C(OL): phi,
`top_mesh_cocycle`, the cocycle that `analyze` solves against, and
nu'(t1) + nu'(t2), in exact integers, the cells' two product terms from
`push_terms`, the push rule that `push_to_product` reduces, each list of
terms evaluated at once by `nonstrict_values`; no chain is built per
cell, no rule is called per cell and there is no sign: nu' is 0 on t2
(`push_terms` has why).  Only a failure looks for the first cell that
differs.  The pushforward check compares two sets, and the evaluation
check sums `nonstrict_values` over the product chain.  The moment oracle
reads the same face-id pairs, the first `ORACLE_CELL_CAP` top cells, on
their rank tuples (`moment_values`), so a passing check builds no cell as
a pair of faces; only a failure's wording does.

The driver's own faults live in tests/test_suite.py, each caught by the
check named after it: `push_to_product` with no swap term (pushforward),
`top_mesh_cocycle` inverted (pullback, on the first cell), `moment_values`
negated (moment-oracle), `push_terms` with its swap term replaced by its
first (pullback, where the first term meshes: nu' reads 2), a wrong
`ConfigurationSpace.minus_ids` entry (pullback or pushforward),
`check_star_condition` always holding (cycle, on the boundary of the
3-simplex), an empty product chain (pushforward) and an empty product
chain with an empty push (evaluation).
"""

from __future__ import annotations

import random
from operator import add
from types import SimpleNamespace
from typing import NamedTuple

from .complexes import SimplicialComplex, make_complex
from .config_space import ConfigurationSpace
from .homology import cycle_space
from .obstruction import (
    check_star_condition,
    covering_pair_chain,
    delta_product_chain,
    moment_values,
    nonstrict_values,
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


class SuiteFailure(NamedTuple):
    """One failed identity: its name, the (shrunk) complex's maximal faces, what differed."""

    check: str
    complex_maximal: tuple
    detail: str


class SuiteResult(SimpleNamespace):
    """A suite run's totals, which `check_complex` adds to: complexes, checks and failures."""

    def __init__(self):
        super().__init__(complexes=0, checks=0, failures=[])


def _sample_complex(rng: random.Random) -> SimplicialComplex | None:
    """One random flag complex of dimension <= 2 carrying a top cycle."""
    style = rng.random()
    if style < 0.25:
        return suspension(cycle_complex(rng.randint(4, 6)))
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


def check_complex(K: SimplicialComplex, result: SuiteResult) -> None:
    """Run the four identities plus the oracle agreement on one complex; stop at the first failure."""

    def fail(check: str, detail: str) -> None:
        result.failures.append(SuiteFailure(check, K.maximal_faces(), detail))

    k = K.dim
    octa = octahedralize(K)
    space = ConfigurationSpace(octa)
    top_pairs = space.indexed_cells(2 * k)[1]
    cocycle, spread = top_mesh_cocycle(space, k), space.spread
    (a1, b1), (a2, b2) = push_terms(top_pairs, space)
    pushed = list(map(add, nonstrict_values(spread, a1, b1), nonstrict_values(spread, a2, b2)))
    if pushed != cocycle:
        i = next(i for i, (lhs, rhs) in enumerate(zip(cocycle, pushed)) if lhs != rhs)
        result.checks += i + 1
        faces, (a, b) = space.faces, top_pairs[i]
        return fail("pullback", f"cell {(faces[a], faces[b])}: cocycle {cocycle[i]} != pushed evaluation {pushed[i]}")
    result.checks += len(top_pairs)

    basis = cycle_space(K, k)
    pairs = []
    for cyc in basis:
        for delta in sorted(cyc):
            pairs.append((cyc, delta))
    pairs = pairs[:PAIR_CAP]
    for cyc, delta in pairs:
        doubled = double_over(octa, cyc, delta)
        omega = covering_pair_chain(doubled, space)[1]

        result.checks += 1
        product = delta_product_chain(doubled, space)
        if push_to_product(omega, space) != product:
            return fail("pushforward",
                        f"cycle {sorted(cyc)}, delta {delta}: push of covering chain differs from product chain")

        star = check_star_condition(cyc, delta)
        if star.holds:
            result.checks += 1
            if space.boundary(omega):
                return fail("cycle", f"cycle {sorted(cyc)}, delta {delta}: covering chain has boundary")

        result.checks += 1
        if sum(nonstrict_values(spread, [a for a, _ in product], [b for _, b in product])) % 2 != 1:
            return fail("evaluation", f"cycle {sorted(cyc)}, delta {delta}: product chain evaluates to 0")

    oracle_pairs = top_pairs[:ORACLE_CELL_CAP]
    for i, (geo, value) in enumerate(zip(moment_values(space.ranks, oracle_pairs), cocycle)):
        if geo != value:
            result.checks += i + 1
            faces, (a, b) = space.faces, oracle_pairs[i]
            return fail("moment-oracle",
                        f"cell {(faces[a], faces[b])}: geometric intersection disagrees with the cocycle")
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

            def still_fails(cand: SimplicialComplex) -> bool:
                probe = SuiteResult()
                check_complex(cand, probe)
                return any(f.check == fail.check for f in probe.failures)

            result.failures[-1] = fail._replace(complex_maximal=_shrink(K, still_fails).maximal_faces())
            break
    return result
