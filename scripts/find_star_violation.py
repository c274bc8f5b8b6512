#!/usr/bin/env python3
"""Search small 2-complexes for a pair-intersection failure whose covering
chain is not a cycle, and print the exhibit.

When two cycle simplices jointly covering the doubling simplex meet
outside it, the covering chain can fail to be a cycle.  The search scans
small 2-complexes for a concrete (cycle, simplex) pair exhibiting that
failure and reports the offending boundary cell.  The boundary of the
3-simplex already exhibits it; the random families guard against the
search degenerating into a single hardcoded answer.

Usage: python scripts/find_star_violation.py [--seed N] [--budget N]
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import NamedTuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from raagdim.complexes import SimplicialComplex, make_complex, skeleton  # noqa: E402
from raagdim.config_space import ConfigurationSpace  # noqa: E402
from raagdim.homology import cycle_space  # noqa: E402
from raagdim.obstruction import check_star_condition, covering_pair_chain  # noqa: E402
from raagdim.octa import double_over, octahedralize  # noqa: E402
from raagdim.zoo import simplex  # noqa: E402


class ViolationExhibit(NamedTuple):
    complex: SimplicialComplex
    cycle: frozenset
    delta: tuple
    violating_pair: tuple
    boundary_cell: tuple
    boundary_size: int


def _random_two_complex(rng: random.Random) -> SimplicialComplex:
    """A small pure-ish 2-complex: random triangles over few vertices."""
    n = rng.randint(4, 7)
    verts = [f"w{i}" for i in range(n)]
    count = rng.randint(4, min(10, n * (n - 1) * (n - 2) // 6))
    triangles = set()
    while len(triangles) < count:
        tri = tuple(sorted(rng.sample(range(n), 3)))
        triangles.add(tri)
    return make_complex([tuple(verts[i] for i in t) for t in sorted(triangles)],
                        vertex_order=verts)


def candidate_complexes(seed: int, budget: int):
    """Deterministic stream of small 2-complexes to scan."""
    yield skeleton(simplex(3), 2)
    rng = random.Random(seed)
    for _ in range(budget):
        yield _random_two_complex(rng)


def find_star_violation(seed: int = 0, budget: int = 40) -> ViolationExhibit | None:
    """First (cycle, delta) pair that breaks the pair-intersection condition
    and whose covering chain has nonzero boundary."""
    for K in candidate_complexes(seed, budget):
        k = K.dim
        if k != 2:
            continue
        octa = octahedralize(K)
        for cyc in cycle_space(K, k):
            for delta in sorted(cyc):
                report = check_star_condition(cyc, delta)
                if report.holds:
                    continue
                doubled = double_over(octa, cyc, delta)
                space, pairs = covering_pair_chain(doubled, ConfigurationSpace(doubled))
                boundary = space.boundary(pairs)
                if boundary:
                    return ViolationExhibit(
                        complex=K,
                        cycle=cyc,
                        delta=delta,
                        violating_pair=report.violation,
                        boundary_cell=space.key_cell(boundary[0]),
                        boundary_size=len(boundary),
                    )
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=40)
    args = parser.parse_args()
    exhibit = find_star_violation(seed=args.seed, budget=args.budget)
    if exhibit is None:
        print("no violation with nonzero boundary found within the budget")
        return 1
    print("complex (maximal faces):")
    for f in exhibit.complex.maximal_faces():
        print(f"  {f}")
    print(f"cycle: {sorted(exhibit.cycle)}")
    print(f"doubled simplex: {exhibit.delta}")
    print(f"violating pair: {exhibit.violating_pair}")
    print(f"boundary of the covering chain is nonzero on {exhibit.boundary_size} cells")
    print(f"example cell: {exhibit.boundary_cell}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
