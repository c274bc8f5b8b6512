"""Bounded search for a pair-intersection failure with nonzero boundary.

When two cycle simplices jointly covering the doubling simplex meet
outside it, the covering chain can fail to be a cycle.  This module scans
small 2-complexes for a concrete (cycle, simplex) pair exhibiting that
failure and reports the offending boundary cell.  The boundary simplex of
the 3-simplex already exhibits it; the random families guard against the
search degenerating into a single hardcoded answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .complexes import SimplicialComplex, skeleton
from .homology import cycle_space
from .obstruction import check_star_condition, covering_pair_chain
from .octa import double_over, octahedralize
from .zoo import simplex


@dataclass(frozen=True)
class ViolationExhibit:
    complex: SimplicialComplex
    cycle: frozenset
    delta: tuple
    violating_pair: tuple
    boundary_cell: tuple
    boundary_size: int


def _random_two_complex(rng: random.Random) -> SimplicialComplex:
    """A small pure-ish 2-complex: random triangles over few vertices."""
    from .complexes import make_complex

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
                space, pairs = covering_pair_chain(doubled)
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
