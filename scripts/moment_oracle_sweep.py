#!/usr/bin/env python3
"""Sweep the moment-curve intersection oracle against the meshing cocycle
over random flag complexes and report agreement counts.

Usage: python scripts/moment_oracle_sweep.py [--samples N] [--seed N]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from raagdim.config_space import ConfigurationSpace  # noqa: E402
from raagdim.obstruction import _raw_moment_pairing, mesh_values, moment_intersection  # noqa: E402
from raagdim.octa import octahedralize  # noqa: E402
from raagdim.zoo import random_flag  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--samples", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--doubled", action="store_true",
                        help="sweep the octahedralizations instead of the bases")
    args = parser.parse_args()

    total = nonzero = mismatches = 0
    t0 = time.perf_counter()
    produced = 0
    seed = args.seed
    while produced < args.samples:
        K = random_flag(7, 0.45, seed=seed)
        seed += 1
        if K.dim < 1 or K.dim > 2:
            continue
        produced += 1
        if args.doubled:
            K = octahedralize(K).complex
        space = ConfigurationSpace(K)
        k = K.dim
        # Both in cell order; a stored cell meshes 0 or 1, never (-1)^k.
        meshed = mesh_values(space.masks, space.indexed_cells(2 * k))
        for (a, b), comb in zip(space.cells_of_degree(2 * k), meshed, strict=True):
            geo = moment_intersection(a, b, K.rank)
            total += 1
            nonzero += bool(comb)
            mismatches += geo != comb
    dt = time.perf_counter() - t0
    # A miss is one exact solve of a distinct parameter pair; a hit reuses it.
    memo = _raw_moment_pairing.cache_info()
    print(f"complexes: {produced}  cells: {total}  meshed: {nonzero}  "
          f"mismatches: {mismatches}  oracle cache: {memo.misses} misses, "
          f"{memo.hits} hits  ({dt:.1f}s)")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
