"""Reference oracles: the push to the product, the meshing cocycle and the
nonstrict meshing indicator written straight from their definitions, on
cells, deriving the minus copy of every half on each call
(`minus_lift(project(face))`) and testing the signs of `b` before any
vertex order.  `raagdim.obstruction` pushes GF(2) chains of face-id pairs,
with no factor-switch sign, reads the minus copies from the per-space
projection table `ConfigurationSpace.minus_ids` and evaluates the
indicator on rank tuples (`nonstrict_rank_indicator`), checking the signs
within its one loop; the tests compare the two, the push mod 2.  The
integer push here, sign included, is the one on which the tests check the
chain-map and pullback identities over Z.  `project`, `minus_lift` and
`lifts` are the signed-vertex relabellings the other oracles share;
`raagdim` lifts rank tuples instead (`octa.lift_ranks`).
"""

from __future__ import annotations

from itertools import product

from raagdim.octa import MINUS, PLUS


def project(face: tuple) -> tuple:
    """Base simplex under the sign-forgetting projection."""
    return tuple(v for v, _s in face)


def minus_lift(face: tuple) -> tuple:
    """The minus copy of a base simplex."""
    return tuple((v, MINUS) for v in face)


def lifts(face: tuple) -> tuple:
    """All signed lifts of a base simplex, in sign-pattern order."""
    return tuple(tuple(zip(face, signs)) for signs in product((MINUS, PLUS), repeat=len(face)))


def mesh_number(sigma: tuple, tau: tuple, rank: dict) -> int:
    """The top integral obstruction cocycle on an ordered pair of vertex
    tuples: 1 when their ranks run s0 < t0 < s1 < t1 < ... < sk < tk, (-1)^k
    when they run t0 < s0 < ... < tk < sk, else 0.  `raagdim.obstruction` reads
    only stored cells, which lead with the lower first vertex, as 0 or 1
    (`mesh_values`)."""
    if len(sigma) != len(tau):
        raise ValueError("meshing is defined for equal-dimensional simplices")

    def meshes(a, b):
        merged = [rank[v] for pair in zip(a, b) for v in pair]
        return all(x < y for x, y in zip(merged, merged[1:]))

    if meshes(sigma, tau):
        return 1
    return (-1) ** (len(sigma) - 1) if meshes(tau, sigma) else 0


def nonstrict_mesh_indicator(sigma: tuple, b: tuple, rank: dict) -> int:
    """v0 <= w0 < v1 <= w1 < ... < vk <= wk, the w's the minus vertices of b."""
    if len(sigma) != len(b):
        raise ValueError("nonstrict meshing needs equal-dimensional simplices")
    if any(s != MINUS for _v, s in b):
        raise ValueError("second simplex must lie in the minus copy")
    prev = None
    for v, w in zip(sigma, b):
        rv, rw = rank[v], rank[w]
        if rv > rw:
            return 0
        if prev is not None and prev >= rv:
            return 0
        prev = rw
    return 1


def push_to_product(chain, octa) -> dict:
    """[sigma, tau] -> (sigma, p(tau)) + sign * (tau, p(sigma)), with sign
    the factor switch (-1)^(dim sigma * dim tau)."""
    out: dict = {}

    def add(cell, v):
        out[cell] = out.get(cell, 0) + v

    for (sigma, tau), coeff in chain.items():
        sign = (-1) ** ((len(sigma) - 1) * (len(tau) - 1))
        add((sigma, minus_lift(project(tau))), coeff)
        add((tau, minus_lift(project(sigma))), sign * coeff)
    return {c: v for c, v in out.items() if v}
