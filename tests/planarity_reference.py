"""Reference oracle: brute-force planarity testing by Kuratowski
subdivision search.

Decides planarity of a simple graph by exhaustively searching for a
subdivision of K5 or K3,3 after shrinking the graph with the standard
planarity-preserving reductions (drop low-degree vertices, suppress
degree-2 vertices).  Complete at desk scale; the tests use it as the
independent consistency check that octahedralized 1-complexes with
vanishing top obstruction really embed in the 2-sphere.  `raagdim` never
reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


@dataclass(frozen=True)
class PlanarityResult:
    planar: bool
    reason: str
    witness: tuple | None = None  # branch vertices of the found subdivision


def _reduce(adj: dict) -> dict:
    """Planarity-preserving shrink: drop degree <= 1, suppress degree 2."""
    adj = {v: set(ns) for v, ns in adj.items()}
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            ns = adj.get(v)
            if ns is None:
                continue
            if len(ns) <= 1:
                for u in ns:
                    adj[u].discard(v)
                del adj[v]
                changed = True
            elif len(ns) == 2:
                a, b = sorted(ns, key=repr)
                adj[a].discard(v)
                adj[b].discard(v)
                del adj[v]
                if a != b:
                    adj[a].add(b)
                    adj[b].add(a)
                changed = True
    return adj


def _paths_between(adj, start, goal, banned):
    """All simple paths start..goal with internal vertices outside `banned`."""
    out = []
    stack = [(start, (start,))]
    while stack:
        v, path = stack.pop()
        for u in sorted(adj[v], key=repr):
            if u == goal:
                out.append(path + (goal,))
            elif u not in banned and u not in path:
                stack.append((u, path + (u,)))
    return out


def _subdivision_exists(adj, branch, pairs) -> bool:
    """Internally disjoint paths realizing `pairs` on the branch vertices."""
    branch_set = set(branch)

    def assign(i, used):
        if i == len(pairs):
            return True
        a, b = pairs[i]
        banned = (branch_set - {a, b}) | used
        for path in _paths_between(adj, a, b, banned):
            interior = set(path[1:-1])
            if interior & used:
                continue
            if assign(i + 1, used | interior):
                return True
        return False

    return assign(0, set())


def is_planar(vertices, edges) -> PlanarityResult:
    adj = {v: set() for v in vertices}
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    adj = _reduce(adj)
    if len(adj) <= 4:
        return PlanarityResult(True, "reduced graph too small for an obstruction")
    n = len(adj)
    m = sum(len(ns) for ns in adj.values()) // 2
    if m <= 8:
        return PlanarityResult(True, "reduced graph has too few edges for an obstruction")
    if m > 3 * n - 6:
        return PlanarityResult(False, "edge count exceeds the planar bound")
    nodes = sorted((v for v in adj if len(adj[v]) >= 4), key=repr)
    for branch in combinations(nodes, 5):
        pairs = list(combinations(branch, 2))
        if _subdivision_exists(adj, branch, pairs):
            return PlanarityResult(False, "contains a K5 subdivision", witness=branch)
    nodes3 = sorted((v for v in adj if len(adj[v]) >= 3), key=repr)
    for six in combinations(nodes3, 6):
        for left in combinations(six, 3):
            if left[0] != six[0]:
                break  # fix the first vertex on the left side to halve the work
            right = tuple(v for v in six if v not in left)
            pairs = [(a, b) for a in left for b in right]
            if _subdivision_exists(adj, six, pairs):
                return PlanarityResult(False, "contains a K3,3 subdivision", witness=six)
    return PlanarityResult(True, "no Kuratowski subdivision found by exhaustive search")


def one_skeleton(K) -> tuple:
    """Vertices and edges of a complex, for feeding graph algorithms."""
    return tuple(K.vertices), tuple((e[0], e[1]) for e in K.faces_of_dim(1))
