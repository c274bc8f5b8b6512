"""Generator zoo: named families of small complexes with expected values.

Every expected value carries the name of the rule that predicts it, so the
test suite can assert provenance alongside the number.  Randomized
families are deterministic functions of their seed.
"""

from __future__ import annotations

import random
from functools import reduce
from types import MappingProxyType
from typing import NamedTuple

from .complexes import SimplicialComplex, flag_completion, join, join_face_count, make_complex, relabeled


def _size(name: str, param: str, value, least: int) -> None:
    """Refuse a size a generator cannot build, naming the parameter."""
    if type(value) is not int:
        raise ValueError(f"{name} needs an integer {param}, got {value!r}")
    if value < least:
        raise ValueError(f"{name} needs {param} >= {least}, got {value}")


def simplex(k: int) -> SimplicialComplex:
    _size("simplex", "k", k, 0)
    return make_complex([tuple(f"v{i}" for i in range(k + 1))])


def points(n: int) -> SimplicialComplex:
    _size("points", "n", n, 1)
    return make_complex([(f"p{i}",) for i in range(n)])


def cycle(n: int) -> SimplicialComplex:
    _size("cycle", "n", n, 3)
    vs = [f"c{i}" for i in range(n)]
    return make_complex([(vs[i], vs[(i + 1) % n]) for i in range(n)])


def path(n: int) -> SimplicialComplex:
    _size("path", "n", n, 1)
    vs = [f"p{i}" for i in range(n)]
    if n == 1:
        return make_complex([(vs[0],)])
    return make_complex([(vs[i], vs[i + 1]) for i in range(n - 1)])


def tree(n: int, seed: int = 0) -> SimplicialComplex:
    """Random labelled tree from a seeded Pruefer sequence."""
    _size("tree", "n", n, 1)
    if n == 1:
        return points(1)
    if n == 2:
        return path(2)
    rng = random.Random(seed)
    pruefer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in pruefer:
        degree[x] += 1
    edges = []
    import heapq

    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for x in pruefer:
        leaf = heapq.heappop(leaves)
        edges.append((f"t{leaf}", f"t{x}"))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = sorted(leaves)
    edges.append((f"t{u}", f"t{v}"))
    return make_complex([(f"t{i}",) for i in range(n)] + edges)


def octahedron_boundary(k: int) -> SimplicialComplex:
    """Join of k+1 two-point sets: the k-dimensional cross-polytope boundary."""
    _size("octahedron_boundary", "k", k, 0)
    out = None
    for i in range(k + 1):
        part = make_complex([(f"o{i}a",), (f"o{i}b",)])
        out = part if out is None else join(out, part)
    return out


def cone(K: SimplicialComplex) -> SimplicialComplex:
    return join(make_complex([("apex",)]), _prefixed(K, "c."))


def suspension(K: SimplicialComplex) -> SimplicialComplex:
    poles = make_complex([("north",), ("south",)])
    return join(poles, _prefixed(K, "s."))


def random_flag(n: int, p: float, seed: int) -> SimplicialComplex:
    _size("random_flag", "n", n, 1)
    if type(p) not in (int, float) or not 0 <= p <= 1:
        raise ValueError(f"random_flag needs 0 <= p <= 1, got {p!r}")
    rng = random.Random(seed)
    vs = [f"r{i}" for i in range(n)]
    edges = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return flag_completion(vs, edges)


def _prefixed(K: SimplicialComplex, prefix: str) -> SimplicialComplex:
    return relabeled(K, {v: f"{prefix}{v}" for v in K.vertices})


class ZooEntry(NamedTuple):
    """A named generator with its expected report values.

    `expected` maps quantity names to (value, rule) pairs; rules name the
    bound machinery that certifies the value.  Its default, shared by every
    entry that omits it, is an empty read-only mapping.
    """

    name: str
    build: object
    expected: dict = MappingProxyType({})
    flag: bool = True

    def complex(self) -> SimplicialComplex:
        return self.build()


ZOO = (
    ZooEntry("point", lambda: points(1),
             expected={"actdim": (1, "free-abelian"), "vkdim": (-1, "octahedral-sphere")}),
    ZooEntry("points2", lambda: points(2),
             expected={"actdim": (2, "obstructor"), "vkdim": (0, "covering-chain-certificate")}),
    ZooEntry("points3", lambda: points(3),
             expected={"actdim": (2, "obstructor"), "vkdim": (0, "covering-chain-certificate")}),
    ZooEntry("edge", lambda: simplex(1),
             expected={"actdim": (2, "free-abelian"), "vkdim": (0, "octahedral-sphere")}),
    ZooEntry("simplex2", lambda: simplex(2),
             expected={"actdim": (3, "free-abelian"), "vkdim": (1, "octahedral-sphere")}),
    ZooEntry("path3", lambda: path(3),
             expected={"actdim": (3, "obstructor"), "vkdim": (1, "star-link")}),
    ZooEntry("path4", lambda: path(4),
             expected={"actdim": (3, "obstructor"), "vkdim": (1, "star-link")}),
    ZooEntry("path5", lambda: path(5),
             expected={"actdim": (3, "obstructor"), "vkdim": (1, "star-link")}),
    ZooEntry("tree6", lambda: tree(6, seed=0),
             expected={"actdim": (3, "obstructor"), "vkdim": (1, "star-link")}),
    ZooEntry("cycle4", lambda: cycle(4),
             expected={"actdim": (4, "obstructor"), "vkdim": (2, "covering-chain-certificate")}),
    ZooEntry("cycle5", lambda: cycle(5),
             expected={"actdim": (4, "obstructor"), "vkdim": (2, "covering-chain-certificate")}),
    ZooEntry("cycle6", lambda: cycle(6),
             expected={"actdim": (4, "obstructor"), "vkdim": (2, "covering-chain-certificate")}),
    ZooEntry("cycle3", lambda: cycle(3), flag=False,
             expected={"vkdim": (1, "star-link")}),
    ZooEntry("octahedron1", lambda: octahedron_boundary(1),
             expected={"actdim": (4, "obstructor"), "vkdim": (2, "covering-chain-certificate")}),
    ZooEntry("octahedron2", lambda: octahedron_boundary(2),
             expected={"actdim": (6, "obstructor"), "vkdim": (4, "covering-chain-certificate")}),
    ZooEntry("cone_c4", lambda: cone(cycle(4)),
             expected={"vkdim": (3, "star-link")}),
    ZooEntry("suspension_c4", lambda: suspension(cycle(4)),
             expected={"actdim": (6, "obstructor"), "vkdim": (4, "covering-chain-certificate")}),
    ZooEntry("random_flag_a", lambda: random_flag(7, 0.4, seed=11)),
    ZooEntry("random_flag_b", lambda: random_flag(8, 0.35, seed=23)),
)


GENERATORS = {
    "simplex": simplex,
    "points": points,
    "cycle": cycle,
    "path": path,
    "tree": tree,
    "octahedron_boundary": octahedron_boundary,
    "random_flag": random_flag,
}


# The deepest nesting `build_named` parses, one recursion per level; far
# below Python's recursion limit, and far above what can be built, as a
# cone, suspension or join at depth d has at least 2^d faces.
MAX_NESTING = 100


def build_named(expr: str) -> SimplicialComplex:
    """Build a complex from an expression like 'cycle(4)' or
    'join(points(2),points(2))'; joins relabel factors to stay disjoint.
    The parentheses are checked in one running count, and each cone,
    suspension and join counted on the parse tree, before any is built."""
    return _parse(expr)[1]()


def _parse(expr: str) -> tuple:
    """An expression's face count and builder: a leaf is built here, a cone,
    suspension or join (a join with one apex, two poles or its other factors)
    counted by `complexes.join_face_count` and built only by the builder."""
    expr = expr.strip()
    depth = deepest = 0
    for ch in expr:
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            break
        deepest = max(deepest, depth)
    if depth:
        raise ValueError(f"unbalanced parentheses in {expr!r}")
    if deepest > MAX_NESTING:
        raise ValueError(f"{expr!r} nests {deepest} deep, more than {MAX_NESTING}")
    if "(" not in expr:
        entry = next((e for e in ZOO if e.name == expr), None)
        if entry is None:
            raise ValueError(f"unknown zoo entry {expr!r}")
        K = entry.complex()
        return len(K.faces), lambda: K
    name, _, rest = expr.partition("(")
    if not rest.endswith(")"):
        raise ValueError(f"unbalanced parentheses in {expr!r}")
    body = rest[:-1]
    name = name.strip()
    if name == "join":
        parts = _split_args(body)
        if len(parts) < 2:
            raise ValueError("join needs at least two factors")
        parsed = [_parse(part) for part in parts]
        return reduce(join_face_count, [n for n, _ in parsed]), lambda: reduce(
            join, [_prefixed(build(), f"j{i}.") for i, (_, build) in enumerate(parsed)])
    if name in ("cone", "suspension"):
        (n, build), make = _parse(body), cone if name == "cone" else suspension
        return join_face_count(1 if name == "cone" else 2, n), lambda: make(build())
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r}")
    args = [a for a in _split_args(body) if a]
    values = []
    for a in args:
        try:
            values.append(int(a) if a.lstrip("+-").isdigit() else float(a))
        except ValueError:
            raise ValueError(f"{name} needs numeric arguments, got {a!r}") from None
    K = GENERATORS[name](*values)
    return len(K.faces), lambda: K


def _split_args(body: str) -> list:
    parts = []
    depth = 0
    cur = []
    for ch in body:
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    if cur or not parts:
        parts.append("".join(cur).strip())
    return parts
