"""Generator zoo: named families of small complexes with expected values.

Every expected value carries the name of the rule that predicts it, so the
test suite can assert provenance alongside the number.  Randomized
families are deterministic functions of their seed, which must be an
integer.  `build_named` reads an expression such as
'cone(suspension(cycle(5)))' in one pass over its tokens.
"""

from __future__ import annotations

import random
import re
from functools import reduce
from types import MappingProxyType
from typing import NamedTuple

from . import complexes
from .complexes import SimplicialComplex, flag_completion, join, join_face_count, make_complex, relabeled


def _size(name: str, param: str, value, least: int | None) -> None:
    """Refuse a size a generator cannot build, or a seed that is not an
    integer (any integer seeds, so it has no `least`), naming the parameter."""
    if type(value) is not int:
        raise ValueError(f"{name} needs an integer {param}, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} needs {param} >= {least}, got {value}")


def _budget(name: str, param: str, value: int, count: int, says: str) -> None:
    """Refuse a generator whose arguments imply `count` faces, past
    `complexes.MAX_FACES`, before it builds anything: the message names the
    generator and the argument, and `says` how the count follows."""
    if count > complexes.MAX_FACES:
        raise ValueError(f"{name} with {param} = {value}: {says}, more than {complexes.MAX_FACES}")


def _power(base: int, exponent: int) -> int:
    """base^exponent for base >= 2, capped where it surely passes
    `complexes.MAX_FACES`, so a huge exponent costs nothing."""
    return base ** min(exponent, complexes.MAX_FACES.bit_length() + 1)


def simplex(k: int) -> SimplicialComplex:
    _size("simplex", "k", k, 0)
    _budget("simplex", "k", k, _power(2, k + 1) - 1, f"a simplex on {k + 1} vertices has 2^{k + 1} - 1 faces")
    return make_complex([tuple(f"v{i}" for i in range(k + 1))])


def points(n: int) -> SimplicialComplex:
    _size("points", "n", n, 1)
    _budget("points", "n", n, n, f"it has {n} faces")
    return make_complex([(f"p{i}",) for i in range(n)])


def cycle(n: int) -> SimplicialComplex:
    _size("cycle", "n", n, 3)
    _budget("cycle", "n", n, 2 * n, f"it has 2n = {2 * n} faces")
    vs = [f"c{i}" for i in range(n)]
    return make_complex([(vs[i], vs[(i + 1) % n]) for i in range(n)])


def path(n: int) -> SimplicialComplex:
    _size("path", "n", n, 1)
    _budget("path", "n", n, 2 * n - 1, f"it has 2n - 1 = {2 * n - 1} faces")
    vs = [f"p{i}" for i in range(n)]
    if n == 1:
        return make_complex([(vs[0],)])
    return make_complex([(vs[i], vs[i + 1]) for i in range(n - 1)])


def tree(n: int, seed: int = 0) -> SimplicialComplex:
    """Random labelled tree from a seeded Pruefer sequence."""
    _size("tree", "n", n, 1)
    _size("tree", "seed", seed, None)
    _budget("tree", "n", n, 2 * n - 1, f"it has 2n - 1 = {2 * n - 1} faces")
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
    _budget("octahedron_boundary", "k", k, _power(3, k + 1) - 1, f"it has 3^{k + 1} - 1 faces")
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
    _size("random_flag", "seed", seed, None)
    # Each of the n(n - 1)/2 vertex pairs is drawn before any clique is
    # listed, so the budget counts the vertices and every candidate edge.
    pairs = n * (n - 1) // 2
    _budget("random_flag", "n", n, n + pairs,
            f"it draws n(n - 1)/2 = {pairs} candidate edges, {n + pairs} faces with its vertices")
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
    The parentheses are checked in one running count; the text is then split
    once into names, numbers and the tokens '(', ',' and ')', which `_parse`
    reads in one pass, counting each cone, suspension and join on the parse
    tree before any is built."""
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
    tokens = [t for t in (piece.strip() for piece in re.findall(r"[(),]|[^(),]+", expr)) if t]
    if not tokens:
        raise ValueError("empty expression: name a complex, such as 'cycle(4)'")
    (_, build), i = _parse(tokens, 0)
    if i < len(tokens):
        raise ValueError(f"{''.join(tokens[i:])!r} follows the complex {''.join(tokens[:i])!r}")
    return build()


def _parse(tokens: list, i: int) -> tuple:
    """The face count and builder of the complex named at `tokens[i]`, and
    the index of the token after it.  The name is checked first, then each
    argument read once; none may be empty, and a generator's arguments are
    counted against its parameters before it is called.  A leaf is built
    here, a cone, suspension or join (a join with one apex, two poles or its
    other factors) counted by `complexes.join_face_count` and built only by
    the builder."""
    name = tokens[i]
    if name in ("(", ")", ","):
        raise ValueError(f"{name!r} stands where a complex should be named")
    i += 1
    if i == len(tokens) or tokens[i] != "(":
        entry = next((e for e in ZOO if e.name == name), None)
        if entry is None:
            raise ValueError(f"unknown zoo entry {name!r}")
        K = entry.complex()
        return (len(K.faces), lambda: K), i
    nests = name in ("join", "cone", "suspension")
    if not nests and name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r}")
    args = []
    while tokens[i] != ")":  # at the '(' or a ','
        i += 1
        if tokens[i] in (",", ")"):
            raise ValueError(f"argument {len(args) + 1} of {name} is empty")
        arg, i = _parse(tokens, i) if nests else (_number(name, tokens[i]), i + 1)
        args.append(arg)
        if tokens[i] not in (",", ")"):
            raise ValueError(f"argument {len(args)} of {name} is followed by {tokens[i]!r}, not ',' or ')'")
    i += 1
    if name == "join":
        if len(args) < 2:
            raise ValueError("join needs at least two factors")
        return (reduce(join_face_count, [n for n, _ in args]), lambda: reduce(
            join, [_prefixed(build(), f"j{i}.") for i, (_, build) in enumerate(args)])), i
    if nests:
        if len(args) != 1:
            raise ValueError(f"{name} needs exactly one complex, got {len(args)}")
        [(n, build)], make = args, cone if name == "cone" else suspension
        return (join_face_count(1 if name == "cone" else 2, n), lambda: make(build())), i
    make = GENERATORS[name]
    most = make.__code__.co_argcount
    least = most - len(make.__defaults__ or ())
    if not least <= len(args) <= most:
        takes = f"{least} or {most} arguments" if least < most else f"{most} argument{'s' * (most > 1)}"
        raise ValueError(f"{name} takes {takes}, got {len(args)}")
    K = make(*args)
    return (len(K.faces), lambda: K), i


def _number(name: str, a: str):
    try:
        return int(a) if a.lstrip("+-").isdigit() else float(a)
    except ValueError:
        raise ValueError(f"{name} needs numeric arguments, got {a!r}") from None
