"""Sparse GF(2) linear algebra on rows of int column keys.

A row is a collection of its columns, each an int key listed at most once;
only the order of the keys matters, so any order-preserving labels of the
columns serve.  Elimination pivots on the largest key of each row (the
dense highest-bit rule).  A row whose largest key is not yet a pivot
becomes that pivot as given, with no copy; only a row that meets a pivot is
copied into a set and reduced there, one symmetric difference per step.
So no row, given or stored, is ever mutated, and elimination without fill
costs what the rows hold, not their width.  `solve` names the equations of
an inconsistency from that one pass: it records each pivot's equation, in
the order the pivots are made, and the pivots a reduced pivot's row was
reduced by.

`solve` reads its equations as a `System`, which names each row's largest
key before the row is built: a pivot kept as given is then held unbuilt,
and a row is built only when it meets a pivot or a row meeting it is
reduced by it.  Back-substitution is the full loop over the pivots in
ascending key order, which sets c when c's row has odd parity on x, x
then holding -1 (the rhs) and the pivots below c that were set.  It
visits the pivots whose row is built and those kept as given with rhs 1.
The rest, kept as given with rhs 0, it visits all, their rows built, when
they are no more than those, as a row costs less to build than a key's
holders to read, or when every row is at hand.  Otherwise it builds no
row left unbuilt: such a row's parity on x is its rhs plus the number of
x's keys it holds, counted mod 2 per equation by toggling each holder
(`System.holders`) of a key as x gains it.  A pivot row holds no key
above its own, and each key is set before any pivot above it is visited,
so a count is complete when its pivot is visited, and a pivot never
toggled, with rhs 0, has parity 0: only the toggled and the odd ones
need a visit.  The pivots set are those of the full loop.  Exactness is
the point: no floats anywhere.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heapify, heappop, heappush


def _reduce(pivots, rows, row, c):
    """Reduce the row, whose largest key is c, by the pivot rows until its
    largest key is new: `pivots` holds the pivot keys, and `rows[key]` is
    a pivot's row.

    Returns (that key, the reduced row, the pivot keys it was reduced by,
    in order), with None and an empty row once the row cancels.  A row
    whose largest key is new at once comes back as given, reduced by
    nothing (``()``); any other is copied into a set before the first
    reduction step, so neither the row nor a pivot is mutated.  Each step
    lowers the largest key, so no pivot is listed twice."""
    if c not in pivots:
        return c, row, ()
    r, used = set(row), []
    while True:
        used.append(c)
        r.symmetric_difference_update(rows[c])
        if not r:
            return None, r, used
        c = max(r)
        if c not in pivots:
            return c, r, used


def _echelon(rows):
    """Pivot dict {largest key: row} from incremental elimination."""
    piv: dict = {}
    for row in rows:
        c, r, _ = _reduce(piv, piv, row, max(row) if row else None)
        if c is not None:
            piv[c] = r
    return piv


def _back_substitute(piv, order, x):
    """Add each pivot column of `order` (ascending) to the set x when its
    row has odd parity on x.  A row has no key above its own pivot, and x
    never holds that key when the row is visited, so the row's parity on x
    is the sum of its lower columns; most rows miss x, which `isdisjoint`
    tells without building the intersection."""
    for c in order:
        row = piv[c]
        if not x.isdisjoint(row) and len(x.intersection(row)) & 1:
            x.add(c)
    return x


def rank(rows) -> int:
    return len(_echelon(rows))


def kernel_basis(rows, ncols) -> list:
    """Basis of {x : A x = 0} over the columns 0..ncols-1, one key set per
    basis vector: each free column f set alone, with the pivot columns
    back-substituted.  Only the pivots above f can fire: a pivot row below
    f holds no key as high as f, nor any pivot column added after it."""
    piv = _echelon(rows)
    order = sorted(piv)
    return [_back_substitute(piv, order[bisect_right(order, f):], {f}) for f in range(ncols) if f not in piv]


class System:
    """A system as `solve` reads it, one equation per index: `tops[i]` is
    the largest key of equation i's row (None for an empty row), `rhs` its
    rhs bits in order, read once, `row(i)` builds its keys, and
    `holders(key)` lists the equations whose row holds key, or is None
    when every row is at hand, so that back-substitution visits them all."""

    def __init__(self, tops, rhs, row, holders):
        self.tops, self.rhs, self.row, self.holders = tops, rhs, row, holders

    def __len__(self) -> int:
        return len(self.tops)


def _given(equations) -> System:
    """The `System` of explicit (keys, rhs) pairs, every row at hand."""
    pairs = list(equations)
    rows = [keys for keys, _ in pairs]
    return System([max(keys) if keys else None for keys in rows], [bit for _, bit in pairs], rows.__getitem__, None)


class _Pivots(dict):
    """Pivot rows by pivot key: a row not yet held is built by `build(key)`
    on its first read, and kept."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, c):
        row = self[c] = self.build(c)
        return row


def solve(equations, ncols):
    """Solve A x = b over GF(2) in one elimination.

    equations: (keys, rhs_bit) pairs, one per equation, its variables given
    by a collection of nonnegative column keys, each at most once, or a
    `System` that names each row's largest key and builds the row only
    when asked.  Each is eliminated as it arrives, so only the pivot rows
    are ever held, and a row is kept as given, unbuilt, until it meets a
    pivot or a row is reduced by it (then with the rhs key -1, below every
    variable, when its rhs is 1); no row is mutated.  ncols is the number
    of unknowns; elimination does not read it, as the keys only order the
    unknowns and need not lie below it.
    Returns (x, None) on success, x the set of keys set to 1 with free
    variables 0, or (None, witness) at the first equation that reads 0 = 1:
    the ascending list of equation indices whose sum reads 0 = 1, that
    equation's the largest.  Each pivot's equation index is recorded as the
    pivot is made, so the record runs in the pivots' creation order.  A
    reduced pivot's key also maps to the pivots its row was reduced by, and
    the first 0 = 1 walks both back to its witness.  Back-substitution
    visits only the pivots that can be odd, and when the unbuilt ones are
    the most it reads their parities off the holders of x's keys and
    builds no row (the module docstring has why).
    """
    system = equations if isinstance(equations, System) else _given(equations)
    origin: dict = {}  # pivot key -> its equation index, in creation order
    below: dict = {}  # reduced pivot key -> the pivots its row was reduced by
    odd: set = set()  # the pivots kept as given whose rhs is 1

    def given(c):
        row = system.row(origin[c])
        return (*row, -1) if c in odd else row

    rows = _Pivots(given)  # pivot key -> its row, once built (with -1 when odd)
    for i, (c, rhs) in enumerate(zip(system.tops, system.rhs)):
        if c not in origin and c is not None:
            origin[c] = i
            if rhs & 1:
                odd.add(c)
            continue
        if c is None:
            c, r, used = (-1 if rhs & 1 else None), None, ()
        else:
            row = system.row(i)
            c, r, used = _reduce(origin, rows, (*row, -1) if rhs & 1 else row, c)
        if c == -1:
            # A reduced pivot is its equation plus pivots made before it, so
            # walking back in creation order settles each one's parity before
            # it is visited; a pivot kept as given is its equation alone.
            parity, witness = set(used), [i]
            for p, j in reversed(origin.items()):
                if p in parity:
                    witness.append(j)
                    parity.symmetric_difference_update(below.get(p, ()))
            return None, sorted(witness)
        if c is not None:
            origin[c] = i
            rows[c] = r
            below[c] = used
    # The key -1 in x is the rhs column, read as the constant 1.  The
    # pivots whose row is built or whose rhs is 1 are visited; when the
    # rest are no more (all lie in origin) or every row is at hand, every
    # pivot is, its row built.  Else each holder j of a key x gains below
    # the last unbuilt pivot toggles flips[j] and queues j's pivot, odd
    # when its rhs and flips[j] differ.  A holder whose largest key is an
    # unbuilt pivot made that pivot, as a row that meets a pivot builds it.
    todo = [*rows.keys() | odd]
    if len(origin) <= 2 * len(todo) or system.holders is None:
        todo, unbuilt = [*origin], set()
    else:
        unbuilt = origin.keys() - rows.keys()
    reach, x, last, tops, flips = max(unbuilt, default=-1), {-1}, None, system.tops, bytearray(len(system))
    heapify(todo)
    while todo:
        c = heappop(todo)
        if c == last:
            continue
        last = c
        if c in unbuilt:
            if (c in odd) == flips[origin[c]]:
                continue
        elif x.isdisjoint(row := rows[c]) or not len(x.intersection(row)) & 1:
            continue
        x.add(c)
        if c < reach:
            for j in system.holders(c):
                t = tops[j]
                if t > c and t in unbuilt:
                    flips[j] ^= 1
                    heappush(todo, t)
    x.discard(-1)
    return x, None
