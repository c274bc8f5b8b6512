"""Reference oracles: the integer re-check of a top primitive and the signed
boundary rows, both on cell ids.

`raagdim.obstruction` re-checks an integer primitive on the configuration
space's top facet keys, each zipped with one sign vector, the rows its
integer solve eliminates too.  Here each cell is named by its position in
`cells_of_degree`, the rows are rebuilt cell by cell from the simplex
boundaries on those ids, with the swap sign of every degree, and the
re-check reads those rows; the tests compare the two.
"""

from __future__ import annotations

from complex_reference import simplex_boundary


def cell_ids(space, d: int) -> dict:
    """Each d-cell {a, b}, with either half first, to its position in
    cells_of_degree(d)."""
    ids = {}
    for i, (a, b) in enumerate(space.cells_of_degree(d)):
        ids[a, b] = ids[b, a] = i
    return ids


def boundary_rows(space, d: int) -> tuple:
    """Signed boundary of every d-cell as (lower cell id, sign) pairs sorted
    by id: the facets (a', b) with the swap sign (-1)^(dim a' * dim b) when
    b is stored first, and (a, b') with (-1)^dim(a) on top."""
    K, lower, rows = space.K, cell_ids(space, d - 1), []
    for a, b in space.cells_of_degree(d):
        row = []
        for sa, sign in simplex_boundary(a):
            if K.rank[b[0]] < K.rank[sa[0]]:
                sign *= (-1) ** ((len(sa) - 1) * (len(b) - 1))
            row.append((lower[sa, b], sign))
        flip = (-1) ** (len(a) - 1)
        row += [(lower[a, sb], flip * sign) for sb, sign in simplex_boundary(b)]
        rows.append(tuple(sorted(row)))
    return tuple(rows)


def recheck(space, degree: int, phi: dict, primitive: dict) -> bool:
    """delta(primitive) = phi exactly over Z on every degree-cell, with the
    primitive a dict on (degree - 1)-cells."""
    ids = cell_ids(space, degree - 1)
    value = {ids[cell]: v for cell, v in primitive.items()}
    for cell, row in zip(space.cells_of_degree(degree), boundary_rows(space, degree)):
        if sum(sign * value.get(sub, 0) for sub, sign in row) != phi.get(cell, 0):
            return False
    return True
