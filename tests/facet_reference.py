"""Reference oracle: the facet keys of one configuration-space cell, by
the per-cell rule, testing every facet of the first half for a swap.
`raagdim.config_space` builds what the first half alone fixes once per
run of cells that share it, and tests only its last facet; the tests
compare the two, row by row.

`boundary` is the oracle of `ConfigurationSpace.boundary`: it toggles
each cell's facet keys into one set, cell by cell, where the space takes
the boundary face by face on int bitmasks of the second halves.
"""

from __future__ import annotations

from raagdim.config_space import chain_boundary


def cell_facet_keys(space, pair) -> list:
    """Keys of the facets {a', b}, then {a, b'}, of the cell (a, b), each
    facet in stored order: the half with the lower-ranked first vertex
    first."""
    _ranks, _masks, first, _spans = space._index
    facet_ids, F = space._facet_ids, len(first)
    ga, gb = pair
    return [sa * F + gb if first[sa] < first[gb] else gb * F + sa for sa in facet_ids[ga]] + [
        ga * F + sb for sb in facet_ids[gb]
    ]


def boundary(space, pairs) -> tuple:
    """The keys of the cells in the boundary of an odd number of the cells
    of `pairs`, in cell order."""
    return tuple(sorted(chain_boundary(pairs, lambda pair: cell_facet_keys(space, pair))))
