"""Exact dimension bounds for right-angled Artin groups.

The pipeline: build a flag complex, double its vertices, evaluate the
top-degree embedding obstruction on the configuration space of unordered
disjoint simplex pairs, and turn certificates into certified intervals for
the group's action dimension.
"""

from .bounds import DimensionReport, analyze, geometric_dimension, l2_dimension
from .complexes import (
    SimplicialComplex,
    flag_completion,
    is_flag,
    join,
    link,
    make_complex,
    skeleton,
)
from .homology import cycle_space, mod2_betti, rational_betti, solve_coboundary
from .obstruction import (
    CycleCertificate,
    certify_nonvanishing,
    certify_vanishing,
    check_star_condition,
    covering_pair_chain,
)
from .octa import double_over, octahedralize

__all__ = [
    "DimensionReport",
    "SimplicialComplex",
    "CycleCertificate",
    "analyze",
    "certify_nonvanishing",
    "certify_vanishing",
    "check_star_condition",
    "covering_pair_chain",
    "cycle_space",
    "double_over",
    "flag_completion",
    "geometric_dimension",
    "is_flag",
    "join",
    "l2_dimension",
    "link",
    "make_complex",
    "mod2_betti",
    "octahedralize",
    "rational_betti",
    "skeleton",
    "solve_coboundary",
]
