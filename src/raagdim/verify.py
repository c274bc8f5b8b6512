"""Independent re-checking of stored nonvanishing certificates.

Rebuilds the doubled complex and the covering chain from the certificate's
(M, Delta) against the provided complex and re-runs every identity, naming
the first failing check.  M's cycle check names M's simplices by id in the
face order and counts their facets mod 2 by `chain_boundary` on the
complex's facet rows (`SimplicialComplex.facet_rows`, the one facet rule; a
vertex's row is the augmentation cell, so in degree 0 the rule is an even
vertex count).  Each distinct half of the stored pairs is mapped to OL's
ranks and named by id through `rank_ids` of the doubled complex's
configuration space, lifted from M's support, once however many pairs list
it; each pair must have the stated total size and disjoint halves (on
masks), and is then named once by its cell key (either half first).  The
stored chain's boundary, evaluation, GF(2) push and support match run on
keys, face-id pairs, rank tuples and bitmasks, never on a face set of OL
or the doubled complex, nor on face tuples: a key becomes a cell again
only to word a failure.  The stored support must match the rebuilt chain exactly,
and neither M nor the stored support may list an entry twice (it would
cancel mod 2); a certificate is a proof object, not a hint.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .complexes import SimplicialComplex, skeleton
from .config_space import ConfigurationSpace, chain_boundary
from .obstruction import (
    check_star_condition,
    covering_pair_chain,
    delta_product_chain,
    nonstrict_values,
    pairing,
    push_to_product,
)
from .octa import double_over, octahedralize

# The stages `verify_certificate` runs, in order; a failure names its stage.
CHECKS = (
    "delta-membership",
    "cycle-condition",
    "star-condition",
    "omega-cycle",
    "omega-evaluation",
    "pushforward-identity",
    "omega-support-match",
)


class VerificationOutcome(NamedTuple):
    ok: bool
    failed_check: str | None
    detail: str
    checks_run: tuple


def verify_certificate(L: SimplicialComplex, cert: dict) -> VerificationOutcome:
    """cert: decoded certificate dict (degree, M, Delta, omega_support,
    star_condition, evaluation)."""
    run, stages = [], iter(CHECKS)

    def fail(detail: str) -> VerificationOutcome:
        return VerificationOutcome(False, run[-1], detail, tuple(run))

    degree = cert["degree"]
    K = skeleton(L, degree)

    run.append(next(stages))
    try:
        m_faces = frozenset(K.sort_face(f) for f in cert["M"])
        delta = K.sort_face(cert["Delta"])
    except ValueError as exc:
        return fail(f"unknown simplex: {exc}")
    if delta not in m_faces:
        return fail("Delta is not a simplex of M")
    if not m_faces <= K.faces:
        return fail("M contains simplices outside the complex")
    if any(len(f) != degree + 1 for f in m_faces):
        return fail("M is not pure of the stated degree")

    run.append(next(stages))
    if len(m_faces) != len(cert["M"]):
        listed = [K.sort_face(f) for f in cert["M"]]
        twice = next(f for i, f in enumerate(listed) if f in listed[:i])
        return fail(f"M lists {twice} twice")
    # M's faces by id, toggled through K's facet rows; a vertex's row is the
    # augmentation cell, so a 0-cycle has evenly many vertices.
    m_ids = [i for i, f in enumerate(K.faces_of_dim(degree)) if f in m_faces]
    if chain_boundary(m_ids, K.facet_rows(degree).__getitem__):
        return fail("M is not a GF(2) cycle")

    run.append(next(stages))
    if cert["star_condition"] is not True:
        return fail("certificate does not state the star condition")
    star = check_star_condition(m_faces, delta)
    if not star.holds:
        return fail(f"violating pair {star.violation}")

    octa = octahedralize(K)
    doubled = double_over(octa, m_faces, delta)
    space, rebuilt = covering_pair_chain(doubled, ConfigurationSpace(doubled))
    ranks, masks, rid, rank = space.ranks, space.masks, space.rank_ids, octa.rank
    F = len(ranks)

    run.append(next(stages))
    keys = set()
    # Each distinct half is named once; an unknown one is named None.
    support = cert["omega_support"]
    named = {half: rid.get(tuple(map(rank.get, half))) for half in dict.fromkeys(chain.from_iterable(support))}
    for a, b in support:
        ga, gb = named[a], named[b]
        if ga is None or gb is None or len(a) + len(b) != 2 * degree + 2 or masks[ga] & masks[gb]:
            return fail(f"stored pair {(a, b)} is not a disjoint pair of faces of degree {2 * degree}")
        key = ga * F + gb if ranks[ga][0] < ranks[gb][0] else gb * F + ga
        if key in keys:
            return fail(f"stored pair {(a, b)} lists the cell {space.key_cell(key)} twice")
        keys.add(key)
    # In cell order, so `boundary` builds each first half's part once per run.
    stored = [divmod(key, F) for key in sorted(keys)]
    boundary, evaluation = pairing(space, stored)
    if boundary:
        return fail(f"stored chain has boundary, e.g. at {space.key_cell(boundary[0])}")

    run.append(next(stages))
    if evaluation != 1:
        return fail(f"stored chain evaluates to {evaluation}")
    if evaluation != cert["evaluation"]:
        return fail(f"stored chain evaluates to {evaluation}, the certificate states {cert['evaluation']}")

    run.append(next(stages))
    pushed = push_to_product(stored, space)
    if pushed != delta_product_chain(doubled, space):
        return fail("push of the stored chain is not the product chain")
    if sum(nonstrict_values(space.spread, [a for a, _ in pushed], [b for _, b in pushed])) % 2 != 1:
        return fail("product evaluation is not 1")

    run.append(next(stages))
    rebuilt_keys = {a * F + b for a, b in rebuilt}
    if keys != rebuilt_keys:
        extra = sorted(map(space.key_cell, keys - rebuilt_keys))[:3]
        missing = sorted(map(space.key_cell, rebuilt_keys - keys))[:3]
        return fail(f"stored support differs (extra {extra}, missing {missing})")

    return VerificationOutcome(True, None, "certificate verified", tuple(run))
