"""Reference oracles: the covering chain and the certificate check on
cells, the signed-vertex tuple pairs themselves.

`covering_pair_chain` filters the enumerated top cells by cover masks keyed
by face.  `check_star_condition` scans the pairs of cycle simplices on
vertex sets, where `raagdim` scans them on vertex bitmasks.
`verify_certificate` runs every check of `raagdim.verify` on
cells: the stored chain's boundary from the signed per-cell oracle, the
push from `push_reference`, the product chain from the lifts of Delta.
`raagdim` runs the same checks on face-id pairs and cell keys; the tests
compare the two, failure wording included.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations_with_replacement

import push_reference
from index_reference import doubled_complex
from push_reference import lifts, mesh_number, minus_lift
from raagdim.complexes import skeleton
from raagdim.config_space import ConfigurationSpace, chain_boundary
from raagdim.obstruction import StarConditionReport
from raagdim.octa import double_over, octahedralize
from raagdim.verify import VerificationOutcome
from test_config_space import canonical, cell_key, signed_boundary, signed_chain_boundary


def covering_pair_chain(doubled):
    """(space, chain): the disjoint pairs of k-faces whose base vertices
    jointly cover delta, as a frozenset of cells."""
    space = ConfigurationSpace(doubled_complex(doubled))
    k = len(doubled.delta) - 1
    bit = {v: 1 << i for i, v in enumerate(doubled.delta)}
    cover = {f: sum(bit.get(v, 0) for v, _s in f) for f in space.K.faces_of_dim(k)}
    full = (1 << (k + 1)) - 1
    return space, frozenset((a, b) for a, b in space.cells_of_degree(2 * k) if cover[a] | cover[b] == full)


def check_star_condition(cycle, delta: tuple) -> StarConditionReport:
    """The first pair (a, b), a <= b in sorted order, of cycle simplices
    that covers delta and meets outside it, on vertex sets."""
    delta_set = set(delta)
    for a, b in combinations_with_replacement(sorted(cycle), 2):
        if delta_set <= set(a) | set(b) and not set(a) & set(b) <= delta_set:
            return StarConditionReport(holds=False, violation=(a, b))
    return StarConditionReport(holds=True, violation=None)


def delta_product_chain(doubled) -> dict:
    """(all signed lifts of delta) x (minus copy of the cycle), on cells."""
    minus_cycle = [minus_lift(b) for b in sorted(doubled.cycle)]
    return {(sigma, b): 1 for sigma in lifts(doubled.delta) for b in minus_cycle}


def verify_certificate(L, cert: dict) -> VerificationOutcome:
    run = []
    degree = cert["degree"]
    K = skeleton(L, degree)

    run.append("delta-membership")
    try:
        m_faces = frozenset(K.sort_face(f) for f in cert["M"])
        delta = K.sort_face(cert["Delta"])
    except ValueError as exc:
        return VerificationOutcome(False, "delta-membership", f"unknown simplex: {exc}", tuple(run))
    if delta not in m_faces:
        return VerificationOutcome(False, "delta-membership", "Delta is not a simplex of M", tuple(run))
    if not m_faces <= K.faces:
        return VerificationOutcome(False, "delta-membership", "M contains simplices outside the complex", tuple(run))
    if any(len(f) != degree + 1 for f in m_faces):
        return VerificationOutcome(False, "delta-membership", "M is not pure of the stated degree", tuple(run))

    run.append("cycle-condition")
    if len(m_faces) != len(cert["M"]):
        listed = [K.sort_face(f) for f in cert["M"]]
        twice = next(f for i, f in enumerate(listed) if f in listed[:i])
        return VerificationOutcome(False, "cycle-condition", f"M lists {twice} twice", tuple(run))
    if chain_boundary(m_faces, lambda f: [f[:i] + f[i + 1 :] for i in range(len(f))]):
        return VerificationOutcome(False, "cycle-condition", "M is not a GF(2) cycle", tuple(run))

    run.append("star-condition")
    if cert["star_condition"] is not True:
        return VerificationOutcome(False, "star-condition", "certificate does not state the star condition", tuple(run))
    star = check_star_condition(m_faces, delta)
    if not star.holds:
        return VerificationOutcome(False, "star-condition", f"violating pair {star.violation}", tuple(run))

    octa = octahedralize(K)
    doubled = double_over(octa, m_faces, delta)
    space, rebuilt = covering_pair_chain(doubled)
    D = space.K

    run.append("omega-cycle")
    stored = set()
    for a, b in cert["omega_support"]:
        if len(a) + len(b) != 2 * degree + 2 or not set(a).isdisjoint(b) or a not in D.faces or b not in D.faces:
            return VerificationOutcome(False, "omega-cycle", f"stored pair {(a, b)} is not a disjoint pair of faces "
                                       f"of degree {2 * degree}", tuple(run))
        cell = canonical(D, a, b)[0]
        if cell in stored:
            return VerificationOutcome(False, "omega-cycle", f"stored pair {(a, b)} lists the cell {cell} twice",
                                       tuple(run))
        stored.add(cell)
    signed = signed_chain_boundary(stored, partial(signed_boundary, D))
    boundary = sorted((c for c, v in signed.items() if v % 2), key=partial(cell_key, D))
    if boundary:
        return VerificationOutcome(False, "omega-cycle", f"stored chain has boundary, e.g. at {boundary[0]}",
                                   tuple(run))

    run.append("omega-evaluation")
    evaluation = sum(mesh_number(a, b, octa.rank) for a, b in stored) % 2
    if evaluation != 1:
        return VerificationOutcome(False, "omega-evaluation", f"stored chain evaluates to {evaluation}", tuple(run))
    if evaluation != cert["evaluation"]:
        return VerificationOutcome(False, "omega-evaluation", f"stored chain evaluates to {evaluation}, "
                                   f"the certificate states {cert['evaluation']}", tuple(run))

    run.append("pushforward-identity")
    pushed = {c: v % 2 for c, v in push_reference.push_to_product(dict.fromkeys(stored, 1), octa).items() if v % 2}
    if pushed != delta_product_chain(doubled):
        return VerificationOutcome(False, "pushforward-identity", "push of the stored chain is not the product chain",
                                   tuple(run))
    if sum(v * push_reference.nonstrict_mesh_indicator(s, b, octa.rank) for (s, b), v in pushed.items()) % 2 != 1:
        return VerificationOutcome(False, "pushforward-identity", "product evaluation is not 1", tuple(run))

    run.append("omega-support-match")
    if stored != rebuilt:
        extra = sorted(stored - rebuilt)[:3]
        missing = sorted(rebuilt - stored)[:3]
        return VerificationOutcome(False, "omega-support-match",
                                   f"stored support differs (extra {extra}, missing {missing})", tuple(run))

    return VerificationOutcome(True, None, "certificate verified", tuple(run))
