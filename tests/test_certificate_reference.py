"""The certificate path on face ids against its reference oracles on cells:
the covering chain, the push and `verify_certificate`, failure wording
included."""

import random
from functools import partial

from hypothesis import given, settings, strategies as st

import certificate_reference
import push_reference
from raagdim import io_json
from raagdim.complexes import make_complex, skeleton
from raagdim.config_space import ConfigurationSpace
from raagdim.homology import cycle_space
from raagdim.obstruction import certify_nonvanishing, covering_pair_chain, push_to_product
from raagdim.octa import double_over, octahedralize
from raagdim.verify import CHECKS, VerificationOutcome, verify_certificate
from raagdim.zoo import ZOO, build_named, cycle, random_flag, suspension
from test_config_space import cell_key
from test_pins import load_workloads


@given(st.integers(6, 9), st.floats(0.3, 0.7), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_pair_chain_and_id_push_match_the_cell_references(n, p, seed):
    rng = random.Random(seed)
    L = random_flag(n, p, seed)
    for k in range(L.dim + 1):
        K = skeleton(L, k)
        basis = cycle_space(K, k)
        if not basis:
            continue
        cyc = frozenset()
        for c in rng.sample(basis, rng.randint(1, len(basis))):
            cyc ^= c
        doubled = double_over(octahedralize(K), cyc, rng.choice(sorted(cyc)))
        space, pairs = covering_pair_chain(doubled, ConfigurationSpace(doubled))
        ol, ol_pairs = covering_pair_chain(doubled, ConfigurationSpace(doubled.octa))
        _space, reference = certificate_reference.covering_pair_chain(doubled)
        # Cell for cell, in cell order, named in the doubled complex's space
        # or in OL's; and the same boundary, cell for cell.
        F = len(space.faces)
        cells = [space.key_cell(a * F + b) for a, b in pairs]
        assert cells == [ol.key_cell(a * len(ol.faces) + b) for a, b in ol_pairs]
        assert cells == sorted(reference, key=partial(cell_key, doubled.octa))
        assert list(map(space.key_cell, space.boundary(pairs))) == list(map(ol.key_cell, ol.boundary(ol_pairs)))
        # The push of the chain, and of chains in every degree, against the
        # integer reference push reduced mod 2.
        chains = [pairs]
        for d in range(2 * k):
            lower = space.indexed_cells(d)
            chains.append(rng.sample(lower, min(8, len(lower))))
        faces = space.faces
        for chain in chains:
            pushed = push_to_product(chain, space)
            expect = push_reference.push_to_product({(faces[a], faces[b]): 1 for a, b in chain}, doubled.octa)
            assert {(faces[a], faces[b]) for a, b in pushed} == {c for c, v in expect.items() if v % 2}


def sweep_certificates():
    """(name, L, decoded certificate) for every zoo certificate in every
    degree and the top certificate of every `certify` benchmark case."""
    for entry in ZOO:
        L = entry.complex()
        for k in range(L.dim + 1):
            cert = certify_nonvanishing(L, k)
            if cert is not None:
                yield f"zoo:{entry.name}:{k}", L, cert
    for case in load_workloads().WORKLOADS["certify"].cases:
        L = build_named(case.expr)
        yield f"certify:{case.name}", L, certify_nonvanishing(L, L.dim)


def mutations(L, data):
    """The certificate as stored and mutated: the one-cell mutations at a
    few positions, a repeated cell, a dropped M simplex and a duplicate
    listed with its halves swapped."""
    rank = octahedralize(L).rank
    support = data["omega_support"]
    yield "as-is", data
    for i in sorted({0, 1, len(support) // 2, len(support) - 1} & set(range(len(support)))):
        a, b = support[i]
        j = i % len(a)
        (v, sign), rest = a[j], a[:j] + a[j + 1 :]
        into_b = tuple(sorted(b + (a[j],), key=rank.__getitem__))
        for name, cells in {"swap": [(b, a)], "drop": [], "flip-sign": [(a[:j] + ((v, -sign),) + a[j + 1 :], b)],
                            "overlap": [(a, into_b)], "move": [(rest, into_b)]}.items():
            yield f"{name}@{i}", dict(data, omega_support=support[:i] + cells + support[i + 1 :])
    a, b = support[0]
    yield "repeat-first", dict(data, omega_support=[support[0]] + support)
    yield "swapped-duplicate", dict(data, omega_support=support + [(b, a)])
    dropped = next(f for f in data["M"] if f != data["Delta"]) if len(data["M"]) > 1 else data["M"][0]
    yield "drop-M", dict(data, M=[f for f in data["M"] if f != dropped])


def test_verify_matches_the_cell_reference_on_zoo_and_certify_mutations():
    failed_checks = set()
    count = 0
    for name, L, cert in sweep_certificates():
        data = io_json.certificate_from_json(io_json.certificate_to_json(cert))
        for mutation, mutated in mutations(L, data):
            out = verify_certificate(L, mutated)
            assert out == certificate_reference.verify_certificate(L, mutated), (name, mutation)
            assert out.ok == (mutation == "as-is" or mutation.startswith("swap@")), (name, mutation, out)
            failed_checks.add(out.failed_check)
            count += 1
    assert count > 300
    assert {"cycle-condition", "omega-cycle"} <= failed_checks


def test_verify_names_fresh_equal_halves_and_a_repeated_unknown_half_as_the_reference_does():
    """Stored halves are named once each by value: halves held as separate
    equal tuples, mutated or not, and an unknown half listed in two cells
    get the outcome and wording of the cell reference."""
    for expr in ("cycle(4)", "octahedron_boundary(2)", "suspension(suspension(cycle(5)))"):
        L = build_named(expr)
        data = io_json.certificate_from_json(io_json.certificate_to_json(certify_nonvanishing(L, L.dim)))
        for mutation, mutated in mutations(L, data):
            support = [(tuple(list(a)), tuple(list(b))) for a, b in mutated["omega_support"]]
            out = verify_certificate(L, dict(mutated, omega_support=support))
            assert out == verify_certificate(L, mutated) == certificate_reference.verify_certificate(L, mutated), (
                expr, mutation)
        (a, b), (c, d), *rest = data["omega_support"]
        unknown = (("zz", 1),) + a[1:]
        for support in ([(unknown, b), (unknown, d)] + rest, [(a, b), (c, unknown), (unknown, d)] + rest):
            out = verify_certificate(L, dict(data, omega_support=support))
            assert out == certificate_reference.verify_certificate(L, dict(data, omega_support=support)), expr
            assert out.failed_check == "omega-cycle" and "('zz', 1)" in out.detail, (expr, out)


def test_verify_names_both_values_of_a_misstated_evaluation_as_the_reference_does():
    L = cycle(4)
    data = io_json.certificate_from_json(io_json.certificate_to_json(certify_nonvanishing(L, 1)))
    for stated in (0, 3):
        cert = dict(data, evaluation=stated)
        outcome = VerificationOutcome(False, "omega-evaluation",
                                      f"stored chain evaluates to 1, the certificate states {stated}", CHECKS[:5])
        assert verify_certificate(L, cert) == outcome == certificate_reference.verify_certificate(L, cert)


def test_verify_names_a_bad_M_and_a_star_violation_as_the_reference_does():
    L = cycle(4)
    data = io_json.certificate_from_json(io_json.certificate_to_json(certify_nonvanishing(L, 1)))
    # The boundary of the 3-simplex is a 2-cycle; (0, 1, 3) and (0, 2, 3)
    # cover Delta = (0, 1, 2) and meet at 3, outside it.
    triangles = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    sphere = {"degree": 2, "M": triangles, "Delta": (0, 1, 2), "omega_support": [], "star_condition": True,
              "evaluation": 1}
    S = suspension(L)
    on_s = io_json.certificate_from_json(io_json.certificate_to_json(certify_nonvanishing(S, 1)))
    first = ("delta-membership",)
    for K, cert, outcome in [
        (L, dict(data, M=data["M"] + [("zz", "c0")]),
         VerificationOutcome(False, "delta-membership", "unknown simplex: unknown vertex 'zz'", first)),
        (L, dict(data, M=data["M"] + [("c0", "c2")]),
         VerificationOutcome(False, "delta-membership", "M contains simplices outside the complex", first)),
        (L, dict(data, M=data["M"] + [("c0",)]),
         VerificationOutcome(False, "delta-membership", "M is not pure of the stated degree", first)),
        (make_complex(triangles), sphere,
         VerificationOutcome(False, "star-condition", "violating pair ((0, 1, 3), (0, 2, 3))",
                             ("delta-membership", "cycle-condition", "star-condition"))),
        # A triangle of a 2-complex lies outside the 1-skeleton a degree-1
        # certificate is checked on.
        (S, dict(on_s, M=on_s["M"] + [S.faces_of_dim(2)[0]]),
         VerificationOutcome(False, "delta-membership", "M contains simplices outside the complex", first)),
    ]:
        assert verify_certificate(K, cert) == outcome == certificate_reference.verify_certificate(K, cert)
