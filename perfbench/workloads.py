"""Workloads of the raagdim benchmark: corpora and what one op does.

Inputs reach the program only as complex JSON dicts, the format `raagdim
generate` writes and `raagdim analyze` reads.  Each analyze op decodes its
dict with `io_json.complex_from_json`, as the command line does, so no
`cached_property` value on a complex survives from one pass to the next.

Every call goes through a module attribute (`bounds.analyze`, not a name
bound here), so the tracer's wrappers see the calls the benchmark makes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

DEFAULT_SEED = 0
SUITE_COUNT = 50
# Three passes give the smallest corpus (5 cases) 15 op samples, enough for
# a tail with ten samples beyond it.
MIN_PASSES = 3

# The non-flag boundary of the tetrahedron, as the JSON a user would write.
TETRAHEDRON_BOUNDARY = {"maximal_simplices": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}


@dataclass(frozen=True)
class Case:
    """One analyze op: a generator expression (or literal JSON) and options."""

    name: str
    expr: str | None = None
    data: dict | None = None
    options: dict = field(default_factory=dict)
    certificate: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # "analyze" or "suite"
    cases: tuple = ()
    # Timed passes at --seconds S: max(MIN_PASSES, round(S / pass_s)), with
    # pass_s a typical wall time of one pass on the reference machine.  The
    # count depends on S alone, so parent and change do identical work and
    # the pooled op samples always split the same way between cases; at the
    # benchmark's 20 s the tail sample falls inside one case's samples.
    pass_s: float = 1.0


def _analyze_cases(names, **options):
    return tuple(Case(name, expr=name, options=dict(options)) for name in names)


WORKLOADS = {
    "vanishing": Workload(
        "vanishing",
        "analyze",
        _analyze_cases([
            "cone(suspension(cycle(5)))",
            "cone(suspension(cycle(8)))",
            "random_flag(12,0.5,1)",
            "cone(cone(cycle(6)))",
            "cone(cycle(8))",
            "random_flag(10,0.45,3)",
        ]) + (Case("refuse:cone(octahedron_boundary(3))", expr="cone(octahedron_boundary(3))",
                   options={"max_cells": 1000}),),
        pass_s=3.3,
    ),
    "certify": Workload(
        "certify",
        "analyze",
        tuple(
            Case(name, expr=name, certificate=True)
            for name in (
                "octahedron_boundary(4)",
                "octahedron_boundary(3)",
                "suspension(suspension(cycle(5)))",
                "join(cycle(4),cycle(4))",
                "cycle4",
                "cycle6",
                "octahedron2",
                "suspension_c4",
                "points3",
            )
        ),
        pass_s=2.5,
    ),
    "crosscheck": Workload("crosscheck", "suite", pass_s=6.4),
    "integral": Workload(
        "integral",
        "analyze",
        _analyze_cases(["cone(cycle(5))", "cone(cycle(4))", "tree6"], integral=True)
        + (
            Case("cycle3", expr="cycle3", options={"integral": True, "allow_non_flag": True}),
            Case("tetrahedron_boundary", data=TETRAHEDRON_BOUNDARY,
                 options={"integral": True, "allow_non_flag": True}),
        ),
        pass_s=6.9,
    ),
}


def passes_for(workload: Workload, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / workload.pass_s))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_inputs(raagdim, workload: Workload) -> list:
    """The workload's input complexes as JSON dicts, one per case."""
    io_json, zoo = raagdim.io_json, raagdim.zoo
    out = []
    for case in workload.cases:
        if case.data is not None:
            out.append(json.loads(json.dumps(case.data)))
        else:
            out.append(io_json.complex_to_json(zoo.build_named(case.expr)))
    return out


class OpFailure(Exception):
    """An op produced a wrong or unverifiable result."""


def analyze_op(raagdim, case: Case, data: dict) -> tuple:
    """One analyze op: decode, analyze, serialise the report; for certify
    cases also round-trip the certificate through JSON and re-verify it.

    Returns (report digest, report)."""
    io_json, bounds = raagdim.io_json, raagdim.bounds
    L = io_json.complex_from_json(data)
    report = bounds.analyze(L, **case.options)
    text = io_json.dumps(io_json.report_to_json(report))
    if case.certificate:
        if report.certificate is None:
            raise OpFailure(f"{case.name}: no top certificate")
        check_certificate(raagdim, L, report.certificate, case.name)
    return digest(text), report


def check_certificate(raagdim, L, certificate, label: str) -> None:
    io_json, verify = raagdim.io_json, raagdim.verify
    stored = json.loads(io_json.dumps(io_json.certificate_to_json(certificate)))
    outcome = verify.verify_certificate(L, io_json.certificate_from_json(stored))
    if not outcome.ok:
        raise OpFailure(f"{label}: certificate fails {outcome.failed_check}: {outcome.detail}")
