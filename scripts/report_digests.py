#!/usr/bin/env python3
"""Print the sha256 of every analyze report over a fixed corpus.

Usage: python scripts/report_digests.py [--count N]

The corpus is the zoo, the analyze cases of the benchmark workloads
(perfbench/workloads.py) and N seeded random_flag draws (default 30),
with n in 7..12 and p in 0.3..0.8.  Each case is analyzed three times:
with its own options ("default"), with integral=True added ("integral"),
and with max_cells=0 ("refuse"), so that every case of dimension >= 1
without a top certificate refuses the coboundary solve and its report
carries the exact cell count of the size guard.  The output is one JSON
object, case name -> {"default", "integral", "refuse"} digests of the
report bytes.  The top coboundary solve of the "default" and "integral"
analyses gets one digest each ("vanishing", "vanishing-integral") of
[status, GF(2) primitive, witness, integer primitive] as the report's
VanishingResult holds them, each cell written as a pair of faces in the
order the result lists it (a cell key is read back by
`ConfigurationSpace.key_cell`), so the diff covers the primitives and
witnesses, not just the primitive's size.  When the default report
carries a certificate, the case also gets the [ok, failed_check, detail]
of verifying that certificate after a JSON round trip ("verify"), with
its first omega_support cell dropped ("verify-drop-first"), with the sign of that cell's first vertex
flipped ("verify-flip-sign") and with that cell listed twice
("verify-repeat-first"), so the diff covers the failure wording too.  Every case also gets one digest of
[v, d, vkdim_lower(link(L, (v,)), d)] over its vertices v and the depths
d <= 2 ("links"), which covers link bounds that no report records.  The
output also holds, for seeds 0-4, the lemma
suite's [complexes, checks, failures] over the benchmark's suite count,
under "lemma-suite(seed=S)".  A change that must keep the reports and the
suite the same shows it by an empty diff of this output from two
checkouts.
"""

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from raagdim import io_json  # noqa: E402
from raagdim.bounds import analyze, vkdim_lower  # noqa: E402
from raagdim.complexes import link  # noqa: E402
from raagdim.config_space import ConfigurationSpace  # noqa: E402
from raagdim.octa import octahedralize  # noqa: E402
from raagdim.suite import run_suite  # noqa: E402
from raagdim.verify import verify_certificate  # noqa: E402
from raagdim.zoo import ZOO, build_named, random_flag  # noqa: E402
from workloads import SUITE_COUNT, WORKLOADS  # noqa: E402


def bench_cases():
    """(name, complex, options) for every analyze case of the benchmark."""
    for workload in WORKLOADS.values():
        for case in workload.cases:
            L = io_json.complex_from_json(case.data) if case.data is not None else build_named(case.expr)
            yield f"bench:{workload.name}:{case.name}", L, case.options


def cases(count: int):
    for entry in ZOO:
        yield f"zoo:{entry.name}", entry.complex(), {"allow_non_flag": not entry.flag}
    yield from bench_cases()
    for i in range(count):
        n, p = 7 + i % 6, (3 + i // 6 % 6) / 10
        yield f"random_flag({n},{p},{i})", random_flag(n, p, i), {}


def report(L, options) -> tuple:
    """The report JSON of analyze(L, **options) and its VanishingResult."""
    result = analyze(L, **options)
    return io_json.report_to_json(result), result.vanishing


def solve_record(L, vanishing) -> list:
    """[status, GF(2) primitive, witness, integer primitive] of the top
    solve, a primitive as [cell, value] pairs, its cell keys read back by
    `key_cell`; None without a solve."""
    if vanishing is None:
        return None
    space = ConfigurationSpace(octahedralize(L))

    def cochain(values):
        if values is None:
            return None
        return [[space.key_cell(key), v] for key, v in values.items()]

    return [vanishing.status, cochain(vanishing.primitive), vanishing.witness_cycle,
            cochain(vanishing.integral_primitive)]


def digest(data) -> str:
    return hashlib.sha256(io_json.dumps(data).encode("utf-8")).hexdigest()


def link_bounds(L) -> list:
    """[v, d, vkdim_lower(link(L, (v,)), d)] for every vertex v and d <= 2,
    with one memo for the case."""
    cache: dict = {}
    return [[v, d, vkdim_lower(link(L, (v,)), d, cache)] for v in L.vertices for d in range(3)]


def verdicts(L, certificate) -> dict:
    """[ok, failed_check, detail] of verifying the certificate read back
    from its JSON text, as is and with its first omega_support cell
    dropped, sign-flipped at its first vertex, or listed twice."""
    cert = io_json.certificate_from_json(json.loads(io_json.dumps(certificate)))
    (a, b), *rest = support = cert["omega_support"]
    (v, sign), *tail = a
    mutated = {"verify": support, "verify-drop-first": rest,
               "verify-flip-sign": [(((v, -sign), *tail), b)] + rest,
               "verify-repeat-first": [(a, b)] + support}
    outcomes = {name: verify_certificate(L, dict(cert, omega_support=cells)) for name, cells in mutated.items()}
    return {name: [outcome.ok, outcome.failed_check, outcome.detail] for name, outcome in outcomes.items()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=30, help="number of random_flag draws")
    args = parser.parse_args()
    out = {}
    for name, L, options in cases(args.count):
        default, vanishing = report(L, options)
        integral, integral_vanishing = report(L, {**options, "integral": True})
        out[name] = {"default": digest(default), "integral": digest(integral),
                     "refuse": digest(report(L, {**options, "max_cells": 0})[0]), "links": digest(link_bounds(L)),
                     "vanishing": digest(solve_record(L, vanishing)),
                     "vanishing-integral": digest(solve_record(L, integral_vanishing))}
        if "certificate" in default:
            out[name].update(verdicts(L, default["certificate"]))
    for seed in range(5):
        result = run_suite(seed, SUITE_COUNT)
        out[f"lemma-suite(seed={seed})"] = [result.complexes, result.checks, len(result.failures)]
    print(io_json.dumps(out), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
