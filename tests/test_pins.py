"""The report bytes the benchmark pins (perfbench/pins.json) hold in the
test run too: every analyze case's report digest, every certificate it
carries re-verified after a JSON round trip, and the lemma suite's counts."""

import importlib.util
import json
import os
import sys

import raagdim
from raagdim import bounds, io_json, suite, verify, zoo  # noqa: F401  (the workloads read them off raagdim)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_pins():
    with open(os.path.join(PERFBENCH, "pins.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_every_analyze_case_matches_its_pinned_digest():
    wl = load_workloads()
    pins = load_pins()["analyze"]
    seen = set()
    for workload in wl.WORKLOADS.values():
        for case, data in zip(workload.cases, wl.build_inputs(raagdim, workload)):
            text_digest, report = wl.analyze_op(raagdim, case, data)
            assert text_digest == pins[case.name], case.name
            L = io_json.complex_from_json(data)
            certs = ([report.certificate] if report.certificate is not None else []) + list(report.sub_certificates)
            for cert in certs:
                wl.check_certificate(raagdim, L, cert, case.name)
            seen.add(case.name)
    assert seen == set(pins)


def test_lemma_suite_matches_its_pinned_counts():
    wl = load_workloads()
    pinned = load_pins()["suite"]
    result = suite.run_suite(pinned["seed"], wl.SUITE_COUNT)
    assert result.failures == []
    assert (result.complexes, result.checks) == (pinned["complexes"], pinned["checks"]) == (50, 85897)
