"""The benchmark's tracer (perfbench/tracer.py) still finds every traced
raagdim callable by name and its hooks can read their arguments."""

import importlib.util
import os

from raagdim import bounds, config_space, io_json, suite, verify
from raagdim.zoo import cycle, path
from test_bounds import RP2

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_reads_every_hooked_layer():
    tracing = load_tracer()
    tracer = tracing.Tracer()
    original = config_space.chain_boundary
    tracer.install()  # raises if a traced name is missing
    try:
        # Called through their modules, so the wrappers are what runs.
        L = cycle(4)
        report = bounds.analyze(L)
        cert = io_json.certificate_from_json(io_json.certificate_to_json(report.certificate))
        assert verify.verify_certificate(L, cert).ok
        suite.check_complex(L, suite.SuiteResult())
        bounds.analyze(path(3), integral=True)  # both coboundary solves
        # The unit pivots of the integer solve clear path(3); the real
        # projective plane leaves a core for the Smith normal form.
        bounds.analyze(RP2, integral=True, allow_non_flag=True)
    finally:
        tracer.uninstall()
    assert config_space.chain_boundary is original
    called = {tracer.names[i] for i in set(tracer.name)}
    hooked = {f"{module}.{name}" for module, name, pre, post in tracing.TARGETS if pre or post}
    assert hooked <= called, sorted(hooked - called)
    assert tracer.counts["config_space.chain_boundary.in_cells"] > 0
    assert tracer.counts["homology.solve_coboundary.equations"] > 0
    assert tracer.counts["intlinalg.smith_normal_form.entries"] > 0
