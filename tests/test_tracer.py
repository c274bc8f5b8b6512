"""The benchmark's tracer (perfbench/tracer.py) still finds every traced
raagdim callable by name and its hooks can read their arguments."""

import importlib.util
import os

from raagdim import bounds, config_space, io_json, obstruction, suite, verify
from raagdim.octa import octahedralize
from raagdim.zoo import cone, cycle, path
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
        # No engine path names cells by their faces, so this hooked reader
        # is called directly, through the class.
        config_space.ConfigurationSpace(L).cells_of_degree(2)
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


def test_tracer_counts_the_top_solve_as_cells():
    # The GF(2) solve never builds the (2k-1)-cells, yet its unknowns are
    # counted as their number.
    tracing = load_tracer()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = obstruction.certify_vanishing(cone(cycle(5)))
    finally:
        tracer.uninstall()
    assert result.status == "primitive"
    space = config_space.ConfigurationSpace(octahedralize(cone(cycle(5))).complex)
    assert tracer.counts["gf2.solve.unknowns"] == len(space.cells_of_degree(3)) == 840
    assert tracer.counts["gf2.solve.equations"] == len(space.cells_of_degree(4))
    assert tracer.counts["homology.solve_coboundary.unknowns"] == tracer.counts["gf2.solve.unknowns"]
