"""The top GF(2) solve's primitive and witness, pinned by the "vanishing"
digest of scripts/report_digests.py: [status, GF(2) primitive, witness,
integer primitive], each cell written as a pair of faces.  A change to
the elimination that alters which primitive or witness comes back fails
here, even when the primitive's size stays the same."""

import importlib.util
import os

import pytest

from raagdim.bounds import analyze
from raagdim.config_space import ConfigurationSpace
from raagdim.homology import solve_coboundary
from raagdim.obstruction import _pullback_primitive, certify_vanishing, top_mesh_cocycle
from raagdim.octa import octahedralize
from raagdim.zoo import build_named

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "report_digests.py")


def load_script():
    spec = importlib.util.spec_from_file_location("report_digests_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The analyze cases of the benchmark's vanishing workload: each solves,
# with a primitive of the given size.
VANISHING = {
    "cone(suspension(cycle(5)))": (150, "7be30fa1632d700f04a68c7fbe51660d96643f1c65d8c3a3c3b06b7039d58fab"),
    "cone(suspension(cycle(8)))": (240, "e1549713bb987f62cbcd0d49638b75b32f741eff12c1543daf74a98c9d1c109c"),
    "random_flag(12,0.5,1)": (121, "f0e7e6dfcb4e34d608918bb3969d151015a17190e6c2534cac1420a110c92d7f"),
    "cone(cone(cycle(6)))": (30, "063dd6de8a3671b482e06e0b35822f6d421c975f9ad9b57c8165ddf4823ce47f"),
    "cone(cycle(8))": (40, "c01d5d2f4c0e9400bd95bdc5cf7756f428f9cc21a3a49e297131eef83d20aac9"),
    "random_flag(10,0.45,3)": (1, "be7db186d666b9e1159d0a037efe0735f51e5be9e7dd723cb0891dd2b2220c78"),
}


@pytest.mark.parametrize("expr", sorted(VANISHING))
def test_vanishing_primitive_digest(expr):
    script = load_script()
    L = build_named(expr)
    vanishing = analyze(L).vanishing
    size, pinned = VANISHING[expr]
    assert vanishing.status == "primitive"
    assert len(vanishing.primitive) == size
    assert script.digest(script.solve_record(L, vanishing)) == pinned


def test_obstructed_witness_digest():
    # analyze finds a top certificate here and runs no solve, so the solve
    # is called directly: it is obstructed, with a witness of 648 cells.
    script = load_script()
    L = build_named("octahedron_boundary(3)")
    vanishing = certify_vanishing(L)
    assert vanishing.status == "obstructed"
    assert len(vanishing.witness_cycle) == 648
    assert script.digest(script.solve_record(L, vanishing)) == (
        "0e816e70d079a0bb852aaab90e219efecf86434c3b9d45355a03941abfe65927")


# The analyze cases of the benchmark's integral workload on flag
# complexes and the vanishing cases above, with integral=True: the integer
# primitive is the route's, pulled back from L, of the given size.
ROUTE = {
    "cone(cycle(5))": (25, "d4073feb5dc35e5500b943e331b9cd18494e81ceadf0d3c46a20b5c27c7b9b08"),
    "cone(cycle(4))": (20, "409b00aafc423fabea5967a2a505053ded58f21ad509535c205f584962b2be96"),
    "tree6": (45, "02385593171330545eda5cb2e5ca63c5d0d82e84b688f6ac2485e57d355279a2"),
    "cone(suspension(cycle(5)))": (150, "b0aaa531b02fedd14ce6d9623771982d9fa335716bd5bccb027d4f2cffa84813"),
    "random_flag(12,0.5,1)": (103, "8735e4c01b638aeb3e24c484277d6acb71b0297fadecd4b850cac8f650185d19"),
    "cone(cone(cycle(6)))": (30, "72154ed879e04698756be0d3995fb26429fef51480089e3a3bd8b6299812e995"),
    "random_flag(10,0.45,3)": (1, "385b920df18d30687c064ad84e37cbbfc069e193041226de91b1d5aa0b17c252"),
}


@pytest.mark.parametrize("expr", sorted(ROUTE))
def test_route_primitive_digest(expr):
    script = load_script()
    L = build_named(expr)
    vanishing = analyze(L, integral=True).vanishing
    size, pinned = ROUTE[expr]
    octa = octahedralize(L)
    assert vanishing.integral_checked
    assert vanishing.integral_primitive == _pullback_primitive(octa, ConfigurationSpace(octa), L.dim)
    assert len(vanishing.integral_primitive) == size
    assert script.digest(script.solve_record(L, vanishing)) == pinned


@pytest.mark.parametrize("expr, solvable", [("cone(cycle(5))", True), ("octahedron_boundary(3)", False)])
def test_top_solve_leaves_the_cached_facet_rows_as_built(expr, solvable):
    # The solve holds the rows it reads as its pivots without a copy, and
    # those are the space's cached facet rows, which facet_keys hands out
    # too; the obstructed solve names its witness from the same pass.  It
    # may not change them.
    L = build_named(expr)
    octa = octahedralize(L)
    space = ConfigurationSpace(octa.complex)
    phi = top_mesh_cocycle(space, L.dim)
    rows = space.facet_keys(2 * L.dim)
    before = [list(row) for row in rows]
    primitive, witness = solve_coboundary(phi, 2 * L.dim, space)
    assert (primitive is not None, bool(witness)) == (solvable, not solvable)
    assert space.facet_keys(2 * L.dim) is rows
    assert [list(row) for row in rows] == before
