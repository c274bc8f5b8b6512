"""CLI commands, JSON schemas, and certificate verification."""

import argparse
import copy
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import raagdim
from index_reference import doubled_complex
from raagdim import bounds, cli, complexes, io_json, suite, verify, zoo
from raagdim.cli import build_parser, main
from raagdim.complexes import skeleton
from raagdim.obstruction import certify_nonvanishing, covering_pair_chain, delta_product_chain
from raagdim.octa import double_over, octahedralize
from raagdim.verify import CHECKS, VerificationOutcome, verify_certificate
from raagdim.zoo import MAX_NESTING, ZOO, build_named, cycle, octahedron_boundary, random_flag, tree
from test_suite import dropped_push_to_product, flipped_top_mesh_cocycle

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(raagdim.__file__)))


def write_json(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(io_json.dumps(payload) if isinstance(payload, dict) else payload, encoding="utf-8")
    return str(p)


def c4_json():
    return io_json.complex_to_json(cycle(4))


def test_complex_json_roundtrip():
    for entry in ZOO[:10]:
        K = entry.complex()
        back = io_json.complex_from_json(io_json.complex_to_json(K))
        assert back.vertices == K.vertices
        assert back.faces == K.faces


def test_complex_json_graph_form():
    data = {"graph": {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}, "flag": True}
    K = io_json.complex_from_json(data)
    assert K.dim == 2  # the triangle fills in under the flag option
    data["flag"] = False
    assert io_json.complex_from_json(data).dim == 1


def test_malformed_inputs_carry_locations():
    with pytest.raises(io_json.MalformedInput) as err:
        io_json.complex_from_json({"maximal_simplices": [["a"], []]})
    assert "maximal_simplices[1]" in str(err.value)
    with pytest.raises(io_json.MalformedInput):
        io_json.complex_from_json({"maximal_simplices": [["a", "a"]]})
    with pytest.raises(io_json.MalformedInput):
        io_json.complex_from_json({})
    with pytest.raises(io_json.MalformedInput):
        io_json.complex_from_json({"maximal_simplices": [[{"x": 1}]]})


@pytest.mark.parametrize("data, location, reason", [
    # A bool is an int in Python: true would silently become vertex 1.
    ({"maximal_simplices": [[True, 2], [1, 3]]}, "$.maximal_simplices[0]", "got True"),
    ({"graph": {"vertices": [1, False], "edges": []}}, "$.graph.vertices[1]", "got False"),
    # Labels of different kinds do not sort against each other.
    ({"maximal_simplices": [[1, "a"], ["a", "b"], ["b", "c"], ["c", 1]]}, "$.maximal_simplices[0]", "kind"),
    ({"maximal_simplices": [["a", "b"]], "vertices": [["a", "+"]]}, "$.vertices[0]", "kind"),
    ({"maximal_simplices": [[["a", "+"], [1, "-"]]]}, "$.maximal_simplices[0]", "kind"),
    ({"vertex_order": ["a", 2], "maximal_simplices": [["a"]]}, "$.vertex_order[1]", "kind"),
    ({"graph": {"vertices": ["a", "b"], "edges": [["a", 0]]}}, "$.graph.edges[0]", "kind"),
    ({"maximal_simplices": [["a"]], "vertices": 5}, "$.vertices", "must be a list"),
    ({"maximal_simplices": 5}, "$.maximal_simplices", "must be a list"),
    ({"vertex_order": "ab", "maximal_simplices": [["a"]]}, "$.vertex_order", "must be a list"),
    ({"graph": {"vertices": 3, "edges": []}}, "$.graph.vertices", "must be a list"),
    ({"graph": {"vertices": [1], "edges": {}}}, "$.graph.edges", "must be a list"),
    ({"graph": {"vertices": [1, 2], "edges": [[1, 1]]}}, "$.graph", "loop edge"),
    # Repeated vertices, with or without the flag completion.
    ({"graph": {"vertices": [1, 1, 2], "edges": [[1, 2]]}, "flag": True}, "$.graph.vertices", "repeated vertex 1"),
    ({"graph": {"vertices": [1, 1, 2], "edges": [[1, 2]]}}, "$.graph.vertices", "repeated vertex 1"),
    ({"graph": {"vertices": [1, 2], "edges": []}, "vertex_order": [2, 1, 2]}, "$.vertex_order", "repeated vertex 2"),
    ({"maximal_simplices": [["a", "b"]], "vertex_order": ["a", "b", "a"]}, "$.vertex_order", "repeated vertex 'a'"),
    # Only a JSON boolean asks for the flag completion.
    ({"graph": {"vertices": [1, 2], "edges": []}, "flag": "yes"}, "$.flag", "must be a boolean"),
    ({"graph": {"vertices": [1, 2], "edges": []}, "flag": [-1, True]}, "$.flag", "must be a boolean"),
    # One input form's keys next to the other's: the hollow triangle is
    # not flag-completed, and neither key of a pair is dropped.
    ({"maximal_simplices": [[1, 2], [2, 3], [1, 3]], "flag": True}, "$.flag", "only a 'graph'"),
    ({"graph": {"vertices": [1, 2], "edges": []}, "maximal_simplices": [[1, 2]]}, "$.maximal_simplices", "not both"),
    ({"graph": {"vertices": [1, 2], "edges": []}, "vertices": [1, 2]}, "$.vertices", "'graph.vertices'"),
    # A vertex order names exactly the vertices, in both input forms: none
    # is put last unstated, and no other name is dropped.
    ({"graph": {"vertices": [1, 2, 3], "edges": [[1, 2]]}, "vertex_order": [3, 1]}, "$.vertex_order",
     "vertex_order is missing the vertices [2]"),
    ({"graph": {"vertices": [1, 2], "edges": [[1, 2]]}, "flag": True, "vertex_order": [2, 1, 9]}, "$.vertex_order",
     "vertex_order names [9], which are not vertices"),
    ({"maximal_simplices": [[1, 2], [3]], "vertex_order": [3, 1, 2, 9]}, "$.vertex_order",
     "vertex_order names [9], which are not vertices"),
    ({"maximal_simplices": [["a", "b"], ["b", "c"]], "vertex_order": ["c", "a"]}, "$.vertex_order",
     "vertex_order is missing the vertices ['b']"),
    ({"maximal_simplices": [["a"]], "vertices": ["b", "c"], "vertex_order": ["a", "c"]}, "$.vertex_order",
     "vertex_order is missing the vertices ['b']"),
    # One edge check with or without the flag completion (a loop edge above).
    ({"graph": {"vertices": ["a"], "edges": [["a", "b"]]}}, "$.graph", "edge ('a', 'b') uses an unknown vertex"),
    ({"graph": {"vertices": ["a"], "edges": [["a", "b"]]}, "flag": True}, "$.graph",
     "edge ('a', 'b') uses an unknown vertex"),
])
def test_complex_json_rejects_bad_labels_and_containers(data, location, reason):
    with pytest.raises(io_json.MalformedInput) as err:
        io_json.complex_from_json(data)
    assert err.value.location == location
    assert reason in str(err.value)


LABEL_ERROR = "label must be a string, an integer, or [label, '+'|'-'], got "
SIMPLEX_ERROR = "simplex must be a nonempty list of labels"
CERTIFICATE_TYPE_CASES = [
    ("degree", "1", "$.degree", "must be a nonnegative integer, got '1'"),
    ("degree", True, "$.degree", "must be a nonnegative integer, got True"),
    ("degree", -1, "$.degree", "must be a nonnegative integer, got -1"),
    ("degree", 1.0, "$.degree", "must be a nonnegative integer, got 1.0"),
    ("evaluation", [1], "$.evaluation", "must be an integer, got [1]"),
    ("M", 5, "$.M", "must be a list"),
    ("M", [["c0", "c1"], "c2"], "$.M[1]", SIMPLEX_ERROR),
    ("M", [[]], "$.M[0]", SIMPLEX_ERROR),
    ("Delta", "c0", "$.Delta", SIMPLEX_ERROR),
    ("Delta", [True], "$.Delta", LABEL_ERROR + "True"),
    ("omega_support", {}, "$.omega_support", "must be a list"),
    ("omega_support", [[["c0"]]], "$.omega_support[0]", "cell must be a pair of simplices"),
    ("omega_support", [[["c0"], 5]], "$.omega_support[0][1]", SIMPLEX_ERROR),
    ("star_condition", "no", "$.star_condition", "must be a boolean, got 'no'"),
    # A bad label inside a signed pair is named by itself, at its simplex.
    ("omega_support", [[["c0"], [["c1", "+"], [True, "-"]]]], "$.omega_support[0][1]", LABEL_ERROR + "True"),
    ("omega_support", [[["c0"], [["c1", "+"], [["c2", "x"], "-"]]]], "$.omega_support[0][1]",
     LABEL_ERROR + "['c2', 'x']"),
    ("omega_support", [[["c0"], ["c1"]], [["c0"], [True]]], "$.omega_support[1][1]", LABEL_ERROR + "True"),
    ("omega_support", [[["c0"], ["c1"], ["c2"]]], "$.omega_support[0]", "cell must be a pair of simplices"),
    ("omega_support", [[["c0"], ["c1"]], [[["c0", "+"]], []]], "$.omega_support[1][1]", SIMPLEX_ERROR),
    ("M", [["c0", ["c1", "*"]]], "$.M[0]", LABEL_ERROR + "['c1', '*']"),
    ("M", [["c0"], [[[1, "+"], "-"], 2.5]], "$.M[1]", LABEL_ERROR + "2.5"),
]


# The ids pytest gives the (key, value) pairs on their own.
@pytest.mark.parametrize("key, value, location, message", CERTIFICATE_TYPE_CASES, ids=[
    f"{key}-{value}" if isinstance(value, (str, int, float)) else f"{key}-value{i}"
    for i, (key, value, _, _) in enumerate(CERTIFICATE_TYPE_CASES)])
def test_certificate_json_type_checks(key, value, location, message):
    data = io_json.certificate_to_json(certify_nonvanishing(cycle(4), 1))
    io_json.certificate_from_json(data)
    data[key] = value
    with pytest.raises(io_json.MalformedInput) as err:
        io_json.certificate_from_json(data)
    assert err.value.location == location
    assert str(err.value) == f"{location}: {message}"


# Well-typed fields over labels that collide often, and loosely typed JSON.
fuzz_labels = st.integers(0, 3)
fuzz_values = st.recursive(
    st.one_of(fuzz_labels, st.sampled_from(["a", "+", "-"]), st.booleans(), st.none(), st.just(0.5)),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)
fuzz_label_lists = st.lists(fuzz_labels, max_size=5)
fuzz_simplex_lists = st.lists(st.lists(fuzz_labels, min_size=1, max_size=3), max_size=4)


def fuzz_complex_forms(field):
    """Both complex forms; `field` turns each well-typed strategy into the
    one a field draws from."""
    return st.one_of(
        st.fixed_dictionaries(
            {"graph": st.fixed_dictionaries({"vertices": field(fuzz_label_lists),
                                             "edges": field(fuzz_simplex_lists)}),
             "flag": field(st.booleans())},
            optional={"vertex_order": field(fuzz_label_lists)}),
        st.fixed_dictionaries(
            {"maximal_simplices": field(fuzz_simplex_lists)},
            optional={"vertices": field(fuzz_label_lists), "vertex_order": field(fuzz_label_lists)}),
    )


fuzz_complexes = st.one_of(
    fuzz_complex_forms(lambda s: s),
    fuzz_complex_forms(lambda s: st.one_of(s, fuzz_values)),
    fuzz_values,
)
fuzz_certificates = st.one_of(
    fuzz_values,
    st.fixed_dictionaries({
        "degree": st.one_of(st.integers(-1, 2), fuzz_values),
        "M": st.one_of(fuzz_simplex_lists, fuzz_values),
        "Delta": st.one_of(fuzz_label_lists, fuzz_values),
        "omega_support": st.one_of(
            st.lists(st.lists(st.one_of(fuzz_label_lists, fuzz_values), max_size=3), max_size=3), fuzz_values),
        "star_condition": st.one_of(st.booleans(), fuzz_values),
        "evaluation": st.one_of(st.integers(0, 1), fuzz_values),
    }),
)


@given(fuzz_complexes)
@settings(max_examples=400, deadline=None)
def test_complex_loader_parses_or_raises_malformed_input(data):
    try:
        K = io_json.complex_from_json(data)
    except io_json.MalformedInput:
        return
    assert len(set(K.vertices)) == len(K.vertices)
    assert all(len(set(f)) == len(f) and set(f) <= set(K.vertices) for f in K.faces)


@given(fuzz_certificates)
@settings(max_examples=200, deadline=None)
def test_certificate_loader_parses_or_raises_malformed_input(data):
    try:
        io_json.certificate_from_json(data)
    except io_json.MalformedInput:
        pass


def test_verify_certificate_with_unknown_omega_vertex_fails_a_check():
    L = cycle(4)
    data = io_json.certificate_from_json(io_json.certificate_to_json(certify_nonvanishing(L, 1)))
    (a, b), *rest = data["omega_support"]
    data["omega_support"] = [((("zz", 1),) + a[1:], b)] + rest
    out = verify_certificate(L, data)
    assert not out.ok and out.failed_check == "omega-cycle"
    assert "('zz', 1)" in out.detail


def run_cli(args, env=None):
    return subprocess.run([sys.executable, "-m", "raagdim", *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC_DIR, **(env or {})))


def test_cli_bad_input_exits_1_with_a_located_message(tmp_path):
    c4 = write_json(tmp_path, "c4.json", c4_json())
    cert = io_json.certificate_to_json(certify_nonvanishing(cycle(4), 1))
    cases = [
        (["analyze", write_json(tmp_path, "bool.json", {"maximal_simplices": [[True, 2], [1, 3]]})],
         "$.maximal_simplices[0]"),
        (["analyze", write_json(tmp_path, "mixed.json",
                                {"maximal_simplices": [[1, "a"], ["a", "b"], ["b", "c"], ["c", 1]]})],
         "$.maximal_simplices[0]"),
        (["analyze", write_json(tmp_path, "signed.json",
                                {"maximal_simplices": [["a", "b"]], "vertices": [["a", "+"]]})],
         "$.vertices[0]"),
        (["verify", write_json(tmp_path, "degree.json", dict(cert, degree="1")), c4], "$.degree"),
        (["verify", write_json(tmp_path, "m.json", dict(cert, M=5)), c4], "$.M"),
        (["analyze", c4, "--max-cells", "-1"], "--max-cells"),
        (["lemma-suite", "--count", "-3"], "error: --count must be nonnegative, got -3"),
        (["analyze", write_json(tmp_path, "repeated.json",
                                {"graph": {"vertices": [1, 1, 2], "edges": [[1, 2]]}, "flag": True})],
         "$.graph"),
        (["generate", "octahedron_boundary", "-1"], "octahedron_boundary needs k >= 0, got -1"),
        (["generate", "join(octahedron_boundary(-1),points(2))"], "octahedron_boundary needs k >= 0"),
        (["generate", "tree", "0"], "tree needs n >= 1, got 0"),
        (["generate", "simplex", "-1"], "simplex needs k >= 0, got -1"),
        (["generate", "points", "-2"], "points needs n >= 1, got -2"),
        (["generate", "path", "0"], "path needs n >= 1, got 0"),
        (["generate", "random_flag", "-2", "0.5"], "random_flag needs n >= 1, got -2"),
        (["generate", "simplex", "1.5"], "simplex needs an integer k, got 1.5"),
        (["generate", "cycle(2)"], "cycle needs n >= 3, got 2"),
        (["generate", "join(cycle(4)"], "unbalanced parentheses in 'join(cycle(4)'"),
        (["generate", "cycle(4))"], "unbalanced parentheses in 'cycle(4))'"),
        (["generate", "cycle(x)"], "cycle needs numeric arguments, got 'x'"),
        (["generate", "join(cycle(4),path(y))"], "path needs numeric arguments, got 'y'"),
        # The token parser refuses what the grammar does not allow, naming it.
        (["generate", "cycle(4,)"], "argument 2 of cycle is empty"),
        (["generate", "cycle(,4)"], "argument 1 of cycle is empty"),
        (["generate", "cycle(4,,)"], "argument 2 of cycle is empty"),
        (["generate", "join(,points(2))"], "argument 1 of join is empty"),
        (["generate", "cone(cycle(4),point)"], "cone needs exactly one complex, got 2"),
        (["generate", "suspension(point,point)"], "suspension needs exactly one complex, got 2"),
        (["generate", "cycle(4)x"], "'x' follows the complex 'cycle(4)'"),
        (["generate", "tree(4,2.5)"], "tree needs an integer seed, got 2.5"),
        (["generate", "random_flag(4,0.5,1.5)"], "random_flag needs an integer seed, got 1.5"),
        # A generator's arguments are counted before it is called.
        (["generate", "cycle(4,5)"], "cycle takes 1 argument, got 2"),
        (["generate", "random_flag(4,0.5)"], "random_flag takes 3 arguments, got 2"),
        (["generate", "tree(4,1,2)"], "tree takes 1 or 2 arguments, got 3"),
        (["generate", ""], "empty expression"),
        (["generate", ","], "',' stands where a complex should be named"),
        (["generate", "random_flag(5,2.0,1)"], "random_flag needs 0 <= p <= 1, got 2.0"),
        (["generate", "random_flag(5,-0.5,1)"], "random_flag needs 0 <= p <= 1, got -0.5"),
        (["generate", "random_flag(5,nan,1)"], "random_flag needs 0 <= p <= 1, got nan"),
        (["generate", "random_flag", "5", "1.5"], "random_flag needs 0 <= p <= 1, got 1.5"),
        (["generate", "cycle(4)", "7"], "'cycle(4)' is an expression, so '7' would be ignored"),
        (["generate", "tree(6)", "--seed", "3"], "'tree(6)' is an expression, so '--seed 3' would be ignored"),
        (["generate", "cycle", "4", "--seed", "3"], "'--seed 3' would be ignored"),
        (["generate", "tree", "6", "3", "--seed", "5"], "'--seed 5' would be ignored"),
        (["analyze", write_json(tmp_path, "repeated-graph.json",
                                {"graph": {"vertices": [1, 1, 2], "edges": [[1, 2]]}})],
         "$.graph.vertices"),
        # Keys that the other input form reads are refused, not dropped.
        (["analyze", write_json(tmp_path, "flag-simplices.json",
                                {"maximal_simplices": [[1, 2], [2, 3], [3, 4], [4, 1]], "flag": "yes"})],
         "$.flag: only a 'graph' is flag-completed"),
        (["analyze", write_json(tmp_path, "graph-simplices.json",
                                {"graph": {"vertices": [1, 2], "edges": [[1, 2]]}, "maximal_simplices": [[1, 2, 3]]})],
         "$.maximal_simplices: give 'graph' or 'maximal_simplices', not both"),
        (["analyze", write_json(tmp_path, "graph-vertices.json",
                                {"graph": {"vertices": [1, 2], "edges": [[1, 2]]}, "vertices": [3]})],
         "$.vertices: a graph lists its vertices in 'graph.vertices'"),
        # A misspelt key is refused, not dropped: it would change the vertex order unseen.
        (["analyze", write_json(tmp_path, "misspelt.json",
                                {"maximal_simplices": [[1, 2], [2, 3]], "vertex_ordr": [3, 2, 1]})],
         "$.vertex_ordr: unknown key 'vertex_ordr'"),
        (["analyze", write_json(tmp_path, "graph-key.json",
                                {"graph": {"vertices": [1, 2], "edges": [[1, 2]], "flag": True}})],
         "$.graph.flag: unknown key 'flag'"),
        (["verify", write_json(tmp_path, "cert-key.json", dict(cert, evalution=1)), c4],
         "$.evalution: unknown key 'evalution'"),
        # A file of another schema, or of none known, is refused; the key may be left out.
        (["analyze", write_json(tmp_path, "schema-int.json", {"schema": 7, "maximal_simplices": [[1, 2]]})],
         "$.schema: schema must be 'complex/1', got 7"),
        (["analyze", write_json(tmp_path, "schema-report.json",
                                {"schema": "report/1", "maximal_simplices": [[1, 2]]})],
         "$.schema: schema must be 'complex/1', got 'report/1'"),
        (["verify", write_json(tmp_path, "cert-schema.json", dict(cert, schema="complex/1")), c4],
         "$.schema: schema must be 'certificate/1', got 'complex/1'"),
        (["verify", write_json(tmp_path, "cert.json", cert),
          write_json(tmp_path, "c4-schema.json", dict(c4_json(), schema="certificate/1"))],
         "$.schema: schema must be 'complex/1', got 'certificate/1'"),
    ]
    for args, where in cases:
        run = run_cli(args)
        assert run.returncode == 1, (args, run.stderr)
        assert "Traceback" not in run.stderr
        assert where in run.stderr, (args, run.stderr)


def test_cli_generate_refuses_a_deep_nesting_fast_and_without_a_traceback():
    # Around an unknown name, so nothing could be built at any depth: a
    # valid deep nesting has at least 2^depth faces.
    expr = "cone(" * 1000 + "nosuch" + ")" * 1000
    start = time.perf_counter()
    run = run_cli(["generate", expr])
    assert time.perf_counter() - start < 5
    assert run.returncode == 1 and "Traceback" not in run.stderr
    assert run.stderr.startswith("error: ") and "nests 1000 deep, more than 100" in run.stderr
    # At the deepest nesting parsed, the unknown name is named.
    with pytest.raises(ValueError, match="unknown zoo entry 'nosuch'"):
        build_named("cone(" * MAX_NESTING + "nosuch" + ")" * MAX_NESTING)


def test_cli_refuses_a_complex_past_the_face_budget_with_exit_1(tmp_path, monkeypatch, capsys):
    # A listed simplex is refused before its subsets are enumerated.
    big = write_json(tmp_path, "big.json", {"maximal_simplices": [list(range(25))]})
    for args, message in ((["generate", "simplex(24)"], "a simplex on 25 vertices has 2^25 - 1 faces"),
                          (["analyze", big], "$.maximal_simplices: a simplex on 25 vertices has 2^25 - 1 faces")):
        run = run_cli(args)
        assert run.returncode == 1 and "Traceback" not in run.stderr, (args, run.stderr)
        assert run.stderr.startswith("error: ") and message in run.stderr, (args, run.stderr)
    # A nesting the parser accepts, at a cap small enough to reach at once.
    monkeypatch.setattr(complexes, "MAX_FACES", 1000)
    assert main(["generate", "cone(" * 30 + "point" + ")" * 30, "--out", str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().err == "error: the join would have 1023 faces, more than 1000\n"
    assert not (tmp_path / "out.json").exists()


def test_build_named_counts_a_nesting_on_its_parse_tree_before_building_a_level(monkeypatch):
    # cone f -> 2f + 1, suspension f -> 3f + 2, join -> (|A| + 1)(|B| + 1) - 1;
    # a leaf is built, and nothing above it.
    def refuse(*args):
        raise AssertionError("a level was built")

    for name in ("cone", "suspension", "join", "relabeled"):
        monkeypatch.setattr(zoo, name, refuse)
    for expr, count in (("cone(" * 19 + "point" + ")" * 19, 2**20 - 1),
                        ("cone(" * 100 + "point" + ")" * 100, 2**20 - 1),
                        ("suspension(" * 12 + "point" + ")" * 12, 2 * 3**12 - 1),
                        ("join(simplex(9),cone(simplex(8)))", 1024 * 1024 - 1),
                        ("join(simplex(8),simplex(9),points(2))", 512 * 1024 * 3 - 1)):
        with pytest.raises(ValueError, match=f"^the join would have {count} faces, more than 1000000$"):
            build_named(expr)


def test_cli_generate_refuses_a_deep_cone_past_the_face_budget_at_once(tmp_path, capsys):
    # It used to build 524,287 faces over 19 levels, in seconds, first.
    out = tmp_path / "out.json"
    start = time.perf_counter()
    assert main(["generate", "cone(" * 19 + "point" + ")" * 19, "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == "error: the join would have 1048575 faces, more than 1000000\n"
    assert not out.exists()


def test_cli_generate_seeds_a_generator_given_by_name_with_0_by_default(tmp_path):
    for args, K in [(["tree", "6", "--seed", "3"], tree(6, 3)), (["tree", "6"], tree(6, 0)),
                    (["random_flag", "6", "0.5", "--seed", "2"], random_flag(6, 0.5, 2))]:
        out = str(tmp_path / "out.json")
        assert main(["generate", *args, "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            assert json.load(fh) == io_json.complex_to_json(K), args


def test_cli_generate_analyze_verify_roundtrip(tmp_path, capsys):
    c4 = str(tmp_path / "c4.json")
    report = str(tmp_path / "report.json")
    cert = str(tmp_path / "cert.json")
    assert main(["generate", "cycle", "4", "--out", c4]) == 0
    assert main(["analyze", c4, "--out", report, "--certificate", cert, "--strict"]) == 0
    out = capsys.readouterr().out
    assert "actdim(A_L) = 4" in out
    assert main(["verify", cert, c4]) == 0
    data = json.loads(open(report, encoding="utf-8").read())
    assert data["schema"] == "report/1"
    assert data["actdim_AL"] == {"known": True, "lower": 4, "upper": 4, "exact": True}
    assert data["conjecture"] == "verified"


def test_cli_analyze_encodes_the_certificate_once(tmp_path, monkeypatch):
    c4 = str(tmp_path / "c4.json")
    report, cert, alone = (str(tmp_path / name) for name in ("report.json", "cert.json", "alone.json"))
    assert main(["generate", "cycle", "4", "--out", c4]) == 0
    calls = []
    encode = io_json.certificate_to_json

    def counted(certificate):
        calls.append(certificate)
        return encode(certificate)

    monkeypatch.setattr(io_json, "certificate_to_json", counted)
    assert main(["analyze", c4, "--out", report, "--certificate", cert]) == 0
    assert len(calls) == 1
    nested = json.loads(open(report, encoding="utf-8").read())["certificate"]
    assert open(cert, "rb").read() == io_json.dumps(nested).encode("utf-8")
    # Without --out the certificate is encoded for its own file alone.
    assert main(["analyze", c4, "--certificate", alone]) == 0
    assert len(calls) == 2
    assert open(alone, "rb").read() == open(cert, "rb").read()


def test_cli_analyze_is_deterministic(tmp_path):
    c4 = str(tmp_path / "c4.json")
    main(["generate", "cycle", "4", "--out", c4])
    r1 = str(tmp_path / "r1.json")
    r2 = str(tmp_path / "r2.json")
    main(["analyze", c4, "--out", r1])
    main(["analyze", c4, "--out", r2])
    assert open(r1, "rb").read() == open(r2, "rb").read()


def test_cli_generate_join_and_expressions(tmp_path):
    out = str(tmp_path / "oct.json")
    assert main(["generate", "join(points(2),points(2),points(2))", "--out", out]) == 0
    K = io_json.complex_from_json(json.loads(open(out, encoding="utf-8").read()))
    assert K.face_counts() == (6, 12, 8)
    assert main(["generate", "simplex", "2", "--out", str(tmp_path / "s2.json")]) == 0
    assert main(["generate", "nonsense", "3"]) == 1
    # Whitespace around a name, a number or a parenthesis is dropped.
    spaced = str(tmp_path / "c4.json")
    assert main(["generate", " cycle ( 4 ) ", "--out", spaced]) == 0
    with open(spaced, encoding="utf-8") as fh:
        assert json.load(fh) == io_json.complex_to_json(cycle(4))


def test_cli_rejects_empty_and_non_flag(tmp_path, capsys):
    empty = write_json(tmp_path, "empty.json", {"maximal_simplices": []})
    assert main(["analyze", empty]) == 1
    hollow = write_json(
        tmp_path, "c3.json",
        {"maximal_simplices": [["a", "b"], ["b", "c"], ["a", "c"]]},
    )
    assert main(["analyze", hollow]) == 1
    assert main(["analyze", hollow, "--allow-non-flag"]) == 0


def test_cli_analyze_tests_flagness_once_per_input_and_goes_on(tmp_path, capsys, monkeypatch):
    # The CLI leaves the input checks to analyze and prints its message.
    hollow = write_json(tmp_path, "c3.json", {"maximal_simplices": [["a", "b"], ["b", "c"], ["a", "c"]]})
    empty = write_json(tmp_path, "empty.json", {"maximal_simplices": []})
    c4 = write_json(tmp_path, "c4.json", c4_json())
    tested = []
    real = bounds.is_flag

    def counted(K):
        tested.append(K.vertices)
        return real(K)

    for module in (cli, bounds):
        if hasattr(module, "is_flag"):
            monkeypatch.setattr(module, "is_flag", counted)
    assert main(["analyze", hollow, empty, c4]) == 1
    assert tested == [("a", "b", "c"), io_json.complex_from_json(c4_json()).vertices]
    out, err = capsys.readouterr()
    assert "error: complex is not flag (missing clique ('a', 'b', 'c'))" in err and "--allow-non-flag" in err
    assert "error: empty complex: the associated group is trivial" in err
    assert f"== {c4}" in out and "actdim(A_L) = 4" in out


def test_cli_analyze_options_are_pinned():
    # A new analyze knob is a deliberate edit of this list.
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {s for a in sub.choices["analyze"]._actions for s in a.option_strings} - {"-h", "--help"}
    assert options == {"--out", "--certificate", "--strict", "--allow-non-flag", "--integral", "--max-cells"}


def test_cli_strict_flags_undetermined(tmp_path):
    # The doubled tetrahedron boundary needs the coboundary solve; with a
    # tiny cell budget the solve is skipped and the result is undetermined.
    tetra = write_json(
        tmp_path, "t.json",
        {"maximal_simplices": [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]},
    )
    assert main(["analyze", tetra, "--allow-non-flag", "--strict", "--max-cells", "5"]) == 2
    assert main(["analyze", tetra, "--allow-non-flag", "--strict"]) in (0, 2)


def test_cli_malformed_json_file(tmp_path):
    bad = write_json(tmp_path, "bad.json", "{not json")
    assert main(["analyze", bad]) == 1
    assert main(["analyze", str(tmp_path / "missing.json")]) == 1


def test_cli_homology_and_octahedralize(tmp_path, capsys):
    c4 = str(tmp_path / "c4.json")
    main(["generate", "cycle", "4", "--out", c4])
    assert main(["homology", c4]) == 0
    assert "[0, 1]" in capsys.readouterr().out
    out = str(tmp_path / "oc4.json")
    assert main(["octahedralize", c4, "--out", out]) == 0
    K = io_json.complex_from_json(json.loads(open(out, encoding="utf-8").read()))
    assert K.face_counts() == (8, 16)


def test_cli_lemma_suite_passes_and_catches_faults(capsys, monkeypatch):
    assert main(["lemma-suite", "--seed", "0", "--count", "3"]) == 0
    with monkeypatch.context() as m:
        m.setattr(suite, "top_mesh_cocycle", flipped_top_mesh_cocycle)
        assert main(["lemma-suite", "--seed", "0", "--count", "3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL pullback" in out
    assert "minimized complex (maximal faces): [(" in out
    monkeypatch.setattr(suite, "push_to_product", dropped_push_to_product)
    assert main(["lemma-suite", "--seed", "0", "--count", "3"]) == 1
    assert "FAIL pushforward" in capsys.readouterr().out


def test_cli_lemma_suite_zero_count_vacuous():
    assert main(["lemma-suite", "--seed", "0", "--count", "0"]) == 0


# --- certificate verification paths ----------------------------------------


def test_verify_certificate_mutations(tmp_path):
    L = cycle(4)
    cert = certify_nonvanishing(L, 1)
    data = io_json.certificate_from_json(io_json.certificate_to_json(cert))
    assert verify_certificate(L, data).ok

    bad = copy.deepcopy(data)
    bad["Delta"] = ("c0", "c2")  # not even a face
    out = verify_certificate(L, bad)
    assert not out.ok and out.failed_check == "delta-membership"

    bad = copy.deepcopy(data)
    bad["M"] = [f for f in bad["M"] if f != bad["Delta"]]
    out = verify_certificate(L, bad)
    assert not out.ok and out.failed_check == "delta-membership"

    bad = copy.deepcopy(data)
    bad["M"] = bad["M"][:-1]  # no longer a cycle
    out = verify_certificate(L, bad)
    assert not out.ok and out.failed_check == "cycle-condition"

    bad = copy.deepcopy(data)
    bad["omega_support"] = bad["omega_support"][:-1]  # delete one cell
    out = verify_certificate(L, bad)
    assert not out.ok and out.failed_check in ("omega-cycle", "omega-evaluation")

    bad = copy.deepcopy(data)
    bad["star_condition"] = False
    out = verify_certificate(L, bad)
    assert not out.ok and out.failed_check == "star-condition"

    # A repeated entry cancels mod 2, so the chain it lists is not the one stored.
    bad = copy.deepcopy(data)
    bad["M"] = bad["M"] + [bad["M"][0]]
    out = verify_certificate(L, bad)
    assert not out.ok and out.failed_check == "cycle-condition"
    assert f"{tuple(data['M'][0])} twice" in out.detail

    bad = copy.deepcopy(data)
    a, b = bad["omega_support"][0]
    bad["omega_support"] = bad["omega_support"] + [[b, a]]
    out = verify_certificate(L, bad)
    assert not out.ok and out.failed_check == "omega-cycle"
    assert f"{(b, a)} lists the cell" in out.detail and "twice" in out.detail


def test_verify_certificate_refuses_an_overlapping_pair_by_name():
    # The sweep's "overlap" grows b, so it fails on size; here b keeps its
    # size, is a face of the doubled complex and meets a.
    L = cycle(4)
    cert = certify_nonvanishing(L, 1)
    data = io_json.certificate_from_json(io_json.certificate_to_json(cert))
    doubled = double_over(octahedralize(skeleton(L, 1)), cert.cycle, cert.delta)
    (a, b), *rest = data["omega_support"]
    meets_a = next(f for f in doubled_complex(doubled).faces_of_dim(len(b) - 1) if f != a and not set(f).isdisjoint(a))
    out = verify_certificate(L, dict(data, omega_support=[(a, meets_a)] + rest))
    assert not out.ok and out.failed_check == "omega-cycle"
    assert f"stored pair {(a, meets_a)} is not a disjoint pair" in out.detail


@pytest.mark.parametrize("L", [cycle(4), octahedron_boundary(2)], ids=["cycle4", "octahedron2"])
def test_verify_certificate_one_cell_mutation_sweep(L):
    data = io_json.certificate_from_json(io_json.certificate_to_json(certify_nonvanishing(L, L.dim)))
    rank = octahedralize(L).rank
    support = data["omega_support"]

    def verify_with(i, cells):
        return verify_certificate(L, dict(data, omega_support=support[:i] + cells + support[i + 1 :]))

    for i, (a, b) in enumerate(support):
        assert verify_with(i, [(b, a)]).ok  # either half may come first
        j = i % len(a)
        (v, sign), rest = a[j], a[:j] + a[j + 1 :]
        into_b = tuple(sorted(b + (a[j],), key=rank.__getitem__))
        mutations = {
            "drop": [],
            "flip-sign": [(a[:j] + ((v, -sign),) + a[j + 1 :], b)],
            "overlap": [(a, into_b)],
            "move": [(rest, into_b)],
        }
        for name, cells in mutations.items():
            out = verify_with(i, cells)
            assert not out.ok and out.failed_check in CHECKS, (name, i, out)


def test_verify_certificate_push_and_support_match_failures(monkeypatch):
    # On these complexes omega spans the top GF(2) cycles of the doubled
    # complex, so no stored support that passes omega-cycle and
    # omega-evaluation differs from it; the later branches are reached by
    # faulting verify's own bindings instead.
    L = cycle(4)
    data = io_json.certificate_from_json(io_json.certificate_to_json(certify_nonvanishing(L, 1)))

    def product_minus_one_term(doubled, space):
        chain = delta_product_chain(doubled, space)
        chain.pop()
        return chain

    def rebuilt_without_first(doubled, space):
        space, pairs = covering_pair_chain(doubled, space)
        return space, pairs[1:]

    push = VerificationOutcome(False, "pushforward-identity", "push of the stored chain is not the product chain",
                               CHECKS[:6])
    evaluation = VerificationOutcome(False, "pushforward-identity", "product evaluation is not 1", CHECKS[:6])
    first = "((('c0', -1), ('c1', -1)), (('c0', 1), ('c1', 1)))"
    support = VerificationOutcome(False, "omega-support-match", f"stored support differs (extra [{first}], missing [])",
                                  CHECKS)
    for name, fault, outcome in [("delta_product_chain", product_minus_one_term, push),
                                 ("nonstrict_values", lambda spread, firsts, seconds: [0] * len(firsts), evaluation),
                                 ("covering_pair_chain", rebuilt_without_first, support)]:
        with monkeypatch.context() as patch:
            patch.setattr(verify, name, fault)
            assert verify_certificate(L, data) == outcome, name
    assert verify_certificate(L, data).ok


def test_verify_certificate_octahedron_roundtrip():
    L = octahedron_boundary(2)
    cert = certify_nonvanishing(L, 2)
    data = io_json.certificate_from_json(io_json.certificate_to_json(cert))
    assert verify_certificate(L, data).ok


def test_verify_cli_failure_names_check(tmp_path, capsys):
    L = cycle(4)
    cert = certify_nonvanishing(L, 1)
    data = io_json.certificate_to_json(cert)
    data["omega_support"] = data["omega_support"][:-1]
    cpath = write_json(tmp_path, "cert.json", data)
    kpath = write_json(tmp_path, "c4.json", c4_json())
    assert main(["verify", cpath, kpath]) == 1
    assert "FAIL omega-" in capsys.readouterr().out


def test_report_json_non_flag_has_unknown_actdim(tmp_path):
    hollow = write_json(
        tmp_path, "c3.json",
        {"maximal_simplices": [["a", "b"], ["b", "c"], ["a", "c"]]},
    )
    report = str(tmp_path / "r.json")
    assert main(["analyze", hollow, "--allow-non-flag", "--out", report]) == 0
    data = json.loads(open(report, encoding="utf-8").read())
    assert data["actdim_AL"] == {"known": False}
    assert data["conjecture"] is None
    assert data["warnings"]


def test_cli_batch_mode(tmp_path, capsys):
    c4 = str(tmp_path / "c4.json")
    p3 = str(tmp_path / "p3.json")
    main(["generate", "cycle", "4", "--out", c4])
    main(["generate", "path", "3", "--out", p3])
    assert main(["analyze", c4, p3]) == 0
    out = capsys.readouterr().out
    assert out.count("actdim(A_L)") == 2
    assert main(["analyze", c4, str(tmp_path / "nope.json")]) == 1


def test_cli_analyze_output_is_independent_of_hash_seed(tmp_path):
    # Every command, run under two hash seeds: stdout and written files agree.
    csc5 = str(tmp_path / "csc5.json")
    oct3 = str(tmp_path / "oct3.json")
    assert main(["generate", "cone(suspension(cycle(5)))", "--out", csc5]) == 0
    assert main(["generate", "octahedron_boundary(3)", "--out", oct3]) == 0
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"seed-{hash_seed}"
        out.mkdir()
        commands = [
            ["generate", "cone(suspension(cycle(5)))", "--out", str(out / "generated.json")],
            ["analyze", csc5, "--out", str(out / "report.json")],
            ["analyze", oct3, "--out", str(out / "oct3-report.json"), "--certificate", str(out / "cert.json")],
            ["verify", str(out / "cert.json"), oct3],
            ["octahedralize", csc5, "--out", str(out / "octa.json")],
            ["homology", csc5, "--out", str(out / "homology.json")],
            ["lemma-suite", "--count", "3"],
        ]
        stdouts = []
        for args in commands:
            run = run_cli(args, env={"PYTHONHASHSEED": hash_seed})
            assert run.returncode == 0, (args, run.stderr)
            stdouts.append(run.stdout)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert len(files) == 6
        outputs.append((stdouts, files))
    assert outputs[0] == outputs[1]


def test_cli_file_errors_exit_1_and_name_the_path(tmp_path):
    c4 = write_json(tmp_path, "c4.json", c4_json())
    missing_dir = tmp_path / "missing"
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"maximal_simplices": [["\xff", "b"]]}')
    cases = [
        (["generate", "cycle", "4", "--out", str(missing_dir / "x.json")], str(missing_dir / "x.json")),
        (["analyze", c4, "--out", str(missing_dir / "r.json")], str(missing_dir / "r.json")),
        (["homology", c4, "--out", str(missing_dir / "h.json")], str(missing_dir / "h.json")),
        (["analyze", str(tmp_path)], str(tmp_path)),
        (["analyze", str(missing_dir / "c4.json")], str(missing_dir / "c4.json")),
        (["analyze", str(not_utf8)], str(not_utf8)),
        (["verify", str(tmp_path), c4], str(tmp_path)),
    ]
    for args, where in cases:
        run = run_cli(args)
        assert run.returncode == 1, (args, run.stderr)
        assert "Traceback" not in run.stderr
        assert f"error: {where}" in run.stderr or f"error: cannot write {where}" in run.stderr, (args, run.stderr)


def test_cli_refuses_json_nested_too_deeply_with_exit_1(tmp_path):
    # The decoder recurses once per bracket; past the recursion limit the
    # file is refused as malformed input, named, with no traceback.
    deep = tmp_path / "deep.json"
    deep.write_text('{"maximal_simplices": ' + "[" * 100_000, encoding="utf-8")
    c4 = write_json(tmp_path, "c4.json", c4_json())
    for args in (["analyze", str(deep)], ["homology", str(deep)], ["verify", str(deep), c4]):
        run = run_cli(args)
        assert run.returncode == 1, (args, run.stderr)
        assert "Traceback" not in run.stderr, (args, run.stderr)
        assert run.stderr == f"error: {deep}: JSON nested too deeply\n", (args, run.stderr)


def test_cli_batch_goes_on_after_an_unreadable_input(tmp_path):
    c4 = write_json(tmp_path, "c4.json", c4_json())
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b"\xff\xfe{")
    run = run_cli(["analyze", str(not_utf8), str(tmp_path), c4])
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert f"error: {not_utf8}: not UTF-8 text" in run.stderr
    assert f"error: {tmp_path}: cannot read" in run.stderr
    assert f"== {c4}" in run.stdout and "actdim(A_L) = 4" in run.stdout
