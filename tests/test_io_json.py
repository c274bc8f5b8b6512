"""`io_json.dumps` writes the bytes of `json.dumps(..., sort_keys=True,
indent=2)`, and shared certificate lists write what unshared ones do."""

import enum
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from raagdim import io_json
from raagdim.cli import main
from raagdim.complexes import relabeled
from raagdim.obstruction import certify_nonvanishing
from raagdim.zoo import ZOO


def reference(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


strings = st.one_of(st.text(max_size=6), st.sampled_from(["", "é", "\x00\n\t\"\\/", " ", "\U0001f600"]))
scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), strings)
flat_lists = st.lists(st.one_of(scalars, st.lists(scalars, max_size=3)), min_size=1, max_size=4)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(strings, inner, max_size=4),
    ),
    max_leaves=16,
)


@st.composite
def with_shared_lists(draw):
    """A value that holds one list object at two depths, and twice at one."""
    shared, other = draw(flat_lists), draw(json_values)
    return {"a": shared, "b": {"c": shared, "d": [other, {"e": shared}, shared]}, "f": shared}


@settings(max_examples=300, deadline=None)
@given(st.one_of(json_values, with_shared_lists()))
# Lists equal as values but not as text, at one indentation.
@example([[1, 0], {"x": [True, 1, False, 0]}, [True, False], (1, 0), [1.0, 0.0]])
@example({"a": [1, 0], "b": [True, False], "c": [[1], [True]], "d": [[True], [1]]})
@example([[], (), {}, "", [[]], [{}]])
def test_dumps_matches_json_dumps(data):
    assert io_json.dumps(data) == reference(data)


class Kind(enum.IntEnum):
    ONE = 1


class Name(str):
    pass


def cyclic():
    loop: list = [1]
    loop.append({"again": loop})
    return loop


@pytest.mark.parametrize("data", [
    {1: "a"},
    [{"a": {2: 1}}],
    {1},
    [[1], {2}],
    Kind.ONE,
    [Kind.ONE],
    {"k": Name("n")},
    cyclic(),
], ids=["int-key", "nested-int-key", "set", "nested-set", "int-subclass", "nested-int-subclass",
        "str-subclass", "cycle"])
def test_dumps_refuses_values_outside_its_domain(data):
    with pytest.raises(TypeError):
        io_json.dumps(data)


def test_shared_and_unshared_certificates_give_the_same_bytes():
    checked = 0
    for entry in ZOO:
        L = entry.complex()
        cert = certify_nonvanishing(L, L.dim) if entry.flag and L.dim >= 0 else None
        if cert is not None:
            data = io_json.certificate_to_json(cert)
            text = io_json.dumps(data)
            assert text == io_json.dumps(json.loads(text)) == reference(data), entry.name
            checked += 1
    assert checked >= 6


def test_certificate_cells_are_written_in_tuple_order():
    """omega_support lists the cells as sorted(cert.omega) orders them, also
    with str labels whose order is not their numbers' ('r10' < 'r9')."""
    def encoded(half):
        return [io_json._encode_label(v) for v in half]

    checked = 0
    for entry in ZOO:
        L = entry.complex()
        if not entry.flag or L.dim < 0:
            continue
        for K in (L, relabeled(L, {v: f"r{i + 5}" for i, v in enumerate(L.vertices)}),
                  relabeled(L, {v: i + 5 for i, v in enumerate(L.vertices)})):
            cert = certify_nonvanishing(K, K.dim)
            if cert is not None:
                cells = io_json.certificate_to_json(cert)["omega_support"]
                assert cells == [[encoded(a), encoded(b)] for a, b in sorted(cert.omega)], entry.name
                checked += 1
    assert checked >= 18


def test_cli_reports_are_json_dumps_bytes(tmp_path):
    octahedron = str(tmp_path / "octahedron.json")
    assert main(["generate", "octahedron_boundary", "2", "--out", octahedron]) == 0
    outputs = {"generate": octahedron}
    for command, extra in [("analyze", ["--certificate", str(tmp_path / "cert.json")]),
                           ("homology", []), ("octahedralize", [])]:
        outputs[command] = str(tmp_path / f"{command}.json")
        assert main([command, octahedron, "--out", outputs[command], *extra]) == 0
    outputs["certificate"] = str(tmp_path / "cert.json")
    for command, path in outputs.items():
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert text == reference(json.loads(text)), command
    with open(outputs["analyze"], encoding="utf-8") as fh:
        assert json.load(fh)["certificate"]["omega_support"]
