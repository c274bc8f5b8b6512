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
from raagdim.octa import MINUS, PLUS
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


# Shared flat lists, as certificate halves are: lists of them are written in
# place once their text is memoized, at each depth, and in pieces otherwise.
SHARED, OTHER, FIRST, SECOND = [["a", "+"], 1], [["b", "-"], ["c", "+"]], [["d", "+"]], [3, ["e", "-"]]
CELLS = [[SHARED, SHARED], [SHARED, OTHER], (SHARED, OTHER), [SHARED, [SHARED]]]


@settings(max_examples=300, deadline=None)
@given(st.one_of(json_values, with_shared_lists()))
@example(CELLS)
@example({"a": CELLS, "b": {"c": CELLS, "d": [CELLS]}})
@example([[FIRST, SECOND], [FIRST, SECOND], [SECOND, FIRST], [FIRST, [SECOND, FIRST]], [FIRST, 1]])
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


def relabeled_certificates():
    """(name, top certificate) of each flag zoo complex, as is and with its
    vertices relabeled by str ('r10' < 'r9', unlike their numbers) and by int."""
    for entry in ZOO:
        L = entry.complex()
        if not entry.flag or L.dim < 0:
            continue
        for K in (L, relabeled(L, {v: f"r{i + 5}" for i, v in enumerate(L.vertices)}),
                  relabeled(L, {v: i + 5 for i, v in enumerate(L.vertices)})):
            cert = certify_nonvanishing(K, K.dim)
            if cert is not None:
                yield entry.name, cert


def test_certificate_cells_are_written_in_tuple_order():
    """omega_support lists the cells as sorted(cert.omega) orders them."""
    def encoded(half):
        return [io_json._encode_label(v) for v in half]

    checked = 0
    for name, cert in relabeled_certificates():
        cells = io_json.certificate_to_json(cert)["omega_support"]
        assert cells == [[encoded(a), encoded(b)] for a, b in sorted(cert.omega)], name
        checked += 1
    assert checked >= 18


def test_equal_halves_held_apart_write_the_bytes_of_shared_ones():
    """The cells of a found chain share their face tuples; a chain whose
    every half is its own equal tuple writes the same certificate."""
    checked = 0
    for name, cert in relabeled_certificates():
        apart = cert._replace(omega=frozenset((tuple(list(a)), tuple(list(b))) for a, b in cert.omega))
        ids = [{id(half) for cell in c.omega for half in cell} for c in (cert, apart)]
        assert not ids[0] & ids[1] and len(ids[1]) == 2 * len(apart.omega)
        text = io_json.dumps(io_json.certificate_to_json(apart))
        assert text == io_json.dumps(io_json.certificate_to_json(cert)), name
        checked += 1
    assert checked >= 18


def decode_reference(x):
    """One JSON label decoded on its own: a str or int, or [label, '+'|'-']."""
    if type(x) is list:
        base, sign = x
        return (decode_reference(base), PLUS if sign == "+" else MINUS)
    return x


labels = st.recursive(st.one_of(st.text(max_size=2), st.integers(-3, 3)),
                      lambda inner: st.tuples(inner, st.sampled_from("+-")).map(list), max_leaves=3)
simplices = st.lists(labels, min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(simplices, st.lists(st.tuples(simplices, simplices).map(list), max_size=6))
def test_certificate_loader_decodes_each_label_as_the_per_label_reference(delta, cells):
    data = {"degree": 0, "M": [delta, *(half for cell in cells for half in cell)], "Delta": delta,
            "omega_support": cells, "star_condition": True, "evaluation": 1}
    cert = io_json.certificate_from_json(json.loads(json.dumps(data)))
    fresh = [tuple(map(decode_reference, s)) for s in data["M"]]
    assert cert["M"] == fresh and cert["Delta"] == fresh[0]
    assert cert["omega_support"] == list(zip(fresh[1::2], fresh[2::2]))
    decoded = [v for s in (*cert["M"], cert["Delta"], *(h for cell in cert["omega_support"] for h in cell)) for v in s]
    assert [hash(v) for v in decoded] == [hash(decode_reference(io_json._encode_label(v))) for v in decoded]
    # A signed label on a plain base is one tuple however often it occurs.
    plain = [v for v in decoded if type(v) is tuple and type(v[0]) is not tuple]
    assert len({id(v) for v in plain}) == len(set(plain))


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
