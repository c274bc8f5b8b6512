"""JSON schemas for complexes, certificates, and reports.

All files carry a versioned "schema" field.  Certificates are proof
objects meant to outlive the binary, so their encoding is fully explicit:
signed vertices serialize as [label, "+"] or [label, "-"].
"""

from __future__ import annotations

import json

from .bounds import DimensionReport
from .complexes import SimplicialComplex, flag_completion, from_graph, make_complex
from .obstruction import CycleCertificate
from .octa import MINUS, PLUS

COMPLEX_SCHEMA = "complex/1"
CERTIFICATE_SCHEMA = "certificate/1"
REPORT_SCHEMA = "report/1"


class MalformedInput(ValueError):
    """Invalid input JSON; `location` points at the offending element."""

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location


def _decode_label(x, location: str):
    if isinstance(x, (str, int)) and not isinstance(x, bool):
        return x
    if isinstance(x, list) and len(x) == 2 and x[1] in ("+", "-"):
        return (_decode_label(x[0], location), PLUS if x[1] == "+" else MINUS)
    raise MalformedInput(f"label must be a string, an integer, or [label, '+'|'-'], got {x!r}", location)


def _label_kind(v):
    """'str', 'int', or ('signed', the kind of the base label)."""
    if isinstance(v, tuple):
        return ("signed", _label_kind(v[0]))
    return type(v).__name__


def _list(x, location: str) -> list:
    if not isinstance(x, list):
        raise MalformedInput("must be a list", location)
    return x


def _encode_label(v):
    if isinstance(v, tuple) and len(v) == 2 and v[1] in (MINUS, PLUS):
        return [_encode_label(v[0]), "+" if v[1] == PLUS else "-"]
    if isinstance(v, (str, int)):
        return v
    return repr(v)


def _refuse_repeated(labels: list, location: str) -> None:
    if len(set(labels)) != len(labels):
        repeated = next(v for i, v in enumerate(labels) if v in labels[:i])
        raise MalformedInput(f"repeated vertex {_encode_label(repeated)!r}", location)


def complex_from_json(data) -> SimplicialComplex:
    if not isinstance(data, dict):
        raise MalformedInput("top level must be an object")
    first: list = []

    def label(x, location):
        # Labels of different kinds do not sort against each other.
        v = _decode_label(x, location)
        if not first:
            first.append(v)
        elif _label_kind(v) != _label_kind(first[0]):
            raise MalformedInput(
                f"label {x!r} is not of the kind of {_encode_label(first[0])!r}; labels must be "
                "all strings, all integers, or all signed pairs of one kind", location)
        return v

    order = None
    if "vertex_order" in data:
        raw = _list(data["vertex_order"], "$.vertex_order")
        order = [label(v, f"$.vertex_order[{i}]") for i, v in enumerate(raw)]
        _refuse_repeated(order, "$.vertex_order")
    if "graph" in data:
        g = data["graph"]
        if not isinstance(g, dict) or "vertices" not in g or "edges" not in g:
            raise MalformedInput("graph needs 'vertices' and 'edges'", "$.graph")
        raw = _list(g["vertices"], "$.graph.vertices")
        verts = [label(v, f"$.graph.vertices[{i}]") for i, v in enumerate(raw)]
        _refuse_repeated(verts, "$.graph.vertices")
        edges = []
        for i, e in enumerate(_list(g["edges"], "$.graph.edges")):
            if not isinstance(e, list) or len(e) != 2:
                raise MalformedInput("edge must be a pair", f"$.graph.edges[{i}]")
            edges.append(tuple(label(v, f"$.graph.edges[{i}]") for v in e))
        if order is not None:
            perm = {v: i for i, v in enumerate(order)}
            verts = sorted(verts, key=lambda v: perm.get(v, len(perm)))
        flag = data.get("flag", False)
        if type(flag) is not bool:
            raise MalformedInput(f"must be a boolean, got {flag!r}", "$.flag")
        try:
            if flag:
                return flag_completion(verts, edges)
            return from_graph(verts, edges)
        except ValueError as exc:
            raise MalformedInput(str(exc), "$.graph") from exc
    if "maximal_simplices" in data:
        raw = _list(data["maximal_simplices"], "$.maximal_simplices")
        simplices = []
        for i, s in enumerate(raw):
            if not isinstance(s, list) or not s:
                raise MalformedInput("simplex must be a nonempty list", f"$.maximal_simplices[{i}]")
            simplices.append(tuple(label(v, f"$.maximal_simplices[{i}]") for v in s))
        if "vertices" in data:
            raw = _list(data["vertices"], "$.vertices")
            listed = {label(v, f"$.vertices[{i}]") for i, v in enumerate(raw)}
            simplices.extend((v,) for v in sorted(listed, key=repr))
        try:
            return make_complex(simplices, vertex_order=order)
        except ValueError as exc:
            raise MalformedInput(str(exc), "$.maximal_simplices") from exc
    raise MalformedInput("expected 'maximal_simplices' or 'graph'")


def complex_to_json(K: SimplicialComplex) -> dict:
    return {
        "schema": COMPLEX_SCHEMA,
        "vertices": [_encode_label(v) for v in K.vertices],
        "vertex_order": [_encode_label(v) for v in K.vertices],
        "maximal_simplices": [[_encode_label(v) for v in f] for f in K.maximal_faces()],
    }


def certificate_to_json(cert: CycleCertificate) -> dict:
    return {
        "schema": CERTIFICATE_SCHEMA,
        "degree": cert.degree,
        "M": [[_encode_label(v) for v in f] for f in sorted(cert.cycle)],
        "Delta": [_encode_label(v) for v in cert.delta],
        "omega_support": [
            [[_encode_label(v) for v in half] for half in cell] for cell in sorted(cert.omega)
        ],
        # A certificate is only built once both checks hold.
        "star_condition": True,
        "evaluation": 1,
    }


def certificate_from_json(data) -> dict:
    if not isinstance(data, dict):
        raise MalformedInput("certificate must be an object")
    for key in ("degree", "M", "Delta", "omega_support", "star_condition", "evaluation"):
        if key not in data:
            raise MalformedInput(f"missing key {key!r}", "$")
    degree, evaluation, star = data["degree"], data["evaluation"], data["star_condition"]
    # type(...) is int also turns away bools.
    if type(degree) is not int or degree < 0:
        raise MalformedInput(f"must be a nonnegative integer, got {degree!r}", "$.degree")
    if type(evaluation) is not int:
        raise MalformedInput(f"must be an integer, got {evaluation!r}", "$.evaluation")
    if type(star) is not bool:
        raise MalformedInput(f"must be a boolean, got {star!r}", "$.star_condition")

    def simplex(x, location):
        if not isinstance(x, list) or not x:
            raise MalformedInput("simplex must be a nonempty list of labels", location)
        return tuple(_decode_label(v, location) for v in x)

    def cell(x, location):
        if not isinstance(x, list) or len(x) != 2:
            raise MalformedInput("cell must be a pair of simplices", location)
        return tuple(simplex(half, f"{location}[{j}]") for j, half in enumerate(x))

    return {
        "degree": degree,
        "M": [simplex(f, f"$.M[{i}]") for i, f in enumerate(_list(data["M"], "$.M"))],
        "Delta": simplex(data["Delta"], "$.Delta"),
        "omega_support": [
            cell(c, f"$.omega_support[{i}]")
            for i, c in enumerate(_list(data["omega_support"], "$.omega_support"))
        ],
        "star_condition": star,
        "evaluation": evaluation,
    }


def interval_json(span) -> dict:
    if span is None:
        return {"known": False}
    lo, hi = span
    return {"known": True, "lower": lo, "upper": hi, "exact": lo == hi}


def report_to_json(report: DimensionReport) -> dict:
    data = {
        "schema": REPORT_SCHEMA,
        "input": {"vertices": report.vertices, "dim": report.dim, "flag": report.flag},
        "gd": report.gd,
        "l2dim": report.l2dim,
        "mod2_reduced_betti": list(report.mod2_betti),
        "rational_reduced_betti": list(report.rational_betti),
        "vkdim_OL": interval_json(report.vkdim),
        "embdim_OL": interval_json(report.embdim),
        "actdim_AL": interval_json(report.actdim),
        "conjecture": report.conjecture_status,
        "bounds": [r.to_json() for r in report.records],
        "warnings": list(report.warnings),
        "determined": report.determined,
    }
    if report.missing_clique is not None:
        data["missing_clique"] = [_encode_label(v) for v in report.missing_clique]
    if report.certificate is not None:
        data["certificate"] = certificate_to_json(report.certificate)
    if report.vanishing is not None:
        data["vanishing"] = {
            "status": report.vanishing.status,
            "primitive_size": len(report.vanishing.primitive or ()),
            "integral_checked": report.vanishing.integral_checked,
        }
    return data


def dumps(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
