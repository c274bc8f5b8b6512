"""JSON schemas for complexes, certificates, and reports.

All files carry a versioned "schema" field; a loader refuses any other
than its own, though an input may leave the field out.  Certificates are
proof objects meant to outlive the binary, so their encoding is fully
explicit: signed vertices serialize as [label, "+"] or [label, "-"].

`dumps` writes exactly `json.dumps(data, sort_keys=True, indent=2) + "\n"`,
a list of memoized lists (a certificate cell) in place.  A certificate has
many cells but few halves and labels: `certificate_to_json` ranks the
distinct halves by value and shares one list per label and half, which
`dumps` writes once each, and `certificate_from_json` decodes each signed
label to one tuple.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii

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


def _decode_labels(xs: list, location: str, index=None, signed=None) -> tuple:
    """The labels the JSON values in `xs` stand for (a bool is not one).  The
    location of a refusal, `location.format(index)`, is built only then.
    Callers that share `signed`, dicts of the "+" and "-" labels decoded
    by base, get one tuple per distinct signed label."""
    plus, minus = signed or ({}, {})
    out = []
    for x in xs:
        if type(x) is list and len(x) == 2 and (x[1] == "+" or x[1] == "-"):
            base, sign = x
            if type(base) is not str and type(base) is not int:
                base = _decode_labels(x[:1], location, index)[0]
            table = plus if sign == "+" else minus
            out.append(table.get(base) or table.setdefault(base, (base, PLUS if sign == "+" else MINUS)))
        elif type(x) is str or type(x) is int:
            out.append(x)
        else:
            raise MalformedInput(f"label must be a string, an integer, or [label, '+'|'-'], got {x!r}",
                                 location.format(index))
    return tuple(out)


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


def _refuse_other_vertices(order: list, vertices: dict) -> None:
    """Refuse a vertex order that is not exactly the complex's vertices (in
    first appearance): the bounds depend on the order, so it is analyzed as
    the file states it or not at all."""
    named = set(order)
    missing = [_encode_label(v) for v in vertices if v not in named]
    if missing:
        raise MalformedInput(f"vertex_order is missing the vertices {missing}", "$.vertex_order")
    unknown = [_encode_label(v) for v in order if v not in vertices]
    if unknown:
        raise MalformedInput(f"vertex_order names {unknown}, which are not vertices", "$.vertex_order")


def _refuse_unknown(data: dict, known: tuple, location: str = "$") -> None:
    """Refuse a key outside `known`: a misspelt key must not be dropped unread."""
    for key in data:
        if key not in known:
            raise MalformedInput(f"unknown key {key!r}", f"{location}.{key}")


def _refuse_schema(data: dict, schema: str) -> None:
    """Refuse a stated schema other than `schema`; the key is optional."""
    if "schema" in data and data["schema"] != schema:
        raise MalformedInput(f"schema must be {schema!r}, got {data['schema']!r}", "$.schema")


def complex_from_json(data) -> SimplicialComplex:
    if not isinstance(data, dict):
        raise MalformedInput("top level must be an object")
    _refuse_unknown(data, ("schema", "vertex_order", "graph", "flag", "maximal_simplices", "vertices"))
    _refuse_schema(data, COMPLEX_SCHEMA)
    first: list = []

    def label(x, location, index):
        # Labels of different kinds do not sort against each other.
        v, = _decode_labels([x], location, index)
        if not first:
            first.append(v)
        elif _label_kind(v) != _label_kind(first[0]):
            raise MalformedInput(
                f"label {x!r} is not of the kind of {_encode_label(first[0])!r}; labels must be "
                "all strings, all integers, or all signed pairs of one kind", location.format(index))
        return v

    order = None
    if "vertex_order" in data:
        raw = _list(data["vertex_order"], "$.vertex_order")
        order = [label(v, "$.vertex_order[{}]", i) for i, v in enumerate(raw)]
        _refuse_repeated(order, "$.vertex_order")
    if "graph" in data:
        for key, why in (("maximal_simplices", "give 'graph' or 'maximal_simplices', not both"),
                         ("vertices", "a graph lists its vertices in 'graph.vertices'")):
            if key in data:
                raise MalformedInput(why, f"$.{key}")
        g = data["graph"]
        if not isinstance(g, dict) or "vertices" not in g or "edges" not in g:
            raise MalformedInput("graph needs 'vertices' and 'edges'", "$.graph")
        _refuse_unknown(g, ("vertices", "edges"), "$.graph")
        raw = _list(g["vertices"], "$.graph.vertices")
        verts = [label(v, "$.graph.vertices[{}]", i) for i, v in enumerate(raw)]
        _refuse_repeated(verts, "$.graph.vertices")
        edges = []
        for i, e in enumerate(_list(g["edges"], "$.graph.edges")):
            if not isinstance(e, list) or len(e) != 2:
                raise MalformedInput("edge must be a pair", f"$.graph.edges[{i}]")
            edges.append(tuple(label(v, "$.graph.edges[{}]", i) for v in e))
        if order is not None:
            _refuse_other_vertices(order, dict.fromkeys(verts))
            verts = order
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
        if "flag" in data:
            raise MalformedInput("only a 'graph' is flag-completed; 'maximal_simplices' are read as given", "$.flag")
        raw = _list(data["maximal_simplices"], "$.maximal_simplices")
        simplices = []
        for i, s in enumerate(raw):
            if not isinstance(s, list) or not s:
                raise MalformedInput("simplex must be a nonempty list", f"$.maximal_simplices[{i}]")
            simplices.append(tuple(label(v, "$.maximal_simplices[{}]", i) for v in s))
        if "vertices" in data:
            raw = _list(data["vertices"], "$.vertices")
            listed = {label(v, "$.vertices[{}]", i) for i, v in enumerate(raw)}
            simplices.extend((v,) for v in sorted(listed, key=repr))
        if order is not None:
            _refuse_other_vertices(order, dict.fromkeys(v for s in simplices for v in s))
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
    """The certificate as a JSON dict whose label and half lists are shared
    between occurrences: do not mutate them in place (`copy.deepcopy` first)."""
    cycle = sorted(cert.cycle)
    # Rank the distinct halves by value, then sort the cells as tuples of
    # halves, on one int each.
    halves = list(chain.from_iterable(cert.omega))
    ranked = sorted(set(halves))
    rank = {half: r for r, half in enumerate(ranked)}
    ranks = [rank[half] for half in halves]
    n = len(ranked)
    keys = sorted(a * n + b for a, b in zip(ranks[::2], ranks[1::2]))
    labels = {v: _encode_label(v) for s in (*cycle, cert.delta, *ranked) for v in s}
    lists = [[labels[v] for v in half] for half in ranked]
    return {
        "schema": CERTIFICATE_SCHEMA,
        "degree": cert.degree,
        "M": [[labels[v] for v in f] for f in cycle],
        "Delta": [labels[v] for v in cert.delta],
        "omega_support": [[lists[key // n], lists[key % n]] for key in keys],
        # A certificate is only built once both checks hold.
        "star_condition": True,
        "evaluation": 1,
    }


def certificate_from_json(data) -> dict:
    if not isinstance(data, dict):
        raise MalformedInput("certificate must be an object")
    keys = ("degree", "M", "Delta", "omega_support", "star_condition", "evaluation")
    for key in keys:
        if key not in data:
            raise MalformedInput(f"missing key {key!r}", "$")
    _refuse_unknown(data, ("schema", *keys))
    _refuse_schema(data, CERTIFICATE_SCHEMA)
    degree, evaluation, star = data["degree"], data["evaluation"], data["star_condition"]
    # type(...) is int also turns away bools.
    if type(degree) is not int or degree < 0:
        raise MalformedInput(f"must be a nonnegative integer, got {degree!r}", "$.degree")
    if type(evaluation) is not int:
        raise MalformedInput(f"must be an integer, got {evaluation!r}", "$.evaluation")
    if type(star) is not bool:
        raise MalformedInput(f"must be a boolean, got {star!r}", "$.star_condition")

    signed = ({}, {})  # few distinct signed labels, each in many cells: one tuple each

    def simplex(x, location, index=None):
        if type(x) is not list or not x:
            raise MalformedInput("simplex must be a nonempty list of labels", location.format(index))
        return _decode_labels(x, location, index, signed)

    def cell(x, i):
        if type(x) is not list or len(x) != 2:
            raise MalformedInput("cell must be a pair of simplices", f"$.omega_support[{i}]")
        return simplex(x[0], "$.omega_support[{}][0]", i), simplex(x[1], "$.omega_support[{}][1]", i)

    return {
        "degree": degree,
        "M": [simplex(f, "$.M[{}]", i) for i, f in enumerate(_list(data["M"], "$.M"))],
        "Delta": simplex(data["Delta"], "$.Delta"),
        "omega_support": [cell(c, i) for i, c in enumerate(_list(data["omega_support"], "$.omega_support"))],
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
        "bounds": [{"quantity": r.quantity, "kind": r.kind, "value": r.value, "rule": r.rule, "detail": r.detail,
                    "caveats": list(r.caveats), "certified": r.in_interval} for r in report.records],
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


_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: lambda x: {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(repr(x), repr(x)),
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _flat_text(o, nl: str, depth: int):
    """The text of list `o` at line prefix `nl` if it holds scalars (at depth 1, or lists of them), else None."""
    inner = nl + "  "
    items = []
    for x in o:
        scalar = _SCALAR_TEXT.get(type(x))
        if scalar is not None:
            items.append(scalar(x))
        elif depth and type(x) in (list, tuple) and (text := _flat_text(x, inner, 0)) is not None:
            items.append(text)
        else:
            return None
    return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"


def _encode(o, nl: str, memo: dict, out: list, path: set) -> None:
    """Append the text of `o` at line prefix `nl` to `out`."""
    scalar = _SCALAR_TEXT.get(type(o))
    text = scalar(o) if scalar is not None else type(o) in (list, tuple) and _flat_text(o, nl, 1)
    if text:
        memo[id(o), nl] = text
        out.append(text)
        return
    if type(o) is dict:
        keys = sorted(o)
        if any(type(k) is not str for k in keys):
            raise TypeError("keys must be str")
        heads, values, brackets = [encode_basestring_ascii(k) + ": " for k in keys], [o[k] for k in keys], "{}"
    elif type(o) in (list, tuple):
        heads, values, brackets = [""] * len(o), o, "[]"
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if id(o) in path:
        raise TypeError("circular reference")
    path.add(id(o))
    inner, deeper = nl + "  ", nl + "    "
    sep, comma = brackets[0] + inner, "," + inner
    # A list of scalars and memoized lists (a certificate cell) is written in place.
    opening, between, closing = "[" + deeper, "," + deeper, inner + "]"
    for head, x in zip(heads, values):
        out.append(sep + head)
        sep = comma
        scalar = _SCALAR_TEXT.get(type(x))
        text = scalar(x) if scalar is not None else memo.get((id(x), inner))
        if text is None and type(x) in (list, tuple):
            mark, piece = len(out), opening
            for y in x:
                scalar = _SCALAR_TEXT.get(type(y))
                text = scalar(y) if scalar is not None else memo.get((id(y), deeper))
                if text is None:
                    del out[mark:]
                    break
                out += piece, text
                piece = between
            else:
                text = closing if x else "[]"
        if text is None:
            _encode(x, inner, memo, out, path)
        else:
            out.append(text)
    out.append(nl + brackets[1] if values else brackets)
    path.discard(id(o))


def dumps(data) -> str:
    """Exactly `json.dumps(data, sort_keys=True, indent=2) + "\\n"` for `data`
    built from str-keyed dicts, lists, tuples, str, int, float, bool and None;
    anything else (a non-str key, an int or str subclass, a set, a cycle)
    raises TypeError, and raagdim writes none of these.  Flat lists' text is
    kept by id and line prefix: `data` is unchanged and alive, so an id names one list."""
    out: list = []
    _encode(data, "\n", {}, out, set())
    out.append("\n")
    return "".join(out)
