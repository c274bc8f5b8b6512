"""Span tracing of the raagdim layers, installed from outside the package.

`install` replaces every binding of each traced callable -- the defining
module, every other raagdim module that imported it by name, and the
package namespace -- with a wrapper that records a span (name, start,
end, parent) and the layer's counts.  Methods are wrapped on their class.
Nothing inside `src/` is changed; `uninstall` puts the originals back.

Spans live in flat arrays until the run ends.  `Tracer.summary` turns one
traced pass into per-layer numbers:

  calls    spans of the callable;
  busy_s   inclusive time, counting a recursive call once;
  self_s   span time not covered by child spans.

The self times of every span inside a pass add up exactly (in integer
nanoseconds) to the pass span itself; `run.py` checks that.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import pkgutil
import sys
import weakref
from array import array
from time import perf_counter_ns

PASS_SPAN = "bench.pass"
OP_SPAN = "bench.op"


# ---------------------------------------------------------------------------
# Layer counts.  Each hook runs after the wrapped call returns, so its cost
# lands in the caller's self time, never in the layer's own.


def _count_found(counts, name, state, args, kwargs, result, token):
    counts[name + ".found"] += result is not None


def _count_holds(counts, name, state, args, kwargs, result, token):
    counts[name + ".holds"] += bool(result.holds)


def _count_chain_cells(counts, name, state, args, kwargs, result, token):
    counts[name + ".cells"] += len(result[1])


def _count_skipped(counts, name, state, args, kwargs, result, token):
    counts[name + ".skipped"] += result.status == "skipped"


def _count_ok(counts, name, state, args, kwargs, result, token):
    counts[name + ".ok"] += bool(result.ok)


def _count_in_cells(counts, name, state, args, kwargs, result, token):
    chain = args[0] if args else kwargs["chain"]
    counts[name + ".in_cells"] += len(chain)


def _count_entries(counts, name, state, args, kwargs, result, token):
    mat = args[0] if args else kwargs["mat"]
    counts[name + ".entries"] += len(mat) * (len(mat[0]) if mat else 0)


def _count_gf2_system(counts, name, state, args, kwargs, result, token):
    equations = args[0] if args else kwargs["equations"]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    counts[name + ".equations"] += len(equations)
    counts[name + ".unknowns"] += ncols


def _count_coboundary_system(counts, name, state, args, kwargs, result, token):
    # The solve has just enumerated both degrees, so asking the (unwrapped)
    # space again reads its own cache and does no new work.
    degree = args[1] if len(args) > 1 else kwargs["degree"]
    space = args[2] if len(args) > 2 else kwargs["space"]
    cells_of_degree = state["originals"][type(space).__name__ + ".cells_of_degree"]
    counts[name + ".equations"] += len(cells_of_degree(space, degree))
    counts[name + ".unknowns"] += len(cells_of_degree(space, degree - 1)) if degree > 0 else 0


def _count_cells_of_degree(counts, name, state, args, kwargs, result, token):
    space = args[0]
    degree = args[1] if len(args) > 1 else kwargs["d"]
    asked = state["asked"].setdefault(space, set())
    if degree in asked:
        counts[name + ".cached"] += 1
    else:
        asked.add(degree)
    counts[name + ".cells"] += len(result)


def _checks_before(state, args, kwargs):
    result = args[1] if len(args) > 1 else kwargs["result"]
    return result.checks


def _count_checks(counts, name, state, args, kwargs, result, token):
    suite_result = args[1] if len(args) > 1 else kwargs["result"]
    counts[name + ".checks"] += suite_result.checks - token


def _new_analyze(state, args, kwargs):
    state["visited"] = set()


def _count_vkdim_repeat(counts, name, state, args, kwargs, result, token):
    # Descendant calls only see strictly smaller links, so a complex seen by
    # the time this call returns was seen before it started.
    L = args[0] if args else kwargs["L"]
    visited = state.setdefault("visited", set())
    if L in visited:
        counts[name + ".repeat"] += 1
    else:
        visited.add(L)


# (module, callable, pre-hook, post-hook).  The ratio metrics divide the
# post-hook count by the calls.
TARGETS = (
    ("bounds", "analyze", _new_analyze, None),
    ("bounds", "vkdim_lower", None, _count_vkdim_repeat),
    ("obstruction", "certify_nonvanishing", None, _count_found),
    ("obstruction", "check_star_condition", None, _count_holds),
    ("obstruction", "covering_pair_chain", None, _count_chain_cells),
    ("obstruction", "certify_vanishing", None, _count_skipped),
    ("obstruction", "top_mesh_cocycle", None, None),
    ("obstruction", "moment_intersection", None, None),
    ("obstruction", "push_to_product", None, None),
    ("config_space", "ConfigurationSpace.cells_of_degree", None, _count_cells_of_degree),
    ("config_space", "ConfigurationSpace.boundary", None, None),
    ("config_space", "chain_boundary", None, _count_in_cells),
    ("homology", "solve_coboundary", None, _count_coboundary_system),
    ("homology", "cycle_space", None, None),
    ("homology", "mod2_betti", None, None),
    ("homology", "rational_betti", None, None),
    ("gf2", "solve", None, _count_gf2_system),
    ("gf2", "rank", None, None),
    ("gf2", "kernel_basis", None, None),
    ("intlinalg", "smith_normal_form", None, _count_entries),
    ("intlinalg", "integer_det", None, None),
    ("intlinalg", "integer_rank", None, None),
    ("octa", "octahedralize", None, None),
    ("octa", "double_over", None, None),
    ("complexes", "link", None, None),
    ("complexes", "skeleton", None, None),
    ("verify", "verify_certificate", None, _count_ok),
    ("suite", "check_complex", _checks_before, _count_checks),
    ("io_json", "complex_from_json", None, None),
    ("io_json", "report_to_json", None, None),
    ("io_json", "certificate_to_json", None, None),
    ("io_json", "certificate_from_json", None, None),
    ("io_json", "dumps", None, None),
)

# Extra per-layer numbers: (metric suffix, count key suffix, is a ratio).
EXTRAS = {
    "bounds.vkdim_lower": (("repeat_ratio", "repeat", True),),
    "obstruction.certify_nonvanishing": (("found_ratio", "found", True),),
    "obstruction.check_star_condition": (("holds_ratio", "holds", True),),
    "obstruction.covering_pair_chain": (("cells", "cells", False),),
    "obstruction.certify_vanishing": (("skipped", "skipped", False),),
    "config_space.ConfigurationSpace.cells_of_degree": (
        ("cells", "cells", False),
        ("cached_ratio", "cached", True),
    ),
    "config_space.chain_boundary": (("in_cells", "in_cells", False),),
    "homology.solve_coboundary": (("equations", "equations", False), ("unknowns", "unknowns", False)),
    "gf2.solve": (("equations", "equations", False), ("unknowns", "unknowns", False)),
    "intlinalg.smith_normal_form": (("entries", "entries", False),),
    "verify.verify_certificate": (("ok", "ok", False),),
    "suite.check_complex": (("checks", "checks", False),),
}

LAYERS = tuple(f"{module}.{qualname}" for module, qualname, _, _ in TARGETS)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack: list = []
        self.counts: dict = {}
        self.state: dict = {"asked": weakref.WeakKeyDictionary(), "originals": {}}
        self._restore: list = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        top = self.stack.pop()
        if top != i:
            raise RuntimeError(f"span {self.names[self.name[i]]} closed out of order")

    def span(self, name: str):
        return _Span(self, self.intern(name))

    # -- installation -------------------------------------------------------

    def _wrap(self, label: str, fn, pre, post):
        name_id = self.intern(label)
        tracer = self
        counts = self.counts
        state = self.state
        for suffixes in EXTRAS.get(label, ()):
            counts.setdefault(label + "." + suffixes[1], 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = pre(state, args, kwargs) if pre else None
            i = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if post:
                post(counts, label, state, args, kwargs, result, token)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target on every raagdim namespace that binds it."""
        pkg = importlib.import_module("raagdim")
        for info in pkgutil.iter_modules(pkg.__path__):
            if info.name != "__main__":
                importlib.import_module(f"raagdim.{info.name}")
        modules = [m for n, m in sys.modules.items() if n == "raagdim" or n.startswith("raagdim.")]
        for module_name, qualname, pre, post in TARGETS:
            label = f"{module_name}.{qualname}"
            module = sys.modules[f"raagdim.{module_name}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self.state["originals"][qualname] = original
                setattr(cls, attr, self._wrap(label, original, pre, post))
                self._restore.append((cls, attr, original))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(label, original, pre, post)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- reading ------------------------------------------------------------

    def summary(self, pass_index: int) -> dict:
        """Per-layer numbers of the pass span `pass_index` and its subtree.

        Returns {"times": {layer: (calls, busy_ns, self_ns)}, "modules":
        {module: (busy_ns, self_ns)}, "op_ns", "op_self_ns",
        "op_layers_self_ns", "pass_ns", "pass_self_ns"}; the op numbers sum
        the spans of every op in the pass.
        """
        names, name, start, end, parent = self.names, self.name, self.start, self.end, self.parent
        stop = len(name)
        child_ns: dict = {}
        for i in range(pass_index + 1, stop):
            p = parent[i]
            child_ns[p] = child_ns.get(p, 0) + end[i] - start[i]
        op_id = self._ids.get(OP_SPAN, -2)
        times: dict = {}
        op_ns = op_self_ns = op_layers_ns = 0
        op_end = 0
        # Spans are stored in start order and nest properly, so a span that
        # starts before the last outermost span of its name has ended is a
        # recursive call inside it; busy time counts only the outermost.
        outer_end: dict = {}
        module_of = [n.split(".", 1)[0] for n in names]
        modules: dict = {}
        module_end: dict = {}
        for i in range(pass_index, stop):
            dur = end[i] - start[i]
            own = dur - child_ns.get(i, 0)
            nid = name[i]
            if nid == op_id:
                op_ns += dur
                op_self_ns += own
                op_end = end[i]
            elif i != pass_index:
                if start[i] < op_end:
                    op_layers_ns += own
                outer = start[i] >= outer_end.get(nid, 0)
                if outer:
                    outer_end[nid] = end[i]
                calls, busy, selfs = times.get(names[nid], (0, 0, 0))
                times[names[nid]] = (calls + 1, busy + (dur if outer else 0), selfs + own)
                module = module_of[nid]
                outer = start[i] >= module_end.get(module, 0)
                if outer:
                    module_end[module] = end[i]
                busy, selfs = modules.get(module, (0, 0))
                modules[module] = (busy + (dur if outer else 0), selfs + own)
        pass_ns = end[pass_index] - start[pass_index]
        return {
            "times": times,
            "modules": modules,
            "op_ns": op_ns,
            "op_self_ns": op_self_ns,
            "op_layers_self_ns": op_layers_ns,
            "pass_ns": pass_ns,
            "pass_self_ns": pass_ns - child_ns.get(pass_index, 0),
        }

    def write(self, path: str) -> None:
        """Write every span as gzip-compressed columnar JSON."""
        payload = {
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "names": self.names,
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class _Span:
    __slots__ = ("tracer", "name_id", "index")

    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id
        self.index = -1

    def __enter__(self):
        self.index = self.tracer.open(self.name_id)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.index)
        return False
