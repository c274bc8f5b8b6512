"""The package holds the engine only: every public module-level function,
class or UPPER_CASE constant, and every public method, of `src/raagdim` and
`scripts/` is read somewhere in `src/` or `scripts/`, as a name, an
attribute or an import (a constant read in its own module counts).  API
that only the tests read belongs in the tests' oracles.  Methods are
matched by their bare attribute name."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = (os.path.join(ROOT, "src", "raagdim"), os.path.join(ROOT, "scripts"))

# Public names kept although nothing in src/ or scripts/ reads them, each
# with the reason.
ALLOWED = {
    "face_counts": "SimplicialComplex.face_counts is the f-vector of the package's public complex type",
}


def sources():
    for folder in DIRS:
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as handle:
                    yield os.path.relpath(path, ROOT), ast.parse(handle.read(), path)


def constants(tree):
    """The module-level UPPER_CASE names the module assigns."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", None) or [node.target]:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id


def public_definitions(tree):
    """The public module-level functions, classes and constants, and the
    public methods of the module-level classes, as qualified names."""
    for name in constants(tree):
        if not name.startswith("_"):
            yield name, name
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def read_names(path, tree):
    """Every name the module reads: loaded attributes, the names it imports
    (a re-export in `__init__.py` is not a read), and the bare names it
    loads that it defines or imports by name (a local variable that shares
    a public name elsewhere is not a read of it)."""
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    own = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    own.update(constants(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in imported | own:
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
    if os.path.basename(path) != "__init__.py":
        yield from imported


def test_every_public_name_of_the_package_and_scripts_is_read_there():
    defined, read = [], set()
    for path, tree in sources():
        defined += [(path, qualname, name) for qualname, name in public_definitions(tree)]
        read.update(read_names(path, tree))
    assert {name for _path, _qualname, name in defined} >= set(ALLOWED)
    unread = [f"{path}: {qualname}" for path, qualname, name in defined if name not in read and name not in ALLOWED]
    assert not unread, "public API that nothing in src/ or scripts/ reads:\n" + "\n".join(unread)
