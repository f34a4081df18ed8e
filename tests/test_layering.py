"""Imports inside the package run one way: each module imports only from
modules on a lower layer of gf -> matroid -> uniformity/iso -> catalog ->
search -> verify -> cli.  The package __init__ re-exports from all of them
and is not layered."""

from __future__ import annotations

import ast
from pathlib import Path

LAYERS = {"gf": 0, "matroid": 1, "uniformity": 2, "iso": 2, "catalog": 3,
          "search": 4, "verify": 5, "cli": 6}

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "matroidkit"


def relative_imports(path):
    """(line, module) for every `from .x import` and `from . import x` in the
    file, including imports inside functions."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                for alias in node.names:
                    yield node.lineno, alias.name
            else:
                yield node.lineno, node.module.split(".")[0]


def test_imports_run_down_the_layers():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert {p.stem for p in modules} == set(LAYERS)
    upward = [f"{path.name}:{line} imports {target}"
              for path in modules
              for line, target in relative_imports(path)
              if LAYERS[target] >= LAYERS[path.stem]]
    assert upward == []


def imports_random(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "random" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "random":
                return True
    return False


def test_only_verify_imports_random():
    # verify needs random for its seeded corpus; anywhere else it would mean
    # a sampled certificate in place of an exact one
    assert [p.stem for p in sorted(PACKAGE.glob("*.py")) if imports_random(p)] == ["verify"]


# Public names kept for callers outside the package: tests swap in a
# rank-table backend with as_rank_table.
UNCALLED_OK = {"as_rank_table"}


def test_every_public_name_has_a_caller():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    uses = {}  # name -> ids of the Name/Attribute nodes that use it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, set()).add(id(node))
    defs = []  # (where, definition node)
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{stem}.{node.name}.{item.name}", item) for item in node.body
                         if isinstance(item, ast.FunctionDef)]
    uncalled = []
    for where, node in defs:
        name = node.name
        if name.startswith("_") or name in UNCALLED_OK:
            continue
        inside = {id(sub) for sub in ast.walk(node)}
        if not uses.get(name, set()) - inside:
            uncalled.append(where)
    assert uncalled == []


def test_no_assert_statements():
    # invariant checks raise errors, so they still run under python -O
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


REPRESENTATIONS = {"LinearRep", "RankTableRep", "GraphicRep", "GraftRep", "_GraphRep",
                   "to_linear"}


def test_only_matroid_names_a_representation():
    # callers ask a Matroid, never which backend it has: the representation
    # classes and to_linear are a detail of matroid.py
    def names(node):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name

    found = [f"{path.name}:{node.lineno} {name}"
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "matroid"
             for node in ast.walk(ast.parse(path.read_text()))
             for name in names(node) if name in REPRESENTATIONS]
    assert found == []
