"""Checks on the library source as a whole."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spexlab"


def _names(tree: ast.AST):
    """Every name and attribute that ``tree`` reads or writes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _private_names(node: ast.stmt) -> list[str]:
    """The underscore names, dunders aside, that a top-level statement
    defines: a function, a class or a constant."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_function_and_class_is_used():
    """An underscore-named top-level function, class or constant that no
    code in the package names outside its own definition is dead, as a
    helper or a budget left behind when its only reader is merged away
    would be."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    defs = Counter()
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _private_names(node):
                defs[name] += 1
                if uses[name] == sum(n == name for n in _names(node)):
                    orphans.append(f"{module}:{name}")
    assert orphans == []
    # one definition per name, so a use in one module cannot stand in for
    # the missing use of a namesake in another
    assert [name for name, k in defs.items() if k > 1] == []
