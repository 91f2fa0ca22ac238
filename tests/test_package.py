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


def test_every_private_function_and_class_is_used():
    """An underscore-named top-level function or class that no code in the
    package names outside its own definition is dead, as a helper left
    behind when its only caller is merged away would be."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    defs = Counter()
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defs[node.name] += 1
                if uses[node.name] == sum(name == node.name for name in _names(node)):
                    orphans.append(f"{module}:{node.name}")
    assert orphans == []
    # one definition per name, so a use in one module cannot stand in for
    # the missing use of a namesake in another
    assert [name for name, k in defs.items() if k > 1] == []
