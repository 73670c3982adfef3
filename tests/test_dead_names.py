"""Every private module-level name of the package is read somewhere in
it, and every method of its classes somewhere in the project.

A constant or helper that no code reads is dead weight: it has to be
kept correct, yet nothing would notice if it were wrong.  The check is
by AST over the package sources, so tests reading a name do not count.
A method or property is public API, so there tests and the benchmark
count as readers too; one that nothing in ``src/``, ``tests/`` or
``bench/`` reads is dead all the same.
"""

from __future__ import annotations

import ast
from pathlib import Path

import curvedkepler

SOURCES = sorted(Path(curvedkepler.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
READERS = SOURCES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module):
    """Private names bound at module level: assignments, defs and classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name) and _private(leaf.id):
                    yield leaf.id


def _read(tree: ast.Module):
    """Names loaded anywhere, as a bare name or as a module attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_private_module_level_name_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    read = {name for tree in trees.values() for name in _read(tree)}
    dead = sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _defined(tree)
        if name not in read
    )
    assert dead == []


def _methods(tree: ast.Module):
    """(class, name) of each non-dunder method or property of a class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield node.name, item.name


def test_every_method_is_read():
    read = {
        name for path in READERS for name in _read(ast.parse(path.read_text(encoding="utf-8")))
    }
    dead = sorted(
        f"{path.name}:{cls}.{name}"
        for path in SOURCES
        for cls, name in _methods(ast.parse(path.read_text(encoding="utf-8")))
        if name not in read
    )
    assert dead == []
