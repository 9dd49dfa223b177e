"""Every name a module imports is read somewhere in that module, and every
private module-level name of the package is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "picod").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source):
    """Names bound by an import in the source and never loaded."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


def private_names(sources):
    """The `_name`s (not dunders) that the sources define at module level,
    and the names they load, as a variable or an attribute."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {n for n in defined if n.startswith("_") and not n.startswith("__")}, read


def dead_private_names(sources):
    """Private module-level names that no source reads."""
    defined, read = private_names(sources)
    return sorted(defined - read)


def test_detects_unused_names():
    src = (
        "import os, sys as system\nimport a.b\nfrom x import y, z as w\n"
        "from __future__ import annotations\n"
        "def f(v: y):\n    return os.sep\n"
    )
    assert unused_imports(src) == ["a", "system", "w"]


def test_detects_dead_private_names():
    sources = [
        "def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\n"
        "_CONST: int = 1\n_LEFT = 2\n__all__ = []\n",
        "from a import _used, _LEFT\nimport a\nprint(_used(), a._CONST)\n",
    ]
    assert dead_private_names(sources) == ["_Gone", "_LEFT", "_dead"]


def test_modules_found():
    names = {p.name for p in MODULES}
    assert {"coding.py", "test_coding.py", "util.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_no_dead_private_name():
    sources = [p.read_text() for p in PACKAGE]
    assert {"_place", "_sizes_arg"} <= private_names(sources)[0]
    assert dead_private_names(sources) == []
