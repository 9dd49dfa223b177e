"""Every name a module imports is read somewhere in that module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "picod").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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


def test_detects_unused_names():
    src = (
        "import os, sys as system\nimport a.b\nfrom x import y, z as w\n"
        "from __future__ import annotations\n"
        "def f(v: y):\n    return os.sep\n"
    )
    assert unused_imports(src) == ["a", "system", "w"]


def test_modules_found():
    names = {p.name for p in MODULES}
    assert {"coding.py", "test_coding.py", "util.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
