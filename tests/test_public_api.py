"""picod.__all__ names each name that the package's __init__ imports, once.

A removal that leaves its name in __all__ (or an import that never reaches
__all__) fails here instead of at a user's `from picod import *`.
"""

import ast
from pathlib import Path

import picod

INIT = Path(__file__).resolve().parents[1] / "src" / "picod" / "__init__.py"


def imported_names(source):
    """Every name bound by a top-level relative import of the source."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found.extend(a.asname or a.name for a in node.names)
    return found


def test_detects_relative_imports_only():
    src = "import json\nfrom typing import Any\nfrom .a import x, y as z\nfrom . import b\n"
    assert imported_names(src) == ["x", "z", "b"]


def test_all_has_no_duplicate():
    dupes = sorted({name for name in picod.__all__ if picod.__all__.count(name) > 1})
    assert not dupes, f"picod.__all__ repeats {dupes}"


def test_all_matches_imports():
    imported = set(imported_names(INIT.read_text()))
    listed = set(picod.__all__)
    assert listed - imported == set(), "in __all__ but not imported"
    assert imported - listed == set(), "imported but not in __all__"
