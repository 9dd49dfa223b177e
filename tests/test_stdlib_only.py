"""The package imports nothing outside the standard library and parses on
the oldest Python that `pyproject.toml` admits."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SOURCES = sorted((SRC / "picod").glob("*.py"))


def test_sources_found():
    assert any(path.name == "verifier.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    outside = sorted({n.split(".")[0] for n in names} - sys.stdlib_module_names)
    assert not outside, f"{path.name} imports non-stdlib modules {outside}"


def test_import_starts_no_process_machinery():
    # a process pool import would cost every command its startup time
    code = (
        "import sys, picod; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


def _oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_oldest_python_is_three_ten():
    assert _oldest_python() == (3, 10)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_on_oldest_python(path):
    # rejects syntax newer than requires-python, such as `except*` (3.11)
    # or `type` aliases and generic classes (3.12)
    ast.parse(path.read_text(), filename=str(path), feature_version=_oldest_python())


@pytest.mark.parametrize(
    "snippet,since",
    [
        ("try:\n    pass\nexcept* ValueError:\n    pass\n", (3, 11)),
        ("type Rows = tuple[int, ...]\n", (3, 12)),
        ("class Box[T]:\n    pass\n", (3, 12)),
    ],
    ids=["except-star", "type-alias", "generic-class"],
)
def test_oldest_python_check_rejects_newer_syntax(snippet, since):
    if sys.version_info >= since:
        ast.parse(snippet)  # the snippet is valid where its syntax exists
    with pytest.raises(SyntaxError):
        ast.parse(snippet, feature_version=_oldest_python())
