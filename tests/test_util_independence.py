"""The brute-force oracles in tests/util.py stay independent of the package.

They may build an `Instance`, the shared input type, and import nothing
else from picod, so a test never checks a function against itself.
"""

import ast
from pathlib import Path

UTIL = Path(__file__).resolve().parent / "util.py"


def picod_imports(source):
    """Every (module, name) that the source imports from picod."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend((a.name, None) for a in node.names if a.name.split(".")[0] == "picod")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "picod":
            found.extend((node.module, a.name) for a in node.names)
    return found


def test_detects_other_names():
    src = "import picod.bounds\nfrom picod.instance import Instance, build_complete_s\n"
    assert picod_imports(src) == [
        ("picod.bounds", None),
        ("picod.instance", "Instance"),
        ("picod.instance", "build_complete_s"),
    ]


def test_util_imports_only_instance():
    found = picod_imports(UTIL.read_text())
    assert found, "util.py no longer builds instances; update this test"
    extra = [(mod, name) for mod, name in found if name != "Instance"]
    assert not extra, f"tests/util.py imports {extra} from picod"
