"""Every imported name is used.

Each module under src/ and tests/ is parsed with `ast`.  An imported name
counts as used when the module reads it (as a name or as the root of an
attribute chain), lists it in `__all__`, or imports it from `__future__`.
Any other unused import must carry `# noqa: F401` on its own line.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []  # (bound name, line of the alias)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((alias.asname or alias.name.split(".")[0], alias.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((alias.asname or alias.name, alias.lineno))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [
        (name, line)
        for name, line in imported
        if name not in used and "# noqa: F401" not in lines[line - 1]
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_what_it_must():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import a.b\n"
        "from x import (\n"
        "    kept,  # noqa: F401\n"
        "    listed,\n"
        "    dropped,\n"
        "    read as alias,\n"
        ")\n"
        "__all__ = ['listed']\n"
        "print(sys.argv, a.b, alias)\n"
    )
    assert unused_imports(source) == [("os", 2), ("dropped", 7)]
