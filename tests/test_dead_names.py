"""Every function, class and method in the package is used, and so is every
test reference.

Each module under `src/romanenum/` is parsed with `ast`.  Each top-level
function or class in it, and each method whose name is not a dunder, must
be used somewhere in `src/romanenum/` or `perfbench/` outside its own
definition.  A use is a name or an attribute that is read, or a string
constant equal to the name (the benchmark's tracer swaps functions by
name).  Tests do not count: code that only tests call belongs in
`tests/reference.py`, and each name defined there must in turn be used
somewhere under `tests/`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "romanenum"
TESTS = ROOT / "tests"
REFERENCE = TESTS / "reference.py"


def definitions(tree):
    """(name, node) for every top-level function or class and every
    non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item


def used_name(node):
    """The name a node uses, or None."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def dead_names(checked, searched):
    """Names defined in the `checked` trees that no node of the `searched`
    trees uses outside the definition itself."""
    uses = {}  # name -> the nodes using it
    for tree in searched:
        for node in ast.walk(tree):
            name = used_name(node)
            if name is not None:
                uses.setdefault(name, []).append(node)
    dead = []
    for module, tree in checked:
        for name, definition in definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(id(node) not in inside for node in uses.get(name, ())):
                dead.append(f"{module}.{name}")
    return dead


def parsed(directory):
    return {path: ast.parse(path.read_text()) for path in sorted(directory.glob("*.py"))}


def test_every_package_name_is_used():
    package = parsed(PACKAGE)
    searched = list(package.values()) + list(parsed(ROOT / "perfbench").values())
    dead = dead_names([(path.stem, tree) for path, tree in package.items()], searched)
    assert dead == []


def test_every_reference_is_used_by_a_test():
    tests = parsed(TESTS)
    assert dead_names([("reference", tests[REFERENCE])], tests.values()) == []


def test_the_scan_sees_what_it_must():
    defining = ast.parse(
        "def called(): pass\n"
        "def recursive(k): return recursive(k - 1)\n"
        "def swapped(): pass\n"
        "def unused(): pass\n"
        "class Kept:\n"
        "    def __init__(self): pass\n"
        "    def method(self): return self.method\n"
        "    def read(self): pass\n"
    )
    using = ast.parse("called()\nsetattr(m, 'swapped', None)\nKept().read()\nunused = 1\n")
    assert dead_names([("m", defining)], [defining, using]) == [
        "m.recursive",
        "m.unused",
        "m.method",
    ]
