"""Every name a troprr module imports with ``from ... import`` is used in the
module, every private helper the package defines is used in the package,
and every public function is used in the package, its tests, demos or
benchmark. Standard library only: the modules are parsed, not imported."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "troprr"


def unused_from_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = [alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "from a import b, c as d\nfrom . import e\n"
              "def f(x: b) -> None:\n    return e.g\n")
    assert unused_from_imports(source) == ["d"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    assert unused_from_imports(path.read_text()) == []


def referenced_names(sources) -> tuple[set[str], set[str]]:
    """(names, attributes) in the given sources: every bare name, imported
    name and attribute of an imported troprr module; and every attribute."""
    names, attributes = set(), set()
    for source in sources:
        tree = ast.parse(source)
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(alias.asname or alias.name for alias in node.names
                               if alias.name.startswith("troprr."))
            elif isinstance(node, ast.ImportFrom) and (
                    node.module == "troprr" or node.level and not node.module):
                modules.update(alias.asname or alias.name for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if ast.unparse(node.value) in modules:
                    names.add(node.attr)
    return names, attributes


def defined_functions(sources: dict[str, str]) -> list[tuple[str, str, bool]]:
    """(module, name, is a method) for each module-level function and
    method."""
    defined = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                defined.append((module, node.name, False))
            elif isinstance(node, ast.ClassDef):
                defined += [(module, f.name, True) for f in node.body
                            if isinstance(f, ast.FunctionDef)]
    return defined


def unreferenced_private_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` functions and single-underscore methods that
    nothing in the given sources refers to: a method by no attribute of its
    name, a function by no bare name, import or troprr-module attribute."""
    names, attributes = referenced_names(sources.values())
    return [f"{module}:{name}" for module, name, method in defined_functions(sources)
            if name.startswith("_") and not name.startswith("__")
            and name not in names and not (method and name in attributes)]


def test_the_helper_check_sees_unreferenced_private_helpers():
    sources = {"a": "def _used():\n    pass\ndef _dead():\n    pass\n"
                    "def public():\n    pass\n",
               "b": "from a import _used\nclass C:\n    def __init__(self):\n"
                    "        self._ok()\n    def _ok(self):\n        pass\n"
                    "    def _gone(self):\n        pass\n"}
    assert unreferenced_private_helpers(sources) == ["a:_dead", "b:_gone"]


def test_every_private_helper_is_referenced_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_helpers(sources) == []


def unreferenced_public_functions(sources: dict[str, str], users: list[str]) -> list[str]:
    """Public module-level functions and methods of the given sources that
    nothing in the sources or in the user code refers to, as for
    ``unreferenced_private_helpers``."""
    names, attributes = referenced_names([*sources.values(), *users])
    return [f"{module}:{name}" for module, name, method in defined_functions(sources)
            if not name.startswith("_")
            and name not in names and not (method and name in attributes)]


def test_the_public_function_check_sees_unreferenced_functions():
    sources = {"a": "def called():\n    pass\ndef dead():\n    pass\n"
                    "def _private():\n    pass\n",
               "b": "class C:\n    def __init__(self):\n        pass\n"
                    "    def method(self):\n        pass\n"
                    "    def unused(self):\n        pass\n"
                    "    @property\n    def size(self):\n        return 0\n"}
    users = ["from a import called\ncalled()\n", "def f(c):\n    return c.method(), c.size\n"]
    assert unreferenced_public_functions(sources, users) == ["a:dead", "b:unused"]


def test_a_module_function_counts_only_by_name_import_or_module_attribute():
    sources = {"a": "def by_name():\n    pass\ndef by_import():\n    pass\n"
                    "def by_module():\n    pass\ndef by_dotted():\n    pass\n"
                    "def wrapper(p):\n    return p.wrapper()\n"
                    "class P:\n    def wrapper(self):\n        pass\n"}
    users = ["by_name()\n", "from troprr.a import by_import as f\n",
             "from troprr import a as m\nm.by_module()\n",
             "import troprr.a\ntroprr.a.by_dotted()\n",
             "def f(p):\n    return p.wrapper()\n"]
    assert unreferenced_public_functions(sources, users) == ["a:wrapper"]


def test_every_public_function_is_referenced():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    users = [path.read_text() for folder in ("tests", "demos", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert unreferenced_public_functions(sources, users) == []
