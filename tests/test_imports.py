"""Every name a troprr module imports with ``from ... import`` is used in the
module, and every private helper the package defines is used in the
package. Standard library only: the modules are parsed, not imported."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "troprr"


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


def unreferenced_private_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` functions and single-underscore methods that no
    name or attribute anywhere in the given sources refers to."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    defined = []
    for name, tree in trees.items():
        for node in tree.body:
            functions = [node] if isinstance(node, ast.FunctionDef) else (
                [f for f in node.body if isinstance(f, ast.FunctionDef)]
                if isinstance(node, ast.ClassDef) else [])
            defined += [f"{name}:{f.name}" for f in functions
                        if f.name.startswith("_") and not f.name.startswith("__")]
    return [d for d in defined if d.split(":")[1] not in used]


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
