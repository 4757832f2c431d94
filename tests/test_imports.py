"""Every name a troprr module imports with ``from ... import`` is used in the
module. Standard library only: the modules are parsed, not imported."""

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
