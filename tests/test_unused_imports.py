"""Every name a module of the package or of the tests imports is used in
that module.

No linter ships with the test dependencies, so this parses each module of
`src/exactq` and of `tests` with `ast`. The package's `__init__.py` is left
out: it imports names to re-export them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import exactq

PACKAGE = sorted(p for p in Path(exactq.__file__).resolve().parent.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", PACKAGE + TESTS, ids=[p.name for p in PACKAGE] + [f"tests/{p.name}" for p in TESTS])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_sees_an_unused_import():
    source = "from os import path, sep\nimport numpy as np\nprint(sep)\n"
    assert unused_imports(source) == ["line 1: path", "line 2: np"]
