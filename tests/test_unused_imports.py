"""Every name a module of the package or of the tests imports is used in
that module, every private helper of the package is used somewhere in it,
and every parameter of a function of the package is read in its body.

No linter ships with the test dependencies, so this parses each module of
`src/exactq` and of `tests` with `ast`. The package's `__init__.py` is left
out of the import check: it imports names to re-export them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import exactq

SOURCES = sorted(Path(exactq.__file__).resolve().parent.glob("*.py"))
PACKAGE = [p for p in SOURCES if p.name != "__init__.py"]
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


def unused_private_defs(sources: dict[str, str]) -> list[str]:
    """The module-level private functions and classes of `sources`, a source
    per module name, that no module names as a name or an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees.values() for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    return [f"{module}: {node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__") and node.name not in named]


def test_every_private_helper_is_used():
    assert unused_private_defs({path.name: path.read_text() for path in SOURCES}) == []


def test_the_guard_sees_an_unused_private_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _dead():\n    pass\n\nclass _Gone:\n    pass\n",
        "b.py": "import a\n\na._used()\n",
    }
    assert unused_private_defs(sources) == ["a.py: _dead", "a.py: _Gone"]


def unused_parameters(source: str) -> list[str]:
    """The parameters, `self` and `cls` aside, of every function and lambda
    in `source` that its body never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {name.id for stmt in body for name in ast.walk(stmt)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
            found += [f"line {node.lineno}: {getattr(node, 'name', 'lambda')}({p})" for p in params
                      if p not in read and p not in ("self", "cls")]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_parameter_is_read(path):
    assert unused_parameters(path.read_text()) == []


def test_the_guard_sees_an_unused_parameter():
    source = ("def f(a, b, *, c=1, **rest):\n    b = a\n    return b\n\n"
              "class K:\n    def m(self, x):\n        return lambda y, z: y\n")
    assert unused_parameters(source) == ["line 1: f(c)", "line 1: f(rest)", "line 6: m(x)", "line 7: lambda(z)"]
