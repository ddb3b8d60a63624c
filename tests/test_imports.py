"""Every module of the package uses each name it imports.

Standard library only (ast): a function's own imports must be used inside that
function, a module's top-level imports anywhere in the module.  ``from
__future__`` imports and names listed in ``__all__`` (re-exports) are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "trafficflow"
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_imports(scope):
    """The (bound name, line) pairs of a scope's imports, outside its nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list:
    """Sorted (line, name) of each imported name that its scope never reads."""
    tree = ast.parse(source)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {e.value for e in ast.walk(node.value)
                         if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    unused = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS))]:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        unused += [(line, name) for name, line in _own_imports(scope)
                   if name not in read and not (scope is tree and name in exported)]
    return sorted(unused)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_a_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found_in_its_own_scope():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "from .model import fd_partials, read_stencil\n"
              "__all__ = ['read_stencil']\n"
              "def f(x):\n"
              "    import json\n"
              "    return math.sqrt(x)\n"
              "def g():\n"
              "    return json\n")
    assert unused_imports(source) == [(2, "os"), (3, "fd_partials"), (6, "json")]
