"""Every top-level import of the package is used.

An AST scan of ``src/lenspec/*.py``: a name bound by a module-level
``import`` or ``from ... import`` must be read somewhere in the module or
be listed in its ``__all__`` (a re-export).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lenspec"


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = {e.value for e in node.value.elts}
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name not in exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\n"
                     "__all__ = ['sep']\nprint(math.pi)\n")
    assert _unused_imports(tree) == [(2, "path")]
