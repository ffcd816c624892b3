"""The imports of the package: every one used, and no private name shared
across modules without a listed reason.

AST scans of ``src/lenspec/*.py``.  A name bound by a module-level
``import`` or ``from ... import`` must be read somewhere in the module or
be listed in its ``__all__`` (a re-export); the tests and demos are held
to the same rule.  Only the package's ``__init__`` re-exports: every other
module's ``__all__`` lists names it defines.  A ``from ... import`` of a
name with a leading underscore from another module of the package must
come from ``words`` (the word arithmetic every layer builds on) or be
listed in ``PRIVATE_IMPORTS``.  A module-level private definition
(function, class or constant) must be read somewhere in the package.  Only
the verdict rule (``VERDICT_OWNERS``) may give a verdict of "violated",
and no comparison adds a tolerance to, or takes it from, a side: a value
meets a tolerance as the verdict rule does, the difference first.
"""

import ast
import importlib
from pathlib import Path

import pytest

import lenspec

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lenspec"
# the package's modules by file name, the tests and demos by folder/name
SCANNED = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "tests").glob("*.py")),
           *sorted((ROOT / "demos").glob("*.py"))]


def _imported_and_exported(tree: ast.Module) -> tuple:
    """(name -> line of each name a module-level import binds, the names
    of the module's ``__all__``)."""
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
    return imported, exported


def _unused_imports(tree: ast.Module) -> list:
    imported, exported = _imported_and_exported(tree)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name not in exported)


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: (
    p.name if p.parent == SRC else f"{p.parent.name}/{p.name}"))
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\n"
                     "__all__ = ['sep']\nprint(math.pi)\n")
    assert _unused_imports(tree) == [(2, "path")]


# (importing module, source module, name): the private names a module may
# import from another besides those of words.  The JSR levels read sigma_1
# and lambda_1 through the 2x2 closed forms the class lengths and the gap
# certificate use, so that one formula owns each quantity.  The bounds
# read exact values by the one type test that brackets use.
PRIVATE_IMPORTS = {
    ("bounds", "actions", "_EXACT"),
    ("jsl", "spaces", "_batch_lambda1"),
    ("jsl", "spaces", "_batch_svals"),
}


def _package_imports(tree: ast.Module) -> list:
    """(line, source module, name) of every name a ``from ... import``
    anywhere in the module takes from a module of the package."""
    return [(node.lineno, node.module.rsplit(".", 1)[-1], alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and (node.level > 0 or node.module.startswith("lenspec."))
            for alias in node.names]


def _private_imports(tree: ast.Module, module: str) -> list:
    """(line, source module, name) of every import of an underscore name
    from another module of the package that is not allowed."""
    return [(line, source, name) for line, source, name in _package_imports(tree)
            if name.startswith("_") and source not in ("words", module)
            and (module, source, name) not in PRIVATE_IMPORTS]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_cross_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _private_imports(tree, path.stem) == []


def test_the_scan_sees_a_private_import():
    tree = ast.parse("from .jsl import _peeled_length, bf_upper\n"
                     "from .words import _as_words\n"
                     "from .spaces import _batch_svals\n"
                     "def f():\n    from lenspec.spaces import _joined\n")
    assert _private_imports(tree, "bounds") == [(1, "jsl", "_peeled_length"),
                                                (3, "spaces", "_batch_svals"),
                                                (5, "spaces", "_joined")]
    assert _private_imports(tree, "jsl") == [(5, "spaces", "_joined")]


def _stale_exceptions(trees: dict) -> list:
    """The entries of PRIVATE_IMPORTS whose module, in ``trees`` (name ->
    AST), no longer imports the name from the source."""
    imported = {(module, source, name) for module, tree in trees.items()
                for _, source, name in _package_imports(tree)}
    return sorted(PRIVATE_IMPORTS - imported)


def test_every_private_import_exception_is_used():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    assert _stale_exceptions(trees) == []


def test_the_scan_sees_a_stale_exception():
    trees = {"bounds": ast.parse("from .actions import _EXACT\n"),
             "jsl": ast.parse("def f():\n    from .spaces import _batch_svals\n"),
             "cli": ast.parse("from .spaces import _batch_lambda1\n")}
    assert _stale_exceptions(trees) == [("jsl", "spaces", "_batch_lambda1")]


def _orphans(trees: dict) -> list:
    """(module, line, name) of every module-level private function, class
    or constant of the modules ``trees`` (name -> AST) that none of them
    reads, by name or as an attribute."""
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            out += [(module, node.lineno, name) for name in names
                    if name.startswith("_") and not name.startswith("__")
                    and name not in read]
    return sorted(out)


def test_no_orphaned_private_definitions():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    assert _orphans(trees) == []


def test_the_scan_sees_an_orphaned_private_definition():
    trees = {"a": ast.parse("import b\n_K, _L = 1, 2\n_M: int = 3\n"
                            "def _f():\n    return _g()\n"
                            "def _g():\n    return b._h\nclass _C:\n    pass\n"),
             "b": ast.parse("def _h():\n    pass\nprint(_K)\n")}
    assert _orphans(trees) == [("a", 2, "_L"), ("a", 3, "_M"), ("a", 4, "_f"),
                               ("a", 8, "_C")]


# the functions that may give a verdict of "violated": the one rule every
# comparison of a value with a bound decides by
VERDICT_OWNERS = {"verdict_of"}


def _outside_comparisons(node):
    """``node`` and its subexpressions, less those inside a comparison."""
    if not isinstance(node, ast.Compare):
        yield node
        for child in ast.iter_child_nodes(node):
            yield from _outside_comparisons(child)


def _violated_writers(tree: ast.Module) -> list:
    """(line, function) of every return, assignment or conditional
    expression in a function outside ``VERDICT_OWNERS`` whose value names
    VIOLATED or the literal "violated" other than inside a comparison.  A
    nested function's hit counts for it and for each function around it."""
    out = set()
    for fn in ast.walk(tree):
        if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                or fn.name in VERDICT_OWNERS):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.IfExp):
                values = [node.body, node.orelse]
            elif isinstance(node, (ast.Return, ast.Assign, ast.AnnAssign,
                                   ast.AugAssign)) and node.value:
                values = [node.value]
            else:
                continue
            for v in values:
                out.update((n.lineno, fn.name) for n in _outside_comparisons(v)
                           if (isinstance(n, ast.Name) and n.id == "VIOLATED")
                           or (isinstance(n, ast.Constant)
                               and n.value == "violated"))
    return sorted(out)


def test_only_the_verdict_rule_gives_violated():
    assert [] == [(p.name, *hit) for p in sorted(SRC.glob("*.py"))
                  for hit in _violated_writers(ast.parse(p.read_text()))]


def test_the_scan_sees_a_violated_verdict():
    tree = ast.parse("RANK = {VIOLATED: 3}\n"
                     "def f(x):\n    return VIOLATED\n"
                     "def g(x):\n    v = {'verdict': 'violated'}\n"
                     "    print(HOLDS if x else VIOLATED)\n"
                     "    return 1 if x == VIOLATED else 0\n"
                     "def verdict_of(x):\n    return VIOLATED\n"
                     "def h(x):\n    def k():\n        return VIOLATED\n"
                     "    return 'violated' in x\n")
    assert _violated_writers(tree) == [(3, "f"), (5, "g"), (6, "g"),
                                       (12, "h"), (12, "k")]


def _is_tolerance(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "tol")
            or (isinstance(node, ast.Attribute) and node.attr == "tolerance"))


def _shifted_by_tolerance(tree: ast.Module) -> list:
    """The lines of every comparison one of whose sides adds the name
    ``tol`` or an attribute ``.tolerance`` to something, or subtracts it:
    ``x > bound + tol`` rounds an exact bound to a float before comparing,
    where ``x - bound > tol`` does not."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Compare)
                   for side in (node.left, *node.comparators)
                   for n in ast.walk(side)
                   if isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Add, ast.Sub))
                   and (_is_tolerance(n.left) or _is_tolerance(n.right))})


def test_no_comparison_shifts_a_side_by_the_tolerance():
    assert [] == [(p.name, line) for p in sorted(SRC.glob("*.py"))
                  for line in _shifted_by_tolerance(ast.parse(p.read_text()))]


def test_the_scan_sees_a_side_shifted_by_the_tolerance():
    tree = ast.parse("ok = x <= bound + tol\n"
                     "ok = x - bound <= tol\n"
                     "ok = lo - cfg.tolerance < v < 2 * (hi + tol)\n"
                     "ok = x - tol_max <= bound\n"
                     "y = bound + tol\n"
                     "ok = f(x) > hi + self.tolerance\n")
    assert _shifted_by_tolerance(tree) == [1, 3, 6]


def _exported(module) -> set:
    """A module's ``__all__``, or, where it has none, its public names
    (what ``from module import *`` binds)."""
    if hasattr(module, "__all__"):
        return set(module.__all__)
    return {n for n in vars(module) if not n.startswith("_")}


def test_top_level_exports_are_exported_by_their_modules():
    # every name lenspec re-exports is in the __all__ of the module of the
    # package that defines it (a constant: the module whose namespace
    # holds that object)
    modules = [importlib.import_module(f"lenspec.{p.stem}")
               for p in sorted(SRC.glob("*.py"))
               if p.stem not in ("__init__", "__main__")]
    missing = []
    for name in lenspec.__all__:
        if name == "__version__":
            continue
        obj = getattr(lenspec, name)
        home = getattr(obj, "__module__", None)
        if home is None or not home.startswith("lenspec."):
            home = next(m.__name__ for m in modules if vars(m).get(name) is obj)
        if name not in _exported(importlib.import_module(home)):
            missing.append((name, home))
    assert missing == []


def _reexports(tree: ast.Module) -> list:
    """(line, name) of every name a module-level import binds that the
    module also lists in its ``__all__``."""
    imported, exported = _imported_and_exported(tree)
    return sorted((imported[name], name) for name in exported & imported.keys())


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.stem != "__init__"], ids=lambda p: p.name)
def test_each_public_name_has_one_home(path):
    # only the package's __init__ re-exports: every other module lists in
    # its __all__ the names it defines
    assert _reexports(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_scan_sees_a_reexport():
    tree = ast.parse("from .actions import HOLDS, exact_div\nimport math\n"
                     "__all__ = ['HOLDS', 'math', 'f']\ndef f():\n    pass\n")
    assert _reexports(tree) == [(1, "HOLDS"), (2, "math")]
