"""Every error the package raises is one the CLI maps to an exit code.

An AST scan of ``src/lenspec/*.py``.  The class of each ``raise X(...)``
must be InputError, NumericError or ResourceCapError of ``lenspec.errors``,
or a subclass of one: ``cli.main`` turns those into exit 2 or 3, and any
other error escapes it as a traceback with exit 1, the code of a certified
violation.  ``ALLOWED`` lists the other raises, each with where it may
stand.
"""

import ast
import inspect
from pathlib import Path

import pytest

from lenspec import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "lenspec"

KINDS = (errors.InputError, errors.NumericError, errors.ResourceCapError)

# (class, enclosing function or None for anywhere) of the raises that are
# not one of KINDS: abstract methods, ClassCodes.rep's index past the
# classes, as a sequence raises it, and the package's module __getattr__
# for a name it lacks, as PEP 562 requires
ALLOWED = {
    ("NotImplementedError", None),
    ("IndexError", "ClassCodes.rep"),
    ("AttributeError", "__getattr__"),
}


def _raises(node, scope=""):
    """(enclosing qualified name, Raise node) of every raise under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield from _raises(child, f"{scope}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            yield scope, child
        yield from _raises(child, scope)


def _raised_name(exc) -> str:
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)


def _bad_raises(tree: ast.Module) -> list:
    """(line, class name) of every raise that is neither one of KINDS nor
    a subclass of one, nor ALLOWED where it stands."""
    out = []
    for scope, node in _raises(tree):
        name = _raised_name(node.exc)
        cls = getattr(errors, name, None)
        if inspect.isclass(cls) and issubclass(cls, KINDS):
            continue
        if (name, None) in ALLOWED or (name, scope) in ALLOWED:
            continue
        out.append((node.lineno, name))
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_raise_maps_to_an_exit_code(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _bad_raises(tree) == []


def test_the_scan_sees_a_bad_raise():
    tree = ast.parse(
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError('x')\n"
        "    raise errors.NumericError('y')\n"
        "class C:\n"
        "    def rep(self):\n"
        "        raise IndexError\n"
        "    def g(self):\n"
        "        raise NotImplementedError\n"
        "class ClassCodes:\n"
        "    def rep(self):\n"
        "        raise IndexError('z')\n"
        "    def h(self):\n"
        "        raise InputError('w') from None\n")
    assert _bad_raises(tree) == [(3, "ValueError"), (7, "IndexError")]
