"""What a process loads: ``import lenspec`` imports none of its modules, a
module imports numpy at its first array, and the CLI imports numpy first.

Each load test runs in a fresh interpreter, since this one has imported
everything.  The AST scan keeps the modules that bind numpy lazily from
reading ``np`` at import time (module-level code, class bodies, default
arguments, decorators), which would load numpy there.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import lenspec

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lenspec"


def _fresh(code: str):
    """The JSON value the last line ``code`` prints, run in a new process."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_a_tree_joint_length_loads_no_numpy():
    got = _fresh("""
        import json, sys
        before = "numpy" in sys.modules
        import lenspec
        bare = sorted(m for m in sys.modules if m.startswith("lenspec."))
        from lenspec import TreeModel, Word, joint_stable_profile
        word = Word("abBa")
        prof = joint_stable_profile(TreeModel(2), [Word("ab"), Word("aB"), word],
                                    12, engine="tree-dp")
        print(json.dumps({"before": before, "bare": bare, "word": str(word),
                          "lo": str(prof.bracket.lo),
                          "certified": prof.bracket.certified,
                          "numpy": "numpy" in sys.modules,
                          "bounds": "lenspec.bounds" in sys.modules}))
    """)
    assert got == {"before": False, "bare": [], "word": "aa", "lo": "2",
                   "certified": True, "numpy": False, "bounds": False}


def _binds_np_lazily(tree: ast.Module) -> bool:
    return any(isinstance(n, ast.Assign) and ast.unparse(n) == "np = numpy_for(globals())"
               for n in tree.body)


# the modules of the package that bind np by numpy_for
LAZY = sorted(p.stem for p in SRC.glob("*.py")
              if _binds_np_lazily(ast.parse(p.read_text(), filename=str(p))))


def test_the_lazy_modules_are_the_library():
    assert LAZY == ["actions", "bounds", "jsl", "spaces", "words"]


def test_the_cli_binds_numpy_in_every_module():
    got = _fresh(f"""
        import importlib, json, sys
        import lenspec.cli
        import numpy
        print(json.dumps({{m: importlib.import_module("lenspec." + m).np is numpy
                           for m in {LAZY!r}}}))
    """)
    assert got == {m: True for m in LAZY}


def test_the_stand_in_rebinds_np_on_first_use():
    got = _fresh("""
        import json, sys
        from lenspec import words
        stand_in = type(words.np).__name__
        loaded = "numpy" in sys.modules
        zeros = words.np.zeros(2).tolist()
        print(json.dumps([stand_in, loaded, zeros,
                          words.np is sys.modules["numpy"]]))
    """)
    assert got == ["_Numpy", False, [0.0, 0.0], True]


def test_every_exported_name_is_its_modules_object():
    got = _fresh("""
        import importlib, json
        import lenspec
        wrong = [name for module, names in lenspec._EXPORTS.items()
                 for name in names
                 if getattr(lenspec, name)
                 is not vars(importlib.import_module("lenspec." + module))[name]]
        names = sorted(n for ns in lenspec._EXPORTS.values() for n in ns)
        print(json.dumps([wrong, names, sorted(lenspec.__all__), dir(lenspec)]))
    """)
    wrong, names, public, listed = got
    assert wrong == []
    assert public == sorted([*names, "__version__"]) == listed
    assert len(set(names)) == len(names)


def test_a_name_the_package_lacks():
    with pytest.raises(ImportError):
        from lenspec import nope  # noqa: F401
    with pytest.raises(AttributeError):
        lenspec.nope
    got = _fresh("""
        import json
        namespace = {}
        exec("from lenspec import *", namespace)
        print(json.dumps(sorted(n for n in namespace if n != "__builtins__")))
    """)
    assert got == sorted(lenspec.__all__)


def _eager_np_reads(tree: ast.Module) -> list:
    """The lines where a module reads the name ``np`` at import time: in
    module-level code, a class body, a default argument, a decorator or
    base, or, without ``from __future__ import annotations``, an
    annotation.  Function bodies run later and are skipped."""
    lazy_annotations = any(isinstance(n, ast.ImportFrom) and n.module == "__future__"
                           and any(a.name == "annotations" for a in n.names)
                           for n in tree.body)
    hits = []

    def scan(node):
        if isinstance(node, ast.Name) and node.id == "np" and isinstance(node.ctx, ast.Load):
            hits.append(node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            for d in [*args.defaults, *args.kw_defaults]:
                if d is not None:
                    scan(d)
            if not isinstance(node, ast.Lambda):
                for d in node.decorator_list:
                    scan(d)
                if not lazy_annotations:
                    for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                              args.vararg, args.kwarg]:
                        if a is not None and a.annotation is not None:
                            scan(a.annotation)
                    if node.returns is not None:
                        scan(node.returns)
        elif isinstance(node, ast.AnnAssign):
            if not lazy_annotations:
                scan(node.annotation)
            if node.value is not None:
                scan(node.value)
        else:
            for child in ast.iter_child_nodes(node):
                scan(child)

    scan(tree)
    return sorted(hits)


@pytest.mark.parametrize("module", LAZY)
def test_no_module_reads_np_at_import(module):
    path = SRC / f"{module}.py"
    assert _eager_np_reads(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_scan_sees_an_eager_np_read():
    source = ("np = numpy_for(globals())\n"
              "X = np.int64\n"
              "def f(a: np.ndarray, b=np.float64, *, c=None) -> np.ndarray:\n"
              "    return np.zeros(a)\n"
              "@np.vectorize\n"
              "def g():\n"
              "    pass\n"
              "class C(np.ndarray):\n"
              "    y: np.ndarray = np.empty(0)\n"
              "    def h(self, d=np.inf):\n"
              "        return np.ones(1)\n"
              "k = lambda e=np.pi: np.e\n")
    assert _eager_np_reads(ast.parse(source)) == [2, 3, 3, 3, 5, 8, 9, 9, 10, 12]
    lazy = ast.parse("from __future__ import annotations\n" + source)
    assert _eager_np_reads(lazy) == [3, 4, 6, 9, 10, 11, 13]
