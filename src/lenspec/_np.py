"""numpy on first use.

A module of the package binds ``np = numpy_for(globals())`` in place of
``import numpy as np``.  Where numpy is already imported (the CLI imports
it first) that is numpy itself.  Otherwise it is a stand-in whose first
attribute read imports numpy and rebinds the module's ``np`` to it, so a
process that never makes an array never loads numpy, and after the first
use the module reads plain numpy.  No module-level code, default argument
or decorator of such a module may read ``np``.
"""

import sys


class _Numpy:
    __slots__ = ("_globals",)

    def __init__(self, module_globals: dict):
        self._globals = module_globals

    def __getattr__(self, name: str):
        import numpy

        self._globals["np"] = numpy
        return getattr(numpy, name)


def numpy_for(module_globals: dict):
    """numpy where it is imported, else a stand-in for it that rebinds
    ``np`` in ``module_globals`` on first use."""
    return sys.modules.get("numpy") or _Numpy(module_globals)
