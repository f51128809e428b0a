"""Modules loaded on first attribute access: numpy for every module, and
the writers and the Monte Carlo engine for ``cli``.

Every module takes ``np`` from here rather than by ``import numpy``, which
would load numpy at once, so a command that never touches an ``np``
attribute (``bound``, ``optimize-alpha``, ``--help``) starts without it.
``lazy_module(name)`` returns the module if it is imported, and otherwise
puts a ``LazyLoader`` module in ``sys.modules`` (where numpy's own
submodules find it) that runs the module on its first attribute access.
On Python 3.11 that first load is not thread-safe: touch the module once
before sharing it between threads.
"""

import importlib.util
import sys


def lazy_module(name: str):
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


np = lazy_module("numpy")
