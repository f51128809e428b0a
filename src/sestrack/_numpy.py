"""numpy as ``np``, loaded on its first attribute access.

Every module takes ``np`` from here rather than by ``import numpy``, which
would load numpy at once, so a command that never touches an ``np``
attribute (``bound``, ``optimize-alpha``, ``--help``) starts without it.
``np`` is numpy itself if it is already imported, and otherwise a
``LazyLoader`` module put in ``sys.modules`` (where numpy's own submodules
find it) that runs numpy on its first attribute access.  On Python 3.11
that first load is not thread-safe: touch ``np`` once before sharing it
between threads.  The package's own late modules, the writers and the
Monte Carlo engine, are served by the package namespace instead.
"""

import importlib.util
import sys


def _lazy_numpy():
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules["numpy"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


np = sys.modules.get("numpy") or _lazy_numpy()
