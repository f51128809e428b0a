"""numpy for the package's modules, loaded on first attribute access.

Every module takes ``np`` from here rather than by ``import numpy``, which
would load numpy at once, so a command that never touches an ``np``
attribute (``bound``, ``optimize-alpha``, ``--help``) starts without it.
When numpy is already imported, ``np`` is that module; otherwise it is a
``LazyLoader`` module placed in ``sys.modules``, where numpy's own
submodules find it when it loads.  On Python 3.11 that first load is not
thread-safe: touch ``np`` once before sharing it between threads.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
