"""Deferred imports: modules that load on their first use.

``lazy_module("jumplab._lapack")`` returns a module whose code runs on its
first attribute access (the ``importlib.util.LazyLoader`` recipe), so a
command that never factors a matrix or normalises a stable kernel never loads
scipy's compiled routines.  Once
loaded it is an ordinary module: an attribute lookup costs what it always
does, and ``setattr`` on it patches the real module.

Users: ``_lapack`` in ``solve`` (LU factors and solves), ``assumptions``
(LU factors and solves, and the Cholesky factor and triangular solves of its
eigenvalue pencil), ``mosco`` (Cholesky and triangular solves) and
``kernels`` (``gamma``); and ``cli``, whose references to the package's
``algebra``, ``assumptions``, ``estimates``, ``mosco`` and ``solve`` load
each module on the first runner that calls into it.  Only the module itself
waits: finding a submodule imports its parent packages at once, so a lazy
``scipy.linalg`` would import the ``scipy`` package.  ``scipy_path`` locates files of the installed scipy for
``_lapack`` (its compiled modules) and ``cli`` (its ``version.py``) without
importing scipy.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path


def scipy_path(*parts: str) -> Path:
    """The path ``parts`` inside the installed scipy, found without importing scipy."""
    return Path(importlib.util.find_spec("scipy").submodule_search_locations[0], *parts)


def lazy_module(name: str):
    """The module ``name``, loaded on first use unless it is imported already."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module
