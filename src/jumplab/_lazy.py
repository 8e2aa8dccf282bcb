"""Deferred imports: modules that load on their first use.

``lazy_module("jumplab._lapack")`` returns a module whose code runs on its
first attribute access (the ``importlib.util.LazyLoader`` recipe), so a
command that never factors a matrix never loads scipy's LAPACK wrapper.  Once
loaded it is an ordinary module: an attribute lookup costs what it always
does, and ``setattr`` on it patches the real module.

Users: ``_lapack`` (LU factors and solves) in ``solve`` and ``assumptions``;
scipy.linalg in ``mosco`` (Cholesky, triangular and general solves) and
``assumptions`` (eigh); scipy.special in ``kernels``; and ``cli``, whose
references to the package's ``algebra``, ``assumptions``, ``estimates``,
``mosco`` and ``solve`` load each module on the first runner that calls
into it.
"""
from __future__ import annotations

import importlib.util
import sys


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
