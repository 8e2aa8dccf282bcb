"""LU factors and solves from scipy's compiled LAPACK wrapper, without scipy.linalg.

Importing scipy.linalg runs its ``__init__``, which also loads scipy's
array-API layer (and with it numpy.f2py and numpy.testing) and costs more than
the factorisations of a stepping command.  This module loads the f2py
extension ``scipy/linalg/_flapack*.so`` by file path instead, so that code
never runs, and registers it as ``scipy.linalg._flapack``: a later ``import
scipy.linalg`` reuses it, and its ``get_lapack_funcs`` hands out this
``getrs``.  A module already registered under that name is reused.
``lu_factor`` and ``lu_solve`` are scipy.linalg's for real double matrices,
with its checks: non-finite input raises ``ValueError``, as does an illegal
LAPACK argument, and an exact zero pivot warns.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy


def _extension(name: str, directory: Path):
    """The compiled module ``name`` loaded from ``directory`` by file path, or
    the one in ``sys.modules``."""
    if name in sys.modules:
        return sys.modules[name]
    stem = name.rpartition(".")[2]
    paths = [directory / (stem + suffix) for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((str(p) for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"no compiled module {name} at {paths[0]}", name=name, path=str(paths[0]))
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    sys.modules[name] = module
    return module


_flapack = _extension("scipy.linalg._flapack", Path(scipy.__file__).parent / "linalg")
getrf, getrs = _flapack.dgetrf, _flapack.dgetrs


def lu_factor(a):
    """(lu, piv) of the pivoted LU factorisation of the square matrix ``a``."""
    lu, piv, info = getrf(np.asarray_chkfinite(a))
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal getrf (lu_factor)")
    if info > 0:
        warnings.warn(f"Diagonal number {info} is exactly zero. Singular matrix.",
                      RuntimeWarning, stacklevel=2)
    return lu, piv


def lu_solve(lu_piv, b):
    """x with a x = b, given ``lu_piv = lu_factor(a)``."""
    lu, piv = lu_piv
    b = np.asarray_chkfinite(b)
    if lu.shape[0] != b.shape[0]:
        raise ValueError(f"Shapes of lu {lu.shape} and b {b.shape} are incompatible")
    x, info = getrs(lu, piv, b)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal getrs (lu_solve)")
    return x
