"""scipy's compiled routines without scipy's Python packages.

Importing scipy.linalg or scipy.special runs its ``__init__``, which also loads
scipy's array-API layer (and with it numpy.f2py and numpy.testing) and costs
more than the work of most commands.  This module finds scipy's directory
without importing scipy (``_lazy.scipy_path``) and loads the compiled modules
it needs by file path instead, so that code never runs: the f2py LAPACK
wrapper ``scipy.linalg._flapack`` (getrf, getrs, potrf, trtrs) and
``scipy.special._special_ufuncs``, home of the ``gamma`` ufunc.  Each is
registered under its own name: a later ``import scipy.linalg`` or ``import
scipy.special`` reuses it, so ``get_lapack_funcs`` hands out this ``getrs``
and ``scipy.special.gamma`` is this ``gamma``.  A module already registered
under its name is reused.  An older scipy may keep ``gamma`` elsewhere;
``gamma`` then calls scipy.special.gamma, whose package is imported on its
first call, never when this module loads.

Every routine gives the bits of scipy's public function for real double
matrices, with its checks: non-finite input raises ``ValueError``, as does an
illegal LAPACK argument.  ``lu_factor`` warns on an exact zero pivot;
``cholesky`` raises ``LinAlgError`` on a matrix that is not positive definite
and ``solve_lower`` on a singular one.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError

from ._lazy import scipy_path


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


_flapack = _extension("scipy.linalg._flapack", scipy_path("linalg"))
getrf, getrs, potrf, trtrs = _flapack.dgetrf, _flapack.dgetrs, _flapack.dpotrf, _flapack.dtrtrs

try:
    gamma = _extension("scipy.special._special_ufuncs", scipy_path("special")).gamma
except (ImportError, AttributeError):   # an older scipy: no such module, or gamma elsewhere
    def gamma(x):
        """scipy.special.gamma(x), its package imported on the first call."""
        from scipy.special import gamma as public
        return public(x)


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


def cholesky(a):
    """The lower Cholesky factor L of the symmetric positive definite ``a`` = L L^T."""
    c, info = potrf(np.asarray_chkfinite(a), lower=1, clean=1)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f'LAPACK reported an illegal value in {-info}-th argument on entry '
                         f'to "POTRF".')
    return c


def solve_lower(L, b):
    """x with L x = b for a lower triangular ``L`` as ``cholesky`` returns it."""
    x, info = trtrs(L, np.asarray_chkfinite(b), lower=1)
    if info > 0:
        raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x
