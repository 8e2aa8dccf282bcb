"""``_lapack``: scipy's compiled routines loaded without scipy's Python
packages (LAPACK's getrf/getrs/potrf/trtrs and the gamma ufunc) give scipy's
factors, solves and values bit for bit, and are shared with scipy.linalg and
scipy.special once those are imported."""
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special

import jumplab
from jumplab import _lapack, build_grid, mosco

SRC = Path(jumplab.__file__).resolve().parent.parent
# gamma's compiled module, loaded by path; an older scipy may lack it, and
# _lapack then calls scipy.special.gamma
GAMMA_BY_PATH = isinstance(_lapack.gamma, np.ufunc)


@pytest.mark.parametrize("n", [192, 1804])
def test_factors_and_solves_equal_scipy_linalg_bit_for_bit(n):
    rng = np.random.default_rng(n)
    M = np.eye(n) + rng.normal(size=(n, n)) / np.sqrt(n)   # nonsymmetric
    b = rng.normal(size=n)
    lu, piv = _lapack.lu_factor(M)
    ref_lu, ref_piv = scipy.linalg.lu_factor(M)
    assert np.array_equal(lu, ref_lu) and np.array_equal(piv, ref_piv)
    assert piv.dtype == ref_piv.dtype
    x = _lapack.lu_solve((lu, piv), b)
    assert np.array_equal(x, scipy.linalg.lu_solve((ref_lu, ref_piv), b))
    (getrs,) = scipy.linalg.get_lapack_funcs(("getrs",), (M,))
    assert np.array_equal(_lapack.getrs(lu, piv, b)[0], getrs(ref_lu, ref_piv, b)[0])
    assert np.array_equal(_lapack.getrs(lu, piv, b)[0], x)


def test_scipy_linalg_hands_out_the_same_getrs():
    M = np.eye(3)
    assert scipy.linalg.get_lapack_funcs(("getrs",), (M,))[0] is _lapack.getrs
    assert scipy.linalg.get_lapack_funcs(("getrf",), (M,))[0] is _lapack.getrf


_AFTER = """
import sys
import numpy as np
from jumplab import _lapack
assert not {"scipy", "scipy.linalg", "scipy.special"} & set(sys.modules)
import scipy.special
assert scipy.special.gamma is _lapack.gamma or not isinstance(_lapack.gamma, np.ufunc)
import scipy.linalg as sla
assert sla.get_lapack_funcs(("potrf",), (np.eye(2),))[0] is _lapack.potrf
M = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
b = np.array([1.0, -2.0, 0.5])
assert sla.get_lapack_funcs(("getrs",), (M,))[0] is _lapack.getrs
assert sla.lapack._flapack is _lapack._flapack is sys.modules["scipy.linalg._flapack"]
x = _lapack.lu_solve(_lapack.lu_factor(M), b)
assert np.array_equal(x, sla.lu_solve(sla.lu_factor(M), b))
L = sla.cholesky(M, lower=True)
assert np.allclose(sla.solve_triangular(L, b, lower=True), np.linalg.solve(L, b))
assert np.allclose(sla.solve(M, b), x) and sla.eigh(M, eigvals_only=True)[0] > 0
print("ok")
"""


def test_scipy_linalg_and_special_import_after_lapack():
    # check-kernel's eigh, or any caller, imports the packages after the loader
    out = subprocess.run([sys.executable, "-c", _AFTER], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert out.stdout.strip() == "ok"


def test_an_exact_zero_pivot_warns():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.warns(RuntimeWarning, match=r"^Diagonal number 2 is exactly zero\. "
                                            r"Singular matrix\.$"):
        lu, piv = _lapack.lu_factor(M)
    with pytest.warns(scipy.linalg.LinAlgWarning, match="Diagonal number 2"):
        ref_lu, ref_piv = scipy.linalg.lu_factor(M)
    assert np.array_equal(lu, ref_lu) and np.array_equal(piv, ref_piv)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_input_raises(bad):
    M = np.eye(3)
    M[1, 2] = bad
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        _lapack.lu_factor(M)
    lu_piv = _lapack.lu_factor(np.eye(3))
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        _lapack.lu_solve(lu_piv, np.array([1.0, bad, 0.0]))
    with pytest.raises(ValueError, match="incompatible"):
        _lapack.lu_solve(lu_piv, np.ones(4))


def test_a_missing_extension_names_its_path(tmp_path):
    with pytest.raises(ImportError, match=r"no compiled module scipy\.linalg\._nope at "
                                          + re.escape(str(tmp_path / "_nope"))):
        _lapack._extension("scipy.linalg._nope", tmp_path)
    assert "scipy.linalg._nope" not in sys.modules


_FALLBACK = """
import importlib, sys
from pathlib import Path
import numpy as np
import jumplab._lazy
from jumplab import _lapack
# load the loader again as on an older scipy: the LAPACK wrapper, which it
# reuses, but no gamma module in scipy's (here empty) directory
del sys.modules["scipy.special._special_ufuncs"]
jumplab._lazy.scipy_path = lambda *parts: Path(sys.argv[1], *parts)
importlib.reload(_lapack)
assert not {"scipy", "scipy.linalg", "scipy.special"} & set(sys.modules)
assert not isinstance(_lapack.gamma, np.ufunc)
g = _lapack.gamma(np.array([0.75, -0.95]))
import scipy.special
assert np.array_equal(g, scipy.special.gamma(np.array([0.75, -0.95])))
print("ok")
"""


def test_a_missing_extension_falls_back_to_the_public_function(tmp_path):
    # gamma imports scipy.special on its first call, not when the loader loads
    out = subprocess.run([sys.executable, "-c", _FALLBACK, str(tmp_path)], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert out.stdout.strip() == "ok"


# --- gamma and the Cholesky factor of mosco -----------------------------------

def test_gamma_is_scipy_special_gamma():
    assert (_lapack.gamma is scipy.special.gamma) == GAMMA_BY_PATH
    x = np.array([0.75, 1.7, 1.95, -0.75, -0.95, -0.975])    # (d + alpha)/2 and -alpha/2
    assert np.array_equal(_lapack.gamma(x), scipy.special.gamma(x))


_GRID = {1: (1, 1.0, 1 / 32, {"type": "box", "halfwidth": 0.75}),
         2: (2, 0.5, 1 / 8, {"type": "box", "halfwidth": 0.375})}


@pytest.mark.parametrize("d", [1, 2])
def test_cholesky_and_solve_lower_equal_scipy_linalg_on_the_drift_blocks(d):
    # the interior blocks of garding_sector_check, on the drift family
    V = (lambda x: 0.4 * x[..., 0]) if d == 1 else (lambda x: x @ np.array([0.4, -0.2]))
    family = mosco.alpha_family(jumplab.make_drift_kernel(1.0, V, 2.0, 1.0, d), (1.9,))
    form = mosco.assemble_corrected(family[1.9], build_grid(*_GRID[d]))
    I = form.grid.interior
    S, W = form.A_s[np.ix_(I, I)], form.A_a[np.ix_(I, I)]
    assert _lapack.potrf is _lapack._flapack.dpotrf and _lapack.trtrs is _lapack._flapack.dtrtrs
    L = _lapack.cholesky(S)
    ref_L = scipy.linalg.cholesky(S, lower=True)
    assert np.array_equal(L, ref_L)
    LW = _lapack.solve_lower(L, W)
    ref_LW = scipy.linalg.solve_triangular(ref_L, W, lower=True)
    assert np.array_equal(LW, ref_LW)
    assert np.array_equal(_lapack.solve_lower(L, LW.T),
                          scipy.linalg.solve_triangular(ref_L, ref_LW.T, lower=True))


def test_cholesky_and_solve_lower_refuse_as_scipy_does():
    with pytest.raises(np.linalg.LinAlgError,
                       match="^2-th leading minor of the array is not positive definite$"):
        _lapack.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        _lapack.cholesky(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    L = np.asfortranarray([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError,
                       match="^singular matrix: resolution failed at diagonal 1$"):
        _lapack.solve_lower(L, np.ones(2))
    with pytest.raises(np.linalg.LinAlgError, match="resolution failed at diagonal 1"):
        scipy.linalg.solve_triangular(L, np.ones(2), lower=True)
