"""``_lapack``: scipy's LAPACK getrf/getrs loaded without the scipy.linalg
package give scipy.linalg's factors and solves bit for bit, and share their
routines with scipy.linalg once that is imported."""
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import jumplab
from jumplab import _lapack

SRC = Path(jumplab.__file__).resolve().parent.parent


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
assert "scipy.linalg" not in sys.modules
import scipy.linalg as sla
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


def test_scipy_linalg_imports_after_lapack():
    # the mosco path: the stepper loads _lapack, mosco then needs scipy.linalg
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
