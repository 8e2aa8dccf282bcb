"""Exact-split invariants of every form constructor.

Each form must satisfy A == A_s + A_a bit for bit, with A_s exactly symmetric,
A_a exactly antisymmetric and transpose_form(F).A == F.A.T.
"""
import numpy as np
import pytest

from jumplab import assemble, build_grid, make_drift_kernel, transpose_form
from jumplab.assumptions import BallSpec, poincare_constant, sobolev_ratio
from jumplab.discretize import DiscreteForm
from jumplab.kernels import _ScaledKernel, pair_values
from jumplab.mosco import alpha_family, assemble_corrected


def _dense_arrays(form):
    return [v for v in vars(form).values() if isinstance(v, np.ndarray) and v.ndim == 2]


@pytest.fixture(scope="module")
def forms(coeff_form_1d, grid_1d, sin_coefficient_kernel, cone_kernel_2d, fast_quad):
    grid_2d = build_grid(2, 1.0, 1 / 8, {"type": "ball", "radius": 0.5})
    V = lambda x: 0.4 * np.asarray(x)[..., 0]
    drift = alpha_family(make_drift_kernel(1.0, V, 2.0, 1.0, 1), (1.9,))
    grid_mosco = build_grid(1, 1.0, 1 / 32, {"type": "box", "halfwidth": 0.75})
    return {
        "assemble-1d": coeff_form_1d,
        "assemble-2d": assemble(cone_kernel_2d, grid_2d, quad=fast_quad),
        "assemble-scaled": assemble(_ScaledKernel(sin_coefficient_kernel, 1.25, -0.5), grid_1d),
        "transpose_form": transpose_form(coeff_form_1d),
        "assemble_corrected": assemble_corrected(drift[1.9], grid_mosco),
    }


@pytest.mark.parametrize("name", ["assemble-1d", "assemble-2d", "assemble-scaled",
                                  "transpose_form", "assemble_corrected"])
def test_split_is_exact(forms, name):
    F = forms[name]
    assert np.any(F.A_a != 0.0)
    assert np.array_equal(F.A, F.A_s + F.A_a)
    assert np.array_equal(F.A_s, F.A_s.T)
    assert np.array_equal(F.A_a, -F.A_a.T)
    assert not np.any(np.diag(F.A_a))
    assert np.array_equal(transpose_form(F).A, F.A.T)
    assert np.array_equal(transpose_form(F).tail, F.tail_dual)


def test_corrected_form_annihilates_constants(forms):
    F = forms["assemble_corrected"]
    defect = F.A @ np.ones(F.grid.n_nodes) - F.tail
    assert np.max(np.abs(defect)) <= 1e-9 * np.max(np.abs(F.A))


def test_fresh_form_holds_two_dense_matrices(grid_1d, sin_coefficient_kernel):
    F = assemble(sin_coefficient_kernel, grid_1d)
    assert len(_dense_arrays(F)) == 2
    A = F.A
    assert len(_dense_arrays(F)) == 3
    assert F.A is A


def test_pair_values_matches_direct_evaluation(cone_kernel_2d):
    pts = build_grid(2, 1.0, 1 / 4).nodes
    n = pts.shape[0]
    Ks, Ka = pair_values(pts, cone_kernel_2d.sym, cone_kernel_2d.anti, chunk=5)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    np.testing.assert_allclose(Ks[i, j], cone_kernel_2d.sym(pts[i], pts[j]), rtol=1e-15)
    np.testing.assert_allclose(Ka[i, j], cone_kernel_2d.anti(pts[i], pts[j]), rtol=1e-15)
    assert not np.any(np.diag(Ks)) and not np.any(np.diag(Ka))


@pytest.mark.parametrize("name", ["assemble-1d", "assemble-2d"])
def test_ks_matrix_ball_block(forms, name):
    F = forms[name]
    m = F.grid.ball_mask(np.zeros(F.grid.d), 0.3)
    assert 3 <= m.sum() < F.grid.n_nodes
    assert np.array_equal(F.ks_matrix(m), F.ks_matrix()[np.ix_(m, m)])


def test_ball_audits_unchanged_by_block_extraction(forms, monkeypatch):
    F = forms["assemble-2d"]
    ball = BallSpec((0.0, 0.0), 0.25, 0.125)
    block = (poincare_constant(F, ball), sobolev_ratio(F, ball, 0.125))
    full = DiscreteForm.ks_matrix
    monkeypatch.setattr(DiscreteForm, "ks_matrix",
                        lambda self, mask=None: full(self)[np.ix_(mask, mask)])
    assert (poincare_constant(F, ball), sobolev_ratio(F, ball, 0.125)) == block
