"""The moment layer of mosco.py against a frozen copy of its earlier loops
(tests/_oracles.py), bit for bit, and the guard on the dropped mixed term."""
import numpy as np
import pytest
import scipy.linalg

import _oracles
from _oracles import (
    old_assemble_corrected,
    old_local_coefficients,
    old_local_operator,
    old_resolvent_gaps,
)
from _local_limit import probe_coefficients
from jumplab import build_grid, c_alpha_norm, mosco, solve
from jumplab.kernels import (SplitKernel, get_pair_field, make_coefficient_kernel,
                             make_drift_kernel, make_stable_kernel)
from jumplab.mosco import (
    alpha_family,
    assemble_corrected,
    local_coefficients,
    local_form,
    resolvent_convergence,
)

ALPHAS = (1.5, 1.8, 1.9, 1.95)
V = lambda x: 0.4 * np.asarray(x, dtype=float)[..., 0]
FAMILIES = {
    "isotropic-1d": lambda: alpha_family(make_stable_kernel(1, 1.0), ALPHAS),
    "isotropic-2d": lambda: alpha_family(make_stable_kernel(2, 1.0), (1.5, 1.9)),
    "coefficient-1d": lambda: alpha_family(
        make_coefficient_kernel(get_pair_field("sin-coefficient"), 1.0, 1.0, 3.0, 1), ALPHAS),
    # the drift kernel jumps at its truncation radius L (a radial break)
    "drift-1d": lambda: alpha_family(make_drift_kernel(1.0, V, 2.0, 1.0, 1), ALPHAS),
}


def _grid(d):
    if d == 1:
        return build_grid(1, 1.0, 1 / 32, {"type": "box", "halfwidth": 0.75})
    return build_grid(2, 0.5, 1 / 8, {"type": "box", "halfwidth": 0.375})


def _source(x):
    return np.exp(-4 * np.sum(np.asarray(x) ** 2, axis=-1))


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family(request):
    return FAMILIES[request.param]()


def test_local_coefficients_match_frozen_loops(family):
    d = family[1.9].d
    x = np.random.default_rng(0).uniform(-0.4, 0.4, (2, d))
    verify = d == 1
    new = local_coefficients(family, x, delta=0.5, verify_quadrature=verify)
    old = old_local_coefficients(family, x, delta=0.5, verify_quadrature=verify)
    for key in ("a_limit", "b_limit", "fit_residual", "delta_sensitivity"):
        assert np.array_equal(new[key], old[key]), key
    for a in family:
        assert np.array_equal(new["a"][a], old["a"][a])
        assert np.array_equal(new["b"][a], old["b"][a])
    if verify:
        assert new["quadrature_drift"] == old["quadrature_drift"]


def test_single_alpha_coefficients_match_frozen_loops(family):
    x = np.zeros((1, family[1.9].d))
    one = {1.9: family[1.9]}
    new = local_coefficients(one, x, delta=0.5)
    old = old_local_coefficients(family, x, delta=0.5, alphas=[1.9])
    for key in ("a_limit", "b_limit", "fit_residual", "delta_sensitivity"):
        assert np.array_equal(new[key], old[key], equal_nan=True), key


def test_corrected_form_matches_frozen_assembly(family):
    grid = _grid(family[1.9].d)
    new = assemble_corrected(family[1.9], grid)
    old = old_assemble_corrected(family[1.9], grid)
    for name in ("A_s", "A_a", "tail_sym", "tail_anti"):
        assert np.array_equal(getattr(new, name), getattr(old, name)), name


def test_local_form_matches_frozen_operator(family):
    # limits of the kind resolvent_convergence averages over probes
    d = family[1.9].d
    coeffs = local_coefficients(family, np.zeros((1, d)), delta=0.5)
    a, b = np.mean(coeffs["a_limit"], axis=0), np.mean(coeffs["b_limit"], axis=0)
    grid = _grid(d)
    I = grid.interior
    form = local_form(a, b, grid)
    assert np.array_equal(form.A[I], old_local_operator(a, b, grid)[I])
    assert np.array_equal(form.A_s, form.A_s.T)
    assert np.array_equal(form.A_a, -form.A_a.T)
    assert not np.any(form.tail_sym) and not np.any(form.tail_anti)
    assert form.meta["kernel"]["alpha"] == 2.0


def test_local_form_takes_node_fields():
    grid = _grid(2)
    N, I = grid.n_nodes, grid.interior
    a = np.diag([2.0, 1.0])
    b = grid.nodes @ np.array([[0.4, 0.0], [0.1, -0.3]])     # a linear field b(x)
    form = local_form(a, b, grid)
    assert np.array_equal(form.A_s, form.A_s.T) and np.array_equal(form.A_a, -form.A_a.T)
    scale = np.abs(form.A).max()
    assert np.abs(form.A.sum(axis=1)).max() <= 1e-12 * scale    # A 1 = tail = 0
    for k in range(2):      # 2 b . grad x_k = 2 b_k, exactly for a linear b
        assert np.allclose((form.A @ grid.nodes[:, k])[I], 2 * b[I, k], rtol=0,
                           atol=1e-12 * scale)
    # constants given once per node are the constants
    fields = local_form(np.broadcast_to(a, (N, 2, 2)), np.broadcast_to(b[0], (N, 2)), grid)
    assert np.array_equal(fields.A, local_form(a, b[0], grid).A)


class _Captured(Exception):
    pass


def test_local_resolvent_equals_scipy_linalg_solve(family, monkeypatch):
    # the first solve of resolvent_convergence is the local resolvent; capture it
    seen = []

    def capture(form, lam, f):
        seen.append((form, lam, f))
        raise _Captured

    grid = _grid(family[1.9].d)
    coeffs = probe_coefficients(family, grid)
    with monkeypatch.context() as mp:
        mp.setattr(mosco, "resolvent_solve", capture)
        with pytest.raises(_Captured):
            resolvent_convergence(family, grid, _source, 5.0, coeffs)
    form, lam, f = seen[0]
    assert form.meta["kernel"]["alpha"] == 2.0 and lam == 5.0
    I = grid.interior
    M = lam * np.eye(int(I.sum())) + form.A[np.ix_(I, I)]
    # tridiagonal in 1D, five-point in 2D; symmetric but for a drift
    assert np.array_equal(M, M.T) == (not np.any(form.A_a))
    u = solve.resolvent_solve(form, lam, f)
    assert not np.any(u[~I])
    ref = scipy.linalg.solve(M, f[I])
    assert np.linalg.norm(u[I] - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.linalg.norm(M @ u[I] - f[I]) <= 1e-12 * np.linalg.norm(f[I])


def test_resolvent_gaps_match_frozen_path(family, monkeypatch):
    grid = _grid(family[1.9].d)
    out = resolvent_convergence(family, grid, _source, 5.0, probe_coefficients(family, grid))
    # the local resolvent is an LU solve now, as the nonlocal ones always were
    sla = _oracles.sla
    monkeypatch.setattr(sla, "solve", lambda M, b: sla.lu_solve(sla.lu_factor(M), b))
    assert out["gaps"] == old_resolvent_gaps(family, grid, _source, 5.0)


def _tilted_family():
    """K_s = (1 + sin(2 phi) / 2) c_{2,a} |h|^{-2-a}: a genuine mixed term a_12."""
    def factory(a):
        c = c_alpha_norm(2, a)

        def sym(x, y):
            h = y - x
            r2 = np.sum(h * h, axis=-1)
            return (1.0 + h[..., 0] * h[..., 1] / r2) * c * r2 ** (-(2 + a) / 2)

        return SplitKernel(2, a, sym, lambda x, y: np.zeros(np.broadcast_shapes(
            x.shape, y.shape)[:-1]))

    return {a: factory(a) for a in (1.5, 1.9)}


def test_mixed_diffusion_term_raises():
    fam = _tilted_family()
    coeffs = local_coefficients(fam, np.zeros((1, 2)), delta=0.5)
    a = coeffs["a_limit"][0]
    assert abs(a[0, 1]) > 0.1 * abs(a[0, 0])
    with pytest.raises(ValueError, match="mixed diffusion term"):
        resolvent_convergence(fam, _grid(2), _source, 5.0, coeffs)
    with pytest.raises(ValueError, match="mixed diffusion term"):
        assemble_corrected(fam[1.9], _grid(2))


def test_diagonal_matrix_passes_the_guard():
    grid = _grid(2)
    A = local_form(np.diag([2.0, 1.0]), np.zeros(2), grid).A
    A_tiny = local_form(np.array([[2.0, 1e-12], [1e-12, 1.0]]), np.zeros(2), grid).A
    assert np.array_equal(A, A_tiny)
    with pytest.raises(ValueError, match="mixed diffusion term"):
        local_form(np.array([[2.0, 1e-9], [1e-9, 1.0]]), np.zeros(2), grid)


def test_local_resolvent_checks_its_residual(sla_calls):
    fam = alpha_family(make_stable_kernel(1, 1.0), (1.5, 1.9))
    grid = _grid(1)
    coeffs = probe_coefficients(fam, grid)
    good = resolvent_convergence(fam, grid, _source, 5.0, coeffs)
    assert np.isfinite(good["u_loc_norm"])
    # a solve that misses its residual: the first, the local resolvent, raises
    sla_calls.lu_solve_calls.clear()
    sla_calls.stand_in["lu_solve"] = lambda lu_solve, lu_piv, b: 2.0 * np.asarray(b)
    with pytest.raises(RuntimeError, match="resolvent solve unstable"):
        resolvent_convergence(fam, grid, _source, 5.0, coeffs)
    assert len(sla_calls.lu_solve_calls) == 4     # the solve and its three refinement sweeps
