"""The moment layer of mosco.py against a frozen copy of its earlier loops
(tests/_oracles.py), bit for bit, and the guard on the dropped mixed term."""
import numpy as np
import pytest

from _oracles import (
    old_assemble_corrected,
    old_form_table,
    old_local_coefficients,
    old_resolvent_gaps,
)
from jumplab import build_grid, c_alpha_norm
from jumplab.kernels import SplitKernel, get_pair_field
from jumplab.mosco import (
    AlphaFamily,
    assemble_corrected,
    form_convergence,
    local_coefficients,
    local_operator,
    make_coefficient_family,
    make_drift_family,
    make_isotropic_family,
    resolvent_convergence,
)
from jumplab import mosco

ALPHAS = (1.5, 1.8, 1.9, 1.95)
V = lambda x: 0.4 * np.asarray(x, dtype=float)[..., 0]
FAMILIES = {
    "isotropic-1d": lambda: make_isotropic_family(1, ALPHAS),
    "isotropic-2d": lambda: make_isotropic_family(2, (1.5, 1.9)),
    "coefficient-1d": lambda: make_coefficient_family(
        1, ALPHAS, get_pair_field("sin-coefficient"), 1.0, 3.0),
    # the drift kernel jumps at its truncation radius L (a radial break)
    "drift-1d": lambda: make_drift_family(1, ALPHAS, V, L=2.0),
}


def _grid(d):
    if d == 1:
        return build_grid(1, 1.0, 1 / 32, {"type": "box", "halfwidth": 0.75})
    return build_grid(2, 0.5, 1 / 8, {"type": "box", "halfwidth": 0.375})


def _source(x):
    return np.exp(-4 * np.sum(np.asarray(x) ** 2, axis=-1))


def _bump(x):
    t = np.asarray(x, dtype=float)[..., 0]
    return np.where(np.abs(t) < 0.5, np.cos(np.pi * np.clip(t, -0.5, 0.5)) ** 2, 0.0)


def _tilt(x):
    return (0.5 + np.asarray(x, dtype=float)[..., 0]) * _bump(x)


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family(request):
    return FAMILIES[request.param]()


def test_local_coefficients_match_frozen_loops(family):
    x = np.random.default_rng(0).uniform(-0.4, 0.4, (2, family.d))
    verify = family.d == 1
    new = local_coefficients(family, x, delta=0.5, verify_quadrature=verify)
    old = old_local_coefficients(family, x, delta=0.5, verify_quadrature=verify)
    for key in ("a_limit", "b_limit", "fit_residual", "delta_sensitivity"):
        assert np.array_equal(new[key], old[key]), key
    for a in family.alphas:
        assert np.array_equal(new["a"][a], old["a"][a])
        assert np.array_equal(new["b"][a], old["b"][a])
    if verify:
        assert new["quadrature_drift"] == old["quadrature_drift"]


def test_single_alpha_coefficients_match_frozen_loops(family):
    x = np.zeros((1, family.d))
    new = local_coefficients(family, x, delta=0.5, alphas=[1.9])
    old = old_local_coefficients(family, x, delta=0.5, alphas=[1.9])
    for key in ("a_limit", "b_limit", "fit_residual", "delta_sensitivity"):
        assert np.array_equal(new[key], old[key], equal_nan=True), key


def test_corrected_form_matches_frozen_assembly(family):
    grid = _grid(family.d)
    new = assemble_corrected(family.kernel(1.9), grid)
    old = old_assemble_corrected(family.kernel(1.9), grid)
    for name in ("A_s", "A_a", "tail_sym", "tail_anti"):
        assert np.array_equal(getattr(new, name), getattr(old, name)), name


@pytest.mark.parametrize("name", ["isotropic-1d", "coefficient-1d", "drift-1d"])
def test_form_table_matches_frozen_integrals(name):
    family = FAMILIES[name]()
    grid = _grid(1)
    out = form_convergence(family, _bump, _tilt, grid, (0.0,), 0.6)
    assert out["table"] == old_form_table(family, _bump, _tilt, grid, (0.0,), 0.6,
                                          family.alphas)


def test_resolvent_gaps_match_frozen_path(family):
    grid = _grid(family.d)
    out = resolvent_convergence(family, grid, _source, lam=5.0)
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
            x.shape, y.shape)[:-1]), anti_diag_order=-np.inf)

    return AlphaFamily(factory, 2, (1.5, 1.9), Lam=8.0, name="tilted")


def test_mixed_diffusion_term_raises():
    fam = _tilted_family()
    a = local_coefficients(fam, np.zeros((1, 2)), delta=0.5)["a_limit"][0]
    assert abs(a[0, 1]) > 0.1 * abs(a[0, 0])
    with pytest.raises(ValueError, match="mixed diffusion term"):
        resolvent_convergence(fam, _grid(2), _source, lam=5.0)
    with pytest.raises(ValueError, match="mixed diffusion term"):
        assemble_corrected(fam.kernel(1.9), _grid(2))


def test_diagonal_matrix_passes_the_guard():
    grid = _grid(2)
    A = local_operator(np.diag([2.0, 1.0]), np.zeros(2), grid)
    A_tiny = local_operator(np.array([[2.0, 1e-12], [1e-12, 1.0]]), np.zeros(2), grid)
    assert np.array_equal(A, A_tiny)
    with pytest.raises(ValueError, match="mixed diffusion term"):
        local_operator(np.array([[2.0, 1e-9], [1e-9, 1.0]]), np.zeros(2), grid)


def test_local_resolvent_checks_its_residual(monkeypatch):
    fam = make_isotropic_family(1, (1.5, 1.9))
    grid = _grid(1)
    good = resolvent_convergence(fam, grid, _source, lam=5.0)
    assert np.isfinite(good["u_loc_norm"])
    monkeypatch.setattr(mosco.sla, "solve", lambda M, b: 2.0 * np.asarray(b))
    with pytest.raises(RuntimeError, match="relative residual"):
        resolvent_convergence(fam, grid, _source, lam=5.0)
