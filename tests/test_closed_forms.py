"""Closed-form oracles of the assembly, the moment layer and the ray rule.

Each reference is a formula evaluated here, with its own normalising
constant c_{d,a} = 2^a Gamma((d+a)/2) / (pi^{d/2} |Gamma(-a/2)|) from
``math.gamma``:

- the fractional torsion function u = (r^2 - |x|^2)_+^{a/2}, for which
  2 pv int (u(x) - u(y)) c_{d,a} |x-y|^{-d-a} dy = 2 kappa on B_r (Getoor,
  Trans. AMS 1961; Dyda, Fract. Calc. Appl. Anal. 2012), under ``assemble``
  and ``assemble_corrected``;
- the second moment int_{B_delta} h_k^2 c_{d,a} |h|^{-d-a} dh of a stable
  member and its extrapolated limits, and the moments of a drift member
  with V = b.x and of a coefficient member (``local_coefficients``);
- the corrected assembly minus the plain one, -C/h^2 on lattice neighbours,
  and the three- and five-point ``local_form``;
- the tails of a stable kernel beyond a ball (``tail_sup``, ``cutoff_sup``),
  the K1 and K1glob integrals of K_a^2 / J for a drift kernel with V = b.x,
  and that kernel's assembly tails on the ray rule's own directions.

Each tolerance is stated next to the error measured for it (one BLAS
thread)."""
import math

import numpy as np
import pytest

from jumplab import assemble, build_grid, make_drift_kernel, make_stable_kernel
from jumplab.assumptions import INF, BallSpec, cutoff_sup, k1_glob_profile, k1_profile, tail_sup
from jumplab.kernels import get_pair_field, make_coefficient_kernel
from jumplab.mosco import alpha_family, assemble_corrected, local_coefficients, local_form
from jumplab.quadrature import QuadSpec, directions, ray_exit_box

SPHERE = {1: 2.0, 2: 2.0 * math.pi}          # |S^{d-1}|
ALPHAS = (1.5, 1.8, 1.9, 1.95)


def _c(d, a):
    return 2.0 ** a * math.gamma((d + a) / 2.0) / (math.pi ** (d / 2.0)
                                                    * abs(math.gamma(-a / 2.0)))


def _moment(d, a, delta):
    """int_{B_delta} h_k^2 c_{d,a} |h|^{-d-a} dh."""
    return _c(d, a) * SPHERE[d] / d * delta ** (2.0 - a) / (2.0 - a)


def _linear(b):
    b = np.asarray(b, dtype=float)
    return lambda x: np.tensordot(np.asarray(x, dtype=float), b, axes=([-1], [0]))


def _grid(d, h):
    """[-1, 1] or [-1/2, 1/2]^2 with the default domain, one cell from the box edge."""
    return build_grid(d, 1.0 if d == 1 else 0.5, h)


# --- the torsion function ------------------------------------------------------

TORSION_ALPHA, TORSION_R = 1.5, 0.75


def _torsion_errors(d, h):
    """|(A u)_i / (2 kappa) - 1| at the node nearest the centre of Omega = B_r
    in [-1, 1]^d, for ``assemble`` and ``assemble_corrected``."""
    a, r = TORSION_ALPHA, TORSION_R
    kernel = make_stable_kernel(d, a, _c(d, a))
    grid = build_grid(d, 1.0, h, {"type": "ball", "radius": r})
    u = np.maximum(r * r - np.sum(grid.nodes ** 2, axis=-1), 0.0) ** (a / 2.0)
    kappa = 2.0 ** a * math.gamma(1.0 + a / 2.0) * math.gamma((d + a) / 2.0) / math.gamma(d / 2.0)
    centre = np.argmin(np.sum(grid.nodes ** 2, axis=-1))
    assert grid.interior[centre]
    return [abs(float(F.A[centre] @ u) / (2.0 * kappa) - 1.0)
            for F in (assemble(kernel, grid), assemble_corrected(kernel, grid))]


def test_torsion_in_1d():
    hs = 2.0 ** -np.arange(5, 9)                 # 1/32 ... 1/256
    plain, corrected = np.array([_torsion_errors(1, h) for h in hs]).T
    # measured: 10.08 / 7.12 / 5.03 / 3.559 % plain, 0.329 / 0.228 / 0.160 / 0.1128 %
    # corrected; the plain rate is 0.50 = 2 - alpha
    rate = np.polyfit(np.log(hs), np.log(plain), 1)[0]
    assert abs(rate - (2.0 - TORSION_ALPHA)) <= 0.05, rate
    assert np.all(corrected <= plain / 5.0), (plain, corrected)
    assert plain[-1] == pytest.approx(0.0355862, rel=1e-4)
    assert corrected[-1] == pytest.approx(0.00112782, rel=1e-4)


def test_torsion_in_2d():
    (plain_8, corr_8), (plain_16, corr_16) = (_torsion_errors(2, h) for h in (1 / 8, 1 / 16))
    # measured: 22.3 / 15.6 % plain and 2.55 / 1.80 % corrected at h = 1/8, 1/16
    assert corr_8 <= plain_8 / 5.0 and corr_16 <= plain_16 / 5.0
    assert plain_16 == pytest.approx(0.156459, rel=1e-4)
    assert corr_16 == pytest.approx(0.017998, rel=1e-4)


# --- moments and their limits --------------------------------------------------

def _limit(vals):
    """(intercept, rms residual) of the linear fit in 2 - alpha over the three
    smallest 2 - alpha."""
    eps = 2.0 - np.array(ALPHAS)
    take = np.argsort(eps)[:3]
    coeff = np.polyfit(eps[take], vals[take], 1)
    return coeff[1], np.sqrt(np.mean((np.polyval(coeff, eps[take]) - vals[take]) ** 2))


@pytest.mark.parametrize("d", [1, 2])
def test_stable_moments_and_their_limits(d):
    family = alpha_family(make_stable_kernel(d, 1.0), ALPHAS)
    x = np.zeros((1, d))
    out = local_coefficients(family, x, delta=0.5, verify_quadrature=True)
    for a in ALPHAS:
        m = _moment(d, a, 0.5)
        # measured: 4.9e-15 relative
        assert np.max(np.abs(out["a"][a][0] - m * np.eye(d))) <= 1e-13 * m, a
        assert not np.any(out["b"][a])
    assert out["quadrature_drift"] <= 1e-13         # measured: 3.6e-16
    vals = np.array([_moment(d, a, 0.5) for a in ALPHAS])
    lim, resid = _limit(vals)
    lim_half, _ = _limit(np.array([_moment(d, a, 0.25) for a in ALPHAS]))
    # measured: 5.3e-15, 5.4e-13 and 5.3e-14 relative
    assert np.max(np.abs(out["a_limit"][0] - lim * np.eye(d))) <= 1e-13 * lim
    assert out["fit_residual"] == pytest.approx(resid, rel=1e-11)
    assert out["delta_sensitivity"] == pytest.approx(abs(lim_half - lim) / lim, rel=1e-12)
    one = local_coefficients({1.9: family[1.9]}, x, delta=0.5)
    assert np.array_equal(one["a_limit"], out["a"][1.9])
    assert one["fit_residual"] == 0.0 and math.isnan(one["delta_sensitivity"])


@pytest.mark.parametrize("d, b", [(1, [0.4]), (2, [0.3, -0.2])])
def test_drift_moments_are_b_times_the_stable_moment(d, b):
    b = np.array(b)
    family = alpha_family(make_drift_kernel(1.0, _linear(b), 2.0, 1.0, d), ALPHAS)
    x = np.array([np.zeros(d), np.full(d, 0.5)])
    out = local_coefficients(family, x, delta=0.5)
    for a in ALPHAS:
        m = _moment(d, a, 0.5)
        # measured: 7.9e-11 (1D) and 9.7e-11 (2D) relative at x = 0.5, 1.5e-15 at 0
        assert np.max(np.abs(out["b"][a] - m * b)) <= 1e-9 * m, a
        assert np.max(np.abs(out["a"][a] - m * np.eye(d))) <= 1e-9 * m, a


def test_coefficient_moments_are_the_symmetric_coefficient_times_the_stable_moment():
    # g = 2 + (sin x_1 - sin y_1) / 2: K_s = 2 c_{1,a} |h|^{-1-a}
    family = alpha_family(make_coefficient_kernel(get_pair_field("sin-coefficient"), 1.0,
                                                  1.0, 3.0, 1), ALPHAS)
    out = local_coefficients(family, np.array([[0.0], [0.5]]), delta=0.5)
    for a in ALPHAS:
        m = 2.0 * _moment(1, a, 0.5)
        # measured: 1.9e-10 relative (x = 0.5, alpha = 1.95)
        assert np.max(np.abs(out["a"][a] - m)) <= 1e-9 * m, a


# --- corrected assembly and the local form -------------------------------------

def _neighbours(grid):
    """Boolean (N, N): the pairs of lattice neighbours."""
    dist = np.linalg.norm(grid.nodes[:, None, :] - grid.nodes[None, :, :], axis=-1)
    return np.abs(dist - grid.h) <= 1e-9 * grid.h


@pytest.mark.parametrize("d, h, a", [(1, 1 / 32, 1.7), (2, 1 / 8, 1.5)])
def test_corrected_minus_plain_is_the_sub_cell_stencil(d, h, a):
    family = alpha_family(make_stable_kernel(d, 1.0), (a,))
    grid = _grid(d, h)
    corrected, plain = assemble_corrected(family[a], grid), assemble(family[a], grid)
    nb, off = _neighbours(grid), ~np.eye(grid.n_nodes, dtype=bool)
    D = corrected.A_s - plain.A_s
    C = _moment(d, a, h / 2.0)
    # measured: 2.6e-10 (1D) and 1.6e-12 (2D) relative, box-edge rows included
    assert np.max(np.abs(D[nb] + C / h ** 2)) <= 1e-9 * C / h ** 2
    assert not np.any(D[off & ~nb])
    A = corrected.A
    assert np.max(np.abs(A.sum(axis=1) - corrected.tail)) <= 1e-13 * np.max(np.abs(A))


def test_corrected_form_of_a_symmetric_kernel_is_symmetric():
    family = alpha_family(make_stable_kernel(1, 1.0), (1.7,))
    F = assemble_corrected(family[1.7], _grid(1, 1 / 32))
    # measured: max |A_a| = 5.6e-8 against max |A_s| = 1290.5
    assert np.max(np.abs(F.A_a)) <= 1e-9 * np.max(np.abs(F.A_s))


@pytest.mark.parametrize("d", [1, 2])
def test_local_form_is_the_three_and_five_point_stencil(d):
    grid = _grid(d, 1 / 32 if d == 1 else 1 / 8)
    h, a, b = grid.h, 0.7, np.array([0.3, -0.2])[:d]
    F = local_form(a * np.eye(d), b, grid)
    step = (grid.nodes[None, :, :] - grid.nodes[:, None, :]) / h     # x_j - x_i in cells
    nb = _neighbours(grid)
    S, W = np.zeros_like(F.A_s), np.zeros_like(F.A_a)
    S[nb] = -a / h ** 2
    for k in range(d):
        W[nb & (np.abs(step[..., k] - 1.0) < 0.5)] = b[k] / h
        W[nb & (np.abs(step[..., k] + 1.0) < 0.5)] = -b[k] / h
    off = ~np.eye(grid.n_nodes, dtype=bool)
    assert np.array_equal(F.A_a, W)
    assert np.array_equal(F.A_s[off], S[off])
    full = nb.sum(axis=1) == 2 * d                   # rows with every neighbour
    assert np.all(np.diagonal(F.A_s)[full] == 2 * d * a / h ** 2)
    assert not np.any(F.tail_sym) and not np.any(F.tail_anti)
    # a box-edge row carries its drift's row sum: A 1 = 0
    assert np.max(np.abs(F.A.sum(axis=1))) <= 1e-12 * np.max(np.abs(F.A))


# --- tails and drift integrals on the ray rule ------------------------------------

@pytest.mark.parametrize("d", [1, 2])
def test_tail_and_cutoff_sups_of_a_stable_kernel(d):
    a, r = 1.5, 0.5
    c = _c(d, a)
    kernel = make_stable_kernel(d, a, c)
    tail = lambda rho: c * SPHERE[d] * rho ** -a / a     # int_{|h| > rho} c |h|^{-d-a} dh
    ball = BallSpec((0.0,) * d, r, r / 2)
    for dual in (False, True):
        rep = tail_sup(kernel, ball, 2.0, dual=dual)
        # measured: 1.3e-11 relative, the exponent to 1e-15
        assert rep["sup"] == pytest.approx(tail(2.0 * r), rel=1e-10)
        assert rep["sup_2A"] == pytest.approx(tail(4.0 * r), rel=1e-10)
        assert abs(rep["sigma_fit"] - a) <= 1e-12 and not rep["divergent"]
    rep = cutoff_sup(kernel, 0.25, ball)
    assert rep["sup"] == pytest.approx(tail(0.25), rel=1e-10)
    assert abs(rep["exponent_fit"] - a) <= 1e-12
    assert rep["prefactor_fit"] == pytest.approx(c * SPHERE[d] / a, rel=1e-10)


@pytest.mark.parametrize("d, b, r, L, spacing", [
    # L beyond the near field B_max(4r, 1): the tail piece [1, L] counts; 399
    # lattice points run in more than three tail blocks
    (1, [0.3], 0.5, 3.0, 0.005),
    # L inside the near field: a panel edge of the ball integral
    (2, [0.3, -0.2], 0.125, 0.5, 0.05),
])
def test_k1_glob_of_a_linear_drift(d, b, r, L, spacing):
    a, b = 1.5, np.array(b)
    kernel = make_drift_kernel(1.0, _linear(b), L, a, d)
    # K_a^2 / J = c^2 (b.h)^2 |h|^{-d-a} on |h| <= L against J = |h|^{-d-a}
    ref = _c(d, a) ** 2 * (b @ b) * SPHERE[d] / d * L ** (2.0 - a) / (2.0 - a)
    for theta in (INF, 2.0):
        rep = k1_glob_profile(kernel, make_stable_kernel(d, a), BallSpec((0.0,) * d, r), theta,
                              spacing=spacing)
        # every lattice point of B_2r carries the volume spacing^d: the L^2 norm
        # of the constant ref is ref (n spacing^d)^(1/2)
        norm = ref if theta == INF else ref * math.sqrt(rep.resolution["n_points"] * spacing ** d)
        # measured: 9.0e-14 (1D) and 1.4e-14 (2D) relative
        assert rep.verdict == "finite"
        assert rep.constants["W_max"] == pytest.approx(ref, rel=1e-12)
        assert rep.constants["norm"] == pytest.approx(norm, rel=1e-12)


@pytest.mark.parametrize("z", [0.0, 0.125])
def test_k1_of_a_linear_drift_in_1d(z):
    a, b, r, L = 1.5, 0.4, 0.25, 1.0                   # L >= 4r: no cut inside B_2r(z)
    kernel = make_drift_kernel(1.0, _linear([b]), L, a, 1)
    x = z + np.arange(-7, 8) / 16                        # the lattice of spacing 1/16 in B_2r(z)
    W = _c(1, a) ** 2 * b ** 2 * ((x - z + 2 * r) ** (2 - a) + (z + 2 * r - x) ** (2 - a)) / (2 - a)
    for theta, norm in ((INF, np.max(W)), (2.0, np.sqrt(np.sum(W ** 2) / 16))):
        rep = k1_profile(kernel, make_stable_kernel(1, a), BallSpec((z,), r), theta,
                         spacing=1 / 16)
        # measured: 2.6e-14 (W_max) and 2.5e-13 (the L^2 norm) relative
        assert rep.resolution["n_points"] == x.size
        assert rep.constants["W_max"] == pytest.approx(np.max(W), rel=1e-12)
        assert rep.constants["norm"] == pytest.approx(norm, rel=1e-12)


@pytest.mark.parametrize("d, b, L, a, h", [(2, [0.3, -0.4], 0.5, 1.0, 1 / 8),
                                            (1, [0.5], 0.5, 1.5, 1 / 32)])
def test_drift_kernel_tails_on_the_ray_rule_directions(d, b, L, a, h):
    b = np.array(b)
    kernel = make_drift_kernel(1.0, _linear(b), L, a, d)
    grid = build_grid(d, 1.0, h)
    quad = QuadSpec(n_ang=32)
    F = assemble(kernel, grid, quad=quad)
    dirs, w = directions(d, quad.n_ang)
    s0 = ray_exit_box(grid.nodes, dirs, grid.X)
    c = _c(d, a)
    # along x + s e: K_s = c s^{-d-a}, K_a = -(b.e) c s^{1-d-a} up to s = L
    T_s = 2.0 * (c * s0 ** -a / a) @ w
    s_in = np.minimum(s0, L)                              # rays that leave the box beyond L add 0
    radial = np.log(L / s_in) if a == 1.0 else (L ** (1 - a) - s_in ** (1 - a)) / (1 - a)
    T_a = 2.0 * (-c * (dirs @ b) * radial) @ w
    assert np.any(s0 < L) and np.any(s0 > L)
    # measured: 5.0e-13 / 1.3e-11 (T_s, the truncated infinite rule) and
    # 8.8e-16 / 5.6e-17 (T_a, a finite panel rule) relative, 2D / 1D
    assert np.max(np.abs(F.tail_sym - T_s) / T_s) <= 1e-10
    assert np.max(np.abs(F.tail_anti - T_a)) <= 1e-13 * np.max(np.abs(T_a))
