import math

import numpy as np
import pytest
import scipy.linalg as sla
from _local_limit import probe_coefficients

from jumplab import (assemble, build_grid, c_alpha_norm, make_coefficient_kernel,
                     make_drift_kernel, make_stable_kernel)
from jumplab.discretize import DiscreteForm
from jumplab.kernels import get_pair_field
from jumplab.mosco import (
    alpha_family,
    assemble_corrected,
    garding_sector_check,
    local_coefficients,
    resolvent_convergence,
)

ALPHAS = (1.5, 1.8, 1.9, 1.95)


@pytest.fixture(scope="module")
def iso_1d():
    return alpha_family(make_stable_kernel(1, 1.0), ALPHAS)


@pytest.fixture(scope="module")
def drift_1d():
    V = lambda x: 0.4 * np.asarray(x, dtype=float)[..., 0]
    return alpha_family(make_drift_kernel(1.0, V, 2.0, 1.0, 1), ALPHAS)


@pytest.fixture(scope="module")
def grid_small():
    return build_grid(1, 1.0, 1 / 32, {"type": "box", "halfwidth": 0.75})


class TestFamily:
    def test_rejects_unnormalized_member(self):
        # a plain |h|^{-d-a} member misses the (2 - alpha) factor
        plain = make_stable_kernel(1, 1.0, 1.0 / c_alpha_norm(1, 1.9))
        with pytest.raises(ValueError, match="comparison"):
            alpha_family(plain, (1.9, 1.95))


class TestLocalCoefficients:
    def test_finite_alpha_moment_closed_form(self, iso_1d):
        # d=1, alpha=1, delta=1: 2 c_{1,1} delta^{2-a}/(2-a) = 2/pi
        unit = alpha_family(make_stable_kernel(1, 1.0), (1.0,))
        out = local_coefficients(unit, np.array([[0.0]]), delta=1.0)
        val = out["a"][1.0][0, 0, 0]
        assert abs(val - 2.0 / math.pi) < 0.01 * 2.0 / math.pi

    def test_limit_is_twice_identity_1d(self, iso_1d):
        # the c_{d,a}-normalized family has per-axis second moment -> 2
        # (gamma-function oracle: 2 c_{1,a}/(2-a) -> 2); see decisions ledger
        out = local_coefficients(iso_1d, np.array([[0.0]]), delta=1.0)
        assert abs(out["a_limit"][0, 0, 0] - 2.0) < 0.05 * 2.0

    def test_limit_matrix_2d(self):
        fam = alpha_family(make_stable_kernel(2, 1.0), ALPHAS)
        out = local_coefficients(fam, np.array([[0.1, -0.2]]), delta=0.5)
        a = out["a_limit"][0]
        assert np.array_equal(a, a.T)
        assert abs(a[0, 0] - 2.0) < 0.1 and abs(a[1, 1] - 2.0) < 0.1
        assert abs(a[0, 1]) < 1e-6

    def test_symmetric_family_has_zero_drift(self, iso_1d):
        out = local_coefficients(iso_1d, np.array([[0.3]]), delta=0.5)
        assert np.max(np.abs(out["b_limit"])) < 1e-12

    def test_linear_drift_identity_every_alpha(self, drift_1d):
        slope = 0.4
        out = local_coefficients(drift_1d, np.array([[0.1]]), delta=0.5)
        for a in ALPHAS:
            b = out["b"][a][0, 0]
            amat = out["a"][a][0, 0, 0]
            assert abs(b - amat * slope) < 1e-8

    def test_drift_limit_matches_gradient_scale(self, drift_1d):
        out = local_coefficients(drift_1d, np.array([[0.1]]), delta=0.5)
        # with the moment normalization the drift limit sits at a_limit * V'
        assert abs(out["b_limit"][0, 0] - out["a_limit"][0, 0, 0] * 0.4) < 1e-3

    def test_delta_independence_of_limit(self, iso_1d):
        out = local_coefficients(iso_1d, np.array([[0.0]]), delta=1.0)
        assert out["delta_sensitivity"] < 0.01

    def test_quadrature_verification_converges(self):
        out = local_coefficients(alpha_family(make_stable_kernel(1, 1.0), (1.5, 1.9)),
                                 np.array([[0.0]]), delta=0.5, verify_quadrature=True)
        assert out["quadrature_drift"] < 1e-8

    def test_coefficient_family_eigenvalue_bounds(self):
        g = get_pair_field("sin-coefficient")
        fam = alpha_family(make_coefficient_kernel(g, 1.0, 1.0, 3.0, 2), (1.9,))
        out = local_coefficients(fam, np.array([[0.2, 0.1]]), delta=0.5)
        a = out["a"][1.9][0]
        iso = local_coefficients(alpha_family(make_stable_kernel(2, 1.0), (1.9,)),
                                 np.array([[0.2, 0.1]]), delta=0.5)["a"][1.9][0]
        eigs = np.linalg.eigvalsh(a)
        m = iso[0, 0]
        assert np.all(eigs >= 1.0 * m * (1 - 1e-9))
        assert np.all(eigs <= 3.0 * m * (1 + 1e-9))


def _hand_form(S_II, W_II):
    """A 1D form whose interior blocks of A_s and A_a are S_II and W_II; the
    collar rows and columns carry values that must not be read."""
    m = S_II.shape[0]
    h = 2.0 / (m + 2)
    grid = build_grid(1, 1.0, h, {"type": "box", "halfwidth": 1.0 - h})
    I = grid.interior
    assert int(I.sum()) == m
    n = grid.n_nodes
    A_s = np.full((n, n), -7.0)
    A_a = np.full((n, n), 5.0)
    A_a[np.tril_indices(n)] = -5.0
    A_s[np.ix_(I, I)] = S_II
    A_a[np.ix_(I, I)] = W_II
    return DiscreteForm(grid, A_s, A_a, np.zeros(n), np.zeros(n))


def _rotation(w):
    """Block-diagonal W with 2 x 2 blocks [[0, w_k], [-w_k, 0]]."""
    W = np.zeros((2 * len(w), 2 * len(w)))
    for k, wk in enumerate(w):
        W[2 * k, 2 * k + 1], W[2 * k + 1, 2 * k] = wk, -wk
    return W


def _interior_blocks(F):
    I = F.grid.interior
    return (F.A[np.ix_(I, I)], F.A_s[np.ix_(I, I)], F.A_a[np.ix_(I, I)])


class TestGardingSector:
    def test_symmetric_kernel_nonnegative_margin(self, grid_small):
        F = assemble(make_stable_kernel(1, 1.0, c_alpha_norm(1, 1.0)), grid_small)
        out = garding_sector_check(F, 1.0)
        assert out["garding_margin"] >= -1e-12
        assert out["sector_c1"] == 0.0
        assert "A" not in vars(F)         # the N x N sum A_s + A_a was not built

    def test_drift_kernel_admissible_lambda_bounded(self, drift_1d, grid_small):
        lams = []
        for a in (1.5, 1.9):
            F = assemble(drift_1d[a], grid_small)
            out = garding_sector_check(F, 2.0)
            lams.append(out["lam_admissible"])
            assert out["garding_margin"] > 0
        assert max(lams) < 10.0

    @pytest.mark.parametrize("alpha, c1", [(1.5, 0.025563667460182),
                                           (1.9, 0.031575020165404)])
    def test_drift_family_sector_constant(self, drift_1d, grid_small, alpha, c1):
        F = assemble(drift_1d[alpha], grid_small)
        out = garding_sector_check(F, 2.0)
        assert out["sector_c1"] == pytest.approx(c1, rel=1e-4)
        # the top eigenvalue of the pencil (W'S^{-1}W, S) is the same constant
        _, S, W = _interior_blocks(F)
        pencil = sla.eigh(W.T @ np.linalg.solve(S, W), S, eigvals_only=True)[-1]
        assert out["sector_c1"] == pytest.approx(pencil, rel=1e-12)
        assert out["lambda_min"] == np.linalg.eigvalsh(S)[0]

    @pytest.mark.parametrize("s, w, rotate", [
        ([2.0, 5.0], [3.0], False),
        ([1.0, 4.0, 2.0, 3.0, 0.5, 8.0], [1.0, 2.0, 1.5], True),
    ])
    def test_rotation_blocks_closed_form(self, s, w, rotate):
        # c1 = max_k w_k^2 / (s_2k s_2k+1), unchanged under S, W -> Q S Q', Q W Q'
        S, W = np.diag(s), _rotation(w)
        if rotate:
            Q, _ = np.linalg.qr(np.random.Generator(np.random.Philox(key=17))
                                .normal(size=S.shape))
            S, W = Q @ S @ Q.T, Q @ W @ Q.T
            S, W = 0.5 * (S + S.T), 0.5 * (W - W.T)
        out = garding_sector_check(_hand_form(S, W), 1.5)
        c1 = max(wk ** 2 / (s[2 * k] * s[2 * k + 1]) for k, wk in enumerate(w))
        assert out["sector_c1"] == pytest.approx(c1, rel=1e-12)
        assert out["lambda_min"] == pytest.approx(min(s), rel=1e-12)
        assert out["garding_margin"] == pytest.approx(min(s) / 2 + 0.5, rel=1e-12)
        assert out["lam_admissible"] == 1.0

    def test_zero_antisymmetric_part_gives_exact_zero(self):
        out = garding_sector_check(_hand_form(np.diag([2.0, 5.0, 1.0]), np.zeros((3, 3))), 1.0)
        assert out["sector_c1"] == 0.0

    @pytest.mark.parametrize("s", [[-2.0, 3.0], [0.0, 3.0]])
    def test_non_positive_symmetric_part_gives_inf(self, s):
        out = garding_sector_check(_hand_form(np.diag(s), _rotation([1.0])), 1.0)
        assert out["sector_c1"] == math.inf
        assert out["lambda_min"] == s[0]
        assert out["lam_admissible"] == max(1.0, 1.0 - s[0] / 2)
        assert out["garding_margin"] == s[0] / 2

    @pytest.mark.parametrize("alpha", [None, 1.5, 1.9])
    def test_probes_never_exceed_the_exact_constants(self, drift_1d, grid_small, alpha):
        kernel = (make_stable_kernel(1, 1.0, c_alpha_norm(1, 1.0)) if alpha is None
                  else drift_1d[alpha])
        F = assemble(kernel, grid_small)
        lam_G = 0.5
        out = garding_sector_check(F, lam_G)
        A, S, W = _interior_blocks(F)
        n = S.shape[0]
        x = grid_small.nodes[grid_small.interior, 0]
        rng = np.random.Generator(np.random.Philox(key=23))
        U = np.vstack([rng.normal(size=(40, n)), np.ones(n), x,
                       np.cos(np.outer(rng.uniform(0.5, 5.0, 40), x)
                              + rng.uniform(0, 2 * np.pi, (40, 1)))])
        qs = np.einsum("pi,ij,pj->p", U, S, U)
        qa = np.einsum("pi,ij,pj->p", U, A, U)
        nn = np.einsum("pi,pi->p", U, U)
        margin = qa - 0.5 * qs + (lam_G - 1.0) * nn
        tol = 1e-12 * np.linalg.norm(S, 2) * nn
        assert np.all(margin >= out["garding_margin"] * nn - tol)
        cross = (U @ W @ U.T) ** 2
        assert np.all(cross <= out["sector_c1"] * np.outer(qs, qs) * (1 + 1e-12))

    @pytest.mark.parametrize("alpha", [1.5, 1.9])
    def test_extremal_pair_attains_the_sector_constant(self, drift_1d, grid_small, alpha):
        F = assemble(drift_1d[alpha], grid_small)
        c1 = garding_sector_check(F, 1.0)["sector_c1"]
        _, S, W = _interior_blocks(F)
        L = np.linalg.cholesky(S)
        B = np.linalg.solve(L, np.linalg.solve(L, W.T).T)
        X, _, Yt = np.linalg.svd(B)
        u, v = np.linalg.solve(L.T, X[:, 0]), np.linalg.solve(L.T, Yt[0])
        assert (u @ W @ v) ** 2 / ((u @ S @ u) * (v @ S @ v)) == pytest.approx(c1, rel=1e-10)


class TestResolventConvergence:
    def test_zero_source_gives_zero_gaps(self, iso_1d, grid_small):
        out = resolvent_convergence(iso_1d, grid_small, np.zeros(grid_small.n_nodes), 5.0,
                                    probe_coefficients(iso_1d, grid_small))
        assert all(g == 0.0 for g in out["gaps"])

    def test_isotropic_gap_collapses(self, iso_1d, grid_small):
        f = lambda x: np.exp(-4 * np.asarray(x)[..., 0] ** 2)
        out = resolvent_convergence(iso_1d, grid_small, f, 5.0,
                                    probe_coefficients(iso_1d, grid_small))
        gaps = out["gaps"]
        assert all(np.diff(gaps) < 0)
        assert gaps[-1] * 4.0 <= gaps[0]

    def test_drift_family_trend(self, drift_1d, grid_small):
        f = lambda x: np.exp(-4 * np.asarray(x)[..., 0] ** 2)
        out = resolvent_convergence(drift_1d, grid_small, f, 5.0,
                                    probe_coefficients(drift_1d, grid_small))
        assert out["gaps"][-1] < out["gaps"][0]

    def test_isotropic_gap_shrinks_in_2d(self):
        fam = alpha_family(make_stable_kernel(2, 1.0), (1.5, 1.9))
        g = build_grid(2, 1.0, 1 / 16, {"type": "box", "halfwidth": 0.75})
        f = lambda x: np.exp(-4 * np.sum(np.asarray(x) ** 2, axis=-1))
        out = resolvent_convergence(fam, g, f, 5.0, probe_coefficients(fam, g))
        assert out["gaps"][1] < out["gaps"][0]

    def test_corrected_assembly_tracks_effective_coefficient(self, grid_small):
        # at alpha near 2 the plain lattice operator degenerates; the
        # corrected one reproduces the second-moment coefficient
        fam = alpha_family(make_stable_kernel(1, 1.0), (1.95,))
        F = assemble_corrected(fam[1.95], grid_small)
        u = np.cos(np.pi * grid_small.nodes[:, 0] / 1.5)
        I = grid_small.interior
        x = grid_small.nodes[I, 0]
        upp = -(np.pi / 1.5) ** 2 * np.cos(np.pi * x / 1.5)
        mid = np.abs(x) < 0.3
        ratio = np.mean((F.A @ u)[I][mid] / (-upp[mid]))
        coeff = local_coefficients(fam, np.array([[0.0]]), delta=1.0)["a"][1.95][0, 0, 0]
        assert abs(ratio - coeff) < 0.05 * coeff

