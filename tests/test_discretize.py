import json

import numpy as np
import pytest

from jumplab import (
    CutoffProfile,
    assemble,
    build_grid,
    c_alpha_norm,
    carre_du_champ,
    form_value,
    layer_cake_weighted_form,
    make_stable_kernel,
    transpose_form,
)
from jumplab.discretize import pair_mask_ball, pair_mask_level
from jumplab.kernels import _ScaledKernel


def _bump(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < 1.0, np.cos(np.pi * np.clip(x, -1, 1) / 2) ** 2, 0.0)


def _pv_oracle(xi, u, c, alpha, hf, window=64.0):
    """Brute-force pair-symmetric quadrature of the operator at one point."""
    offs = (np.arange(int(window / hf)) + 0.5) * hf
    u_i = float(u(np.array([xi]))[0])
    s = np.sum((2 * u_i - u(xi + offs) - u(xi - offs)) * c *
               offs ** (-1 - alpha)) * hf
    tail = 2 * u_i * c * window ** (-alpha) / alpha
    return 2 * (s + tail)


class TestBuildGrid:
    def test_counts_1d(self, grid_1d):
        assert grid_1d.n_nodes == 64
        assert int(grid_1d.interior.sum()) == 32

    def test_counts_2d_ball(self):
        g = build_grid(2, 2.0, 1 / 8, {"type": "ball", "radius": 1.0})
        assert g.n_nodes == 32 * 32
        # lattice-point count inside the unit ball of cell centers
        expected = int(np.sum(np.sqrt(np.sum(g.nodes ** 2, axis=-1)) < 1.0))
        assert int(g.interior.sum()) == expected
        assert 0 < expected < g.n_nodes

    def test_dense_cap_admits_exactly_4096_nodes(self):
        # 64 x 64 is the largest admissible dense grid
        g = build_grid(2, 2.0, 1 / 16, {"type": "ball", "radius": 1.0})
        assert g.n_nodes == 4096
        oracle = int(np.sum(np.sqrt(np.sum(g.nodes ** 2, axis=-1)) < 1.0))
        assert int(g.interior.sum()) == oracle

    @pytest.mark.parametrize("d, center", [(2, (0.3,)), (2, (0.3, 0.0, 0.1)), (1, (0.3, 0.3)),
                                           (1, 0.3), (2, [[0.3, 0.0]])])
    def test_a_center_without_d_entries_is_refused(self, d, center):
        # a short center would broadcast: (0.3,) on a 2D grid is the ball about (0.3, 0.3)
        g = build_grid(d, 1.0, 1 / 8, {"type": "box", "halfwidth": 0.5})
        with pytest.raises(ValueError, match=rf"^center .* needs d = {d} entries$"):
            g.radii(center)
        with pytest.raises(ValueError, match=rf"needs d = {d} entries$"):
            g.ball_mask(center, 0.4)
        assert g.ball_mask((0.3,) * d, 0.4).sum() > 0

    def test_rejects_nondivisible_h(self):
        with pytest.raises(ValueError):
            build_grid(1, 2.0, 0.3)

    def test_rejects_node_cap(self):
        with pytest.raises(ValueError):
            build_grid(2, 2.0, 1 / 40)

    def test_rejects_missing_collar(self):
        with pytest.raises(ValueError):
            build_grid(1, 2.0, 1 / 8, {"type": "box", "halfwidth": 2.0})

    @pytest.mark.parametrize("d, X, omega", [
        (1, 2.0, {"type": "box", "halfwidth": 1.8, "center": [0.5]}),
        (2, 1.0, {"type": "ball", "radius": 0.85, "center": [0.5, 0.0]}),
    ], ids=["box", "ball"])
    def test_rejects_an_off_centre_domain_without_collar(self, d, X, omega):
        # centred at the origin the domain keeps its collar: |c_k| + w <= X - h
        assert build_grid(d, X, 1 / 8, {**omega, "center": [0.0] * d}).interior.any()
        with pytest.raises(ValueError, match="^domain leaves no collar inside the box$"):
            build_grid(d, X, 1 / 8, omega)

    @pytest.mark.parametrize("d, center", [(1, [0.5, -0.5]), (1, [[0.0]]), (2, [0.0]),
                                           (2, [0.0, 0.0, 0.0])])
    @pytest.mark.parametrize("kind", ["box", "ball"])
    def test_rejects_a_center_whose_length_is_not_d(self, d, center, kind):
        # [0.5, -0.5] on a 1D grid would broadcast and intersect two boxes
        omega = {"type": kind, "halfwidth": 0.5, "radius": 0.5, "center": center}
        with pytest.raises(ValueError, match=rf"^domain center .* needs d = {d} entries$"):
            build_grid(d, 2.0, 1 / 8, omega)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("omega", [{"type": "box", "halfwidth": 0.1},
                                       {"type": "ball", "radius": 0.1}])
    def test_rejects_a_domain_without_nodes(self, d, omega, capfd):
        # the nodes nearest the centre sit at |x_k| = h/2 > 0.1: no interior,
        # which LAPACK would refuse later with a message on stderr
        with pytest.raises(ValueError, match=r"^domain \{'type': '(box|ball)', .*\} holds "
                                             r"no grid node at h=0\.25$"):
            build_grid(d, 1.0, 0.25, omega)
        assert capfd.readouterr() == ("", "")
        assert build_grid(d, 1.0, 0.25, {**omega, "center": [0.125] * d}).interior.sum() == 1

    def test_a_domain_without_nodes_is_a_config_error(self, tmp_path, capfd):
        from jumplab.cli import main

        config = {"harness": {"type": "solve"},
                  "kernel": {"family": "stable", "d": 1, "alpha": 1.0},
                  "grid": {"d": 1, "X": 1.0, "h": 0.25,
                           "omega": {"type": "box", "halfwidth": 0.1}}}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(config))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        out, err = capfd.readouterr()
        assert out == "" and err == ("config error: $['grid']: domain {'type': 'box', "
                                     "'halfwidth': 0.1} holds no grid node at h=0.25\n")


class TestAssembly:
    def test_exact_structure(self, coeff_form_1d):
        F = coeff_form_1d
        assert np.array_equal(F.A, F.A_s + F.A_a)
        assert np.array_equal(F.A_s, F.A_s.T)
        assert np.array_equal(F.A_a, -F.A_a.T)
        off = F.A - np.diag(np.diag(F.A))
        assert np.all(off <= 0)
        assert np.all(np.diag(F.A) >= 0)

    def test_constants_null(self, coeff_form_1d):
        one = np.ones(coeff_form_1d.grid.n_nodes)
        defect = coeff_form_1d.A @ one - coeff_form_1d.tail
        assert np.max(np.abs(defect)) < 1e-6

    def test_symmetric_kernel_has_zero_drift_part(self, stable_form_1d):
        assert np.max(np.abs(stable_form_1d.A_a)) == 0.0
        assert np.max(np.abs(stable_form_1d.drift_load)) < 1e-12

    def test_tail_matches_closed_form(self, stable_form_1d):
        g = stable_form_1d.grid
        c = c_alpha_norm(1, 1.0)
        x = g.nodes[:, 0]
        exact = 2 * c * (1.0 / (g.X - x) + 1.0 / (g.X + x))
        np.testing.assert_allclose(stable_form_1d.tail, exact, rtol=1e-10)

    def test_operator_matches_refined_quadrature_oracle(self):
        # d=1, alpha=1, N=64: nodal operator values on a smooth bump within 2%
        # of a 10x-refined pair-symmetric quadrature with analytic far tail
        alpha = 1.0
        c = c_alpha_norm(1, alpha)
        k = make_stable_kernel(1, alpha, c)
        g = build_grid(1, 1.25, 2.5 / 64, {"type": "box", "halfwidth": 1.0})
        F = assemble(k, g)
        u = _bump(g.nodes[:, 0])
        Au = F.A @ u  # exterior datum 0, no load
        xi = g.nodes[g.interior, 0]
        oracle = np.array([_pv_oracle(x, _bump, c, alpha, g.h / 10) for x in xi])
        scale = np.max(np.abs(oracle))
        err = np.max(np.abs(Au[g.interior] - oracle))
        assert err < 0.02 * scale

    def test_self_convergence_order(self):
        # halving h drives the nodal operator error down with fitted order
        # at least 0.8 (2 - alpha)
        alpha = 1.0
        c = c_alpha_norm(1, alpha)
        k = make_stable_kernel(1, alpha, c)
        errs = []
        for h in (1 / 8, 1 / 16, 1 / 32):
            g = build_grid(1, 2.0, h, {"type": "box", "halfwidth": 1.0})
            F = assemble(k, g)
            u = _bump(g.nodes[:, 0])
            i0 = int(np.argmin(np.abs(g.nodes[:, 0] - 0.25)))
            xi = g.nodes[i0, 0]
            ref = _pv_oracle(xi, _bump, c, alpha, h / 200)
            errs.append(abs((F.A @ u)[i0] - ref))
        order = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert min(order, order2) >= 0.8 * (2 - alpha)


class TestFormValue:
    def test_consistency_with_matrix(self, stable_form_1d, rng):
        F = stable_form_1d
        h = F.grid.cell_volume
        u = rng.normal(size=F.grid.n_nodes)
        two_path = h * (u @ F.A_s @ u) - h * np.sum(F.tail_sym * u * u)
        direct = form_value(F, None, u, u, part="sym", weight="difference")
        assert abs(two_path - direct) <= 1e-10 * max(abs(direct), 1.0)

    def test_constant_field_vanishes(self, coeff_form_1d):
        u = np.full(coeff_form_1d.grid.n_nodes, 3.7)
        v = np.linspace(0, 1, coeff_form_1d.grid.n_nodes)
        mask = pair_mask_ball(coeff_form_1d.grid, [0.0], 0.8)
        val = form_value(coeff_form_1d, mask, u, v, weight="onesided")
        assert abs(val) < 1e-10

    def test_mask_additivity(self, coeff_form_1d, rng):
        # restricting to a pair set and its complement splits the total
        F = coeff_form_1d
        u = rng.normal(size=F.grid.n_nodes)
        v = rng.normal(size=F.grid.n_nodes)
        mask = pair_mask_ball(F.grid, [0.2], 0.6)
        total = form_value(F, None, u, v, weight="onesided")
        inside = form_value(F, mask, u, v, weight="onesided")
        outside = form_value(F, ~mask, u, v, weight="onesided")
        assert abs(total - inside - outside) <= 1e-10 * max(1.0, abs(total))

    def test_level_set_identity(self, coeff_form_1d, rng):
        # restricted symmetric form equals twice the sum over {f(y) > f(x)},
        # exactly on the lattice (ties occur on a null set of random f)
        F = coeff_form_1d
        n = F.grid.n_nodes
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        f = rng.normal(size=n)
        ball = pair_mask_ball(F.grid, [0.0], 0.9)
        full = form_value(F, ball, u, v, part="sym", weight="difference")
        half = form_value(F, ball & pair_mask_level(f), u, v, part="sym",
                          weight="difference")
        assert abs(full - 2 * half) <= 1e-12 * max(abs(full), 1.0)
        full_a = form_value(F, ball, u, v, part="anti", weight="sum")
        half_a = form_value(F, ball & pair_mask_level(f), u, v, part="anti",
                            weight="sum")
        assert abs(full_a - 2 * half_a) <= 1e-12 * max(abs(full_a), 1.0)


class TestTranspose:
    def test_symmetric_fixed_point(self, stable_form_1d):
        Ft = transpose_form(stable_form_1d)
        assert np.array_equal(Ft.A, stable_form_1d.A)
        assert np.array_equal(Ft.tail, stable_form_1d.tail)

    def test_double_transpose_identity(self, coeff_form_1d):
        Ftt = transpose_form(transpose_form(coeff_form_1d))
        assert np.array_equal(Ftt.A, coeff_form_1d.A)
        assert np.array_equal(Ftt.tail, coeff_form_1d.tail)
        assert np.array_equal(Ftt.A_a, coeff_form_1d.A_a)

    def test_adjoint_pairing(self, coeff_form_1d, rng):
        F = coeff_form_1d
        u = rng.normal(size=F.grid.n_nodes)
        v = rng.normal(size=F.grid.n_nodes)
        Ft = transpose_form(F)
        assert abs(u @ (Ft.A @ v) - v @ (F.A @ u)) < 1e-12 * (
            1 + abs(v @ (F.A @ u)))


class TestCutoff:
    def test_two_path_against_direct_sum(self, stable_form_1d):
        tau = CutoffProfile([0.0], 0.5, 0.25)
        out = carre_du_champ(stable_form_1d, tau)
        F = stable_form_1d
        g = F.grid
        tv = tau.values_on(g)
        Ks = F.ks_matrix()
        i = int(np.argmin(np.abs(g.nodes[:, 0] - 0.1)))
        direct = float(np.sum((tv[i] - tv) ** 2 * Ks[i]) * g.cell_volume
                       + tv[i] ** 2 * 0.5 * F.tail_sym[i])
        assert abs(out["gamma"][i] - direct) < 1e-12 * max(direct, 1.0)

    def test_constant_profile_only_sees_exterior(self, stable_form_1d):
        # a profile whose plateau covers the whole box has zero lattice part
        g = stable_form_1d.grid
        tau = CutoffProfile([0.0], g.X * 2.0, 0.5)
        out = carre_du_champ(stable_form_1d, tau)
        np.testing.assert_allclose(out["gamma"], 0.5 * stable_form_1d.tail_sym,
                                   rtol=1e-12)

    def test_scaling_against_rho(self, stable_form_1d):
        fits = []
        for rho in (0.25, 0.125):
            out = carre_du_champ(stable_form_1d, CutoffProfile([0.0], 0.5, rho))
            fits.append(out["c_fit"])
        assert abs(fits[0] - fits[1]) <= 0.5 * max(fits)

    def test_kernel_scaling_is_exact(self, grid_1d):
        k1 = make_stable_kernel(1, 1.0, 1.0)
        k3 = make_stable_kernel(1, 1.0, 3.0)
        tau = CutoffProfile([0.0], 0.5, 0.25)
        g1 = carre_du_champ(assemble(k1, grid_1d), tau)["gamma"]
        g3 = carre_du_champ(assemble(k3, grid_1d), tau)["gamma"]
        np.testing.assert_allclose(g3, 3.0 * g1, rtol=1e-12)


class TestLayerCake:
    def test_two_path_identity(self, coeff_form_1d, rng):
        tau = CutoffProfile([0.0], 0.4, 0.3)
        u = rng.normal(size=coeff_form_1d.grid.n_nodes)
        out = layer_cake_weighted_form(coeff_form_1d, tau, u, part="sym")
        assert out["gap"] < 1e-12

    def test_plateau_reduces_to_restricted_form(self, stable_form_1d, rng):
        # tau == 1 on the whole pair set under consideration
        g = stable_form_1d.grid
        tau = CutoffProfile([0.0], 0.9, 0.05)
        u = rng.normal(size=g.n_nodes)
        inner = g.ball_mask([0.0], 0.9)
        out = layer_cake_weighted_form(stable_form_1d, tau, u, part="sym")
        restricted = form_value(stable_form_1d, inner[:, None] & inner[None, :],
                                u, u, part="sym", weight="difference")
        # weighted form over all nodes >= plateau-restricted piece
        assert out["value"] >= restricted - 1e-12 * abs(restricted)

    def test_comparable_kernels_stay_ordered(self, grid_1d, rng):
        k1 = make_stable_kernel(1, 1.0, 1.0)
        k2 = make_stable_kernel(1, 1.0, 2.0)
        F1, F2 = assemble(k1, grid_1d), assemble(k2, grid_1d)
        tau = CutoffProfile([0.0], 0.4, 0.3)
        for _ in range(5):
            u = rng.normal(size=grid_1d.n_nodes)
            v1 = layer_cake_weighted_form(F1, tau, u, part="sym")["value"]
            v2 = layer_cake_weighted_form(F2, tau, u, part="sym")["value"]
            assert v1 <= v2 <= 2.0 * v1 + 1e-12


class TestScaledAssembly:
    @pytest.mark.parametrize("a, s", [(1.0 + 0.5 * np.sin(0.9), 0.5 * np.cos(0.9)),
                                      (0.5, -1.0)])
    def test_a_scaled_kernel_assembles_the_scaled_base_form(self, grid_1d,
                                                            sin_coefficient_kernel, a, s):
        scaled = assemble(_ScaledKernel(sin_coefficient_kernel, a, s), grid_1d)
        base = assemble(sin_coefficient_kernel, grid_1d)
        off = ~np.eye(grid_1d.n_nodes, dtype=bool)
        np.testing.assert_allclose(scaled.A_s[off], a * base.A_s[off], rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(scaled.A_a, s * base.A_a, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(scaled.tail_sym, a * base.tail_sym, rtol=1e-12)
        np.testing.assert_allclose(scaled.tail_anti, s * base.tail_anti, rtol=1e-12)
