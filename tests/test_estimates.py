import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumplab import build_grid, make_stable_kernel, assemble, c_alpha_norm
from jumplab.solve import Solution
from jumplab.estimates import (
    _median,
    Cylinder,
    SpaceTimeBox,
    caccioppoli_audit,
    caccioppoli_ensemble,
    harnack_ensemble,
    harnack_quotient,
    holder_ensemble,
    holder_fit,
    log_caccioppoli_audit,
    oscillation,
    philox_stream,
    random_smooth_positive_field,
)
from jumplab.discretize import CutoffProfile


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, 2.0, 1 / 64, {"type": "box", "halfwidth": 1.5})


@pytest.fixture(scope="module")
def cyl():
    return Cylinder(0.0, 0.5, 1.0, (0.0,))


def synthetic_solution(grid, cyl, fn, n_t=65):
    t = np.linspace(cyl.t0 - cyl.ralpha, cyl.t0 + cyl.ralpha, n_t)
    snaps = np.stack([fn(tk, grid.nodes) for tk in t])
    return Solution(t, snaps, grid, {"alpha": cyl.alpha})


class TestCylinderGeometry:
    def test_early_late_disjoint(self, cyl):
        assert cyl.early_box().t_hi <= cyl.late_box().t_lo

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Cylinder(0.0, 1.5, 1.0, (0.0,))
        with pytest.raises(ValueError):
            Cylinder(0.0, 0.5, 2.5, (0.0,))


class TestHarnackQuotient:
    def test_constant_solution_gives_one(self, grid, cyl):
        sol = synthetic_solution(grid, cyl, lambda t, x: np.full(x.shape[0], 3.0))
        assert harnack_quotient(sol, cyl) == pytest.approx(1.0)

    def test_exact_homogeneity(self, grid, cyl):
        rng = philox_stream(11, 0)
        field = random_smooth_positive_field(rng, 1)
        sol = synthetic_solution(grid, cyl, lambda t, x: (1 + 0.1 * t) * field(x))
        base = harnack_quotient(sol, cyl)
        scaled = Solution(sol.times, 4.0 * sol.snapshots, grid, sol.meta)
        assert harnack_quotient(scaled, cyl) == base

    def test_vanishing_early_box_gives_sentinel(self, grid, cyl):
        ramp = lambda t, x: np.maximum(t, 0.0) * np.ones(x.shape[0])
        sol = synthetic_solution(grid, cyl, ramp)
        assert harnack_quotient(sol, cyl) == math.inf

    def test_rejects_negative_solutions(self, grid, cyl):
        sol = synthetic_solution(grid, cyl, lambda t, x: x[:, 0])
        with pytest.raises(ValueError):
            harnack_quotient(sol, cyl)


class TestHolderFit:
    def test_linear_profile_has_slope_one(self, grid, cyl):
        sol = synthetic_solution(grid, cyl, lambda t, x: x[:, 0] + 5.0)
        fit = holder_fit(sol, cyl.t0, cyl.center, 0.5)
        assert fit.gamma == pytest.approx(1.0, abs=0.05)

    def test_constant_profile_is_flat(self, grid, cyl):
        sol = synthetic_solution(grid, cyl, lambda t, x: np.full(x.shape[0], 2.0))
        fit = holder_fit(sol, cyl.t0, cyl.center, 0.5)
        assert fit.flat and fit.gamma is None

    def test_affine_invariance(self, grid, cyl):
        rng = philox_stream(5, 3)
        field = random_smooth_positive_field(rng, 1)
        sol = synthetic_solution(grid, cyl, lambda t, x: field(x) + 0.05 * t)
        g0 = holder_fit(sol, cyl.t0, cyl.center, 0.5).gamma
        aff = Solution(sol.times, -2.5 * sol.snapshots + 7.0, grid, sol.meta)
        g1 = holder_fit(aff, cyl.t0, cyl.center, 0.5).gamma
        assert abs(g0 - g1) < 1e-12

    def test_requires_enough_scales_and_points(self, grid, cyl):
        sol = synthetic_solution(grid, cyl, lambda t, x: x[:, 0])
        with pytest.raises(ValueError):
            holder_fit(sol, cyl.t0, cyl.center, 0.5, n_scales=3)
        with pytest.raises(ValueError):
            holder_fit(sol, cyl.t0, cyl.center, 0.02)

    def test_requires_alpha(self, grid, cyl):
        sol = synthetic_solution(grid, cyl, lambda t, x: x[:, 0] + 5.0)
        bare = Solution(sol.times, sol.snapshots, grid, {})
        with pytest.raises(ValueError, match="alpha"):
            holder_fit(bare, cyl.t0, cyl.center, 0.5)


class TestOscillation:
    def test_constant_field(self, grid, cyl):
        sol = synthetic_solution(grid, cyl, lambda t, x: np.full(x.shape[0], 1.5))
        assert oscillation(sol, cyl.full())["osc"] == 0.0

    def test_coordinate_field(self, grid, cyl):
        sol = synthetic_solution(grid, cyl, lambda t, x: x[:, 0])
        box = SpaceTimeBox(cyl.t0 - 0.1, cyl.t0, (0.0,), 1.0)
        out = oscillation(sol, box)
        nodes = grid.nodes[grid.ball_mask([0.0], 1.0), 0]
        assert out["osc"] == pytest.approx(nodes.max() - nodes.min())

    def test_nested_monotone(self, grid, cyl):
        rng = philox_stream(2, 0)
        field = random_smooth_positive_field(rng, 1)
        sol = synthetic_solution(grid, cyl, lambda t, x: field(x) * (1 + t ** 2))
        oscs = [oscillation(sol, SpaceTimeBox(cyl.t0 - s, cyl.t0, (0.0,), r))["osc"]
                for s, r in ((0.3, 1.0), (0.2, 0.5), (0.1, 0.25))]
        assert oscs[0] >= oscs[1] >= oscs[2]

    def test_empty_intersection_rejected(self, grid, cyl):
        sol = synthetic_solution(grid, cyl, lambda t, x: x[:, 0])
        with pytest.raises(ValueError):
            oscillation(sol, SpaceTimeBox(99.0, 100.0, (0.0,), 0.5))


class TestCaccioppoliAudit:
    def test_constant_field_two_path(self, stable_form_1d):
        # for constant u the left side reduces to u~^{1-p} E^{K_s}(tau, tau)
        F = stable_form_1d
        g = F.grid
        u = np.full(g.n_nodes, 2.0)
        p, eps = 2.0, 0.1
        rep = caccioppoli_audit(u, F, (0.0,), 0.4, 0.3, p, eps)
        tau = CutoffProfile((0.0,), 0.4, 0.15)
        tv = tau.values_on(g)
        Ks = F.ks_matrix()
        ball = g.ball_mask([0.0], 0.7)
        Kb = np.where(ball[:, None] & ball[None, :], Ks, 0.0)
        w = tv * (2.0 + eps) ** ((1 - p) / 2)
        dw = w[:, None] - w[None, :]
        expected = float(np.sum(dw * dw * Kb)) * g.cell_volume ** 2
        assert rep["lhs"] == pytest.approx(expected, rel=1e-12)
        assert np.isfinite(rep["c_hat"])

    def test_boundary_exponent_accepted_log_rejected(self, stable_form_1d):
        g = stable_form_1d.grid
        u = np.ones(g.n_nodes)
        kappa = 1 + 1.0 / g.d
        caccioppoli_audit(u, stable_form_1d, (0.0,), 0.4, 0.3, 1 - 1 / kappa, 0.1)
        with pytest.raises(ValueError):
            caccioppoli_audit(u, stable_form_1d, (0.0,), 0.4, 0.3, 1.0, 0.1)

    def test_rejects_nonpositive_shifted_field(self, stable_form_1d):
        g = stable_form_1d.grid
        u = -np.ones(g.n_nodes)
        with pytest.raises(ValueError):
            caccioppoli_audit(u, stable_form_1d, (0.0,), 0.4, 0.3, 2.0, 0.1)

    def test_dual_equals_primal_for_symmetric(self, stable_form_1d, rng):
        field = random_smooth_positive_field(rng, 1)
        u = field(stable_form_1d.grid.nodes)
        a = caccioppoli_audit(u, stable_form_1d, (0.0,), 0.4, 0.3, 0.5, 0.1,
                              variant="primal")
        b = caccioppoli_audit(u, stable_form_1d, (0.0,), 0.4, 0.3, 0.5, 0.1,
                              variant="dual")
        assert abs(a["t1"] - b["t1"]) <= 1e-12 * max(1.0, abs(a["t1"]))
        assert a["lhs"] == b["lhs"]

    def test_regression_baseline(self):
        # stored baseline (symmetric kernel, primal variant, seed 2024,
        # h = 1/16): the ensemble maximum must stay within +-50%
        baseline = {0.5: 0.465883, 2.0: 0.223570}
        k = make_stable_kernel(1, 1.0, c_alpha_norm(1, 1.0))
        g = build_grid(1, 2.0, 1 / 16, {"type": "box", "halfwidth": 1.0})
        F = assemble(k, g)
        out = caccioppoli_ensemble(F, (0.0,), 0.4, 0.3, [0.5, 2.0], 100,
                                   seed=2024)
        for p, ref in baseline.items():
            assert 0.5 * ref <= out["summary"][p]["max"] <= 1.5 * ref

    def test_ensemble_finite_and_refinement_stable(self):
        k = make_stable_kernel(1, 1.0, c_alpha_norm(1, 1.0))
        maxima = {}
        for h in (1 / 16, 1 / 32):
            g = build_grid(1, 2.0, h, {"type": "box", "halfwidth": 1.0})
            F = assemble(k, g)
            out = caccioppoli_ensemble(F, (0.0,), 0.4, 0.3, [0.5, 2.0], 20,
                                       seed=42)
            maxima[h] = {p: s["max"] for p, s in out["summary"].items()}
        for p in (0.5, 2.0):
            hi, lo = maxima[1 / 16][p], maxima[1 / 32][p]
            assert np.isfinite(hi) and np.isfinite(lo)
            assert max(hi, lo) <= 2.0 * min(hi, lo)


class TestLogAudit:
    def test_two_path_constant_field(self, stable_form_1d):
        F = stable_form_1d
        g = F.grid
        u = np.full(g.n_nodes, 1.0)
        eps = 0.5
        rep = log_caccioppoli_audit(u, F, (0.0,), 0.4, 0.3, eps)
        tau = CutoffProfile((0.0,), 0.4, 0.15)
        tv = tau.values_on(g)
        pos = tv > 0
        ball = g.ball_mask([0.0], 0.7)
        pairs = (ball & pos)[:, None] & (ball & pos)[None, :]
        Ks = np.where(pairs, F.ks_matrix(), 0.0)
        logs = np.where(pos, np.log(np.where(pos, 1.5 / np.where(pos, tv, 1), 1)), 0)
        dlog = logs[:, None] - logs[None, :]
        wmin = np.minimum(tv[:, None] ** 2, tv[None, :] ** 2)
        expected = float(np.sum(wmin * dlog * dlog * Ks)) * g.cell_volume ** 2
        assert rep["lhs"] == pytest.approx(expected, rel=1e-12)

    def test_dual_equals_primal_symmetric(self, stable_form_1d, rng):
        field = random_smooth_positive_field(rng, 1)
        u = field(stable_form_1d.grid.nodes)
        a = log_caccioppoli_audit(u, stable_form_1d, (0.0,), 0.4, 0.3, 0.1,
                                  variant="primal")
        b = log_caccioppoli_audit(u, stable_form_1d, (0.0,), 0.4, 0.3, 0.1,
                                  variant="dual")
        assert abs(a["t1"] - b["t1"]) <= 1e-12 * max(1.0, abs(a["t1"]))

    def test_large_eps_contracts_to_cutoff_limit(self, stable_form_1d, rng):
        field = random_smooth_positive_field(rng, 1)
        u = field(stable_form_1d.grid.nodes)
        vals = [log_caccioppoli_audit(u, stable_form_1d, (0.0,), 0.4, 0.3,
                                      eps)["lhs"]
                for eps in (1.0, 10.0, 100.0, 1000.0)]
        limit = log_caccioppoli_audit(np.zeros_like(u), stable_form_1d,
                                      (0.0,), 0.4, 0.3, 1.0)["lhs"]
        gaps = [abs(v - limit) for v in vals]
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]


class TestTwoDimensionalPipeline:
    def test_harnack_quotient_positive_in_2d(self):
        # anisotropic cone kernel, full assembly/solve/audit chain in d = 2
        from jumplab import Cone, make_cone_kernel
        from jumplab.quadrature import QuadSpec

        k = make_cone_kernel(1.5, 0.5, Cone((1.0, 0.0), np.pi / 4),
                             Cone((0.0, 1.0), np.pi / 8, double=True), d=2)
        g2 = build_grid(2, 2.0, 1 / 8, {"type": "ball", "radius": 1.5})
        F = assemble(k, g2, quad=QuadSpec(n_ang=32, n_panels=16))
        one = np.ones(g2.n_nodes)
        assert np.max(np.abs(F.A @ one - F.tail)) < 1e-6
        cyl = Cylinder(0.0, 0.5, 1.5, (0.0, 0.0))
        out = harnack_ensemble(F, cyl, 3, seed=21)
        assert out["min"] > 0

    def test_holder_fit_positive_in_2d(self):
        from jumplab import Cone, make_cone_kernel
        from jumplab.quadrature import QuadSpec

        k = make_cone_kernel(1.2, 0.4, Cone((1.0, 1.0), np.pi / 6),
                             Cone((1.0, -1.0), np.pi / 8, double=True), d=2)
        g2 = build_grid(2, 2.0, 1 / 16, {"type": "ball", "radius": 1.5})
        F = assemble(k, g2, quad=QuadSpec(n_ang=32, n_panels=16))
        cyl = Cylinder(0.0, 0.5, 1.2, (0.0, 0.0))
        out = holder_ensemble(F, cyl, 2, seed=5, n_scales=4, nu=1.6)
        assert all(f or (g is not None and 0 < g <= 1)
                   for g, f in zip(out["gamma_fit"], out["flat"]))


class TestEnsembles:
    def test_determinism(self):
        k = make_stable_kernel(1, 1.0, c_alpha_norm(1, 1.0))
        g = build_grid(1, 2.0, 1 / 16, {"type": "box", "halfwidth": 1.0})
        F = assemble(k, g)
        cyl = Cylinder(0.0, 0.5, 1.0, (0.0,))
        a = harnack_ensemble(F, cyl, 3, seed=9)
        b = harnack_ensemble(F, cyl, 3, seed=9)
        assert a["c_emp"] == b["c_emp"]
        c = harnack_ensemble(F, cyl, 3, seed=10)
        assert a["c_emp"] != c["c_emp"]

    def test_all_quotients_positive(self):
        k = make_stable_kernel(1, 1.0, c_alpha_norm(1, 1.0))
        g = build_grid(1, 2.0, 1 / 16, {"type": "box", "halfwidth": 1.0})
        F = assemble(k, g)
        cyl = Cylinder(0.0, 0.5, 1.0, (0.0,))
        out = harnack_ensemble(F, cyl, 5, seed=1)
        assert out["min"] > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # np.median of inf - inf, or overflow
@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=12))
def test_median_is_that_of_np_median(values):
    # odd n: the middle value; even n: (a + b) / 2; any nan gives nan
    expected, got = float(np.median(values)), _median(values)
    assert (math.isnan(expected) and math.isnan(got)) or got == expected


def test_ensemble_medians_are_those_of_np_median():
    k = make_stable_kernel(1, 1.0, c_alpha_norm(1, 1.0))
    F = assemble(k, build_grid(1, 2.0, 1 / 16, {"type": "box", "halfwidth": 1.0}))
    for n in (3, 4):
        out = harnack_ensemble(F, Cylinder(0.0, 0.5, 1.0, (0.0,)), n, seed=1)
        assert out["median"] == float(np.median(out["c_emp"]))
        out = caccioppoli_ensemble(F, (0.0,), 0.4, 0.3, [0.5, 2.0], n, seed=1)
        for p, values in out["c_hat"].items():
            assert out["summary"][p]["median"] == float(np.median(values))


def test_random_field_value_does_not_depend_on_the_batch():
    # 2D: a node's value from a one-row call is the same row of the full-grid call
    grid = build_grid(2, 1.0, 1 / 32, {"type": "box", "halfwidth": 0.75})
    field = random_smooth_positive_field(philox_stream(3, 0), 2)
    rows = np.array([field(grid.nodes[i:i + 1])[0] for i in range(grid.n_nodes)])
    assert np.array_equal(rows, field(grid.nodes))
