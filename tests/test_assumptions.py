import math

import numpy as np
import pytest

from jumplab import (
    QuadSpec,
    assemble,
    build_grid,
    c_alpha_norm,
    make_drift_kernel,
    make_stable_kernel,
    time_modulate,
)
from jumplab.assumptions import (
    INF,
    BallSpec,
    coercivity_ratio,
    cp_check,
    cutoff_sup,
    good_set_fraction,
    k1_glob_profile,
    k1_profile,
    k1_time_profile,
    k2_coefficient_D,
    poincare_constant,
    sobolev_ratio,
    suffK1_check,
    tail_sup,
)
from jumplab.kernels import get_field


@pytest.fixture(scope="module")
def ball_2d():
    return BallSpec((0.0, 0.0), 1.0)


@pytest.fixture(scope="module")
def ball_1d():
    return BallSpec((0.0,), 0.5, 0.25)


class TestBallSpec:
    def test_rejects_escape_from_domain(self):
        with pytest.raises(ValueError):
            BallSpec((3.5,), 0.5, omega={"type": "box", "halfwidth": 4.0})

    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError):
            BallSpec((0.0,), 1.5)
        with pytest.raises(ValueError):
            BallSpec((0.0,), 0.5, rho=0.9)


class TestK1Profile:
    def test_symmetric_kernel_is_zero(self, ball_1d):
        J = make_stable_kernel(1, 1.0)
        rep = k1_profile(J, J, ball_1d, INF, spacing=0.2)
        assert rep.constants["norm"] == 0.0

    def test_cone_closed_form(self, cone_kernel_2d, ball_2d):
        # W(0) = (angular measure of C u -C) * R^{a-2b} / (4 (a-2b)) with the
        # default quarter-cone: (pi/2) sqrt(2)
        J = make_stable_kernel(2, 1.5)
        rep = k1_profile(cone_kernel_2d, J, ball_2d, INF, spacing=0.5)
        expected = (math.pi / 2.0) * math.sqrt(2.0)
        assert rep.verdict == "finite"
        assert abs(rep.constants["W_max"] - expected) < 0.02 * expected

    def test_drift_closed_form_with_its_jump_on_a_panel_edge(self):
        # V = |x|^0.9, L = 0.5 < 2r = 1: at x = 0, K_a^2 / J = c^2 |y|^{-0.7} on
        # |y| <= L and 0 beyond, so W(0) = 2 c^2 L^0.3 / 0.3 (0.5 % above it
        # while the jump at L sat inside a Gauss panel)
        k = make_drift_kernel(1.0, get_field({"preset": "abs-power-V", "gamma0": 0.9}),
                              L=0.5, alpha=1.5, d=1)
        rep = k1_profile(k, make_stable_kernel(1, 1.5), BallSpec((0.0,), 0.5), INF,
                         spacing=2.0)
        assert rep.resolution["n_points"] == 1 and k.radial_breaks() == (0.5,)
        exact = 2 * k.c_norm ** 2 * 0.5 ** 0.3 / 0.3
        assert rep.constants["W_max"] == pytest.approx(exact, rel=1e-13)

    def test_divergence_pretest_at_critical_drift_order(self, ball_1d):
        # drift order beta_eff = alpha/2 exactly: borderline radial exponent
        V = lambda x: np.abs(np.asarray(x, dtype=float)[..., 0]) ** 0.5
        k = make_drift_kernel(1.0, V, L=1.0, alpha=1.0, d=1)
        J = make_stable_kernel(1, 1.0)
        rep = k1_profile(k, J, ball_1d, INF)
        assert rep.verdict == "divergent"

    @pytest.mark.parametrize("profile", [k1_profile, k1_glob_profile])
    def test_order_pretest_reads_divergent_when_J_has_the_higher_order(self, profile,
                                                                       cone_kernel_1d,
                                                                       ball_1d):
        # the 1D cone kernel's K_s has order beta = 0.5: J = stable(1, 1.5) is not
        # dominated (sup E^J / E^{K_s} doubled with each halving of h).  Against
        # J of its own order, K_a^2 / J ~ |h|^{-1.5} fails the diagonal pre-test
        rep = profile(cone_kernel_1d, make_stable_kernel(1, 1.5), ball_1d, INF, spacing=0.1)
        assert rep.verdict == "divergent" and rep.constants == {"norm": INF}
        assert rep.notes == ("J's diagonal order 1.5 exceeds K_s's 0.5: E^J is not "
                             "dominated by E^(K_s)")
        rep = profile(cone_kernel_1d, make_stable_kernel(1, 0.5), ball_1d, INF, spacing=0.1)
        assert rep.verdict == "divergent" and rep.notes.startswith("inner integrand fails")
        # equal orders pass the order pre-test
        J = make_stable_kernel(1, 1.0)
        rep = profile(J, J, ball_1d, INF, spacing=0.2)
        assert rep.verdict == "finite" and rep.constants["norm"] == 0.0

    def test_dual_invariance(self, cone_kernel_2d, ball_2d):
        J = make_stable_kernel(2, 1.5)
        a = k1_profile(cone_kernel_2d, J, ball_2d, INF, spacing=0.5)
        b = k1_profile(cone_kernel_2d.dual(), J, ball_2d, INF, spacing=0.5)
        assert abs(a.constants["norm"] - b.constants["norm"]) <= 1e-12 * (
            1 + a.constants["norm"])

    def test_quadrature_self_convergence(self, cone_kernel_2d, ball_2d):
        J = make_stable_kernel(2, 1.5)
        coarse = k1_profile(cone_kernel_2d, J, ball_2d, INF, spacing=0.5)
        fine = k1_profile(cone_kernel_2d, J, ball_2d, INF, spacing=0.5,
                          quad=QuadSpec(n_ang=512, n_panels=64))
        rel = abs(coarse.constants["norm"] - fine.constants["norm"])
        assert rel <= 0.02 * fine.constants["norm"]


class TestK1Global:
    def test_truncated_drift_has_no_far_tail(self, linear_drift_kernel):
        ball = BallSpec((0.0,), 0.5)
        J = make_stable_kernel(1, 1.0)
        loc = k1_profile(linear_drift_kernel, J, ball, INF, spacing=0.2)
        glob = k1_glob_profile(linear_drift_kernel, J, ball, INF, spacing=0.2)
        assert glob.verdict == "finite"
        # beyond the truncation radius the drift vanishes; the global norm
        # exceeds the local one only through the near-field annulus
        assert glob.constants["norm"] >= loc.constants["norm"] * 0.99

    def test_untruncated_cone_flagged_divergent(self, cone_kernel_2d, ball_2d):
        J = make_stable_kernel(2, 1.5)
        rep = k1_glob_profile(cone_kernel_2d, J, ball_2d, INF, spacing=0.5)
        assert rep.verdict == "divergent"

    def test_lipschitz_drift_matches_closed_form(self):
        # V linear with slope M, L = 1, j = 1, J = K_s: W is x-independent and
        # equals c_{d,a} M^2 * 2 * L^{2-a} / (2-a) in d = 1 (per-axis moment)
        alpha = 1.0
        M = 0.5
        V = lambda x: M * np.asarray(x, dtype=float)[..., 0]
        k = make_drift_kernel(1.0, V, L=1.0, alpha=alpha, d=1)
        J = make_stable_kernel(1, alpha, c_alpha_norm(1, alpha))
        ball = BallSpec((0.0,), 0.5)
        rep = k1_glob_profile(k, J, ball, INF, spacing=0.2)
        expected = c_alpha_norm(1, alpha) * M ** 2 * 2.0 / (2.0 - alpha)
        assert abs(rep.constants["norm"] - expected) < 0.05 * expected

    def test_lipschitz_drift_closed_form_2d(self):
        # d = 2: W = c_{2,a} |b|^2 pi L^{2-a} / (2-a) for V = b . x
        alpha = 1.2
        b = np.array([0.3, -0.4])
        V = lambda x: np.tensordot(np.asarray(x, dtype=float), b, axes=([-1], [0]))
        k = make_drift_kernel(1.0, V, L=1.0, alpha=alpha, d=2)
        J = make_stable_kernel(2, alpha, c_alpha_norm(2, alpha))
        ball = BallSpec((0.0, 0.0), 0.4)
        rep = k1_glob_profile(k, J, ball, INF, spacing=0.3)
        expected = (c_alpha_norm(2, alpha) * float(b @ b) * math.pi
                    / (2.0 - alpha))
        assert abs(rep.constants["norm"] - expected) < 0.05 * expected


class TestK2AndGoodSet:
    @pytest.mark.parametrize("lam,Lam,expected", [(1, 3, 0.5), (1, 1, 0.0),
                                                  (2, 8, 0.6)])
    def test_coefficient_constant(self, lam, Lam, expected):
        assert k2_coefficient_D(lam, Lam) == pytest.approx(expected)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            k2_coefficient_D(0.0, 1.0)
        with pytest.raises(ValueError):
            k2_coefficient_D(2.0, 1.0)

    def test_symmetric_kernel_fraction_one(self, ball_1d):
        J = make_stable_kernel(1, 1.0)
        out = good_set_fraction(J, ball_1d, 0.5, spacing=0.1)
        assert out["fraction"] == 1.0

    def test_coefficient_kernel_fraction_one(self, sin_coefficient_kernel):
        ball = BallSpec((0.0,), 0.5)
        out = good_set_fraction(sin_coefficient_kernel, ball, 0.5, spacing=0.05)
        assert out["fraction"] == 1.0

    def test_cone_fraction_matches_exact_angle_count(self, cone_kernel_2d, ball_2d):
        out = good_set_fraction(cone_kernel_2d, ball_2d, 0.5, spacing=0.2)
        # exact oracle: y is bad iff the jump direction lies in C u -C, where
        # |K_a| = K_s > D K_s; recompute the lattice count from angles alone
        z = np.asarray(ball_2d.center)
        h = out["spacing"]
        n = int(math.ceil(ball_2d.r / h))
        axes = [z[k] + h * np.arange(-n, n + 1) for k in range(2)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        pts = pts[np.linalg.norm(pts - z, axis=-1) < ball_2d.r]
        diff = z[None, :] - pts                      # jump x - y for x = center
        r = np.linalg.norm(diff, axis=-1)
        proj = np.abs(diff[:, 0])
        bad = (r > 0) & (proj >= r * math.cos(math.pi / 4))
        exact_center = 1.0 - np.sum(bad) / pts.shape[0]
        assert out["fraction_at_center"] == pytest.approx(exact_center, abs=1e-12)
        assert abs(exact_center - 0.5) < 0.1


class TestTails:
    def test_stable_closed_form(self):
        # d=1: int_{|h| > A r} |h|^{-1-a} dh = 2 (A r)^{-a} / a
        alpha = 0.7
        k = make_stable_kernel(1, alpha)
        ball = BallSpec((0.0,), 0.5)
        out = tail_sup(k, ball, A=2.0, spacing=0.25)
        R = 2.0 * 0.5
        exact = 2.0 * R ** (-alpha) / alpha
        assert abs(out["sup"] - exact) < 1e-8 * exact
        assert abs(out["sigma_fit"] - alpha) < 1e-6

    def test_truncated_drift_tail_is_symmetric_only(self, linear_drift_kernel):
        ball = BallSpec((0.0,), 0.5)
        out = tail_sup(linear_drift_kernel, ball, A=4.0, spacing=0.25)
        # beyond L=1 < Ar=2 the drift contributes nothing: sigma fits alpha
        assert abs(out["sigma_fit"] - 1.0) < 1e-6
        dual = tail_sup(linear_drift_kernel, ball, A=4.0, dual=True, spacing=0.25)
        assert abs(out["sup"] - dual.get("sup")) < 1e-10 * out["sup"]

    def test_cone_tail_decays_slower_than_alpha(self, cone_kernel_2d, ball_2d):
        out = tail_sup(cone_kernel_2d, ball_2d, A=20.0, spacing=0.5)
        assert out["sigma_fit"] < 1.5
        assert abs(out["sigma_fit"] - 0.5) < 0.1

    def test_monotone_in_A(self, cone_kernel_2d, ball_2d):
        sups = [tail_sup(cone_kernel_2d, ball_2d, A=a, spacing=0.5)["sup"]
                for a in (1.0, 2.0, 4.0)]
        assert sups[0] > sups[1] > sups[2]

    def test_nonintegrable_far_field_is_flagged(self):
        from jumplab.kernels import SplitKernel
        zero = lambda x, y: np.zeros(np.broadcast_shapes(
            np.asarray(x).shape[:-1], np.asarray(y).shape[:-1]))
        one = lambda x, y: np.ones(np.broadcast_shapes(
            np.asarray(x).shape[:-1], np.asarray(y).shape[:-1]))
        bad = SplitKernel(1, 1.0, one, zero, validate=False)
        bad.decay_orders = lambda part, dirs: np.full(dirs.shape[0], -0.5)
        ball = BallSpec((0.0,), 0.5)
        assert tail_sup(bad, ball, 2.0)["divergent"]
        assert tail_sup(bad, ball, 2.0)["sup"] == INF
        assert cutoff_sup(bad, 0.25, ball)["divergent"]


class TestCutoffSup:
    def test_closed_form_1d(self):
        alpha = 0.8
        k = make_stable_kernel(1, alpha)
        ball = BallSpec((0.0,), 0.5, 0.25)
        out = cutoff_sup(k, 0.25, ball)
        exact = 2.0 * 0.25 ** (-alpha) / alpha
        assert abs(out["sup"] - exact) < 1e-8 * exact
        assert abs(out["exponent_fit"] - alpha) < 0.02 * alpha

    def test_coefficient_bounded_by_Lam(self, sin_coefficient_kernel):
        ball = BallSpec((0.0,), 0.5, 0.25)
        out = cutoff_sup(sin_coefficient_kernel, 0.25, ball)
        base = cutoff_sup(make_stable_kernel(1, 1.0), 0.25, ball)
        assert out["sup"] <= 3.0 * base["sup"] * (1 + 1e-9)

    def test_monotone_in_zeta(self, sin_coefficient_kernel):
        ball = BallSpec((0.0,), 0.5, 0.25)
        s1 = cutoff_sup(sin_coefficient_kernel, 0.5, ball)["sup"]
        s2 = cutoff_sup(sin_coefficient_kernel, 0.25, ball)["sup"]
        assert s2 > s1


class TestSpectralChecks:
    def test_poincare_scale_invariance(self, grid_1d):
        k = make_stable_kernel(1, 1.0)
        F = assemble(k, grid_1d)
        c_big = poincare_constant(F, BallSpec((0.0,), 0.8))
        c_small = poincare_constant(F, BallSpec((0.0,), 0.4))
        # the r^alpha scaling is absorbed by definition: ratio close to 1
        assert 0.9 < c_big["constant"] / c_small["constant"] < 1.45

    def test_poincare_kernel_scaling_exact(self, grid_1d):
        F1 = assemble(make_stable_kernel(1, 1.0, 1.0), grid_1d)
        F3 = assemble(make_stable_kernel(1, 1.0, 3.0), grid_1d)
        ball = BallSpec((0.0,), 0.5)
        c1 = poincare_constant(F1, ball)["constant"]
        c3 = poincare_constant(F3, ball)["constant"]
        assert abs(c3 - c1 / 3.0) < 1e-10 * c1

    def test_coercivity_identity_kernel(self, grid_1d):
        F = assemble(make_stable_kernel(1, 1.0), grid_1d)
        out = coercivity_ratio(F, BallSpec((0.0,), 0.5))
        assert abs(out["ratio"] - 1.0) < 1e-10

    def test_coercivity_homogeneity(self, grid_1d):
        F2 = assemble(make_stable_kernel(1, 1.0, 2.0), grid_1d)
        out = coercivity_ratio(F2, BallSpec((0.0,), 0.5))
        assert abs(out["ratio"] - 2.0) < 1e-10

    def test_cone_coercivity_below_one(self, cone_kernel_2d):
        g = build_grid(2, 2.0, 1 / 8, {"type": "ball", "radius": 1.5})
        F = assemble(cone_kernel_2d, g, quad=QuadSpec(n_ang=32, n_panels=16))
        out = coercivity_ratio(F, BallSpec((0.0, 0.0), 0.75))
        assert 0.0 < out["ratio"] < 1.0

    def test_poincare_and_sobolev_run_in_2d(self, rng):
        g = build_grid(2, 2.0, 1 / 8, {"type": "ball", "radius": 1.5})
        k = make_stable_kernel(2, 1.0)
        F = assemble(k, g, quad=QuadSpec(n_ang=32, n_panels=16))
        ball = BallSpec((0.0, 0.0), 0.5, 0.25)
        assert poincare_constant(F, ball)["constant"] > 0
        assert sobolev_ratio(F, ball, 0.25, rng=rng)["ratio"] > 0

    def test_sobolev_rejects_alpha_geq_d(self, grid_1d):
        F = assemble(make_stable_kernel(1, 1.0), grid_1d)
        with pytest.raises(ValueError):
            sobolev_ratio(F, BallSpec((0.0,), 0.5), 0.25)

    def test_sobolev_finite_and_monotone_in_kernel(self, rng):
        g = build_grid(1, 2.0, 1 / 16, {"type": "box", "halfwidth": 1.0})
        F1 = assemble(make_stable_kernel(1, 0.5, 1.0), g)
        F2 = assemble(make_stable_kernel(1, 0.5, 2.0), g)
        ball = BallSpec((0.0,), 0.5, 0.25)
        r1 = sobolev_ratio(F1, ball, 0.25, rng=rng)["ratio"]
        r2 = sobolev_ratio(F2, ball, 0.25, rng=rng)["ratio"]
        assert np.isfinite(r1) and r1 > 0
        assert r2 <= r1 * (1 + 1e-9)

    def test_sobolev_exceeds_constant_field_value(self, rng):
        # v = 1 has zero energy: its quotient is the closed form
        # |B_r|_h^{(d-alpha)/d} rho^alpha / |B_{r+rho}|_h in lattice measure
        alpha, rho = 0.5, 0.25
        g = build_grid(1, 2.0, 1 / 16, {"type": "box", "halfwidth": 1.0})
        F = assemble(make_stable_kernel(1, alpha), g)
        ball = BallSpec((0.0,), 0.5, rho)
        out = sobolev_ratio(F, ball, rho, rng=rng)
        vol_r = float(g.ball_mask([0.0], 0.5).sum()) * g.cell_volume
        vol_R = float(g.ball_mask([0.0], 0.75).sum()) * g.cell_volume
        const_ratio = vol_r ** ((1 - alpha) / 1.0) * rho ** alpha / vol_R
        assert out["ratio"] >= const_ratio * (1 - 1e-12)


class TestSuffK1:
    def test_linear_potential_passes_theta_inf(self):
        V = lambda x: 2.0 * np.asarray(x, dtype=float)[..., 0]
        ball = BallSpec((0.0,), 0.5)
        rep = suffK1_check(V, ball, INF, gamma=1.0, alpha=1.0, spacing=0.05)
        assert rep.verdict == "finite"
        assert abs(rep.constants["seminorm_max"] - 2.0) < 1e-9

    def test_sin_potential_lattice_bound(self):
        V = lambda x: np.sin(np.asarray(x, dtype=float)[..., 0])
        ball = BallSpec((0.0,), 0.5)
        rep = suffK1_check(V, ball, INF, gamma=1.0, alpha=1.0, spacing=0.05)
        assert rep.constants["seminorm_max"] <= 1.0 + 1e-9

    def test_abs_power_potential_finite_for_moderate_theta(self):
        # V = |x|^{g0} with g0 < alpha/2: the local Hoelder quotient blows up
        # like |x|^{-eps}, integrable in L^{2 theta} iff eps < d/(2 theta)
        gamma0 = 0.4
        eps = 0.2
        V = lambda x: np.abs(np.asarray(x, dtype=float)[..., 0]) ** gamma0
        ball = BallSpec((0.0,), 0.5)
        norms, sups = [], []
        for spacing in (0.02, 0.005):
            rep = suffK1_check(V, ball, theta=2.0, gamma=gamma0 + eps,
                               alpha=1.0, spacing=spacing)
            norms.append(rep.constants["holder_norm"])
            sups.append(rep.constants["seminorm_max"])
        # the pointwise quotient behaves like |x|^{-eps}: its lattice sup
        # diverges under refinement while the L^{2 theta} norm stays put
        assert sups[1] > sups[0] * 1.15
        assert abs(norms[1] - norms[0]) < 0.25 * norms[0]

    def test_rejects_low_gamma(self):
        V = lambda x: np.asarray(x, dtype=float)[..., 0]
        with pytest.raises(ValueError):
            suffK1_check(V, BallSpec((0.0,), 0.5), INF, gamma=0.4, alpha=1.0)


class TestStridedLattice:
    # past max_points nodes the lattice keeps every s-th one, and each kept
    # node stands for the volume of the nodes it replaces: finite-theta norms
    # then agree with the unstrided ones of the coarser grid
    ball = BallSpec((0.0, 0.0), 0.25)

    def test_k1_norm(self, cone_kernel_2d):
        J = make_stable_kernel(2, 1.5)
        reps = [k1_profile(cone_kernel_2d, J, self.ball, 2.0, grid=build_grid(2, 1.0, h),
                           quad=QuadSpec(n_ang=64, n_panels=16)) for h in (1 / 16, 1 / 32)]
        assert [r.resolution["n_points"] for r in reps] == [208, 271]   # 812 nodes at 1/32
        coarse, strided = (r.constants["norm"] for r in reps)
        assert abs(strided - coarse) <= 0.02 * coarse

    def test_suffk1_norm(self, monkeypatch):
        import jumplab.assumptions as assumptions

        V = get_field({"preset": "sin-V", "scale": 0.5})
        monkeypatch.setattr(assumptions, "_SUFFK1_POINTS", 300)
        reps = [suffK1_check(V, self.ball, 2.0, 1.0, 1.5, grid=build_grid(2, 1.0, h))
                for h in (1 / 16, 1 / 32)]
        assert [r.resolution["n_points"] for r in reps] == [208, 271]
        coarse, strided = (r.constants["holder_norm"] for r in reps)
        assert abs(strided - coarse) <= 0.02 * coarse


class TestDriftAbsorptionSplit:
    def test_chebyshev_level_split_bounds(self):
        # the absorption argument splits W = int K_a^2/J into a small-level
        # part controlled in L^{d/alpha} and a bounded remainder; both bounds
        # are exact finite-sum inequalities on the lattice
        alpha, theta = 0.7, 3.0
        from jumplab.kernels import get_pair_field
        from jumplab import make_coefficient_kernel
        k = make_coefficient_kernel(get_pair_field("sin-coefficient"), alpha,
                                    1.0, 3.0, d=1)
        J = make_stable_kernel(1, alpha)
        ball = BallSpec((0.0,), 0.5)
        from jumplab.quadrature import ball_integral
        from jumplab.assumptions import _lattice, _safe_ratio
        pts, h, _ = _lattice(ball, 1.0, None, 0.02, max_points=2000)
        from jumplab import QuadSpec
        W = ball_integral(lambda x, y: _safe_ratio(k, J, x, y), pts,
                          np.asarray(ball.center), 1.0, 1, QuadSpec(n_ang=2),
                          singular_order=0.0)

        def lp(v, p):
            return (np.sum(np.abs(v) ** p) * h) ** (1 / p)

        w_theta = lp(W, theta)
        rng = np.random.Generator(np.random.Philox(key=3))
        v2 = rng.uniform(0, 1, W.shape[0]) ** 2
        for M in (0.1, 0.3, 1.0):
            W1 = np.where(W > M, W, 0.0)
            # Chebyshev + Hoelder level bound
            assert lp(W1, 1 / alpha) <= (
                w_theta ** (theta * alpha) * M ** (1 - theta * alpha)
                * (1 + 1e-12))
            # the split controls the weighted mass by the two norms
            lhs = float(np.sum(v2 * W) * h)
            rhs = (lp(W1, 1 / alpha) * lp(v2, 1 / (1 - alpha))
                   + M * float(np.sum(v2) * h))
            assert lhs <= rhs * (1 + 1e-12)


class TestCP:
    def test_truth_table(self):
        out = cp_check(2, 1.0, 4.0, 2.0)
        assert out["cp"] is True and out["cp_hat"] is False
        out = cp_check(2, 1.0, INF, INF)
        assert out["cp"] is True and out["cp_hat"] is True

    def test_rejects_theta_at_or_below_threshold(self):
        with pytest.raises(ValueError):
            cp_check(2, 1.0, 2.0, 2.0)


class TestTimeProfile:
    def test_separable_scaling(self, linear_drift_kernel):
        ball = BallSpec((0.0,), 0.5)
        J = make_stable_kernel(1, 1.0, c_alpha_norm(1, 1.0))
        tk = time_modulate(linear_drift_kernel, lambda t: 1.0, 1.0, 1.0,
                           ka_scale=lambda t: 0.5)
        static = k1_profile(linear_drift_kernel, J, ball, INF, spacing=0.2)
        timed = k1_time_profile(tk, J, ball, INF, INF, np.linspace(0, 1, 5),
                                quad=QuadSpec(n_ang=2))
        assert timed.constants["norm"] == pytest.approx(
            0.25 * static.constants["norm"], rel=1e-10)


def test_audits_refuse_a_form_without_its_kernel_order(grid_1d):
    from jumplab import DiscreteForm
    from jumplab.discretize import CutoffProfile, carre_du_champ
    from jumplab.estimates import caccioppoli_audit, log_caccioppoli_audit

    F = assemble(make_stable_kernel(1, 1.5, c_alpha_norm(1, 1.5)), grid_1d)
    bare = DiscreteForm(F.grid, F.A_s, F.A_a, F.tail_sym, F.tail_anti)
    ball = BallSpec((0.0,), 0.5, 0.25)
    u = 1.0 + 0.1 * np.cos(grid_1d.nodes[:, 0])
    audits = {
        "poincare": lambda G: poincare_constant(G, ball)["alpha"],
        "coercivity": lambda G: coercivity_ratio(G, ball)["alpha"],
        "sobolev": lambda G: sobolev_ratio(G, ball, 0.25)["ratio"],
        "caccioppoli": lambda G: caccioppoli_audit(u, G, (0.0,), 0.4, 0.3, 2.0, 0.1)["t2"],
        "log_caccioppoli": lambda G: log_caccioppoli_audit(u, G, (0.0,), 0.4, 0.3, 0.1)["t2"],
        "carre_du_champ": lambda G: carre_du_champ(G, CutoffProfile((0.0,), 0.4, 0.3))["c_fit"],
    }
    for name, audit in audits.items():
        with pytest.raises(ValueError, match=r"form\.meta\['kernel'\]\['alpha'\]"):
            audit(bare)
    assert audits["poincare"](F) == audits["coercivity"](F) == 1.5
    rho = 0.3
    gamma = carre_du_champ(F, CutoffProfile((0.0,), 0.4, rho))
    assert gamma["c_fit"] == gamma["sup"] * rho ** 1.5
