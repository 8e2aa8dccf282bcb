import numpy as np
import pytest
from _oracles import _old_solve_refined, old_resolvent_solve, old_solve_parabolic

import jumplab.solve as solve_module
from jumplab import (
    DiscreteForm,
    ParabolicProblem,
    assemble,
    assemble_time,
    build_grid,
    c_alpha_norm,
    default_dt,
    make_stable_kernel,
    resolvent_solve,
    solve_dual_ext,
    solve_parabolic,
    theta_step,
    time_modulate,
    transpose_form,
)
from jumplab.solve import RESIDUAL_TOL


def small_form(n=32, alpha=1.0):
    k = make_stable_kernel(1, alpha, c_alpha_norm(1, alpha))
    g = build_grid(1, 2.0, 4.0 / n, {"type": "box", "halfwidth": 1.0})
    return assemble(k, g)


def problem_with(form, **kw):
    defaults = dict(u0=np.zeros(form.grid.n_nodes), t_start=0.0, t_end=0.1,
                    dt=0.01)
    defaults.update(kw)
    return ParabolicProblem(form, **defaults)


class TestThetaStep:
    def test_zero_data_stays_zero(self, stable_form_1d):
        p = problem_with(stable_form_1d)
        u = theta_step(p, np.zeros(stable_form_1d.grid.n_nodes), 0.0)
        assert np.all(u == 0.0)

    def test_eigenvector_decay_is_exact(self):
        F = small_form(n=32)
        I = F.grid.interior
        A_II = F.A[np.ix_(I, I)]
        w, V = np.linalg.eigh(A_II)
        mu = w[3]
        u0 = np.zeros(F.grid.n_nodes)
        u0[I] = V[:, 3]
        dt = 0.05
        p = problem_with(F, u0=u0, dt=dt, t_end=5 * dt, theta=1.0)
        sol = solve_parabolic(p)
        for k_step in range(6):
            expected = (1.0 + dt * mu) ** (-k_step) * u0[I]
            assert np.max(np.abs(sol.snapshots[k_step][I] - expected)) <= 1e-10

    def test_constants_are_preserved(self, coeff_form_1d):
        c0 = 2.5
        g = coeff_form_1d.grid
        p = problem_with(coeff_form_1d, u0=np.full(g.n_nodes, c0),
                         collar=lambda t, x: c0, exterior=c0,
                         dt=0.01, t_end=0.05)
        sol = solve_parabolic(p)
        assert np.max(np.abs(sol.snapshots[-1] - c0)) < 1e-6


class TestSolveParabolic:
    def test_snapshot_count_and_residuals(self, stable_form_1d):
        p = problem_with(stable_form_1d, dt=0.02, t_end=0.1)
        sol = solve_parabolic(p)
        assert sol.snapshots.shape[0] == 6
        assert np.all(sol.residuals <= 1e-10)

    def test_positivity_for_implicit_euler(self, coeff_form_1d, rng):
        g = coeff_form_1d.grid
        for _ in range(10):
            u0 = rng.uniform(0.0, 2.0, g.n_nodes)
            gc = rng.uniform(0.1, 1.0)
            p = problem_with(coeff_form_1d, u0=u0, collar=lambda t, x, v=gc: v,
                             exterior=0.5, dt=0.02, t_end=0.1, theta=1.0)
            sol = solve_parabolic(p)
            assert np.min(sol.snapshots) >= 0.0

    def test_comparison_principle(self, coeff_form_1d, rng):
        g = coeff_form_1d.grid
        u0 = rng.uniform(0.0, 1.0, g.n_nodes)
        v0 = u0 + rng.uniform(0.0, 1.0, g.n_nodes)
        common = dict(dt=0.02, t_end=0.1, theta=1.0, exterior=0.0,
                      collar=lambda t, x: 0.2)
        su = solve_parabolic(problem_with(coeff_form_1d, u0=u0, **common))
        sv = solve_parabolic(problem_with(coeff_form_1d, u0=v0, **common))
        assert np.all(sv.snapshots >= su.snapshots - 1e-12)

    def test_energy_decay_symmetric(self, stable_form_1d, rng):
        g = stable_form_1d.grid
        u0 = np.zeros(g.n_nodes)
        u0[g.interior] = rng.normal(size=int(g.interior.sum()))
        p = problem_with(stable_form_1d, u0=u0, dt=0.01, t_end=0.1)
        sol = solve_parabolic(p)
        energies = [u @ stable_form_1d.A_s @ u for u in sol.snapshots]
        assert np.all(np.diff(energies) <= 1e-12)

    def test_dual_equals_primal_for_symmetric(self, stable_form_1d, rng):
        g = stable_form_1d.grid
        u0 = rng.uniform(0, 1, g.n_nodes)
        kw = dict(u0=u0, dt=0.02, t_end=0.1, collar=lambda t, x: 0.3,
                  exterior=0.1)
        s1 = solve_parabolic(problem_with(stable_form_1d, variant="primal", **kw))
        s2 = solve_parabolic(problem_with(stable_form_1d, variant="dual", **kw))
        assert np.max(np.abs(s1.snapshots - s2.snapshots)) < 1e-12

    def test_richardson_time_order(self):
        # implicit Euler is first order: Richardson fit >= 0.9
        F = small_form(n=32)
        g = F.grid
        u0 = np.exp(-4 * g.nodes[:, 0] ** 2)
        sols = {}
        for dt in (0.02, 0.01, 0.005):
            p = problem_with(F, u0=u0, dt=dt, t_end=0.2,
                             collar=lambda t, x: 0.0)
            sols[dt] = solve_parabolic(p).snapshots[-1]
        e1 = np.linalg.norm(sols[0.02] - sols[0.005])
        e2 = np.linalg.norm(sols[0.01] - sols[0.005])
        # errors against the finest run scale like dt - dt_fine
        order = np.log2((e1 / e2)) / np.log2((0.02 - 0.005) / (0.01 - 0.005))
        assert order >= 0.9

    def test_rejects_bad_parameters(self, stable_form_1d):
        with pytest.raises(ValueError):
            problem_with(stable_form_1d, dt=-0.1)
        with pytest.raises(ValueError):
            problem_with(stable_form_1d, theta=0.2)
        with pytest.raises(ValueError):
            problem_with(stable_form_1d, variant="weird")


class TestDualExt:
    def test_zero_drift_equals_dual(self, coeff_form_1d, rng):
        u0 = rng.uniform(0.5, 1.5, coeff_form_1d.grid.n_nodes)
        kw = dict(u0=u0, dt=0.02, t_end=0.1, collar=lambda t, x: 1.0,
                  exterior=1.0)
        s_dual = solve_parabolic(problem_with(coeff_form_1d, variant="dual", **kw))
        s_ext = solve_dual_ext(problem_with(coeff_form_1d, variant="dual_ext",
                                            d_const=0.0, **kw))
        assert np.max(np.abs(s_dual.snapshots - s_ext.snapshots)) < 1e-14

    def test_symmetric_kernel_ignores_drift_constant(self, stable_form_1d, rng):
        u0 = rng.uniform(0.5, 1.5, stable_form_1d.grid.n_nodes)
        kw = dict(u0=u0, dt=0.02, t_end=0.1)
        s0 = solve_dual_ext(problem_with(stable_form_1d, variant="dual_ext",
                                         d_const=0.0, **kw))
        s7 = solve_dual_ext(problem_with(stable_form_1d, variant="dual_ext",
                                         d_const=7.0, **kw))
        assert np.max(np.abs(s0.snapshots - s7.snapshots)) < 1e-12

    def test_shift_identity(self, coeff_form_1d, rng):
        # dual solution minus a constant solves the extended dual with the
        # negated constant as drift datum, down to solver tolerance
        D = 0.8
        g = coeff_form_1d.grid
        u0 = rng.uniform(1.0, 2.0, g.n_nodes)
        collar_val = 1.3
        dual = solve_parabolic(problem_with(
            coeff_form_1d, variant="dual", u0=u0, dt=0.01, t_end=0.08,
            collar=lambda t, x: collar_val, exterior=0.9))
        shifted = solve_dual_ext(problem_with(
            coeff_form_1d, variant="dual_ext", d_const=-D, u0=u0 - D,
            dt=0.01, t_end=0.08, collar=lambda t, x: collar_val - D,
            exterior=0.9 - D))
        gap = np.max(np.abs(shifted.snapshots - (dual.snapshots - D)))
        assert gap < 1e-9


class TestTimeDependentOperator:
    def test_identity_modulation_matches_static(self, grid_1d,
                                                sin_coefficient_kernel, rng):
        from jumplab import assemble_time, time_modulate
        tk = time_modulate(sin_coefficient_kernel, lambda t: 1.0, 1.0, 1.0)
        form_fn = lambda t: assemble_time(tk, grid_1d, t)
        static = assemble(sin_coefficient_kernel, grid_1d)
        u0 = rng.uniform(0.2, 1.0, grid_1d.n_nodes)
        kw = dict(u0=u0, t_start=0.0, t_end=0.1, dt=0.02,
                  collar=lambda t, x: 0.5, exterior=0.3)
        s_time = solve_parabolic(ParabolicProblem(form_fn, **kw))
        s_stat = solve_parabolic(ParabolicProblem(static, **kw))
        assert np.max(np.abs(s_time.snapshots - s_stat.snapshots)) < 1e-12

    def test_crank_nicolson_with_varying_modulation(self, grid_1d,
                                                    sin_coefficient_kernel, rng):
        from jumplab import assemble_time, time_modulate
        tk = time_modulate(sin_coefficient_kernel,
                           lambda t: 1.0 + 0.4 * np.sin(3 * t), 0.6, 1.4)
        form_fn = lambda t: assemble_time(tk, grid_1d, t)
        u0 = rng.uniform(0.2, 1.0, grid_1d.n_nodes)
        p = ParabolicProblem(form_fn, u0, 0.0, 0.1, 0.02, theta=0.5,
                             collar=lambda t, x: 0.5, exterior=0.3)
        sol = solve_parabolic(p)
        assert np.all(np.isfinite(sol.snapshots))
        assert np.all(sol.residuals <= 1e-10)


class TestResolvent:
    def test_zero_source(self, stable_form_1d):
        u = resolvent_solve(stable_form_1d, 2.0, np.zeros(stable_form_1d.grid.n_nodes))
        assert np.all(u == 0.0)

    def test_identity_limit(self, stable_form_1d, rng):
        # huge lam: u ~ f / lam on interior nodes
        f = rng.normal(size=stable_form_1d.grid.n_nodes)
        lam = 1e8
        u = resolvent_solve(stable_form_1d, lam, f)
        I = stable_form_1d.grid.interior
        np.testing.assert_allclose(u[I], f[I] / lam, rtol=1e-4)

    def test_contraction_for_symmetric_positive(self, stable_form_1d, rng):
        f = rng.normal(size=stable_form_1d.grid.n_nodes)
        lam = 3.0
        u = resolvent_solve(stable_form_1d, lam, f)
        I = stable_form_1d.grid.interior
        assert lam * np.linalg.norm(u[I]) <= np.linalg.norm(f[I]) * (1 + 1e-10)

    def test_rejects_nonpositive_lam(self, stable_form_1d):
        with pytest.raises(ValueError):
            resolvent_solve(stable_form_1d, 0.0, np.zeros(stable_form_1d.grid.n_nodes))


def test_default_dt_tracks_parabolic_scaling():
    assert default_dt(1 / 16, 1.0) == pytest.approx(1 / 64)
    assert default_dt(1 / 4, 2.0) < default_dt(1 / 4, 1.0)


def test_discrete_duality_pairing_is_conserved(coeff_form_1d, rng):
    # with zero data the implicit-Euler flows of the operator and its
    # transpose satisfy <u_k, v_{n-k}> = const exactly (resolvent adjointness)
    F = coeff_form_1d
    g = F.grid
    n_steps = 6
    dt = 0.02
    u0 = np.zeros(g.n_nodes)
    v0 = np.zeros(g.n_nodes)
    u0[g.interior] = rng.normal(size=int(g.interior.sum()))
    v0[g.interior] = rng.normal(size=int(g.interior.sum()))
    su = solve_parabolic(ParabolicProblem(F, u0, 0.0, n_steps * dt, dt,
                                          variant="primal"))
    sv = solve_parabolic(ParabolicProblem(F, v0, 0.0, n_steps * dt, dt,
                                          variant="dual"))
    pairings = [float(su.snapshots[k] @ sv.snapshots[n_steps - k])
                for k in range(n_steps + 1)]
    assert np.max(np.abs(np.diff(pairings))) < 1e-9 * max(abs(pairings[0]), 1.0)


def test_order_one_semigroup_matches_poisson_kernel():
    # the c-normalized order-1 kernel generates du/dt = -2 (-Lap)^{1/2} u,
    # whose semigroup is the Poisson kernel at time 2t: starting from an
    # exact profile, one more step of the flow must land on the exact target
    alpha = 1.0
    k = make_stable_kernel(1, alpha, c_alpha_norm(1, alpha))
    g = build_grid(1, 8.0, 1 / 16, {"type": "box", "halfwidth": 7.0})
    F = assemble(k, g)
    x = g.nodes[:, 0]
    poisson = lambda s: s / (np.pi * (s * s + x * x))
    t0, step = 0.25, 0.25
    sol = solve_parabolic(ParabolicProblem(F, poisson(2 * t0), 0.0, step,
                                           0.0025))
    target = poisson(2 * (t0 + step))
    inner = g.interior & (np.abs(x) < 3.0)
    err = np.max(np.abs(sol.snapshots[-1][inner] - target[inner]))
    assert err < 0.03 * np.max(target[inner])


def _collar(kind, grid):
    """An array collar datum, or a callable one that moves in time."""
    if kind == "array":
        return 0.5 + 0.25 * np.cos(3.0 * grid.nodes[grid.collar][:, 0])
    return lambda t, x: 0.5 + 0.25 * np.cos(3.0 * x[..., 0] + t)


def _assert_matches_frozen_loop(problem):
    sol = solve_parabolic(problem)
    times, snaps, residuals = old_solve_parabolic(problem)
    assert np.array_equal(sol.times, times)
    assert np.array_equal(sol.snapshots, snaps)
    assert np.array_equal(sol.residuals, residuals)
    assert np.all(sol.residuals <= RESIDUAL_TOL)
    return sol


class TestAgainstFrozenLoop:
    """The shared interior system and the precomputed load change no bit."""

    @pytest.mark.parametrize("collar", ["array", "callable"])
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("variant", ["primal", "dual", "dual_ext"])
    def test_fixed_form(self, coeff_form_1d, rng, variant, theta, collar):
        g = coeff_form_1d.grid
        source = (lambda t, x: np.sin(2.0 * x[..., 0]) * (1.0 + t)) if collar == "callable" else None
        p = ParabolicProblem(coeff_form_1d, rng.uniform(0.2, 1.0, g.n_nodes), 0.0, 0.1, 0.02,
                             f=source, collar=_collar(collar, g), exterior=0.4, theta=theta,
                             variant=variant, d_const=0.7)
        sol = _assert_matches_frozen_loop(p)
        assert np.array_equal(theta_step(p, sol.snapshots[0], p.t_start), sol.snapshots[1])

    @pytest.mark.parametrize("collar", ["array", "callable"])
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_ball_form_2d(self, cone_kernel_2d, rng, theta, collar):
        # the interior of a ball is no contiguous run of node indices
        grid = build_grid(2, 1.0, 1 / 8, {"type": "ball", "radius": 0.6})
        assert np.any(np.diff(np.flatnonzero(grid.interior)) > 1)
        p = ParabolicProblem(assemble(cone_kernel_2d, grid), rng.uniform(0.2, 1.0, grid.n_nodes),
                             0.0, 0.1, 0.02, collar=_collar(collar, grid), exterior=0.4,
                             theta=theta, variant="dual_ext", d_const=0.7)
        sol = _assert_matches_frozen_loop(p)
        assert np.array_equal(theta_step(p, sol.snapshots[0], p.t_start), sol.snapshots[1])

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_time_dependent_form(self, grid_1d, sin_coefficient_kernel, rng, theta):
        tk = time_modulate(sin_coefficient_kernel, lambda t: 1.0 + 0.4 * np.sin(3 * t),
                           0.6, 1.4, ka_scale=lambda t: 0.5 * np.cos(t))
        form_fn = lambda t: assemble_time(tk, grid_1d, t)
        p = ParabolicProblem(form_fn, rng.uniform(0.2, 1.0, grid_1d.n_nodes), 0.0, 0.06, 0.02,
                             collar=_collar("array", grid_1d), exterior=0.3, theta=theta,
                             variant="dual_ext", d_const=0.5)
        _assert_matches_frozen_loop(p)

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_theta_steps_through_one_stepper(self, grid_1d, sin_coefficient_kernel, rng,
                                             theta):
        tk = time_modulate(sin_coefficient_kernel, lambda t: 1.0 + 0.4 * np.sin(3 * t), 0.6, 1.4)
        p = ParabolicProblem(lambda t: assemble_time(tk, grid_1d, t),
                             rng.uniform(0.2, 1.0, grid_1d.n_nodes), 0.0, 0.06, 0.02,
                             collar=_collar("callable", grid_1d), exterior=0.3, theta=theta)
        sol = _assert_matches_frozen_loop(p)
        stepper, u = solve_module._Stepper(p), sol.snapshots[0]
        for k in range(len(sol.times) - 1):
            u = theta_step(p, u, sol.times[k], stepper)
            assert np.array_equal(u, sol.snapshots[k + 1])

    @pytest.mark.parametrize("variant", ["primal", "dual"])
    def test_resolvent(self, coeff_form_1d, rng, variant):
        f = rng.normal(size=coeff_form_1d.grid.n_nodes)
        assert np.array_equal(resolvent_solve(coeff_form_1d, 2.0, f, variant),
                              old_resolvent_solve(coeff_form_1d, 2.0, f, variant))


def test_step_residual_above_tolerance_raises(stable_form_1d, monkeypatch):
    monkeypatch.setattr(solve_module, "RESIDUAL_TOL", -1.0)
    p = problem_with(stable_form_1d, collar=lambda t, x: 0.5)
    with pytest.raises(RuntimeError, match=r"step 0 to t=0\.01: relative residual"):
        solve_parabolic(p)
    with pytest.raises(RuntimeError, match=r"step 2 to t=0\.03: relative residual"):
        theta_step(p, np.zeros(stable_form_1d.grid.n_nodes), 0.02)


def test_a_step_that_meets_the_check_solves_with_getrs_alone(stable_form_1d, monkeypatch):
    # scipy.linalg itself stays solve.sla, so the step inlines lu_solve as its getrs
    calls = []
    monkeypatch.setattr(solve_module.sla, "lu_solve", lambda *args: calls.append(args))
    p = problem_with(stable_form_1d, u0=np.ones(stable_form_1d.grid.n_nodes), collar=0.5)
    sol = solve_parabolic(p)
    assert calls == [] and np.all(sol.residuals <= RESIDUAL_TOL)


def test_a_missed_first_solve_redoes_the_step_with_refinement(coeff_form_1d, rng, monkeypatch):
    # LU factors of a slightly perturbed M: the first solve misses RESIDUAL_TOL
    g = coeff_form_1d.grid
    p = ParabolicProblem(coeff_form_1d, rng.uniform(0.2, 1.0, g.n_nodes), 0.0, 0.02, 0.02,
                         collar=_collar("array", g), exterior=0.4)
    stepper = solve_module._Stepper(p)
    system = stepper.matrices(p.t_start + p.dt)
    system.lu = solve_module.sla.lu_factor(system.M * (1.0 + 1e-6))
    real, calls = solve_module._solve_refined, []

    def spy(lu_piv, M, b):
        calls.append((lu_piv, M, b.copy()))
        return real(lu_piv, M, b)

    monkeypatch.setattr(solve_module, "_solve_refined", spy)
    u_I, rel_res = stepper.step(p.u0[g.interior], p.t_start)
    assert len(calls) == 1
    x_old, rel_old = _old_solve_refined(*calls[0])
    assert np.array_equal(u_I, x_old) and rel_res == rel_old
    assert rel_res <= RESIDUAL_TOL


@pytest.mark.filterwarnings("ignore:invalid value")   # the residual of an inf solve
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("collar", ["array", "callable"])
def test_non_finite_collar_raises_as_the_frozen_loop(coeff_form_1d, collar, bad):
    g = coeff_form_1d.grid
    datum = np.full(int(g.collar.sum()), 0.5)
    datum[3] = bad
    p = problem_with(coeff_form_1d, u0=np.ones(g.n_nodes), dt=0.02, t_end=0.04,
                     collar=datum if collar == "array" else (lambda t, x: datum))
    with pytest.raises(ValueError) as old:
        old_solve_parabolic(p)
    with pytest.raises(ValueError, match="must not contain infs or NaNs") as new:
        solve_parabolic(p)
    assert str(new.value) == str(old.value)
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        theta_step(p, np.ones(g.n_nodes), 0.0)


def test_meta_records_horizon_and_alpha(stable_form_1d):
    sol = solve_parabolic(problem_with(stable_form_1d, dt=0.03, t_end=0.1))
    assert sol.meta["n_steps"] == 3 and len(sol.times) == 4
    assert sol.meta["t_end_requested"] == 0.1
    assert sol.meta["t_end"] == sol.times[-1] == pytest.approx(0.09)
    assert sol.meta["alpha"] == 1.0



def _singular_form(grid, diag):
    """A form whose A_s is diag * I, so lam = -diag makes lam I + A_II singular."""
    n = grid.n_nodes
    return DiscreteForm(grid, diag * np.eye(n), np.zeros((n, n)), np.zeros(n), np.zeros(n))


@pytest.mark.filterwarnings("ignore")     # lu_factor warns on the exact zero pivot
def test_singular_resolvent_reports_smallest_singular_value(grid_1d):
    f = np.ones(grid_1d.n_nodes)
    with pytest.raises(RuntimeError, match=r"resolvent solve unstable \(s_min ~ 0\.000e\+00\)"):
        resolvent_solve(_singular_form(grid_1d, -2.0), 2.0, f)


@pytest.mark.filterwarnings("ignore")
def test_singular_step_raises_its_residual_error(grid_1d):
    dt = 0.01
    p = ParabolicProblem(_singular_form(grid_1d, -1.0 / dt), np.ones(grid_1d.n_nodes),
                         0.0, 2 * dt, dt)
    with pytest.raises(RuntimeError, match=r"step 0 to t=0\.01: relative residual inf"):
        solve_parabolic(p)
