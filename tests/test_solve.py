import gc
import weakref
from dataclasses import replace
from types import SimpleNamespace

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
from jumplab.estimates import Cylinder, harnack_ensemble, holder_ensemble
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["t_start", "t_end", "dt", "exterior", "d_const"])
    def test_rejects_non_finite_numbers(self, stable_form_1d, name, bad):
        # nan <= 0 is False: without the finiteness check these fail later, in
        # the step count, the time grid or the load
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            problem_with(stable_form_1d, **{name: bad})


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

    @pytest.mark.parametrize("variant", ["dula", "Dual", "", "primal "])
    def test_rejects_an_unknown_variant(self, stable_form_1d, variant):
        # any variant but "primal" used to take A^T: "dula" ran as "dual"
        form = replace(stable_form_1d)
        with pytest.raises(ValueError, match=f"^unknown variant {variant!r}$"):
            resolvent_solve(form, 2.0, np.ones(form.grid.n_nodes), variant)
        assert form._systems == {}


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
    times, snaps, _ = old_solve_parabolic(problem)
    assert np.array_equal(sol.times, times)
    assert np.array_equal(sol.snapshots, snaps)
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
        stepper = solve_module._Stepper(p, p.form_at(sol.times[0]), sol.times[0])
        u, I = sol.snapshots[0].copy(), grid_1d.interior
        for k in range(len(sol.times) - 1):
            u[I], _ = stepper.step(u[I], sol.times[k + 1], k)
            u[~I] = stepper.g
            assert np.array_equal(u, sol.snapshots[k + 1])

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_alternating_forms(self, coeff_form_1d, stable_form_1d, rng, theta, monkeypatch):
        # two assembled forms in turn over 10 steps: each form keeps its
        # system, so the run builds and factors one per form, not one per switch
        forms, dt = (replace(coeff_form_1d), replace(stable_form_1d)), 0.02
        g = coeff_form_1d.grid
        p = ParabolicProblem(lambda t: forms[round(t / dt) % 2], rng.uniform(0.2, 1.0, g.n_nodes),
                             0.0, 10 * dt, dt, collar=_collar("array", g), exterior=0.4,
                             theta=theta, variant="dual_ext", d_const=0.7)
        systems, factors = [], []
        init, lu_factor = solve_module._InteriorSystem.__init__, solve_module.sla.lu_factor
        with monkeypatch.context() as m:     # the frozen loop's lu_factor is not counted
            m.setattr(solve_module._InteriorSystem, "__init__",
                      lambda self, *args: systems.append(args[0]) or init(self, *args))
            m.setattr(solve_module.sla, "lu_factor", lambda M: factors.append(M) or lu_factor(M))
            sol = solve_parabolic(p)
        assert len(systems) == len(factors) == 2
        assert systems[0] is forms[0] and systems[1] is forms[1]
        times, snaps, _ = old_solve_parabolic(p)
        assert sol.meta["n_steps"] == 10 and np.array_equal(sol.times, times)
        assert np.array_equal(sol.snapshots, snaps)
        assert np.all(sol.residuals <= RESIDUAL_TOL)

    @pytest.mark.parametrize("variant", ["primal", "dual"])
    def test_resolvent(self, coeff_form_1d, rng, variant):
        f = rng.normal(size=coeff_form_1d.grid.n_nodes)
        assert np.array_equal(resolvent_solve(coeff_form_1d, 2.0, f, variant),
                              old_resolvent_solve(coeff_form_1d, 2.0, f, variant))


def _count_systems_and_factors(monkeypatch):
    """Lists that grow by the operator of each interior system built and by
    the matrix of each lu_factor call."""
    systems, factors = [], []
    init, lu_factor = solve_module._InteriorSystem.__init__, solve_module.sla.lu_factor
    monkeypatch.setattr(solve_module._InteriorSystem, "__init__",
                        lambda self, *args: systems.append(args[1]) or init(self, *args))
    monkeypatch.setattr(solve_module.sla, "lu_factor", lambda M: factors.append(M) or lu_factor(M))
    return systems, factors


class TestSharedSystem:
    """A form keeps one interior system per operator (A, or A^T for dual and
    dual_ext): every run, theta step, resolvent and ensemble member on it
    shares its factors, bit for bit."""

    @pytest.mark.parametrize("ensemble", [harnack_ensemble, holder_ensemble])
    def test_an_ensemble_builds_one_system_and_factors_once(self, sin_coefficient_kernel,
                                                            ensemble, monkeypatch):
        grid = build_grid(1, 2.0, 1 / 64, {"type": "box", "halfwidth": 1.5})
        form, cyl = assemble(sin_coefficient_kernel, grid), Cylinder(0.0, 0.5, 1.0, (0.0,))
        with monkeypatch.context() as m:     # each member builds and factors its own system of A
            m.setattr(solve_module, "_system",
                      lambda F, variant: solve_module._InteriorSystem(F, "A"))
            per_member = ensemble(replace(form), cyl, 3, seed=4)
        systems, factors = _count_systems_and_factors(monkeypatch)
        shared = ensemble(form, cyl, 3, seed=4)
        assert systems == ["A"] and len(factors) == 1
        assert shared == per_member

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_five_cycled_forms_factor_five_times(self, grid_1d, sin_coefficient_kernel, rng,
                                                 theta, monkeypatch):
        tk = time_modulate(sin_coefficient_kernel, lambda t: 1.0 + 0.4 * np.sin(3 * t), 0.6, 1.4,
                           ka_scale=lambda t: 0.5 * np.cos(t))
        forms, dt = [assemble_time(tk, grid_1d, 0.1 * j) for j in range(5)], 0.01
        p = ParabolicProblem(lambda t: forms[round(t / dt) % 5],
                             rng.uniform(0.2, 1.0, grid_1d.n_nodes), 0.0, 20 * dt, dt,
                             collar=_collar("array", grid_1d), exterior=0.3, theta=theta)
        block, slices = solve_module._InteriorSystem.block, []
        with monkeypatch.context() as m:     # the frozen loop's lu_factor is not counted
            systems, factors = _count_systems_and_factors(m)
            m.setattr(solve_module._InteriorSystem, "block",
                      lambda s, cols: slices.append(cols is s.I) or block(s, cols))
            sol = solve_parabolic(p)
        assert sol.meta["n_steps"] == 20
        assert len(systems) == len(factors) == 5
        # A_II is sliced once per form for M and, under theta < 1, once for the explicit part
        assert sum(slices) == (10 if theta < 1 else 5)
        assert all(len(F._systems) == 1 for F in forms)
        times, snaps, _ = old_solve_parabolic(p)
        assert np.array_equal(sol.times, times) and np.array_equal(sol.snapshots, snaps)

    def test_a_dropped_form_is_freed_without_the_cyclic_collector(self, coeff_form_1d):
        form = replace(coeff_form_1d)
        f = np.cos(form.grid.nodes[:, 0])
        gc.disable()
        try:
            harnack_ensemble(form, Cylinder(0.0, 0.5, 1.0, (0.0,)), 2, seed=1)
            resolvent_solve(form, 2.0, f, "dual")
            assert set(form._systems) == {"A", "A^T"}
            ref = weakref.ref(form)
            del form
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("inside", [False, True], ids=["between", "inside"])
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("variant", ["primal", "dual"])
    def test_a_resolvent_changes_no_bit_of_a_run(self, coeff_form_1d, rng, variant, theta,
                                                 inside):
        # the resolvent refactors the shared system; a run's bound M, LU
        # factors and explicit part stay, also when it runs inside a step
        # (through the collar datum) and a redo of that step reads them
        form = replace(coeff_form_1d)
        g, f = form.grid, rng.normal(size=form.grid.n_nodes)
        collar = _collar("callable", g)

        def collar_and_resolvent(t, x):
            resolvent_solve(form, 2.0, f, variant)
            return collar(t, x)

        p = ParabolicProblem(form, rng.uniform(0.2, 1.0, g.n_nodes), 0.0, 0.1, 0.02,
                             collar=collar_and_resolvent if inside else collar, exterior=0.4,
                             theta=theta, variant=variant)
        first = _assert_matches_frozen_loop(p)
        u = resolvent_solve(form, 2.0, f, variant)
        second = solve_parabolic(p)
        assert np.array_equal(second.snapshots, first.snapshots)
        assert np.array_equal(second.residuals, first.residuals)
        assert np.array_equal(resolvent_solve(form, 2.0, f, variant), u)
        assert np.array_equal(u, old_resolvent_solve(form, 2.0, f, variant))

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_a_timed_dual_ext_run_reads_the_drift_load_once(self, coeff_form_1d, rng, theta,
                                                            monkeypatch):
        # the drift load is a full A^T 1 product: sliced once per system, not per step
        form, g = replace(coeff_form_1d), coeff_form_1d.grid
        p = ParabolicProblem(form, rng.uniform(0.2, 1.0, g.n_nodes), 0.0, 0.1, 0.02,
                             f=lambda t, x: np.sin(2.0 * x[..., 0]) * (1.0 + t),
                             collar=_collar("callable", g), exterior=0.4, theta=theta,
                             variant="dual_ext", d_const=0.7)
        times, snaps, _ = old_solve_parabolic(p)
        reads, drift_load = [], DiscreteForm.drift_load
        monkeypatch.setattr(DiscreteForm, "drift_load",
                            property(lambda F: reads.append(F) or drift_load.fget(F)))
        sol = solve_parabolic(p)
        assert reads == [form]
        assert np.array_equal(sol.times, times) and np.array_equal(sol.snapshots, snaps)
        solve_parabolic(p)
        assert reads == [form]

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_a_dual_and_a_dual_ext_run_share_one_factorisation(self, coeff_form_1d, rng, theta,
                                                              monkeypatch):
        # both variants step A^T; dual_ext only adds the constant-drift load
        form, g = replace(coeff_form_1d), coeff_form_1d.grid
        dual = ParabolicProblem(form, rng.uniform(0.2, 1.0, g.n_nodes), 0.0, 0.1, 0.02,
                                collar=_collar("array", g), exterior=0.4, theta=theta,
                                variant="dual")
        runs = (dual, replace(dual, variant="dual_ext", d_const=0.7))
        frozen = [old_solve_parabolic(p) for p in runs]
        systems, factors = _count_systems_and_factors(monkeypatch)
        sols = [solve_parabolic(p) for p in runs]
        assert systems == ["A^T"] and len(factors) == 1 and set(form._systems) == {"A^T"}
        for sol, (times, snaps, _) in zip(sols, frozen):
            assert np.array_equal(sol.times, times) and np.array_equal(sol.snapshots, snaps)
        assert not np.array_equal(sols[0].snapshots, sols[1].snapshots)

    def test_a_dual_ext_resolvent_reads_no_drift_load(self, coeff_form_1d, rng, monkeypatch):
        # a resolvent has no load beyond f: dual_ext solves with the factors of A^T
        form, f = replace(coeff_form_1d), rng.normal(size=coeff_form_1d.grid.n_nodes)
        reads, drift_load = [], DiscreteForm.drift_load
        monkeypatch.setattr(DiscreteForm, "drift_load",
                            property(lambda F: reads.append(F) or drift_load.fget(F)))
        u = resolvent_solve(form, 2.0, f, "dual_ext")
        assert reads == [] and set(form._systems) == {"A^T"}
        assert np.array_equal(u, resolvent_solve(replace(coeff_form_1d), 2.0, f, "dual"))
        assert np.array_equal(u, old_resolvent_solve(form, 2.0, f, "dual"))


def test_step_residual_above_tolerance_raises(stable_form_1d, monkeypatch):
    monkeypatch.setattr(solve_module, "RESIDUAL_TOL", -1.0)
    p = problem_with(stable_form_1d, collar=lambda t, x: 0.5)
    with pytest.raises(RuntimeError, match=r"step 0 to t=0\.01: relative residual"):
        solve_parabolic(p)
    with pytest.raises(RuntimeError, match=r"step 2 to t=0\.03: relative residual"):
        theta_step(p, np.zeros(stable_form_1d.grid.n_nodes), 0.02)


def test_a_step_that_meets_the_check_solves_with_getrs_alone(stable_form_1d, monkeypatch):
    # a step calls the getrs of solve.sla (``_lapack``) directly: lu_solve only refines
    calls = []
    monkeypatch.setattr(solve_module.sla, "lu_solve", lambda *args: calls.append(args))
    p = problem_with(stable_form_1d, u0=np.ones(stable_form_1d.grid.n_nodes), collar=0.5)
    sol = solve_parabolic(p)
    assert calls == [] and np.all(sol.residuals <= RESIDUAL_TOL)


def test_a_missed_first_solve_redoes_the_step_with_refinement(coeff_form_1d, rng, monkeypatch):
    # LU factors of a slightly perturbed M: the first solve misses RESIDUAL_TOL
    g = coeff_form_1d.grid
    p = ParabolicProblem(replace(coeff_form_1d), rng.uniform(0.2, 1.0, g.n_nodes), 0.0, 0.02, 0.02,
                         collar=_collar("array", g), exterior=0.4)
    stepper = solve_module._Stepper(p, p.form, p.t_start)
    system = stepper.system
    system.factor(1.0, p.theta * p.dt)
    system.lu = solve_module.sla.lu_factor(system.M * (1.0 + 1e-6))
    real, calls = solve_module._solve_refined, []

    def spy(lu_piv, M, b):
        calls.append((lu_piv, M, b.copy()))
        return real(lu_piv, M, b)

    monkeypatch.setattr(solve_module, "_solve_refined", spy)
    u_I, rel_res = stepper.step(p.u0[g.interior], p.t_start + p.dt, 0)
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


def _replace_getrs(monkeypatch, getrs):
    """Put a stand-in for ``solve.sla`` in place whose getrs(*args) is
    getrs(real getrs, *args); lu_factor and lu_solve are the real ones."""
    real = solve_module.sla
    monkeypatch.setattr(solve_module, "sla", SimpleNamespace(
        lu_factor=real.lu_factor, lu_solve=real.lu_solve,
        getrs=lambda *args: getrs(real.getrs, *args)))


class TestBlockCheck:
    """solve_parabolic checks its steps a block at a time (``_BLOCK`` = 4 here):
    a bad solve anywhere in a block is redone once, through ``_solve_refined``,
    and the run ends on the bits of a run without the bad solve."""

    STEPS = 10      # blocks of steps 0-3, 4-7 and the partial 8-9; the two-form
    #                 problem changes form at step 6 and checks steps 4-5 before

    @pytest.fixture
    def problem(self, request, coeff_form_1d, stable_form_1d, rng):
        kind, theta = request.param     # forms of their own: the tests tamper with their systems
        g, F, F2 = coeff_form_1d.grid, replace(coeff_form_1d), replace(stable_form_1d)
        form = F if kind == "fixed" else (lambda t: F if t < 0.065 else F2)
        return ParabolicProblem(form, rng.uniform(0.2, 1.0, g.n_nodes), 0.0, 0.1, 0.01,
                                collar=_collar("callable", g), exterior=0.4, theta=theta)

    @staticmethod
    def corrupt(monkeypatch, step, how):
        """Make the getrs call of the given step return how(x); returns the
        list of (x, residual) that ``_solve_refined`` gives back."""
        real_refined, calls, refined = solve_module._solve_refined, [0], []

        def bad_getrs(getrs, *a):
            x, info = getrs(*a)
            calls[0] += 1
            return (how(x) if calls[0] - 1 == step else x), info

        def spy(*args):
            refined.append(real_refined(*args))
            return refined[-1]

        _replace_getrs(monkeypatch, bad_getrs)
        monkeypatch.setattr(solve_module, "_solve_refined", spy)
        return refined

    @pytest.mark.parametrize("how", [lambda x: x * (1.0 + 1e-9), lambda x: x * np.nan],
                             ids=["scaled", "nan"])
    @pytest.mark.parametrize("step", [4, 5, 7, 9], ids=lambda k: f"step{k}")
    @pytest.mark.parametrize("problem", [(kind, theta) for kind in ("fixed", "two-form")
                                         for theta in (0.5, 1.0)], indirect=True,
                             ids=lambda p: f"{p[0]}-theta{p[1]}")
    def test_a_bad_solve_is_redone_once_and_changes_no_bit(self, problem, step, how,
                                                           monkeypatch):
        monkeypatch.setattr(solve_module, "_BLOCK", 4)
        clean = solve_parabolic(problem)
        assert len(clean.times) == self.STEPS + 1
        refined = self.corrupt(monkeypatch, step, how)
        sol = solve_parabolic(problem)
        assert len(refined) == 1
        x, rel_res = refined[0]
        I = clean.grid.interior
        assert np.array_equal(x, clean.snapshots[step + 1, I])      # the bad step, redone
        assert np.array_equal(sol.times, clean.times)
        assert np.array_equal(sol.snapshots, clean.snapshots)
        assert sol.residuals[step] == rel_res <= RESIDUAL_TOL

    @pytest.mark.parametrize("problem", [(kind, theta) for kind in ("fixed", "two-form")
                                         for theta in (0.5, 1.0)], indirect=True,
                             ids=lambda p: f"{p[0]}-theta{p[1]}")
    def test_a_clean_run_calls_step_and_getrs_once_per_step(self, problem, monkeypatch):
        monkeypatch.setattr(solve_module, "_BLOCK", 4)
        real_step, real_factor = solve_module._Stepper.step, solve_module._InteriorSystem.factor
        steps, solves, systems = [0], [0], []

        def step(stepper, *args):
            steps[0] += 1
            return real_step(stepper, *args)

        def factor(system, *args, **kwargs):
            real_factor(system, *args, **kwargs)
            systems.append(system)

        def counting_getrs(getrs, *a):
            solves[0] += 1
            return getrs(*a)

        monkeypatch.setattr(solve_module._Stepper, "step", step)
        monkeypatch.setattr(solve_module._InteriorSystem, "factor", factor)
        _replace_getrs(monkeypatch, counting_getrs)
        monkeypatch.setattr(solve_module.sla, "lu_solve", None)    # no redo in a clean run
        sol = solve_parabolic(problem)
        assert steps[0] == solves[0] == sol.meta["n_steps"] == self.STEPS
        assert len(systems) == (2 if callable(problem.form) else 1)
        assert np.all(sol.residuals <= RESIDUAL_TOL)

    @pytest.mark.parametrize("step", [0, 3, 5, 9], ids=lambda k: f"step{k}")
    @pytest.mark.parametrize("problem", [("fixed", 1.0), ("two-form", 0.5)], indirect=True,
                             ids=lambda p: f"{p[0]}-theta{p[1]}")
    def test_each_step_reports_its_own_residual(self, problem, step, monkeypatch):
        # a tolerance that lets x (1 + eps) stand: its relative residual is eps
        monkeypatch.setattr(solve_module, "_BLOCK", 4)
        monkeypatch.setattr(solve_module, "RESIDUAL_TOL", 1.0)
        refined = self.corrupt(monkeypatch, step, lambda x: x * (1.0 + 1e-6))
        sol = solve_parabolic(problem)
        assert refined == []
        assert sol.residuals[step] == pytest.approx(1e-6, rel=1e-6)
        assert np.all(np.delete(sol.residuals, step) < 1e-12)

    @pytest.mark.parametrize("later_error", [False, True])
    @pytest.mark.parametrize("problem", [("fixed", 1.0)], indirect=True)
    def test_a_step_that_misses_after_refinement_raises_with_its_index(self, problem,
                                                                      later_error,
                                                                      monkeypatch):
        # the miss raises although the collar datum fails at step 6, before
        # the block of steps 4-7 is full: the first failure is reported
        if later_error:
            collar = problem.collar

            def failing_collar(t, x):
                if t > 0.065:
                    raise ValueError("no collar datum")
                return collar(t, x)

            monkeypatch.setattr(problem, "collar", failing_collar)
        monkeypatch.setattr(solve_module, "_BLOCK", 4)
        self.corrupt(monkeypatch, 5, lambda x: x * np.nan)
        real_refined = solve_module._solve_refined    # the redo of step 5 misses too
        monkeypatch.setattr(solve_module, "_solve_refined",
                            lambda *args: (real_refined(*args)[0], 1.0))
        with pytest.raises(RuntimeError,
                           match=r"^step 5 to t=0\.06: relative residual 1\.000e\+00"):
            solve_parabolic(problem)

    @pytest.mark.parametrize("problem", [("fixed", 1.0)], indirect=True)
    def test_every_check_writes_its_product_into_one_buffer(self, problem, monkeypatch):
        monkeypatch.setattr(solve_module, "_BLOCK", 4)
        real_check, seen = solve_module._Stepper.check, []

        def check(stepper):
            n = stepper.n
            real_check(stepper)
            if n:
                B, X, M = stepper.B[:n], stepper.X[:n], stepper.system.M
                assert np.array_equal(stepper.R[:n], B - X @ M.T)
                seen.append(stepper.R)

        monkeypatch.setattr(solve_module._Stepper, "check", check)
        solve_parabolic(problem)
        assert len(seen) == 3 and all(R is seen[0] for R in seen)
        assert seen[0].shape == (4, int(problem.form.grid.interior.sum()))


def _offset_box_1d():
    return build_grid(1, 2.0, 1 / 16, {"type": "box", "halfwidth": 0.75, "center": [-0.5]})


def _offset_box_2d():
    return build_grid(2, 1.0, 1 / 8, {"type": "box", "halfwidth": 0.5,
                                      "center": [0.25, -0.125]})


class TestNodeRuns:
    """solve_parabolic writes its snapshots by runs of consecutive nodes."""

    GRIDS = {
        "box-1d": (lambda: build_grid(1, 2.0, 1 / 64, {"type": "box", "halfwidth": 1.5}), 1),
        "ball-2d": (lambda: build_grid(2, 1.0, 1 / 32, {"type": "ball", "radius": 0.75}), 48),
        "offset-box-2d": (_offset_box_2d, 8),
        "offset-box-1d": (_offset_box_1d, 1),
    }

    @pytest.mark.parametrize("name", GRIDS)
    def test_runs_write_what_a_fancy_index_writes(self, name, rng):
        make, n_runs = self.GRIDS[name]
        grid = make()
        assert len(solve_module._runs(grid.interior)) == n_runs
        for mask in (grid.interior, grid.collar):
            runs = solve_module._runs(mask)
            values = rng.normal(size=(5, int(mask.sum())))
            for vals, rows in ((values, slice(0, 5)), (values[2], 2), (values[3], slice(1, 5))):
                got, expected = np.zeros((5, grid.n_nodes)), np.zeros((5, grid.n_nodes))
                solve_module._write(got[rows], runs, vals)
                expected[rows, mask] = vals
                assert np.array_equal(got, expected)

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("collar", ["array", "callable"])
    @pytest.mark.parametrize("make", [_offset_box_1d, _offset_box_2d],
                             ids=["offset-box-1d", "offset-box-2d"])
    def test_off_centre_runs_match_the_frozen_loop(self, make, collar, theta, rng):
        grid = make()
        kernel = make_stable_kernel(grid.d, 1.0, c_alpha_norm(grid.d, 1.0))
        p = ParabolicProblem(assemble(kernel, grid), rng.uniform(0.2, 1.0, grid.n_nodes),
                             0.0, 0.1, 0.02, collar=_collar(collar, grid), exterior=0.4,
                             theta=theta)
        _assert_matches_frozen_loop(p)
