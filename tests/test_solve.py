import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from _oracles import _old_solve_refined, old_resolvent_solve, old_solve_parabolic, system_matrix

import jumplab.estimates as estimates
import jumplab.solve as solve_module
from jumplab import (
    DiscreteForm,
    ParabolicProblem,
    assemble,
    build_grid,
    c_alpha_norm,
    default_dt,
    make_stable_kernel,
    resolvent_solve,
    solve_dual_ext,
    solve_parabolic,
    theta_step,
)
from jumplab.estimates import Cylinder, harnack_ensemble, holder_ensemble
from jumplab.kernels import _ScaledKernel
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
                         collar=c0, exterior=c0,
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
            p = problem_with(coeff_form_1d, u0=u0, collar=gc,
                             exterior=0.5, dt=0.02, t_end=0.1, theta=1.0)
            sol = solve_parabolic(p)
            assert np.min(sol.snapshots) >= 0.0

    def test_comparison_principle(self, coeff_form_1d, rng):
        g = coeff_form_1d.grid
        u0 = rng.uniform(0.0, 1.0, g.n_nodes)
        v0 = u0 + rng.uniform(0.0, 1.0, g.n_nodes)
        common = dict(dt=0.02, t_end=0.1, theta=1.0, exterior=0.0,
                      collar=0.2)
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
        kw = dict(u0=u0, dt=0.02, t_end=0.1, collar=0.3,
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
            p = problem_with(F, u0=u0, dt=dt, t_end=0.2, collar=0.0)
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

    @pytest.mark.parametrize("name", ["collar", "f", "u0"])
    def test_rejects_callable_data(self, stable_form_1d, name):
        # the data are fixed in time: a function of (t, x) is refused, not read
        with pytest.raises(ValueError, match=f"^{name} must be an array fixed in time, "
                                             f"not a callable$"):
            problem_with(stable_form_1d, **{name: lambda t, x: 0.5})

    def test_rejects_a_form_function(self, stable_form_1d):
        # one form steps the whole run: a function t -> form is refused, not called
        u0 = np.zeros(stable_form_1d.grid.n_nodes)
        with pytest.raises(ValueError, match="^form must be a DiscreteForm, not function$"):
            ParabolicProblem(lambda t: stable_form_1d, u0, 0.0, 0.1, 0.01)

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
        kw = dict(u0=u0, dt=0.02, t_end=0.1, collar=1.0,
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
            collar=collar_val, exterior=0.9))
        shifted = solve_dual_ext(problem_with(
            coeff_form_1d, variant="dual_ext", d_const=-D, u0=u0 - D,
            dt=0.01, t_end=0.08, collar=collar_val - D,
            exterior=0.9 - D))
        gap = np.max(np.abs(shifted.snapshots - (dual.snapshots - D)))
        assert gap < 1e-9


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
    def test_rejects_an_unknown_variant(self, stable_form_1d, variant, sla_calls):
        # any variant but "primal" used to take A^T: "dula" ran as "dual"
        form = replace(stable_form_1d)
        with pytest.raises(ValueError, match=f"^unknown variant {variant!r}$"):
            resolvent_solve(form, 2.0, np.ones(form.grid.n_nodes), variant)
        assert sla_calls.lu_factor_calls == sla_calls.lu_solve_calls == []


def test_default_dt_tracks_parabolic_scaling():
    assert default_dt(1 / 16, 1.0) == pytest.approx(1 / 32)
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


def _collar(grid):
    """A collar datum that varies over the collar nodes."""
    return 0.5 + 0.25 * np.cos(3.0 * grid.nodes[grid.collar][:, 0])


def _source(grid):
    """A nonzero source on the interior nodes."""
    return np.sin(2.0 * grid.nodes[grid.interior][:, 0])


def _assert_factored(sla_calls, *matrices):
    """The recorded lu_factor calls factored exactly these matrices, in order."""
    factored = [M for M, _ in sla_calls.lu_factor_calls]
    assert len(factored) == len(matrices)
    assert all(np.array_equal(M, expected) for M, expected in zip(factored, matrices))


def _assert_matches_frozen_loop(problem):
    sol = solve_parabolic(problem)
    times, snaps, _ = old_solve_parabolic(problem)
    assert np.array_equal(sol.times, times)
    assert np.array_equal(sol.snapshots, snaps)
    assert np.all(sol.residuals <= RESIDUAL_TOL)
    return sol


class TestAgainstFrozenLoop:
    """The shared interior system and the precomputed load change no bit."""

    @pytest.mark.parametrize("source", [None, "array"])
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("variant", ["primal", "dual", "dual_ext"])
    def test_fixed_form(self, coeff_form_1d, rng, variant, theta, source):
        g = coeff_form_1d.grid
        p = ParabolicProblem(coeff_form_1d, rng.uniform(0.2, 1.0, g.n_nodes), 0.0, 0.1, 0.02,
                             f=_source(g) if source else None, collar=_collar(g), exterior=0.4,
                             theta=theta, variant=variant, d_const=0.7)
        sol = _assert_matches_frozen_loop(p)
        assert np.array_equal(theta_step(p, sol.snapshots[0], p.t_start), sol.snapshots[1])

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_ball_form_2d(self, cone_kernel_2d, rng, theta):
        # the interior of a ball is no contiguous run of node indices
        grid = build_grid(2, 1.0, 1 / 8, {"type": "ball", "radius": 0.6})
        assert np.any(np.diff(np.flatnonzero(grid.interior)) > 1)
        p = ParabolicProblem(assemble(cone_kernel_2d, grid), rng.uniform(0.2, 1.0, grid.n_nodes),
                             0.0, 0.1, 0.02, collar=_collar(grid), exterior=0.4,
                             theta=theta, variant="dual_ext", d_const=0.7)
        sol = _assert_matches_frozen_loop(p)
        assert np.array_equal(theta_step(p, sol.snapshots[0], p.t_start), sol.snapshots[1])

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_theta_steps_chain_into_the_run(self, coeff_form_1d, rng, theta):
        g = coeff_form_1d.grid
        p = ParabolicProblem(coeff_form_1d, rng.uniform(0.2, 1.0, g.n_nodes), 0.0, 0.06, 0.02,
                             collar=_collar(g), exterior=0.3, theta=theta)
        sol = _assert_matches_frozen_loop(p)
        u = sol.snapshots[0]
        for k in range(len(sol.times) - 1):
            assert sol.times[k] + p.dt == sol.times[k + 1]     # theta_step steps to t + dt
            u = theta_step(p, u, sol.times[k])
            assert np.array_equal(u, sol.snapshots[k + 1])

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_scaled_form(self, grid_1d, sin_coefficient_kernel, rng, theta):
        # K_s and K_a scaled apart: a form whose drift is not the base's
        form = assemble(_ScaledKernel(sin_coefficient_kernel, 1.2, 0.5), grid_1d)
        p = ParabolicProblem(form, rng.uniform(0.2, 1.0, grid_1d.n_nodes), 0.0, 0.06, 0.02,
                             collar=_collar(grid_1d), exterior=0.3, theta=theta,
                             variant="dual_ext", d_const=0.5)
        _assert_matches_frozen_loop(p)

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_runs_on_two_forms_in_turn(self, coeff_form_1d, stable_form_1d, rng, theta,
                                       sla_calls):
        # each form keeps its system across the runs on the other: the four
        # runs factor one system per form, not one per run
        forms, g = (replace(coeff_form_1d), replace(stable_form_1d)), coeff_form_1d.grid
        u0 = rng.uniform(0.2, 1.0, g.n_nodes)
        for F in forms + forms:
            _assert_matches_frozen_loop(
                ParabolicProblem(F, u0, 0.0, 0.1, 0.02, collar=_collar(g), exterior=0.4,
                                 theta=theta, variant="dual_ext", d_const=0.7))
        _assert_factored(sla_calls, *(system_matrix(F, 1.0, theta * 0.02, "A^T")
                                      for F in forms))

    @pytest.mark.parametrize("variant", ["primal", "dual"])
    def test_resolvent(self, coeff_form_1d, rng, variant):
        f = rng.normal(size=coeff_form_1d.grid.n_nodes)
        assert np.array_equal(resolvent_solve(coeff_form_1d, 2.0, f, variant),
                              old_resolvent_solve(coeff_form_1d, 2.0, f, variant))


class TestSharedSystem:
    """A form keeps one interior system per operator (A, or A^T for dual and
    dual_ext): every run, theta step, resolvent and ensemble member on it
    shares its factors, bit for bit."""

    @pytest.mark.parametrize("ensemble", [harnack_ensemble, holder_ensemble])
    def test_an_ensemble_builds_one_system_and_factors_once(self, sin_coefficient_kernel,
                                                            ensemble, monkeypatch, sla_calls):
        grid = build_grid(1, 2.0, 1 / 64, {"type": "box", "halfwidth": 1.5})
        form, cyl = assemble(sin_coefficient_kernel, grid), Cylinder(0.0, 0.5, 1.0, (0.0,))
        solve = estimates.solve_parabolic
        with monkeypatch.context() as m:     # each member on a form of its own: its own factors
            m.setattr(estimates, "solve_parabolic",
                      lambda p: solve(replace(p, form=replace(p.form))))
            per_member = ensemble(form, cyl, 3, seed=4)
        assert len(sla_calls.lu_factor_calls) == 3
        sla_calls.lu_factor_calls.clear()
        shared = ensemble(form, cyl, 3, seed=4)
        _assert_factored(sla_calls, system_matrix(form, 1.0, shared["dt"], "A"))
        assert shared == per_member

    def test_a_dropped_form_is_freed_without_the_cyclic_collector(self, coeff_form_1d,
                                                                   sla_calls):
        form = replace(coeff_form_1d)
        f = np.cos(form.grid.nodes[:, 0])
        gc.disable()
        try:
            out = harnack_ensemble(form, Cylinder(0.0, 0.5, 1.0, (0.0,)), 2, seed=1)
            resolvent_solve(form, 2.0, f, "dual")
            resolvent_solve(form, 2.0, f, "dual")
            # the form keeps a system of A (the runs) and one of A^T (the resolvents)
            _assert_factored(sla_calls, system_matrix(form, 1.0, out["dt"]),
                             system_matrix(form, 2.0, 1.0, "A^T"))
            ref = weakref.ref(form)
            del form
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("inside", [False, True], ids=["between", "inside"])
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("variant", ["primal", "dual"])
    def test_a_resolvent_changes_no_bit_of_a_run(self, coeff_form_1d, rng, variant, theta,
                                                 inside, sla_calls):
        # the resolvent refactors the shared system; a run's bound M, LU
        # factors and explicit part stay, also when it runs inside the run
        # (before each step's getrs) and the block check reads them
        form = replace(coeff_form_1d)
        g, f = form.grid, rng.normal(size=form.grid.n_nodes)

        def resolvent_and_getrs(getrs, *args):
            resolvent_solve(form, 2.0, f, variant)
            return getrs(*args)

        if inside:
            sla_calls.stand_in["getrs"] = resolvent_and_getrs
        p = ParabolicProblem(form, rng.uniform(0.2, 1.0, g.n_nodes), 0.0, 0.1, 0.02,
                             collar=_collar(g), exterior=0.4, theta=theta, variant=variant)
        first = _assert_matches_frozen_loop(p)
        sla_calls.stand_in.clear()
        u = resolvent_solve(form, 2.0, f, variant)
        second = solve_parabolic(p)
        assert np.array_equal(second.snapshots, first.snapshots)
        assert np.array_equal(second.residuals, first.residuals)
        assert np.array_equal(resolvent_solve(form, 2.0, f, variant), u)
        assert np.array_equal(u, old_resolvent_solve(form, 2.0, f, variant))

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_a_dual_ext_run_reads_the_drift_load_once(self, coeff_form_1d, rng, theta,
                                                      monkeypatch):
        # the drift load is a full A^T 1 product: sliced once per system, not per step
        form, g = replace(coeff_form_1d), coeff_form_1d.grid
        p = ParabolicProblem(form, rng.uniform(0.2, 1.0, g.n_nodes), 0.0, 0.1, 0.02,
                             f=_source(g), collar=_collar(g), exterior=0.4, theta=theta,
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
                                                              sla_calls):
        # both variants step A^T; dual_ext only adds the constant-drift load
        form, g = replace(coeff_form_1d), coeff_form_1d.grid
        dual = ParabolicProblem(form, rng.uniform(0.2, 1.0, g.n_nodes), 0.0, 0.1, 0.02,
                                collar=_collar(g), exterior=0.4, theta=theta,
                                variant="dual")
        runs = (dual, replace(dual, variant="dual_ext", d_const=0.7))
        frozen = [old_solve_parabolic(p) for p in runs]
        sols = [solve_parabolic(p) for p in runs]
        _assert_factored(sla_calls, system_matrix(form, 1.0, theta * 0.02, "A^T"))
        for sol, (times, snaps, _) in zip(sols, frozen):
            assert np.array_equal(sol.times, times) and np.array_equal(sol.snapshots, snaps)
        assert not np.array_equal(sols[0].snapshots, sols[1].snapshots)

    def test_a_dual_ext_resolvent_reads_no_drift_load(self, coeff_form_1d, rng, monkeypatch,
                                                      sla_calls):
        # a resolvent has no load beyond f: dual_ext solves with the factors of A^T
        form, f = replace(coeff_form_1d), rng.normal(size=coeff_form_1d.grid.n_nodes)
        reads, drift_load = [], DiscreteForm.drift_load
        monkeypatch.setattr(DiscreteForm, "drift_load",
                            property(lambda F: reads.append(F) or drift_load.fget(F)))
        u = resolvent_solve(form, 2.0, f, "dual_ext")
        assert reads == []
        _assert_factored(sla_calls, system_matrix(form, 2.0, 1.0, "A^T"))
        assert np.array_equal(u, resolvent_solve(replace(coeff_form_1d), 2.0, f, "dual"))
        assert np.array_equal(u, old_resolvent_solve(form, 2.0, f, "dual"))


def test_step_residual_above_tolerance_raises(stable_form_1d, monkeypatch):
    monkeypatch.setattr(solve_module, "RESIDUAL_TOL", -1.0)
    p = problem_with(stable_form_1d, collar=0.5)
    with pytest.raises(RuntimeError, match=r"step 0 to t=0\.01: relative residual"):
        solve_parabolic(p)
    with pytest.raises(RuntimeError, match=r"step 2 to t=0\.03: relative residual"):
        theta_step(p, np.zeros(stable_form_1d.grid.n_nodes), 0.02)


def test_a_step_that_meets_the_check_solves_with_getrs_alone(stable_form_1d, sla_calls):
    # a step calls the getrs of solve.sla (``_lapack``) directly: lu_solve only refines
    p = problem_with(stable_form_1d, u0=np.ones(stable_form_1d.grid.n_nodes), collar=0.5)
    sol = solve_parabolic(p)
    assert sla_calls.lu_solve_calls == [] and len(sla_calls.getrs_calls) == sol.meta["n_steps"]
    assert np.all(sol.residuals <= RESIDUAL_TOL)


def _redo(sla_calls):
    """(b, x, relative residual) of the one lu_solve call of a run, a redo
    that needs no refinement sweep: its right-hand side b and the frozen
    refined solve of b with the factors and the matrix of that call."""
    (lu_piv, b), = sla_calls.lu_solve_calls
    M = next(M for M, (lu, _) in sla_calls.lu_factor_calls if lu is lu_piv[0])
    return (b, *_old_solve_refined(lu_piv, M, b))


def test_a_missed_first_solve_redoes_the_step_with_refinement(coeff_form_1d, rng, sla_calls):
    # LU factors of a slightly perturbed M: the first solve misses RESIDUAL_TOL
    g = coeff_form_1d.grid
    p = ParabolicProblem(replace(coeff_form_1d), rng.uniform(0.2, 1.0, g.n_nodes), 0.0, 0.02, 0.02,
                         collar=_collar(g), exterior=0.4)
    sla_calls.stand_in["lu_factor"] = lambda lu_factor, M: lu_factor(M * (1.0 + 1e-6))
    sol = solve_parabolic(p)
    (b,) = sla_calls.getrs_calls                    # the one step
    (M, lu_piv), = sla_calls.lu_factor_calls
    assert np.array_equal(M, system_matrix(p.form, 1.0, p.dt))
    # one refined solve of the step's b: a first lu_solve of b, then its sweeps
    of_b = [np.array_equal(rhs, b) for _, rhs in sla_calls.lu_solve_calls]
    assert of_b[0] and not any(of_b[1:])
    x_old, rel_old = _old_solve_refined(lu_piv, M, b)
    assert np.array_equal(sol.snapshots[1, g.interior], x_old) and sol.residuals[0] == rel_old
    assert rel_old <= RESIDUAL_TOL


@pytest.mark.filterwarnings("ignore:invalid value")   # the residual of an inf solve
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_collar_raises_as_the_frozen_loop(coeff_form_1d, bad):
    g = coeff_form_1d.grid
    datum = np.full(int(g.collar.sum()), 0.5)
    datum[3] = bad
    p = problem_with(coeff_form_1d, u0=np.ones(g.n_nodes), dt=0.02, t_end=0.04, collar=datum)
    with pytest.raises(ValueError) as old:
        old_solve_parabolic(p)
    with pytest.raises(ValueError, match="must not contain infs or NaNs") as new:
        solve_parabolic(p)
    assert str(new.value) == str(old.value)
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        theta_step(p, np.ones(g.n_nodes), 0.0)


def test_meta_records_horizon_and_alpha(stable_form_1d):
    sol = solve_parabolic(problem_with(stable_form_1d, dt=0.025, t_end=0.1))
    assert sol.meta["n_steps"] == 4 and len(sol.times) == 5
    assert "t_end_requested" not in sol.meta
    assert sol.meta["t_end"] == sol.times[-1] == 0.1
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


class TestBlockCheck:
    """solve_parabolic checks its steps a block at a time (``_BLOCK`` = 4 here):
    a bad solve anywhere in a block is redone once, through ``_solve_refined``,
    and the run ends on the bits of a run without the bad solve."""

    STEPS = 10      # blocks of steps 0-3, 4-7 and the partial 8-9
    # the primal run steps on the system of A; the dual_ext run on that of
    # A^T, with the drift load in its right-hand sides
    EVERY_PROBLEM = pytest.mark.parametrize(
        "problem", [(variant, theta) for variant in ("primal", "dual_ext")
                    for theta in (0.5, 1.0)],
        indirect=True, ids=lambda p: f"{p[0]}-theta{p[1]}")

    @pytest.fixture
    def problem(self, request, coeff_form_1d, rng):
        variant, theta = request.param
        g = coeff_form_1d.grid      # a form of its own: the tests tamper with its systems
        return ParabolicProblem(replace(coeff_form_1d), rng.uniform(0.2, 1.0, g.n_nodes),
                                0.0, 0.1, 0.01, collar=_collar(g), exterior=0.4,
                                theta=theta, variant=variant, d_const=0.7)

    @staticmethod
    def corrupt(sla_calls, step, how):
        """Make the getrs call of the given step, the step-th of the run, return how(x)."""
        def bad_getrs(getrs, *a):
            x, info = getrs(*a)
            return (how(x) if len(sla_calls.getrs_calls) - 1 == step else x), info

        sla_calls.stand_in["getrs"] = bad_getrs

    @pytest.mark.parametrize("how", [lambda x: x * (1.0 + 1e-9), lambda x: x * np.nan],
                             ids=["scaled", "nan"])
    @pytest.mark.parametrize("step", [4, 5, 7, 9], ids=lambda k: f"step{k}")
    @EVERY_PROBLEM
    def test_a_bad_solve_is_redone_once_and_changes_no_bit(self, problem, step, how,
                                                           monkeypatch, sla_calls):
        monkeypatch.setattr(solve_module, "_BLOCK", 4)
        self.corrupt(sla_calls, step, how)
        sol = solve_parabolic(problem)
        b, x, rel_res = _redo(sla_calls)                   # one redo, from the bad step's b
        assert np.array_equal(b, sla_calls.getrs_calls[step])
        del sla_calls.stand_in["getrs"]
        clean = solve_parabolic(problem)
        assert len(clean.times) == self.STEPS + 1
        I = clean.grid.interior
        assert np.array_equal(x, clean.snapshots[step + 1, I])      # the bad step, redone
        assert np.array_equal(sol.times, clean.times)
        assert np.array_equal(sol.snapshots, clean.snapshots)
        assert sol.residuals[step] == rel_res <= RESIDUAL_TOL

    @EVERY_PROBLEM
    def test_a_clean_run_solves_each_step_with_one_getrs_call(self, problem, monkeypatch,
                                                              sla_calls):
        monkeypatch.setattr(solve_module, "_BLOCK", 4)
        sol = solve_parabolic(problem)
        assert len(sla_calls.getrs_calls) == sol.meta["n_steps"] == self.STEPS
        assert len(sla_calls.lu_factor_calls) == 1
        assert sla_calls.lu_solve_calls == []        # no redo in a clean run
        assert np.all(sol.residuals <= RESIDUAL_TOL)

    @pytest.mark.parametrize("step", [0, 3, 5, 9], ids=lambda k: f"step{k}")
    @EVERY_PROBLEM
    def test_each_step_reports_its_own_residual(self, problem, step, monkeypatch, sla_calls):
        # a tolerance that lets x (1 + eps) stand: its relative residual is eps
        monkeypatch.setattr(solve_module, "_BLOCK", 4)
        monkeypatch.setattr(solve_module, "RESIDUAL_TOL", 1.0)
        self.corrupt(sla_calls, step, lambda x: x * (1.0 + 1e-6))
        sol = solve_parabolic(problem)
        assert sla_calls.lu_solve_calls == []
        assert sol.residuals[step] == pytest.approx(1e-6, rel=1e-6)
        assert np.all(np.delete(sol.residuals, step) < 1e-12)

    @pytest.mark.parametrize("later_error", [False, True])
    @pytest.mark.parametrize("problem", [("primal", 1.0)], indirect=True)
    def test_a_step_that_misses_after_refinement_raises_with_its_index(self, problem,
                                                                      later_error,
                                                                      monkeypatch, sla_calls):
        # the miss raises although the solve of step 6 fails, before the block
        # of steps 4-7 is full: the first failure is reported
        monkeypatch.setattr(solve_module, "_BLOCK", 4)
        self.corrupt(sla_calls, 5, lambda x: x * np.nan)
        if later_error:
            bad_getrs = sla_calls.stand_in["getrs"]

            def failing_getrs(getrs, *args):
                if len(sla_calls.getrs_calls) - 1 == 6:
                    raise ValueError("no solve")
                return bad_getrs(getrs, *args)

            sla_calls.stand_in["getrs"] = failing_getrs
        # the redo of step 5 misses too: each of its solves returns twice the solution
        sla_calls.stand_in["lu_solve"] = lambda lu_solve, *args: 2.0 * lu_solve(*args)
        with pytest.raises(RuntimeError,
                           match=r"^step 5 to t=0\.06: relative residual 1\.000e\+00"):
            solve_parabolic(problem)

    @pytest.mark.parametrize("problem", [("primal", 1.0)], indirect=True)
    def test_every_check_writes_its_product_into_one_buffer(self, problem, monkeypatch,
                                                            sla_calls):
        # each check's one product goes into the memory of the first, and
        # holds B - X M^T of the check's steps once the check is done
        monkeypatch.setattr(solve_module, "_BLOCK", 4)
        monkeypatch.setattr(solve_module, "RESIDUAL_TOL", 1.0)

        def scaled(getrs, *args):      # x (1 + 1e-6) stands: R is about -1e-6 B
            x, info = getrs(*args)
            return x * (1.0 + 1e-6), info

        sla_calls.stand_in["getrs"] = scaled
        matmul, outs, products = np.matmul, [], []

        def spy(*args, out=None):
            if outs:                  # the product of the check before, as it left it
                products.append(outs[-1].copy())
            outs.append(out)
            return matmul(*args, out=out)

        monkeypatch.setattr(np, "matmul", spy)
        sol = solve_parabolic(problem)
        products.append(outs[-1].copy())
        n_I = int(problem.form.grid.interior.sum())
        assert [R.shape for R in outs] == [(4, n_I), (4, n_I), (2, n_I)]
        assert all(np.shares_memory(R, outs[0]) for R in outs)
        (M, _), = sla_calls.lu_factor_calls
        B, X = np.array(sla_calls.getrs_calls), sol.snapshots[1:, problem.form.grid.interior]
        for k, R in zip((0, 4, 8), products):
            np.testing.assert_allclose(R, B[k:k + len(R)] - X[k:k + len(R)] @ M.T, rtol=1e-8)


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
    @pytest.mark.parametrize("make", [_offset_box_1d, _offset_box_2d],
                             ids=["offset-box-1d", "offset-box-2d"])
    def test_off_centre_runs_match_the_frozen_loop(self, make, theta, rng):
        grid = make()
        kernel = make_stable_kernel(grid.d, 1.0, c_alpha_norm(grid.d, 1.0))
        p = ParabolicProblem(assemble(kernel, grid), rng.uniform(0.2, 1.0, grid.n_nodes),
                             0.0, 0.1, 0.02, collar=_collar(grid), exterior=0.4,
                             theta=theta)
        _assert_matches_frozen_loop(p)
