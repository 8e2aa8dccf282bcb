"""form_value sums its pair terms directly; a run steps on exact grid times
and builds and factors one interior system per form object."""
from dataclasses import replace

import numpy as np
import pytest

from _oracles import old_solve_parabolic, system_matrix
from jumplab import solve as solve_module
from jumplab import (
    ParabolicProblem,
    QuadSpec,
    assemble,
    build_grid,
    form_value,
    solve_parabolic,
)
from jumplab.discretize import pair_mask_ball, pair_mask_level


@pytest.fixture(scope="module")
def cone_form_2d(cone_kernel_2d):
    grid = build_grid(2, 1.0, 1 / 16, {"type": "ball", "radius": 0.75})
    assert grid.n_nodes == 1024
    return assemble(cone_kernel_2d, grid, quad=QuadSpec(n_ang=32, n_panels=20))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float here")
def test_difference_and_sum_weights_match_a_longdouble_pair_sum(cone_form_2d):
    F = cone_form_2d
    x = F.grid.nodes
    u = 1.0 + 0.5 * np.sin(3 * x[:, 0]) * np.cos(2 * x[:, 1])
    v = np.cos(x[:, 0] - 0.5 * x[:, 1])
    ball = pair_mask_ball(F.grid, (0.1, -0.05), 0.4)
    wide = pair_mask_ball(F.grid, (0.1, -0.05), 0.6)     # touches > 256 nodes: 2 row blocks
    assert np.sum(np.any(wide, axis=0)) > 256
    ul, vl = u.astype(np.longdouble), v.astype(np.longdouble)
    h2d = np.longdouble(F.grid.cell_volume) ** 2
    checked = 0
    # the onesided weight v_i as well as v_i -/+ v_j
    for mask in (ball, ball & pair_mask_level(u), wide):
        for part in ("full", "sym", "anti"):
            K = np.where(mask, F.part_matrix(part), 0.0).astype(np.longdouble)
            for weight, w in (("onesided", vl[:, None]), ("difference", np.subtract.outer(vl, vl)),
                              ("sum", np.add.outer(vl, vl))):
                terms = K * np.subtract.outer(ul, ul) * w
                exact, size = np.sum(terms) * h2d, np.sum(np.abs(terms)) * h2d
                value = form_value(F, mask, u, v, part=part, weight=weight)
                if size <= 4 * abs(exact):       # a well-conditioned pair sum
                    assert abs(value - exact) <= 1e-14 * abs(exact), (part, weight)
                    checked += 1
                else:                            # zero by symmetry up to rounding
                    assert abs(value - exact) <= 1e-15 * size, (part, weight)
    assert checked >= 12


def test_form_value_rejects_an_unknown_weight(cone_form_2d):
    u = np.ones(cone_form_2d.grid.n_nodes)
    with pytest.raises(ValueError, match="unknown weight"):
        form_value(cone_form_2d, None, u, u, weight="max")


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("variant", ["primal", "dual"])
def test_one_system_and_one_factorisation_per_form_object(coeff_form_1d, sla_calls, variant,
                                                          theta):
    F = replace(coeff_form_1d)      # no system built yet
    sol = solve_parabolic(ParabolicProblem(F, np.ones(F.grid.n_nodes), 0.0, 1.0, 0.01,
                                           collar=0.5, exterior=0.2, theta=theta,
                                           variant=variant))
    assert sol.meta["n_steps"] == 100 and np.all(sol.residuals <= solve_module.RESIDUAL_TOL)
    # the form object is factored once, at the step size of the run: the
    # system of A for the primal run, of A^T for the dual
    (M, _), = sla_calls.lu_factor_calls
    assert np.array_equal(M, system_matrix(F, 1.0, theta * 0.01,
                                           "A" if variant == "primal" else "A^T"))


@pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("t_start", [0.0, 0.7])
def test_grid_times_are_exact_and_the_run_matches_the_frozen_loop(coeff_form_1d, t_start,
                                                                  theta):
    grid, dt = coeff_form_1d.grid, 0.1
    u0 = 1.0 + 0.3 * np.cos(2.0 * grid.nodes[:, 0])
    p = ParabolicProblem(coeff_form_1d, u0, t_start, t_start + 5 * dt, dt, collar=0.5,
                         exterior=0.2, theta=theta)
    sol = solve_parabolic(p)
    times = sol.times
    # times[k - 1] + dt differs from times[k] in the last bit for t_start = 0.7
    # (k = 3): the step times are t_start + k dt, not a running sum
    misses = [k for k in range(1, len(times) - 1) if times[k] != times[k - 1] + dt]
    assert bool(misses) == (t_start == 0.7)
    assert np.array_equal(times, np.append(t_start + dt * np.arange(5), p.t_end))
    old_times, old_snaps, _ = old_solve_parabolic(p)
    assert np.array_equal(sol.times, old_times)
    assert np.array_equal(sol.snapshots, old_snaps)
