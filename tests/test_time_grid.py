"""One time grid: ``solve.time_grid`` builds the step times of every run over
a whole number of steps, which ``solve.whole_steps`` makes of a span and an
upper bound on the step; a span of no whole number of steps is refused, and
so is a time step or horizon that is not positive (a config error with its
field path, a ValueError in the ensembles), never replaced by the default.
Implicit Euler's error against the exact solution of a run over a cylinder
halves with the step."""
import json

import numpy as np
import pytest
import scipy.linalg

from jumplab import (
    ParabolicProblem,
    assemble,
    build_grid,
    c_alpha_norm,
    make_stable_kernel,
    solve_parabolic,
)
from jumplab.cli import _build_kernel_grid, _default_config, main
from jumplab.estimates import (
    Cylinder,
    _box_values,
    _cylinder_step,
    harnack_ensemble,
    holder_ensemble,
)
from jumplab.solve import default_dt, time_grid, whole_steps


@pytest.mark.parametrize("t_start, t_end, dt, n", [
    (0.0, 0.1, 0.025, 4),
    (0.0, 0.1, 0.1, 1),
    (0.7, 1.05, 0.05, 7),             # (t_end - t_start) / dt = 7.000000000000002
    (-0.5 ** 1.5, 0.5 ** 1.5, default_dt(1 / 32, 1.5), 256)])
def test_time_grid_steps_a_whole_span(t_start, t_end, dt, n):
    times = time_grid(t_start, t_end, dt)
    assert len(times) == n + 1 and times[-1] == t_end
    assert np.array_equal(times[:-1], t_start + dt * np.arange(n))


@pytest.mark.parametrize("t_start, t_end, dt", [
    (0.0, 0.1, 0.03), (0.7, 1.05, 0.1), (0.0, 1.0, 2.0), (0.0, 1.0, 1 / 3 + 1e-8)])
def test_time_grid_refuses_a_span_of_no_whole_steps(t_start, t_end, dt):
    with pytest.raises(ValueError, match=rf"dt={dt} does not divide the span "
                                         rf"t_end - t_start = {t_end - t_start}"):
        time_grid(t_start, t_end, dt)


@pytest.mark.parametrize("span, dt, n, step", [
    (0.1, 0.03, 4, 0.025), (0.2, 0.03, 7, 0.2 / 7), (0.1, 0.025, 4, 0.025),
    (1.05 - 0.7, 0.05, 7, (1.05 - 0.7) / 7), (0.01, 1.0, 1, 0.01)])
def test_whole_steps_takes_the_fewest_steps_of_at_most_dt(span, dt, n, step):
    assert whole_steps(span, dt) == (n, step)
    np.testing.assert_array_equal(time_grid(0.0, span, step)[[0, -1]], [0.0, span])


def test_solve_parabolic_steps_on_the_time_grid(stable_form_1d):
    n = stable_form_1d.grid.n_nodes
    _, dt = whole_steps(1.05 - 0.7, 0.1)
    sol = solve_parabolic(ParabolicProblem(stable_form_1d, np.ones(n), 0.7, 1.05, dt))
    assert np.array_equal(sol.times, time_grid(0.7, 1.05, dt))
    assert sol.meta["n_steps"] == len(sol.times) - 1 == 4
    assert sol.meta["t_end"] == sol.times[-1] == 1.05


def test_solve_parabolic_refuses_a_horizon_of_no_whole_steps(stable_form_1d):
    p = ParabolicProblem(stable_form_1d, np.ones(stable_form_1d.grid.n_nodes), 0.7, 1.05, 0.1)
    with pytest.raises(ValueError, match="dt=0.1 does not divide the span"):
        solve_parabolic(p)


@pytest.mark.parametrize("dt", [0.0, -0.0, -0.01, np.nan, np.inf])
def test_time_grid_refuses_a_step_that_is_not_positive(dt):
    with pytest.raises(ValueError, match="time step must be finite and positive"):
        time_grid(0.0, 1.0, dt)
    with pytest.raises(ValueError, match="time step must be finite and positive"):
        whole_steps(1.0, dt)
    with pytest.raises(ValueError, match="time step must be finite and positive"):
        _cylinder_step(Cylinder(0.0, 0.5, 1.5, (0.0,)), 1 / 32, dt)


def test_implicit_euler_error_halves_with_the_step():
    """Against u(t) = u_inf + exp(-(t - t_start) A_II)(u0_I - u_inf), A_II u_inf
    = load, on the late box of a cylinder run: a stable form, alpha = 1.5,
    h = 1/32, fixed data.  m = 64 is the default step's."""
    grid = build_grid(1, 2.0, 1 / 32, {"type": "box", "halfwidth": 1.5})
    form = assemble(make_stable_kernel(1, 1.5, c_alpha_norm(1, 1.5)), grid)
    cyl = Cylinder(0.0, 0.5, 1.5, (0.0,))
    u0 = 1.0 + np.cos(np.pi * grid.nodes[:, 0] / 3) ** 2
    collar, exterior = 0.5, 0.2
    I = grid.interior
    A_II = form.A[np.ix_(I, I)]
    load = -form.A[np.ix_(I, ~I)] @ np.full(int(np.sum(~I)), collar) + exterior * form.tail[I]
    u_inf = np.linalg.solve(A_II, load)
    late = cyl.late_box()
    ball = grid.ball_mask(np.asarray(late.center), late.radius)[I]

    def late_error(dt):
        sol = solve_parabolic(ParabolicProblem(form, u0, cyl.t0 - cyl.ralpha, cyl.t0 + cyl.ralpha,
                                               dt, collar=collar, exterior=exterior))
        rows = np.flatnonzero((sol.times >= late.t_lo) & (sol.times <= late.t_hi))
        exact = [u_inf + scipy.linalg.expm(-(t - sol.times[0]) * A_II) @ (u0[I] - u_inf)
                 for t in sol.times[rows]]
        assert len(_box_values(sol, late)) == len(rows)
        computed = sol.snapshots[rows][:, I]
        return float(np.max(np.abs(computed[:, ball] - np.asarray(exact)[:, ball])))

    m, dt = _cylinder_step(cyl, grid.h, None)
    assert (m, _cylinder_step(cyl, grid.h, dt / 2)) == (64, (128, dt / 2))
    coarse, fine = late_error(dt), late_error(dt / 2)
    assert coarse == pytest.approx(1.19e-3, rel=0.02)
    assert 1.8 <= coarse / fine <= 2.2


@pytest.mark.parametrize("ensemble", [harnack_ensemble, holder_ensemble])
@pytest.mark.parametrize("dt", [0.0, -0.01])
def test_ensembles_refuse_a_step_that_is_not_positive(stable_form_1d, ensemble, dt):
    with pytest.raises(ValueError, match="time step must"):
        ensemble(stable_form_1d, Cylinder(0.0, 0.25, 1.0, (0.0,)), 1, 0, dt=dt)


def _run_solve(out, problem, capsys):
    """Exit code, stderr and output directory of the solve preset with the
    given problem block."""
    out.mkdir()
    cfg = _default_config("solve")
    if problem is not None:
        cfg["problem"] = problem
    (out / "cfg.json").write_text(json.dumps(cfg))
    code = main(["solve", "--config", str(out / "cfg.json"), "--out", str(out / "run")])
    return code, capsys.readouterr().err, out / "run"


@pytest.mark.parametrize("key, value", [("dt", 0), ("dt", 0.0), ("dt", -0.01),
                                        ("horizon", 0), ("horizon", -1.0)])
def test_a_step_or_horizon_not_positive_is_a_config_error(tmp_path, capsys, key, value):
    code, err, _ = _run_solve(tmp_path / "bad", {key: value}, capsys)
    assert code == 2
    assert (f"config error: $['problem']['{key}']: {value!r} is less than or equal to "
            f"the minimum of 0") in err


def test_an_absent_or_null_step_runs_at_the_default(tmp_path, capsys):
    runs = [_run_solve(tmp_path / name, problem, capsys)
            for name, problem in (("preset", None), ("absent", {}), ("null", {"dt": None}))]
    assert [code for code, _, _ in runs] == [0, 0, 0]
    kernel, grid = _build_kernel_grid(_default_config("solve"))
    report = json.loads((runs[0][2] / "report.json").read_text())
    assert report["dt"] == default_dt(grid.h, kernel.alpha) and report["steps"] == 8
    for name in ("report.json", "snapshots.csv"):
        assert len({(out / name).read_bytes() for _, _, out in runs}) == 1


@pytest.mark.parametrize("horizon, dt, steps", [(0.1, 0.03, 4), (0.1, 0.025, 4), (0.05, 0.05, 1)])
def test_the_solve_command_ends_on_its_horizon(tmp_path, capsys, horizon, dt, steps):
    code, _, out = _run_solve(tmp_path / "run", {"horizon": horizon, "dt": dt}, capsys)
    report = json.loads((out / "report.json").read_text())
    assert code == 0 and report["steps"] == steps and report["t_end"] == horizon
    assert report["dt"] == horizon / steps <= dt
