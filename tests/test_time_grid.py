"""One time grid: ``solve.time_grid`` builds the step times of every run and
of the Hoelder horizon, and a time step or horizon that is not positive is
refused (a config error with its field path, a ValueError in the ensembles),
never replaced by the default."""
import json

import numpy as np
import pytest

from jumplab import ParabolicProblem, solve_parabolic
from jumplab.cli import _build_kernel_grid, _default_config, main
from jumplab.estimates import Cylinder, _fit_horizon, harnack_ensemble, holder_ensemble
from jumplab.solve import default_dt, time_grid

# (cylinder, dt): the harnack-1d cylinder on its grid (ratio 1448.15), an
# integer ratio, a tiny cylinder that rounds to one step, and dt = 0.1 from
# t_start = 0.7, where t_start + k dt and a running sum differ in the last bit
CYLINDERS = [(Cylinder(0.0, 0.5, 1.5, (0.0,)), default_dt(1 / 64, 1.5)),
             (Cylinder(0.0, 0.5, 1.0, (0.0,)), default_dt(1 / 64, 1.0)),
             (Cylinder(0.0, 0.01, 1.5, (0.0,)), 0.01),
             (Cylinder(1.2, 0.5, 1.0, (0.0,)), 0.1)]


def _inline_grid(t_start, t_end, dt):
    """Reference: max(round((t_end - t_start) / dt), 1) steps of dt from t_start."""
    n = max(int(round((t_end - t_start) / dt)), 1)
    return t_start + dt * np.arange(n + 1)


@pytest.mark.parametrize("cyl, dt", CYLINDERS)
def test_time_grid_gives_the_fit_horizon(cyl, dt):
    t_start, t_end = cyl.t0 - cyl.ralpha, cyl.t0 + cyl.ralpha
    times = time_grid(t_start, t_end, dt)
    assert np.array_equal(times, _inline_grid(t_start, t_end, dt))
    t_fit = cyl.t0 + 0.5 * cyl.ralpha
    k = max(int(np.flatnonzero(times <= t_fit + 1e-12)[-1]), 1)
    assert _fit_horizon(cyl, dt, t_fit) == (k, times[k])


def test_solve_parabolic_steps_on_the_time_grid(stable_form_1d):
    n = stable_form_1d.grid.n_nodes
    sol = solve_parabolic(ParabolicProblem(stable_form_1d, np.ones(n), 0.7, 1.05, 0.1))
    assert np.array_equal(sol.times, time_grid(0.7, 1.05, 0.1))
    assert sol.meta["n_steps"] == len(sol.times) - 1 == 4


@pytest.mark.parametrize("dt", [0.0, -0.0, -0.01, np.nan, np.inf])
def test_time_grid_refuses_a_step_that_is_not_positive(dt):
    with pytest.raises(ValueError, match="time step must be finite and positive"):
        time_grid(0.0, 1.0, dt)
    with pytest.raises(ValueError, match="time step must be finite and positive"):
        _fit_horizon(Cylinder(0.0, 0.5, 1.5, (0.0,)), dt, 0.1)


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
