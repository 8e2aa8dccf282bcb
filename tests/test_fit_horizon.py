"""Hoelder members step only to the last grid time that the fit reads: the
fits, times and snapshots equal those of full-cylinder runs (a frozen copy in
tests/_oracles.py) bit for bit, the step count is the horizon's, and Harnack
members still cover the whole cylinder, up to the grid time nearest its end,
which both reports record."""
import json

import numpy as np
import pytest
from _oracles import old_positive_run

import jumplab.estimates as estimates
import jumplab.solve as solve_module
from jumplab import (
    Cone,
    QuadSpec,
    assemble,
    build_grid,
    c_alpha_norm,
    make_cone_kernel,
    make_stable_kernel,
)
from jumplab.cli import _build_kernel_grid, _cylinder, _default_config, _validate, run_scenario
from jumplab.estimates import (
    Cylinder,
    _fit_horizon,
    harnack_ensemble,
    holder_ensemble,
    holder_fit,
    philox_stream,
)
from jumplab.solve import default_dt

SEED, MEMBERS = 5, 2


def _cone_2d_smoke():
    C = Cone((1.0, 0.0), np.pi / 4)
    D = Cone((0.0, 1.0), np.pi / 8, double=True)
    grid = build_grid(2, 0.5, 1 / 32, {"type": "ball", "radius": 0.4})
    form = assemble(make_cone_kernel(1.5, 0.5, C, D, d=2), grid,
                    quad=QuadSpec(n_ang=16, n_panels=10))
    return form, Cylinder(0.0, 0.5, 1.5, (0.0, 0.0))


def _harnack_1d():
    kernel = make_cone_kernel(1.5, 0.5, Cone((1.0,), np.pi / 4), None, d=1)
    grid = build_grid(1, 2.0, 1 / 64, {"type": "box", "halfwidth": 1.5})
    return assemble(kernel, grid), Cylinder(0.0, 0.5, 1.5, (0.0,))


def _stable_1d_integer():
    # dt = h / 4 = 2^-8 and t_fit - t_start = 3/4: the fit time is grid time 192
    kernel = make_stable_kernel(1, 1.0, c_alpha_norm(1, 1.0))
    grid = build_grid(1, 2.0, 1 / 64, {"type": "box", "halfwidth": 1.5})
    return assemble(kernel, grid), Cylinder(0.0, 0.5, 1.0, (0.0,))


# (build, full cylinder steps, horizon k, (t_fit - t_start) / dt)
CASES = {"cone-2d-smoke": (_cone_2d_smoke, 512, 384, 384.0),
         "harnack-1d": (_harnack_1d, 1448, 1086, 1086.116),
         "stable-1d-integer": (_stable_1d_integer, 256, 192, 192.0)}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    build, n_full, k, ratio = CASES[request.param]
    form, cyl = build()
    return request.param, form, cyl, n_full, k, ratio


def _t_fit(cyl):
    return cyl.t0 + 0.5 * cyl.ralpha


def _recorded(monkeypatch):
    """(solutions that the estimates module gets back, steps taken)."""
    sols, steps = [], [0]
    real_solve, real_step = estimates.solve_parabolic, solve_module._Stepper.step

    def solve(problem):
        sols.append(real_solve(problem))
        return sols[-1]

    def step(self, *args):
        steps[0] += 1
        return real_step(self, *args)

    monkeypatch.setattr(estimates, "solve_parabolic", solve)
    monkeypatch.setattr(solve_module._Stepper, "step", step)
    return sols, steps


def test_the_horizon_is_the_last_time_the_fit_reads(case):
    name, form, cyl, n_full, k, ratio = case
    dt = default_dt(form.grid.h, cyl.alpha)
    t_start, t_fit = cyl.t0 - cyl.ralpha, _t_fit(cyl)
    assert (t_fit - t_start) / dt == pytest.approx(ratio, abs=1e-3)
    full = old_positive_run(form, cyl, philox_stream(SEED, 0))
    assert full.meta["n_steps"] == n_full
    read = np.flatnonzero(full.times <= t_fit + 1e-12)
    assert read[-1] == k < n_full
    assert _fit_horizon(cyl, dt, t_fit) == (k, full.times[k])


def test_members_fit_as_over_the_full_cylinder(case, monkeypatch):
    name, form, cyl, n_full, k, _ = case
    sols, steps = _recorded(monkeypatch)
    out = holder_ensemble(form, cyl, MEMBERS, SEED)
    assert steps[0] == MEMBERS * k
    assert out["n_steps"] == k and out["dt"] == default_dt(form.grid.h, cyl.alpha)
    assert len(sols) == MEMBERS
    for m, sol in enumerate(sols):
        full = old_positive_run(form, cyl, philox_stream(SEED, m))
        assert out["t_end"] == full.times[k] == sol.meta["t_end"]
        assert sol.meta["n_steps"] == k
        assert np.array_equal(sol.times, full.times[:k + 1])
        assert np.array_equal(sol.snapshots, full.snapshots[:k + 1])
        assert out["max_step_residual"][m] == np.max(sol.residuals)
        short = holder_fit(sol, _t_fit(cyl), cyl.center, cyl.R)
        ref = holder_fit(full, _t_fit(cyl), cyl.center, cyl.R)
        assert (short.gamma, short.flat) == (ref.gamma, ref.flat)
        assert short.scales == ref.scales and short.oscillations == ref.oscillations
        assert (out["gamma_fit"][m], out["flat"][m]) == (ref.gamma, ref.flat)


def test_harnack_members_still_step_over_the_cylinder(monkeypatch):
    form, cyl = _harnack_1d()
    sols, steps = _recorded(monkeypatch)
    harnack_ensemble(form, cyl, MEMBERS, SEED)
    assert steps[0] == MEMBERS * 1448
    dt = default_dt(form.grid.h, cyl.alpha)
    for m, sol in enumerate(sols):       # to the grid time nearest t0 + R^alpha
        assert sol.meta["n_steps"] == 1448
        assert abs(sol.times[-1] - (cyl.t0 + cyl.ralpha)) <= dt / 2
        full = old_positive_run(form, cyl, philox_stream(SEED, m))
        assert np.array_equal(sol.times, full.times)
        assert np.array_equal(sol.snapshots, full.snapshots)


@pytest.mark.parametrize("h, n_steps", [(1 / 32, 512), (1 / 64, 1448)])
def test_the_harnack_report_records_the_horizon(tmp_path, h, n_steps):
    # the preset's grid, and the hoelder preset's, where the members stop
    # 0.15 dt short of the late box's end
    cfg = _default_config("harnack")
    cfg["harness"].update({"ensemble": 2, "seed": 3})
    cfg["grid"]["h"] = h
    run_scenario(_validate(cfg), tmp_path)
    horizon = json.loads((tmp_path / "report.json").read_text())["horizon"]
    kernel, grid = _build_kernel_grid(cfg)
    cyl = _cylinder(cfg["harness"], kernel)
    dt = default_dt(grid.h, cyl.alpha)
    assert horizon["n_steps"] == n_steps
    assert horizon["t_end"] == cyl.t0 - cyl.ralpha + dt * n_steps
    assert horizon["t_end_requested"] == cyl.late_box().t_hi == cyl.t0 + cyl.ralpha
    if h == 1 / 64:
        assert horizon["t_end"] < cyl.late_box().t_hi - 0.1 * dt


def test_the_hoelder_report_records_the_horizon(tmp_path):
    cfg = _default_config("hoelder")
    cfg["harness"].update({"ensemble": 2, "seed": 3})
    run_scenario(_validate(cfg), tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    kernel, grid = _build_kernel_grid(cfg)
    cyl = _cylinder(cfg["harness"], kernel)
    k, t_end = _fit_horizon(cyl, default_dt(grid.h, cyl.alpha), _t_fit(cyl))
    assert k == 1086            # the harnack-1d grid and cylinder
    assert report["horizon"] == {"t_end": t_end, "n_steps": k}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest["resolution"]) == {"h", "N", "N_I", "dt", "quad"}
