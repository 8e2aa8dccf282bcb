"""One time grid per cylinder: a run over (t0 - R^alpha, t0 + R^alpha) takes
4m steps of dt = R^alpha / (2m), the fewest of at most the step asked for, so
both ends of the cylinder are grid times and t_fit = t0 + R^alpha / 2 is time
3m.  Hoelder members stop at time 3m and fit there: their fits, times and
snapshots equal those of full-cylinder runs (a frozen copy in
tests/_oracles.py) bit for bit.  Harnack members end on t0 + R^alpha.  Both
reports record the horizon."""
import json

import numpy as np
import pytest
from _oracles import old_positive_run

import jumplab.estimates as estimates
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
    SpaceTimeBox,
    Solution,
    _box_values,
    _cylinder_step,
    harnack_ensemble,
    holder_ensemble,
    holder_fit,
    philox_stream,
)
from jumplab.solve import default_dt, time_grid

SEED, MEMBERS = 5, 2


def _cylinder_times(cyl, h, dt=None):
    """(m, dt, the times of a run over the cylinder, those of a Hoelder member)."""
    m, dt = _cylinder_step(cyl, h, dt)
    t_start = cyl.t0 - cyl.ralpha
    full = time_grid(t_start, cyl.t0 + cyl.ralpha, dt)
    return m, dt, full, time_grid(t_start, full[3 * m], dt)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("h", [1 / 16, 1 / 32, 1 / 64, 1 / 128])
def test_a_cylinder_run_lands_on_its_box_ends_and_on_t_fit(h, alpha):
    cyl = Cylinder(0.0, 0.5, alpha, (0.0,))
    m, dt, full, fit = _cylinder_times(cyl, h)
    assert dt <= default_dt(h, alpha) and 2 * m * dt == pytest.approx(cyl.ralpha, rel=1e-15)
    assert len(full) == 4 * m + 1 and len(fit) == 3 * m + 1
    assert full[0] == cyl.early_box().t_lo and full[-1] == cyl.late_box().t_hi
    assert np.array_equal(fit, full[:3 * m + 1])
    assert fit[-1] == pytest.approx(cyl.t0 + 0.5 * cyl.ralpha, abs=1e-15)
    # every window (t_fit - s^alpha, t_fit] x B_s reads the step-3m row: row k holds k
    grid = build_grid(1, 2.0, h, {"type": "box", "halfwidth": 1.5})
    sol = Solution(fit, np.repeat(np.arange(3.0 * m + 1), grid.n_nodes).reshape(-1, grid.n_nodes),
                   grid, {"alpha": alpha})
    for k in range(4):
        s = cyl.R * 2.0 ** -k
        rows = _box_values(sol, SpaceTimeBox(fit[-1] - s ** alpha, fit[-1], cyl.center, s))
        assert rows.max() == 3 * m and rows.min() < 3 * m


@pytest.mark.parametrize("dt", [None, 1e-3, 0.2])
def test_the_step_asked_for_is_an_upper_bound(dt):
    cyl = Cylinder(0.3, 0.25, 1.5, (0.0,))
    m, step, full, _ = _cylinder_times(cyl, 1 / 32, dt)
    bound = default_dt(1 / 32, 1.5) if dt is None else dt
    assert step <= bound and (m == 1 or cyl.ralpha / (2 * (m - 1)) > bound)   # the fewest
    assert full[0] == cyl.t0 - cyl.ralpha and full[-1] == cyl.t0 + cyl.ralpha


def test_the_readme_preset_grid_keeps_its_step():
    # h = 1/32: R^alpha / 2 is 64 default steps, so dt is default_dt to the bit
    cyl = Cylinder(0.0, 0.5, 1.5, (0.0,))
    assert _cylinder_step(cyl, 1 / 32, None) == (64, default_dt(1 / 32, 1.5))
    assert _cylinder_step(cyl, 1 / 64, None)[0] == 182      # 728 steps, not 724.08


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
    # dt = h / 2 = 2^-7 divides R^alpha / 2 = 1/4: the default step
    kernel = make_stable_kernel(1, 1.0, c_alpha_norm(1, 1.0))
    grid = build_grid(1, 2.0, 1 / 64, {"type": "box", "halfwidth": 1.5})
    return assemble(kernel, grid), Cylinder(0.0, 0.5, 1.0, (0.0,))


# (build, m): a full cylinder run has 4m steps, the fit reads time 3m
CASES = {"cone-2d-smoke": (_cone_2d_smoke, 64),
         "harnack-1d": (_harnack_1d, 182),
         "stable-1d-integer": (_stable_1d_integer, 32)}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    build, m = CASES[request.param]
    form, cyl = build()
    return request.param, form, cyl, m


def _step(form, cyl):
    return _cylinder_step(cyl, form.grid.h, None)[1]


def _recorded(monkeypatch):
    """The solutions that the estimates module gets back."""
    sols, real_solve = [], estimates.solve_parabolic

    def solve(problem):
        sols.append(real_solve(problem))
        return sols[-1]

    monkeypatch.setattr(estimates, "solve_parabolic", solve)
    return sols


def test_the_full_run_spans_the_cylinder_in_4m_steps(case):
    name, form, cyl, m = case
    full = old_positive_run(form, cyl, philox_stream(SEED, 0), _step(form, cyl))
    assert full.meta["n_steps"] == 4 * m
    assert full.times[0] == cyl.t0 - cyl.ralpha and full.times[-1] == cyl.t0 + cyl.ralpha
    assert full.times[3 * m] == pytest.approx(cyl.t0 + 0.5 * cyl.ralpha, abs=1e-15)


def test_members_fit_as_over_the_full_cylinder(case, monkeypatch, sla_calls):
    name, form, cyl, m = case
    sols = _recorded(monkeypatch)
    out = holder_ensemble(form, cyl, MEMBERS, SEED)
    dt = _step(form, cyl)
    assert len(sla_calls.getrs_calls) == MEMBERS * 3 * m       # one getrs call a step
    assert out["n_steps"] == 3 * m and out["dt"] == dt
    assert len(sols) == MEMBERS
    for i, sol in enumerate(sols):
        full = old_positive_run(form, cyl, philox_stream(SEED, i), dt)
        t_fit = full.times[3 * m]
        assert out["t_end"] == t_fit == sol.meta["t_end"]
        assert sol.meta["n_steps"] == 3 * m
        assert np.array_equal(sol.times, full.times[:3 * m + 1])
        assert np.array_equal(sol.snapshots, full.snapshots[:3 * m + 1])
        assert out["max_step_residual"][i] == np.max(sol.residuals)
        short = holder_fit(sol, t_fit, cyl.center, cyl.R)
        ref = holder_fit(full, t_fit, cyl.center, cyl.R)
        assert (short.gamma, short.flat) == (ref.gamma, ref.flat)
        assert short.scales == ref.scales and short.oscillations == ref.oscillations
        assert (out["gamma_fit"][i], out["flat"][i]) == (ref.gamma, ref.flat)


def test_harnack_members_step_over_the_cylinder(monkeypatch, sla_calls):
    form, cyl = _harnack_1d()
    sols = _recorded(monkeypatch)
    out = harnack_ensemble(form, cyl, MEMBERS, SEED)
    assert len(sla_calls.getrs_calls) == MEMBERS * 728          # one getrs call a step
    assert out["dt"] == _step(form, cyl) <= default_dt(form.grid.h, cyl.alpha)
    for i, sol in enumerate(sols):
        assert sol.meta["n_steps"] == 728
        assert sol.times[-1] == cyl.late_box().t_hi
        full = old_positive_run(form, cyl, philox_stream(SEED, i), out["dt"])
        assert np.array_equal(sol.times, full.times)
        assert np.array_equal(sol.snapshots, full.snapshots)


@pytest.mark.parametrize("h, n_steps", [(1 / 32, 256), (1 / 64, 728)])
def test_the_harnack_report_records_the_horizon(tmp_path, h, n_steps):
    # the preset's grid, and the hoelder preset's
    cfg = _default_config("harnack")
    cfg["harness"].update({"ensemble": 2, "seed": 3})
    cfg["grid"]["h"] = h
    run_scenario(_validate(cfg), tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    kernel, grid = _build_kernel_grid(cfg)
    cyl = _cylinder(cfg["harness"], kernel)
    assert report["horizon"] == {"t_end": cyl.late_box().t_hi, "n_steps": n_steps}
    assert report["dt"] == _cylinder_step(cyl, grid.h, None)[1]


def test_the_hoelder_report_records_the_horizon(tmp_path):
    cfg = _default_config("hoelder")
    cfg["harness"].update({"ensemble": 2, "seed": 3})
    run_scenario(_validate(cfg), tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    kernel, grid = _build_kernel_grid(cfg)
    m, _, full, _ = _cylinder_times(_cylinder(cfg["harness"], kernel), grid.h)
    assert m == 182            # the harnack-1d grid and cylinder
    assert report["horizon"] == {"t_end": full[3 * m], "n_steps": 3 * m}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest["resolution"]) == {"h", "N", "N_I", "dt", "quad"}
