"""The default step 0.5 h^alpha against its time-error budget: on the README
presets the ensemble statistics at the default step sit within a tenth of
their 50-member sampling error of a run at a quarter of the step, and a
cylinder run takes 4m steps, m = ceil(R^alpha / (2 c h^alpha)) with c = 0.5,
each one getrs call."""
import math

import numpy as np

import jumplab.estimates as estimates
from jumplab import assemble
from jumplab.cli import _build_kernel_grid, _cylinder, _default_config
from jumplab.estimates import _cylinder_step, harnack_ensemble, holder_ensemble

C = 0.5                 # default_dt = C h^alpha
MEMBERS = 50
HARNACK_BUDGET = 0.0056     # a tenth of the 50-member median's sampling error (about 0.056)


def _preset(kind):
    cfg = _default_config(kind)
    kernel, grid = _build_kernel_grid(cfg)
    return assemble(kernel, grid), _cylinder(cfg["harness"], kernel)


def _bootstrap_se(values, stat, resamples=2000):
    """Standard error of stat over the members, by resampling them."""
    v = np.asarray(values)
    rng = np.random.Generator(np.random.Philox(key=11))
    idx = rng.integers(0, len(v), size=(resamples, len(v)))
    return float(np.std(stat(v[idx], axis=1), ddof=1))


def test_the_harnack_preset_keeps_its_statistics_at_the_default_step():
    form, cyl = _preset("harnack")          # h = 1/32; the README runs seed 7
    assert form.grid.h == 1 / 32
    coarse = harnack_ensemble(form, cyl, MEMBERS, 7)
    fine = harnack_ensemble(form, cyl, MEMBERS, 7, dt=coarse["dt"] / 4)
    assert fine["n_steps"] == 4 * coarse["n_steps"]
    assert abs(coarse["median"] - fine["median"]) < HARNACK_BUDGET
    assert abs(coarse["min"] - fine["min"]) < HARNACK_BUDGET


def _smallest_scale_ratios(form, cyl, dt, monkeypatch):
    """osc(R/8) / osc(R/4) of each member of the hoelder preset's ensemble
    (seed 0), read from the fits that holder_ensemble makes."""
    fits, real_fit = [], estimates.holder_fit

    def fit(*args, **kwargs):
        fits.append(real_fit(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(estimates, "holder_fit", fit)
    holder_ensemble(form, cyl, MEMBERS, 0, dt=dt)
    monkeypatch.undo()
    return np.array([f.oscillations[3] / f.oscillations[2] for f in fits])


def test_the_hoelder_preset_keeps_its_smallest_scale_ratio_at_the_default_step(monkeypatch):
    form, cyl = _preset("hoelder")          # h = 1/64
    dt = _cylinder_step(cyl, form.grid.h, None)[1]
    coarse = _smallest_scale_ratios(form, cyl, dt, monkeypatch)
    fine = _smallest_scale_ratios(form, cyl, dt / 4, monkeypatch)
    budget = _bootstrap_se(coarse, np.median) / 10
    assert abs(np.median(coarse) - np.median(fine)) < budget


def test_a_harnack_member_at_h_1_64_takes_4m_steps_of_one_getrs_each(sla_calls):
    cfg = _default_config("harnack")
    cfg["grid"]["h"] = 1 / 64                       # the harnack-1d grid
    kernel, grid = _build_kernel_grid(cfg)
    form, cyl = assemble(kernel, grid), _cylinder(cfg["harness"], kernel)
    m = math.ceil(cyl.ralpha / (2 * C * grid.h ** cyl.alpha))
    assert m == 182                                 # 363 at c = 0.25
    out = harnack_ensemble(form, cyl, 2, 5)
    assert out["n_steps"] == 4 * m
    assert len(sla_calls.getrs_calls) == 2 * 4 * m
