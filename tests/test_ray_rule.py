"""The box exit radius of quadrature.py against its frozen copy
(tests/_oracles.py), bit for bit; the K1 verdict rule; the Caccioppoli left-hand
sides on the ball block against the restricted form sums of discretize.py; the
CLI flag sets.  The ray rule and the checkers built on it are pinned by closed
forms in tests/test_closed_forms.py."""
import numpy as np
import pytest
from _oracles import old_ray_exit_box
import jumplab.discretize as discretize
from jumplab import assemble, build_grid, make_stable_kernel
from jumplab.assumptions import INF, BallSpec, k1_glob_profile, k1_profile
from jumplab.cli import main
from jumplab.discretize import (CutoffProfile, form_value, layer_cake_weighted_form,
                                pair_mask_ball)
from jumplab.estimates import caccioppoli_audit, log_caccioppoli_audit
from jumplab.kernels import SplitKernel
from jumplab.quadrature import directions, ray_exit_box

@pytest.fixture(scope="module")
def cone_ball_form(cone_kernel_2d):
    grid = build_grid(2, 1.0, 1 / 16, {"type": "ball", "radius": 0.75})
    assert grid.n_nodes == 1024
    return assemble(cone_kernel_2d, grid)


@pytest.mark.parametrize("d", [1, 2])
def test_ray_exit_box_matches_its_frozen_copy(d):
    # random interior points; in 2D the midpoint directions, the axes (zero
    # components) and random directions with a zeroed component
    rng = np.random.default_rng(23)
    x = rng.uniform(-1.5, 1.5, (300, d)) * (1.0 - 1e-9)
    dirs = directions(d, 64)[0]
    if d == 2:
        skew = rng.normal(size=(40, 2))
        skew[::2, 0] = skew[1::2, 1] = 0.0
        dirs = np.vstack([dirs, np.eye(2), -np.eye(2), skew])
    t = ray_exit_box(x, dirs, 1.5)
    assert np.array_equal(t, old_ray_exit_box(x, dirs, 1.5))
    assert t.shape == (300, len(dirs)) and np.all(t > 0) and np.all(np.isfinite(t))
    assert np.array_equal(ray_exit_box(x[0], dirs, 1.5), t[:1])


def test_cone_2d_closed_form_tails_keep_their_bytes(cone_kernel_2d, cone_ball_form,
                                                    monkeypatch):
    monkeypatch.setattr(discretize, "ray_exit_box", old_ray_exit_box)
    old = assemble(cone_kernel_2d, cone_ball_form.grid)
    assert old.tail_sym.tobytes() == cone_ball_form.tail_sym.tobytes()
    assert old.tail_anti.tobytes() == cone_ball_form.tail_anti.tobytes()


def test_k1_glob_verdict_follows_an_infinite_norm():
    J = make_stable_kernel(1, 1.0)
    inf_anti = lambda x, y: np.full(np.broadcast_shapes(
        np.shape(x)[:-1], np.shape(y)[:-1]), np.inf)
    k = SplitKernel(1, 1.0, J.sym, inf_anti, validate=False)
    ball = BallSpec((0.0,), 0.5)
    for profile in (k1_profile, k1_glob_profile):
        rep = profile(k, J, ball, INF, spacing=0.2)
        assert rep.constants["norm"] == INF
        assert rep.verdict == "divergent", profile.__name__


@pytest.mark.parametrize("variant", ["primal", "dual"])
def test_caccioppoli_audits_on_the_ball_block(cone_ball_form, variant):
    # lhs = E^{K_s}_{B_{r+rho}}(w, w) with w = tau u~^{(1-p)/2}, and for the log
    # audit sum (log(u~/tau)_i - log(u~/tau)_j)^2 min(tau_i^2, tau_j^2) K_s,ij h^{2d}
    F = cone_ball_form
    x = F.grid.nodes
    u = 1.0 + 0.5 * np.sin(3 * x[:, 0]) * np.cos(2 * x[:, 1])
    center, r, rho = (0.1, 0.0), 0.3, 0.2
    tau = CutoffProfile(center, r, rho / 2.0)
    tv = tau.values_on(F.grid)
    pairs = pair_mask_ball(F.grid, center, r + rho)
    for p in (0.5, 2.0):
        rep = caccioppoli_audit(u, F, center, r, rho, p, 0.1, variant=variant)
        w = tv * (u + rep["shift"]) ** ((1.0 - p) / 2.0)
        ref = form_value(F, pairs, w, w, "sym", "difference")
        assert rep["lhs"] > 0
        assert abs(rep["lhs"] - ref) <= 1e-13 * abs(ref)
    rep = log_caccioppoli_audit(u, F, center, r, rho, 0.1, variant=variant)
    pos = tv > 0
    logs = np.log(np.where(pos, (u + rep["shift"]) / np.where(pos, tv, 1.0), 1.0))
    ref = layer_cake_weighted_form(F, tau, logs, "sym")
    assert rep["lhs"] > 0
    assert abs(rep["lhs"] - ref["value"]) <= 1e-13 * abs(ref["value"])
    assert abs(rep["lhs"] - ref["layer_cake"]) <= 1e-13 * abs(ref["value"])


@pytest.mark.parametrize("argv", [
    ["assemble", "--ensemble", "5"],
    ["assemble", "--ensemble", "5", "--alphas", "9"],
    ["mosco", "--seed", "1"],
    ["solve", "--dump-form", "form.csv"],
    ["harnack", "--assumption", "K1"],
    ["check-kernel", "--alphas", "1.5"],
    ["algebra-tests", "--ensemble", "2"],
])
def test_cli_refuses_flags_its_run_ignores(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
