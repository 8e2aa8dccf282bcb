"""The one ray rule of quadrature.py and the assumption checkers built on it,
against frozen copies of the earlier three-copy rule (tests/_oracles.py), bit
for bit; the K1 verdict rule; the Caccioppoli ball block; the CLI flag sets."""
import json
from functools import partial

import _oracles
import numpy as np
import pytest
from _oracles import (
    old_assembly_tails,
    old_ball_integral,
    old_caccioppoli_lhs,
    old_cutoff_sup,
    old_k1_glob_profile,
    old_k1_profile,
    old_log_caccioppoli_lhs,
    old_ray_exit_box,
    old_tail_sup,
)
import jumplab.discretize as discretize
from jumplab import assemble, build_grid, c_alpha_norm, make_drift_kernel, make_stable_kernel
from jumplab.assumptions import (
    INF,
    BallSpec,
    cutoff_sup,
    k1_glob_profile,
    k1_profile,
    tail_sup,
)
from jumplab.cli import main
from jumplab.estimates import caccioppoli_audit, log_caccioppoli_audit
from jumplab.kernels import SplitKernel
from jumplab.quadrature import (
    QuadSpec,
    _TAIL_BLOCK,
    ball_integral,
    directions,
    exterior_tail,
    ray_exit_box,
)

V1 = lambda x: 0.5 * np.asarray(x, dtype=float)[..., 0]
V2 = lambda x: np.tensordot(np.asarray(x, dtype=float), np.array([0.3, -0.4]),
                            axes=([-1], [0]))


def _same(a, b):
    """Every field equal bit for bit (repr round-trips a float exactly)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.fixture(scope="module")
def cone_ball_form(cone_kernel_2d):
    grid = build_grid(2, 1.0, 1 / 16, {"type": "ball", "radius": 0.75})
    assert grid.n_nodes == 1024
    return assemble(cone_kernel_2d, grid)


def _rule_tails(kernel, grid, quad=None):
    """(T_s, T_a) by the ray rule, which assembly no longer runs for cone kernels."""
    exit_fn = lambda x, dirs: ray_exit_box(x, dirs, grid.X)
    return tuple(2.0 * exterior_tail(kernel.radial_pieces(part), grid.nodes, exit_fn,
                                     grid.d, quad or QuadSpec())
                 for part in ("sym", "anti"))


def test_cone_1d_tails(cone_kernel_1d):
    grid = build_grid(1, 2.0, 1 / 64, {"type": "box", "halfwidth": 1.5})
    T_s, T_a = old_assembly_tails(cone_kernel_1d, grid)
    new_s, new_a = _rule_tails(cone_kernel_1d, grid)
    assert np.array_equal(new_s, T_s) and np.array_equal(new_a, T_a)


def test_cone_2d_ball_tails(cone_kernel_2d, cone_ball_form):
    # 1024 nodes: the tail runs in several blocks; both parts end in an
    # infinite piece.  A coarse rule takes the same paths as the default
    # one at a sixteenth of the cost.
    assert cone_ball_form.grid.n_nodes > 4 * _TAIL_BLOCK
    assert all(cone_kernel_2d.radial_pieces(part)[-1][1] is None for part in ("sym", "anti"))
    quad = QuadSpec(n_ang=16, n_panels=10)
    T_s, T_a = old_assembly_tails(cone_kernel_2d, cone_ball_form.grid, quad)
    new_s, new_a = _rule_tails(cone_kernel_2d, cone_ball_form.grid, quad)
    assert np.array_equal(new_s, T_s) and np.array_equal(new_a, T_a)


def test_drift_2d_tails_with_break_inside_the_box():
    # K_a vanishes beyond L = 0.5 < X: the finite-support branch integrates
    # [s0, L] on the rays that leave the box before L and skips the rest
    k = make_drift_kernel(1.0, V2, L=0.5, alpha=1.0, d=2)
    grid = build_grid(2, 1.0, 1 / 8)
    quad = QuadSpec(n_ang=32, n_panels=20)
    F = assemble(k, grid, quad=quad)
    T_s, T_a = old_assembly_tails(k, grid, quad)
    assert np.any(T_a != 0.0)
    assert np.array_equal(F.tail_sym, T_s) and np.array_equal(F.tail_anti, T_a)


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


@pytest.mark.parametrize("center", [None, (0.1, -0.2)])
def test_ball_integral(center):
    k = make_drift_kernel(1.0, V2, L=0.3, alpha=1.2, d=2)
    rng = np.random.Generator(np.random.Philox(key=3))
    x = rng.uniform(-0.3, 0.3, size=(70, 2)) + (center or 0.0)
    ev = lambda xb, y: np.abs(k.anti(xb, y)) + k.sym(xb, y)
    quad = QuadSpec(n_ang=48, n_panels=24)
    kw = {"singular_order": 2 + 1.2, "breaks": k.radial_breaks()}
    assert kw["breaks"]
    for order in (kw["singular_order"], 1.2, None):
        kw["singular_order"] = order
        new = ball_integral(ev, x, center, 0.6, 2, quad, **kw)
        assert np.array_equal(new, old_ball_integral(ev, x, center, 0.6, 2, quad, **kw))


def _k1_cases(cone_kernel_2d, cone_kernel_1d, linear_drift_kernel):
    J1, J2 = make_stable_kernel(1, 1.0), make_stable_kernel(2, 1.5)
    drift_2d = make_drift_kernel(1.0, V2, L=1.0, alpha=1.2, d=2)
    J_drift_2d = make_stable_kernel(2, 1.2, c_alpha_norm(2, 1.2))
    ball_1d, ball_2d = BallSpec((0.0,), 0.5), BallSpec((0.0, 0.0), 0.4)
    return [
        (cone_kernel_2d, J2, BallSpec((0.0, 0.0), 1.0), {"spacing": 0.5}),
        (cone_kernel_1d, make_stable_kernel(1, 1.5), ball_1d, {"spacing": 0.1}),
        (linear_drift_kernel, J1, ball_1d, {"spacing": 0.2}),
        # 399 lattice points: more than three tail blocks
        (linear_drift_kernel, J1, ball_1d, {"spacing": 0.005}),
        (drift_2d, J_drift_2d, ball_2d, {"spacing": 0.3}),
        (make_stable_kernel(1, 1.0), J1, ball_1d, {"spacing": 0.2}),
    ]


def test_k1_reports(cone_kernel_2d, cone_kernel_1d, linear_drift_kernel, monkeypatch):
    lattices = []
    for kernel, J, ball, kw in _k1_cases(cone_kernel_2d, cone_kernel_1d,
                                         linear_drift_kernel):
        # the frozen profiles' ball integral, with panel edges at the kernel's
        # jumps, as K1 and K1glob pin them (a drift kernel's L)
        monkeypatch.setattr(_oracles, "old_ball_integral",
                            partial(old_ball_integral, breaks=kernel.radial_breaks()))
        for new, old in ((k1_profile, old_k1_profile),
                         (k1_glob_profile, old_k1_glob_profile)):
            rep = new(kernel, J, ball, INF, **kw)
            if kernel is cone_kernel_1d:
                # K_s of order beta = 0.5 against J of order 1.5: the order pre-test
                assert rep.verdict == "divergent" and rep.constants == {"norm": INF}
                assert rep.notes.startswith("J's diagonal order 1.5 exceeds K_s's 0.5")
                continue
            ref = old(kernel, J, ball, INF, **kw)
            assert _same(rep.to_dict(), ref.to_dict()), (new.__name__, kernel.spec)
            lattices.append(rep.resolution.get("n_points", 0))
    assert max(lattices) > 3 * _TAIL_BLOCK


def test_tail_and_cutoff_reports(cone_kernel_2d, cone_kernel_1d, linear_drift_kernel):
    stable = make_stable_kernel(1, 1.0, c_alpha_norm(1, 1.0))
    cases = [(cone_kernel_2d, BallSpec((0.0, 0.0), 1.0), {"spacing": 0.5}),
             (cone_kernel_1d, BallSpec((0.0,), 0.5, 0.25), {}),
             (linear_drift_kernel, BallSpec((0.0,), 0.5), {}),
             (stable, BallSpec((0.0,), 0.5), {})]
    for kernel, ball, kw in cases:
        for dual in (False, True):
            assert _same(tail_sup(kernel, ball, 2.0, dual=dual, **kw),
                         old_tail_sup(kernel, ball, 2.0, dual=dual, **kw))
        assert _same(cutoff_sup(kernel, 0.25, ball, **kw),
                     old_cutoff_sup(kernel, 0.25, ball, **kw))


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
    F = cone_ball_form
    x = F.grid.nodes
    u = 1.0 + 0.5 * np.sin(3 * x[:, 0]) * np.cos(2 * x[:, 1])
    center, r, rho = (0.1, 0.0), 0.3, 0.2
    for p in (0.5, 2.0):
        rep = caccioppoli_audit(u, F, center, r, rho, p, 0.1, variant=variant)
        old = old_caccioppoli_lhs(u, F, center, r, rho, p, rep["shift"])
        assert rep["lhs"] > 0
        assert abs(rep["lhs"] - old) <= 1e-13 * abs(old)
    rep = log_caccioppoli_audit(u, F, center, r, rho, 0.1, variant=variant)
    old = old_log_caccioppoli_lhs(u, F, center, r, rho, rep["shift"])
    assert rep["lhs"] > 0
    assert abs(rep["lhs"] - old) <= 1e-13 * abs(old)


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
