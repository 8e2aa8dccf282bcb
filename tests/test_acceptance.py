"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""
import math
import time

import numpy as np
import pytest

from _local_limit import probe_coefficients
from _oracles import bump, pv_operator_oracle
from jumplab import (
    ChainRulePair,
    Cone,
    ParabolicProblem,
    QuadSpec,
    assemble,
    build_grid,
    c_alpha_norm,
    check_chain_rule_bounds,
    check_log_weight,
    check_weighted,
    eval_pair,
    form_value,
    layer_cake_weighted_form,
    make_coefficient_kernel,
    make_cone_kernel,
    make_drift_kernel,
    make_stable_kernel,
    solve_dual_ext,
    solve_parabolic,
)
from jumplab.assumptions import BallSpec, cp_check, k1_profile
from jumplab.discretize import CutoffProfile, pair_mask_ball, pair_mask_level
from jumplab.estimates import (
    Cylinder,
    caccioppoli_audit,
    caccioppoli_ensemble,
    harnack_ensemble,
    holder_ensemble,
    philox_stream,
    random_smooth_positive_field,
)
from jumplab.kernels import get_pair_field
from jumplab.mosco import alpha_family, local_coefficients, resolvent_convergence
from jumplab.solve import Solution
from jumplab.estimates import holder_fit

MARGIN_TOL = -1e-12


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:>2}: {status} - {detail}")
    assert ok, detail


def test_criterion_01_algebraic_lemma_suite():
    t_start = time.time()
    rng = philox_stream(101, 0)
    n_pairs = 10_000
    worst = math.inf

    # increment inequalities for the chain-rule pair, 100 exponents x 100 pairs
    p_vals = np.exp(rng.uniform(math.log(0.1), math.log(10), 100))
    for p in p_vals:
        pair = ChainRulePair(float(p))
        s = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 100))
        t = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 100))
        for vals in check_chain_rule_bounds(pair, s, t).values():
            worst = min(worst, float(np.min(vals)))

    tau1 = rng.uniform(0, 3, n_pairs)
    tau2 = rng.uniform(0, 3, n_pairs)
    Gt = rng.normal(0, 5, n_pairs)
    Gs = rng.normal(0, 5, n_pairs)
    delta = rng.uniform(1e-3, 1 - 1e-3, n_pairs)
    for vals in check_weighted(tau1, tau2, Gt, Gs, delta).values():
        worst = min(worst, float(np.min(vals)))

    t_ = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n_pairs))
    s_ = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n_pairs))
    worst = min(worst, float(np.min(
        check_log_weight(tau1, tau2, t_, s_)["log_lower"])))

    # identity rows: evaluated products against closed forms
    ident_err = 0.0
    for p in (0.3, 0.5, 1.0, 2.0, 5.0, 9.7):
        pair = ChainRulePair(float(p))
        t = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 2000))
        g, G, Gp, tg, G2, tGp, g_over = eval_pair(pair, t)
        half = np.power(t, (1 - p) / 2)
        rows = [
            (g_over, half / math.sqrt(p) if p != 1 else np.ones_like(t)),
            (Gp, math.sqrt(p) * np.power(t, -(p + 1) / 2)),
            (tg, np.power(t, 1 - p)),
            (tGp, math.sqrt(p) * half),
            (np.sqrt(t * g), half),
        ]
        if p != 1:
            rows.append((G2, 4 * p / (p - 1) ** 2 * np.power(t, 1 - p)))
        else:
            rows.append((G2, np.log(t) ** 2))
        for lhs, rhs in rows:
            scale = np.maximum(np.abs(rhs), 1e-300)
            ident_err = max(ident_err, float(np.max(np.abs(lhs - rhs) / scale)))

    elapsed = time.time() - t_start
    ok = worst >= MARGIN_TOL and ident_err <= 1e-12 and elapsed < 10.0
    _report(1, ok, f"worst margin {worst:.2e}, identity error {ident_err:.2e}, "
                   f"{elapsed:.1f}s")


def test_criterion_02_kernel_split_invariants():
    rng = philox_stream(202, 0)
    families = {
        "coefficient": (make_coefficient_kernel(
            get_pair_field("sin-coefficient"), 1.0, 1.0, 3.0, d=1), 1),
        "drift": (make_drift_kernel(
            1.0, lambda x: 0.5 * np.asarray(x, dtype=float)[..., 0],
            L=1.0, alpha=1.0, d=1), 1),
        "cone-2d": (make_cone_kernel(
            1.5, 0.5, Cone((1.0, 0.0), np.pi / 4),
            Cone((0.0, 1.0), np.pi / 8, double=True), d=2), 2),
        "cone-1d": (make_cone_kernel(1.5, 0.5, Cone((1.0,), np.pi / 4),
                                     None, d=1), 1),
    }
    ok = True
    details = []
    for name, (k, d) in families.items():
        x = rng.uniform(-2, 2, size=(12_000, d))
        y = rng.uniform(-2, 2, size=(12_000, d))
        keep = np.linalg.norm(x - y, axis=-1) > 1e-3
        x, y = x[keep][:10_000], y[keep][:10_000]
        ks, ka, kv = k.sym(x, y), k.anti(x, y), k(x, y)
        scale = np.maximum(ks, 1e-300)
        ok_f = (np.all(kv >= -1e-12 * scale)
                and np.all(np.abs(ks + ka - kv) <= 1e-12 * scale)
                and np.all(np.abs(ka) <= ks * (1 + 1e-12) + 1e-300))
        if name == "coefficient":
            ok_f = ok_f and np.all(np.abs(ka) <= 0.5 * ks * (1 + 1e-12))
        ok = ok and ok_f
        details.append(f"{name}:{'ok' if ok_f else 'FAIL'}")
    _report(2, ok, ", ".join(details) + " (10^4 pairs each)")


def test_criterion_03_normalization_and_k1_closed_form():
    c_err = abs(c_alpha_norm(1, 1.0) - 1.0 / math.pi)
    kernel = make_cone_kernel(1.5, 0.5, Cone((1.0, 0.0), np.pi / 4),
                              Cone((0.0, 1.0), np.pi / 8, double=True), d=2)
    J = make_stable_kernel(2, 1.5)
    ball = BallSpec((0.0, 0.0), 1.0)  # integration ball B_{2r} has radius 2
    rep = k1_profile(kernel, J, ball, theta=math.inf, spacing=2.0)
    expected = (math.pi / 2.0) * math.sqrt(2.0)
    w_err = abs(rep.constants["norm"] - expected) / expected
    ok = c_err < 1e-12 and w_err < 0.02 and rep.verdict == "finite"
    _report(3, ok, f"|c_11 - 1/pi| = {c_err:.2e}, cone W(0) rel err "
                   f"{w_err:.4f} vs (pi/2) sqrt(2)")


def test_criterion_04_assembly():
    alpha = 1.0
    c = c_alpha_norm(1, alpha)
    kernel = make_coefficient_kernel(get_pair_field("sin-coefficient"),
                                     alpha, 1.0, 3.0, d=1)
    grid = build_grid(1, 1.25, 2.5 / 64, {"type": "box", "halfwidth": 1.0})
    F = assemble(kernel, grid)
    one = np.ones(grid.n_nodes)
    null_defect = float(np.max(np.abs(F.A @ one - F.tail)))
    scale_s = max(float(np.max(np.abs(F.A_s))), 1e-300)
    scale_a = max(float(np.max(np.abs(F.A_a))), 1e-300)
    sym_err = float(np.max(np.abs(F.A_s - F.A_s.T))) / scale_s
    asym_err = float(np.max(np.abs(F.A_a + F.A_a.T))) / scale_a

    stable = make_stable_kernel(1, alpha, c)
    Fs = assemble(stable, grid)
    u = bump(grid.nodes[:, 0])
    Au = Fs.A @ u
    xi = grid.nodes[grid.interior, 0]
    oracle = np.array([pv_operator_oracle(x, bump, c, alpha, grid.h / 10)
                       for x in xi])
    op_err = float(np.max(np.abs(Au[grid.interior] - oracle))
                   / np.max(np.abs(oracle)))
    ok = null_defect <= 1e-6 and sym_err <= 1e-12 and asym_err <= 1e-12 \
        and op_err < 0.02
    _report(4, ok, f"constants-null {null_defect:.1e}, sym {sym_err:.1e}, "
                   f"antisym {asym_err:.1e}, bump-oracle {op_err:.4f} (N=64)")


def test_criterion_05_solver():
    kernel = make_coefficient_kernel(get_pair_field("sin-coefficient"), 1.0,
                                     1.0, 3.0, d=1)
    grid = build_grid(1, 2.0, 1 / 16, {"type": "box", "halfwidth": 1.0})
    F = assemble(kernel, grid)
    violations = 0
    for m in range(50):
        rng = philox_stream(505, m)
        field = random_smooth_positive_field(rng, 1)
        gval = float(rng.uniform(0.05, 1.0))
        p = ParabolicProblem(F, field(grid.nodes), 0.0, 0.06, 0.02,
                             collar=gval,
                             exterior=float(rng.uniform(0.0, 1.0)), theta=1.0)
        sol = solve_parabolic(p)
        if np.min(sol.snapshots) < 0:
            violations += 1

    small = build_grid(1, 2.0, 1 / 8, {"type": "box", "halfwidth": 1.0})
    k_small = make_stable_kernel(1, 1.0, c_alpha_norm(1, 1.0))
    Fsm = assemble(k_small, small)
    I = small.interior
    w, V = np.linalg.eigh(Fsm.A[np.ix_(I, I)])
    mu = w[2]
    u0 = np.zeros(small.n_nodes)
    u0[I] = V[:, 2]
    dt = 0.04
    sol = solve_parabolic(ParabolicProblem(Fsm, u0, 0.0, 5 * dt, dt, theta=1.0))
    eig_err = max(float(np.max(np.abs(sol.snapshots[k][I]
                                      - (1 + dt * mu) ** (-k) * u0[I])))
                  for k in range(6))

    u0_smooth = np.exp(-4 * grid.nodes[:, 0] ** 2)
    finals = {}
    for dt_r in (0.02, 0.01, 0.005):
        pr = ParabolicProblem(F, u0_smooth, 0.0, 0.2, dt_r, theta=1.0)
        finals[dt_r] = solve_parabolic(pr).snapshots[-1]
    e1 = np.linalg.norm(finals[0.02] - finals[0.005])
    e2 = np.linalg.norm(finals[0.01] - finals[0.005])
    order = math.log(e1 / e2) / math.log((0.02 - 0.005) / (0.01 - 0.005))
    ok = violations == 0 and eig_err <= 1e-10 and order >= 0.9
    _report(5, ok, f"positivity violations {violations}/50, eigen-decay err "
                   f"{eig_err:.1e}, Richardson order {order:.3f}")


def test_criterion_06_discrete_identities():
    kernel = make_coefficient_kernel(get_pair_field("sin-coefficient"), 1.0,
                                     1.0, 3.0, d=1)
    grid = build_grid(1, 2.0, 1 / 16, {"type": "box", "halfwidth": 1.0})
    F = assemble(kernel, grid)
    rng = philox_stream(606, 0)
    n = grid.n_nodes
    worst_sym = 0.0
    worst_cake = 0.0
    for _ in range(5):
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        f = rng.normal(size=n)
        ball = pair_mask_ball(grid, [0.0], 0.9)
        level = pair_mask_level(f)
        for part, weight in (("sym", "difference"), ("anti", "sum")):
            full = form_value(F, ball, u, v, part=part, weight=weight)
            half = form_value(F, ball & level, u, v, part=part, weight=weight)
            worst_sym = max(worst_sym,
                            abs(full - 2 * half) / max(abs(full), 1e-300))
        tau = CutoffProfile((0.0,), 0.4, 0.3)
        out = layer_cake_weighted_form(F, tau, u, part="sym")
        worst_cake = max(worst_cake, out["gap"])
    ok = worst_sym <= 1e-12 and worst_cake <= 1e-12
    _report(6, ok, f"level-set split identity gap {worst_sym:.1e}, "
                   f"layer-cake gap {worst_cake:.1e}")


def test_criterion_07_harnack_ensemble():
    t0 = time.time()
    kernel = make_cone_kernel(1.5, 0.5, Cone((1.0,), np.pi / 4), None, d=1)
    cyl = Cylinder(0.0, 0.5, 1.5, (0.0,))
    mins = {}
    for n_axis in (128, 256):
        grid = build_grid(1, 2.0, 4.0 / n_axis,
                          {"type": "box", "halfwidth": 1.5})
        F = assemble(kernel, grid)
        out = harnack_ensemble(F, cyl, 50, seed=7)
        assert all(c > 0 for c in out["c_emp"])
        mins[n_axis] = out["min"]
    ratio = max(mins[128], mins[256]) / min(mins[128], mins[256])
    elapsed = time.time() - t0
    ok = ratio <= 2.0 and elapsed < 300.0
    _report(7, ok, f"all 50 c_emp > 0 at both resolutions; min {mins[128]:.4f} "
                   f"vs {mins[256]:.4f} (ratio {ratio:.2f}), {elapsed:.0f}s")


def test_criterion_08_hoelder_ensemble():
    kernel = make_cone_kernel(1.5, 0.5, Cone((1.0,), np.pi / 4), None, d=1)
    grid = build_grid(1, 2.0, 1 / 64, {"type": "box", "halfwidth": 1.5})
    F = assemble(kernel, grid)
    cyl = Cylinder(0.0, 0.5, 1.5, (0.0,))
    out = holder_ensemble(F, cyl, 50, seed=13)
    frac = out["fraction_in_range"]

    rng = philox_stream(808, 0)
    field = random_smooth_positive_field(rng, 1)
    t = np.linspace(-0.3, 0.3, 65)
    snaps = np.stack([(1 + 0.1 * tk) * field(grid.nodes) for tk in t])
    sol = Solution(t, snaps, grid, {"alpha": 1.5})
    g0 = holder_fit(sol, 0.2, (0.0,), 0.5).gamma
    aff = Solution(t, -3.0 * snaps + 11.0, grid, {"alpha": 1.5})
    g1 = holder_fit(aff, 0.2, (0.0,), 0.5).gamma
    affine_gap = abs(g0 - g1)
    ok = frac >= 0.95 and affine_gap <= 1e-12
    _report(8, ok, f"{frac:.0%} of 50 fits in (0,1], affine-invariance gap "
                   f"{affine_gap:.1e}")


def test_criterion_09_caccioppoli():
    k = make_stable_kernel(1, 1.0, c_alpha_norm(1, 1.0))
    maxima = {}
    for h in (1 / 16, 1 / 32):
        grid = build_grid(1, 2.0, h, {"type": "box", "halfwidth": 1.0})
        F = assemble(k, grid)
        out = caccioppoli_ensemble(F, (0.0,), 0.4, 0.3, [0.5, 2.0], 100,
                                   seed=99)
        maxima[h] = {p: s["max"] for p, s in out["summary"].items()}
    stable = all(
        np.isfinite(maxima[1 / 16][p]) and np.isfinite(maxima[1 / 32][p])
        and max(maxima[1 / 16][p], maxima[1 / 32][p])
        <= 2.0 * min(maxima[1 / 16][p], maxima[1 / 32][p])
        for p in (0.5, 2.0))

    grid = build_grid(1, 2.0, 1 / 16, {"type": "box", "halfwidth": 1.0})
    F = assemble(k, grid)
    rng = philox_stream(909, 0)
    u = random_smooth_positive_field(rng, 1)(grid.nodes)
    dual_gap = 0.0
    for p in (0.5, 2.0):
        a = caccioppoli_audit(u, F, (0.0,), 0.4, 0.3, p, 0.1, variant="primal")
        b = caccioppoli_audit(u, F, (0.0,), 0.4, 0.3, p, 0.1, variant="dual")
        dual_gap = max(dual_gap, abs(a["c_hat"] - b["c_hat"]))

    kernel_ns = make_coefficient_kernel(get_pair_field("sin-coefficient"),
                                        1.0, 1.0, 3.0, d=1)
    Fns = assemble(kernel_ns, grid)
    D = 0.7
    rng2 = philox_stream(910, 0)
    u0 = random_smooth_positive_field(rng2, 1)(grid.nodes) + 1.0
    kw = dict(dt=0.01, t_end=0.08, collar=1.4, exterior=1.1)
    dual = solve_parabolic(ParabolicProblem(Fns, u0, 0.0, kw["t_end"],
                                            kw["dt"], collar=kw["collar"],
                                            exterior=kw["exterior"],
                                            variant="dual"))
    ext = solve_dual_ext(ParabolicProblem(Fns, u0 - D, 0.0, kw["t_end"],
                                          kw["dt"],
                                          collar=1.4 - D,
                                          exterior=kw["exterior"] - D,
                                          variant="dual_ext", d_const=-D))
    shift_gap = float(np.max(np.abs(ext.snapshots - (dual.snapshots - D))))
    ok = stable and dual_gap <= 1e-12 and shift_gap <= 1e-9
    _report(9, ok, f"max c-hat stable x2 under refinement "
                   f"({maxima[1/16]} vs {maxima[1/32]}), dual=primal gap "
                   f"{dual_gap:.1e}, shift identity {shift_gap:.1e}")


def test_criterion_10_mosco():
    t0 = time.time()
    fam = alpha_family(make_stable_kernel(1, 1.0), (1.5, 1.8, 1.9, 1.95))

    # finite-alpha moment: d=1, alpha=1, delta=1 equals 2 c_{1,1} = 2/pi
    out1 = local_coefficients(alpha_family(make_stable_kernel(1, 1.0), (1.0,)), np.array([[0.0]]),
                              delta=1.0)
    moment_err = abs(out1["a"][1.0][0, 0, 0] - 2.0 / math.pi) / (2.0 / math.pi)

    # extrapolated limit: the gamma-function oracle gives
    # lim 2 c_{1,a}/(2-a) = 2 per axis (see the decisions ledger on the
    # factor-two normalization of the printed "identity" target)
    out2 = local_coefficients(fam, np.array([[0.0]]), delta=1.0)
    limit_err = abs(out2["a_limit"][0, 0, 0] - 2.0) / 2.0

    V = lambda x: 0.4 * np.asarray(x, dtype=float)[..., 0]
    dfam = alpha_family(make_drift_kernel(1.0, V, 2.0, 1.0, 1), (1.5, 1.8, 1.9, 1.95))
    co = local_coefficients(dfam, np.array([[0.1]]), delta=0.5)
    drift_gap = max(abs(co["b"][a][0, 0] - co["a"][a][0, 0, 0] * 0.4)
                    for a in dfam)

    grid = build_grid(1, 1.0, 1 / 32, {"type": "box", "halfwidth": 0.75})
    f = lambda x: np.exp(-4 * np.asarray(x)[..., 0] ** 2)
    res = resolvent_convergence(fam, grid, f, 5.0, probe_coefficients(fam, grid))
    gap_ratio = res["gaps"][0] / res["gaps"][-1]
    elapsed = time.time() - t0
    ok = (moment_err < 0.01 and limit_err < 0.05 and drift_gap < 1e-8
          and gap_ratio >= 4.0 and elapsed < 180.0)
    _report(10, ok, f"moment 2/pi err {moment_err:.2e}, limit-vs-2I err "
                    f"{limit_err:.3f}, drift identity {drift_gap:.1e}, "
                    f"resolvent ratio {gap_ratio:.1f}x, {elapsed:.0f}s")


def test_criterion_11_cp_truth_table():
    a = cp_check(2, 1.0, 4.0, 2.0)
    b = cp_check(2, 1.0, math.inf, math.inf)
    with pytest.raises(ValueError):
        cp_check(2, 1.0, 2.0, 2.0)
    ok = (a["cp"] is True and a["cp_hat"] is False
          and b["cp"] is True and b["cp_hat"] is True)
    _report(11, ok, f"(theta=4, mu=2): CP={a['cp']}, CP-hat={a['cp_hat']}; "
                    f"(inf, inf): CP={b['cp']}, CP-hat={b['cp_hat']}; "
                    f"theta <= d/alpha rejected")
