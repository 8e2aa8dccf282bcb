"""Empirical audits of the regularity conclusions on computed solutions.

The inequalities measured here carry existential constants, so the artifact's
deliverable is an ensemble statistic (quotients, fitted exponents, empirical
constants) plus raw terms for regression baselines, never a value match
against theory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretize import CutoffProfile, DiscreteForm, kernel_alpha
from .kernels import philox_stream, random_smooth_positive_field
from .solve import ParabolicProblem, Solution, default_dt, solve_parabolic, whole_steps

# a grid time within this distance of a box's end belongs to the box: fit
# windows may end on grid times too (t_fit - s^alpha at alpha = 1.5)
_TIME_TOL = 1e-12
# the least number of nodes a Hoelder fit reads at its smallest scale
_FIT_MIN_NODES = 8


@dataclass(frozen=True)
class SpaceTimeBox:
    t_lo: float
    t_hi: float
    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(np.asarray(self.center, dtype=float)))
        if self.t_hi <= self.t_lo or self.radius <= 0:
            raise ValueError("degenerate space-time box")


@dataclass(frozen=True)
class Cylinder:
    """Order-alpha parabolic cylinder: time spans R^alpha around t0.

    Provides the early/late quotient boxes of the weak Harnack inequality.
    """

    t0: float
    R: float
    alpha: float
    center: tuple

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(np.asarray(self.center, dtype=float)))
        if not (0 < self.R <= 1):
            raise ValueError("radius must lie in (0, 1]")
        if not (0 < self.alpha < 2):
            raise ValueError("order must lie in (0, 2)")

    @property
    def ralpha(self) -> float:
        return self.R ** self.alpha

    @property
    def half_ralpha(self) -> float:
        return (self.R / 2.0) ** self.alpha

    def full(self) -> SpaceTimeBox:
        return SpaceTimeBox(self.t0 - self.ralpha, self.t0 + self.ralpha,
                            self.center, self.R)

    def early_box(self) -> SpaceTimeBox:
        return SpaceTimeBox(self.t0 - self.ralpha,
                            self.t0 - self.ralpha + self.half_ralpha,
                            self.center, self.R / 2.0)

    def late_box(self) -> SpaceTimeBox:
        return SpaceTimeBox(self.t0 + self.ralpha - self.half_ralpha,
                            self.t0 + self.ralpha, self.center, self.R / 2.0)


def _box_values(solution: Solution, box: SpaceTimeBox) -> np.ndarray:
    sel_t = (solution.times >= box.t_lo - _TIME_TOL) & (solution.times <= box.t_hi + _TIME_TOL)
    mask = solution.grid.ball_mask(np.asarray(box.center), box.radius)
    if not np.any(sel_t) or not np.any(mask):
        raise ValueError("space-time box does not intersect the solution lattice")
    return solution.snapshots[np.ix_(sel_t, mask)]


def _edge_values(solution: Solution, box: SpaceTimeBox) -> np.ndarray:
    """The state at time box.t_lo on the box's ball, linear in time between
    the grid times around it: one row, or none where t_lo is no later than
    the first time or later than the last."""
    times, mask = solution.times, solution.grid.ball_mask(np.asarray(box.center), box.radius)
    j = int(np.searchsorted(times, box.t_lo))     # times[j - 1] < t_lo <= times[j]
    if j == 0 or j == len(times):
        return np.empty((0, int(np.sum(mask))))
    w = (times[j] - box.t_lo) / (times[j] - times[j - 1])
    return (w * solution.snapshots[j - 1, mask] + (1.0 - w) * solution.snapshots[j, mask])[None]


def harnack_quotient(solution: Solution, cyl: Cylinder) -> float:
    """inf over the late box divided by the early space-time mean.

    Returns +inf when the early mean is nonpositive.  The quotient is exactly
    homogeneous under positive scaling of the solution.
    """
    late = _box_values(solution, cyl.late_box())
    early = _box_values(solution, cyl.early_box())
    if np.min(early) < -1e-12 or np.min(late) < -1e-12:
        raise ValueError("audit expects a nonnegative solution on the cylinder")
    denom = float(np.mean(early))
    if denom <= 0:
        return math.inf
    return float(np.min(late)) / denom


@dataclass
class HolderFit:
    gamma: float | None
    flat: bool
    scales: list = field(default_factory=list)
    oscillations: list = field(default_factory=list)


def holder_fit(solution: Solution, t_center: float, center, R0: float,
               n_scales: int = 4, nu: float = 2.0) -> HolderFit:
    """Least-squares slope of log oscillation against log scale, clamped to [0,1].

    Oscillations are taken over backward parabolic windows
    [t - s^alpha, t] x B_s with s = R0 nu^{-k}: the grid times in the window
    and the early edge t - s^alpha, whose state is read linearly in time
    between the grid times around it (``_edge_values``), so that no window
    loses the part before its first grid time.  Oscillation below 1e-13 at
    the largest scale yields the flat verdict instead of a fit.
    """
    if n_scales < 4:
        raise ValueError("need at least four scales for a fit")
    if "alpha" not in solution.meta:
        raise ValueError("holder_fit needs the order alpha in solution.meta['alpha']")
    alpha = solution.meta["alpha"]
    scales, oscs = [], []
    for k in range(n_scales):
        s = R0 * nu ** (-k)
        box = SpaceTimeBox(t_center - s ** alpha, t_center, tuple(center), s)
        vals = _box_values(solution, box)
        if vals.shape[1] < _FIT_MIN_NODES:
            raise ValueError(f"scale {s} contains fewer than {_FIT_MIN_NODES} nodes")
        vals = np.vstack([vals, _edge_values(solution, box)])
        scales.append(s)
        oscs.append(float(np.max(vals) - np.min(vals)))
    if oscs[0] < 1e-13:
        return HolderFit(None, True, scales, oscs)
    floor = 1e-300
    slope = np.polyfit(np.log(scales), np.log(np.maximum(oscs, floor)), 1)[0]
    return HolderFit(float(np.clip(slope, 0.0, 1.0)), False, scales, oscs)


def oscillation(solution: Solution, box: SpaceTimeBox) -> dict:
    vals = _box_values(solution, box)
    return {"max": float(np.max(vals)), "min": float(np.min(vals)),
            "osc": float(np.max(vals) - np.min(vals))}


# --- Caccioppoli-type audits ---------------------------------------------------


def _global_pairing(form: DiscreteForm, variant: str, u: np.ndarray,
                    phi: np.ndarray) -> float:
    """Discrete global form value paired against a test field phi, with zero
    exterior values (the tails T and T-hat do not enter).

    primal:         E(u, phi)      = h^d phi . (A u)
    dual, dual_ext: E-hat(u, phi)  = h^d phi . (A^T u)
    """
    A = form.A if variant == "primal" else form.A.T
    return form.grid.cell_volume * float(phi @ (A @ u))


def _audit_setup(u, form: DiscreteForm, center, r: float, rho: float, eps: float):
    """What both audits start from: the field u, the order alpha, the shifted
    field u~ = u + eps (which must be strictly positive), the cutoff tau's
    values on the grid and the mask of B_{r+rho}."""
    grid = form.grid
    alpha = kernel_alpha(form)
    u = np.asarray(u, dtype=float)
    u_t = u + eps
    if np.any(u_t <= 0):
        raise ValueError("shifted field must be strictly positive")
    tau = CutoffProfile(tuple(np.asarray(center, dtype=float)), r, rho / 2.0)
    return u, alpha, u_t, tau.values_on(grid), grid.ball_mask(tau.center, r + rho)


def caccioppoli_audit(u: np.ndarray, form: DiscreteForm, center, r: float,
                      rho: float, p: float, eps: float,
                      variant: str = "primal") -> dict:
    """Energy-of-power audit: measures the empirical constant of the bound

        E^{K_s}_{B_{r+rho}}(tau u~^{(1-p)/2}, .) <=
            c1 |p-1| T1 + c2 max(1, p) T2,

    where T1 is the (variant-appropriate) global form paired with
    -tau^2 u~^{-p} and T2 = rho^{-alpha} ||u~^{1-p}||_{L^1(B_{r+rho})}.
    The reported c-hat guards T1 by max(T1, 0) since random fields need not be
    supersolutions; the signed T1 is always part of the report.
    """
    if p <= 0 or p == 1.0:
        raise ValueError("need p > 0 with p != 1 (the log audit is separate)")
    grid = form.grid
    u, alpha, u_t, tv, mask = _audit_setup(u, form, center, r, rho, eps)
    w = (tv * u_t ** ((1.0 - p) / 2.0))[mask]
    dw = w[:, None] - w[None, :]
    lhs = float(np.sum(dw * dw * form.ks_matrix(mask)) * grid.cell_volume ** 2)
    phi = -(tv * tv) * u_t ** (-p)
    t1 = _global_pairing(form, variant, u, phi)
    t2 = rho ** (-alpha) * float(np.sum(u_t[mask] ** (1.0 - p)) * grid.cell_volume)
    denom = abs(p - 1.0) * max(t1, 0.0) + max(1.0, p) * t2
    c_hat = lhs / denom if denom > 0 else math.inf
    return {"c_hat": c_hat, "lhs": lhs, "t1": t1, "t2": t2, "p": p,
            "variant": variant, "eps": eps, "shift": eps,
            "r": r, "rho": rho, "h": grid.h}


def log_caccioppoli_audit(u: np.ndarray, form: DiscreteForm, center, r: float,
                          rho: float, eps: float, variant: str = "primal") -> dict:
    """Log-energy audit: the weighted log increment against the pairing with
    -tau^2 u~^{-1} and the bulk term rho^{-alpha} |B_{r+rho}|.

    Pairs with vanishing cutoff weight are excluded (their min-weight factor
    vanishes and the shifted logarithm is undefined there).
    """
    grid = form.grid
    u, alpha, u_t, tv, mask = _audit_setup(u, form, center, r, rho, eps)
    tb, pos = tv[mask], tv[mask] > 0
    Ks = np.where(pos[:, None] & pos[None, :], form.ks_matrix(mask), 0.0)
    logs = np.where(pos, np.log(np.where(pos, u_t[mask] / np.where(pos, tb, 1.0), 1.0)), 0.0)
    dlog = logs[:, None] - logs[None, :]
    wmin = np.minimum(tb[:, None] ** 2, tb[None, :] ** 2)
    lhs = float(np.sum(wmin * dlog * dlog * Ks) * grid.cell_volume ** 2)
    phi = -(tv * tv) / u_t
    t1 = _global_pairing(form, variant, u, phi)
    t2 = rho ** (-alpha) * float(np.sum(mask) * grid.cell_volume)
    denom = max(t1, 0.0) + t2
    return {"c_hat": lhs / denom if denom > 0 else math.inf,
            "c2_hat": lhs / t2 if t2 > 0 else math.inf,
            "lhs": lhs, "t1": t1, "t2": t2, "variant": variant, "eps": eps,
            "shift": eps, "r": r, "rho": rho, "h": grid.h}


# --- ensembles ------------------------------------------------------------------


def _cylinder_step(cyl: Cylinder, h: float, dt: float | None) -> tuple[int, float]:
    """(m, R^alpha / (2m)), the step of at most dt (``default_dt`` at h if None): a
    run over the cylinder takes 4m steps, and t0 + R^alpha / 2 is its time 3m."""
    return whole_steps(0.5 * cyl.ralpha, default_dt(h, cyl.alpha) if dt is None else dt)


def _positive_run(form: DiscreteForm, cyl: Cylinder, rng: np.random.Generator,
                  dt: float, t_end: float) -> Solution:
    """One member: random positive initial state, collar datum and exterior
    constant, stepped by implicit Euler from t0 - R^alpha to t_end, a grid time
    of the run over the cylinder, whose times and snapshots it shares, bit for bit."""
    grid = form.grid
    u0_field = random_smooth_positive_field(rng, grid.d)
    g_field = random_smooth_positive_field(rng, grid.d)
    ext = float(rng.uniform(0.2, 1.0))
    t_start = cyl.t0 - cyl.ralpha
    problem = ParabolicProblem(
        form, u0_field(grid.nodes), t_start, t_end, dt,
        collar=g_field(grid.nodes[grid.collar]), exterior=ext, theta=1.0)
    sol = solve_parabolic(problem)
    sol.meta["alpha"] = cyl.alpha
    return sol


def _members(n_runs: int):
    """Refuse an ensemble of no members before any member runs."""
    if n_runs < 1:
        raise ValueError(f"n_runs must be at least 1, got {n_runs}")


def _median(values) -> float:
    """The median of np.median without its nan check, which imports numpy.ma:
    the middle value of an odd count, (a + b) / 2 of the middle pair of an
    even one; nan if any value is nan."""
    v = sorted(float(x) for x in values)
    if any(math.isnan(x) for x in v):
        return math.nan
    m = len(v) // 2
    return v[m] if len(v) % 2 else (v[m - 1] + v[m]) / 2


def harnack_ensemble(form: DiscreteForm, cyl: Cylinder, n_runs: int,
                     seed: int, dt: float | None = None) -> dict:
    """Harnack quotients of n_runs members, and each member's max step residual.

    The members step over the whole cylinder, ``n_steps`` = 4m steps of
    ``_cylinder_step`` to ``t_end`` = t0 + R^alpha, where the late box ends."""
    _members(n_runs)
    quotients, residuals = [], []
    _, dt = _cylinder_step(cyl, form.grid.h, dt)
    for m in range(n_runs):
        sol = _positive_run(form, cyl, philox_stream(seed, m), dt, cyl.t0 + cyl.ralpha)
        quotients.append(harnack_quotient(sol, cyl))
        residuals.append(float(np.max(sol.residuals)))
    q = np.asarray(quotients)
    return {"c_emp": quotients, "min": float(np.min(q)), "median": _median(quotients),
            "max": float(np.max(q)), "n_runs": n_runs, "seed": seed,
            "h": form.grid.h, "dt": dt, **{k: sol.meta[k] for k in ("t_end", "n_steps")},
            "max_step_residual": residuals}


def holder_ensemble(form: DiscreteForm, cyl: Cylinder, n_runs: int, seed: int,
                    n_scales: int = 4, nu: float = 2.0,
                    dt: float | None = None) -> dict:
    """Hoelder fits of n_runs members, and each member's max step residual.

    The fit at t_fit = t0 + R^alpha / 2, grid time 3m of the cylinder's run
    (``_cylinder_step``), reads backward windows only, so each member stops
    there: ``n_steps`` = 3m steps to ``t_end`` = t_fit.  Its snapshots are a
    prefix of the full run's and the fits are the same;
    ``max_step_residual`` covers the steps run.
    """
    _members(n_runs)
    fits, residuals = [], []
    m, dt = _cylinder_step(cyl, form.grid.h, dt)
    t_fit = cyl.t0 - cyl.ralpha + 3 * m * dt    # the run's time 3m, bit for bit
    for i in range(n_runs):
        sol = _positive_run(form, cyl, philox_stream(seed, i), dt, t_fit)
        fit = holder_fit(sol, t_fit, cyl.center, cyl.R, n_scales=n_scales, nu=nu)
        fits.append(fit)
        residuals.append(float(np.max(sol.residuals)))
    gammas = [f.gamma for f in fits if not f.flat]
    in_range = [g for g in gammas if g is not None and 0.0 < g <= 1.0]
    return {"gamma_fit": [f.gamma for f in fits],
            "flat": [f.flat for f in fits],
            "fraction_in_range": len(in_range) / n_runs,
            "median": _median(in_range) if in_range else None,
            "n_runs": n_runs, "seed": seed, "h": form.grid.h, "dt": dt,
            "t_end": t_fit, "n_steps": 3 * m,
            "max_step_residual": residuals}


def caccioppoli_ensemble(form: DiscreteForm, center, r: float, rho: float,
                         p_list, n_runs: int, seed: int, eps: float = 0.1,
                         variant: str = "primal") -> dict:
    _members(n_runs)
    out = {float(p): [] for p in p_list}
    for m in range(n_runs):
        rng = philox_stream(seed, m)
        field = random_smooth_positive_field(rng, form.grid.d)
        u = field(form.grid.nodes)
        for p in out:                 # each p once, also where p_list repeats it
            rep = caccioppoli_audit(u, form, center, r, rho, p, eps, variant=variant)
            out[p].append(rep["c_hat"])
    summary = {p: {"max": float(np.max(v)), "median": _median(v)}
               for p, v in out.items()}
    return {"c_hat": out, "summary": summary, "n_runs": n_runs, "seed": seed,
            "h": form.grid.h}
