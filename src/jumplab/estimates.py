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
from .solve import ParabolicProblem, Solution, default_dt, solve_parabolic


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

    Provides the sub-boxes used by the audits: the early/late quotient boxes
    of the weak Harnack inequality and the backward boxes of the oscillation
    argument (D, D_minus, D_plus, D_hat).
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

    def D(self) -> SpaceTimeBox:
        return SpaceTimeBox(self.t0 - 2 * self.ralpha, self.t0, self.center,
                            2 * self.R)

    def D_hat(self) -> SpaceTimeBox:
        return SpaceTimeBox(self.t0 - 2 * self.ralpha, self.t0, self.center,
                            3 * self.R)

    def D_minus(self) -> SpaceTimeBox:
        return SpaceTimeBox(self.t0 - 2 * self.ralpha,
                            self.t0 - 2 * self.ralpha + self.half_ralpha,
                            self.center, self.R / 2.0)

    def D_plus(self) -> SpaceTimeBox:
        return SpaceTimeBox(self.t0 - self.half_ralpha, self.t0,
                            self.center, self.R / 2.0)


def _box_values(solution: Solution, box: SpaceTimeBox) -> np.ndarray:
    sel_t = (solution.times >= box.t_lo - 1e-12) & (solution.times <= box.t_hi + 1e-12)
    mask = solution.grid.ball_mask(np.asarray(box.center), box.radius)
    if not np.any(sel_t) or not np.any(mask):
        raise ValueError("space-time box does not intersect the solution lattice")
    return solution.snapshots[np.ix_(sel_t, mask)]


def harnack_quotient(solution: Solution, cyl: Cylinder, f_inf: float = 0.0) -> float:
    """inf over the late box divided by (early space-time mean - R^alpha |f|).

    Returns +inf when the shifted early mean is nonpositive.  The quotient is
    exactly homogeneous under positive scaling of solution and source.
    """
    late = _box_values(solution, cyl.late_box())
    early = _box_values(solution, cyl.early_box())
    if np.min(early) < -1e-12 or np.min(late) < -1e-12:
        raise ValueError("audit expects a nonnegative solution on the cylinder")
    denom = float(np.mean(early)) - cyl.ralpha * f_inf
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
               n_scales: int = 4, nu: float = 2.0,
               min_points: int = 8) -> HolderFit:
    """Least-squares slope of log oscillation against log scale, clamped to [0,1].

    Oscillations are taken over backward parabolic windows
    (t - s^alpha, t] x B_s with s = R0 nu^{-k}.  Oscillation below 1e-13 at
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
        if vals.shape[1] < min_points:
            raise ValueError(f"scale {s} contains fewer than {min_points} nodes")
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
                    phi: np.ndarray, d_const: float, u_ext: float) -> float:
    """Discrete global form value paired against a test field phi.

    primal:   E(u, phi)      = h^d phi . (A u - u_ext T)
    dual:     E-hat(u, phi)  = h^d phi . (A^T u - u_ext T-hat)
    dual_ext: adds the constant-drift load - d (A^T 1 - T-hat).
    """
    hd = form.grid.cell_volume
    if variant == "primal":
        return hd * float(phi @ (form.A @ u - u_ext * form.tail))
    val = hd * float(phi @ (form.A.T @ u - u_ext * form.tail_dual))
    if variant == "dual_ext":
        val -= d_const * hd * float(phi @ form.drift_load)
    return val


def _audit_shift(variant: str, eps: float, r: float, alpha: float, d: int,
                 f_inf: float, d_const: float, theta: float) -> float:
    """Positivity shift of the audited field: eps, plus r^alpha |f| for the
    dual variants, plus r^{(alpha - d/theta)/2} |d| for the extended dual."""
    shift = eps
    if variant in ("dual", "dual_ext"):
        shift = shift + r ** alpha * f_inf
    if variant == "dual_ext":
        exponent = 0.5 * (alpha - (d / theta if theta != math.inf else 0.0))
        shift = shift + r ** exponent * abs(d_const)
    return shift


def caccioppoli_audit(u: np.ndarray, form: DiscreteForm, center, r: float,
                      rho: float, p: float, eps: float,
                      variant: str = "primal", d_const: float = 0.0,
                      f_inf: float = 0.0, weight_gamma: float = 1.0,
                      theta: float = math.inf, u_ext: float = 0.0) -> dict:
    """Energy-of-power audit: measures the empirical constant of the bound

        E^{K_s}_{B_{r+rho}}(tau u~^{(1-p)/2}, .) <=
            c1 |p-1| T1 + c2 (1 v p^gamma) T2,

    where T1 is the (variant-appropriate) global form paired with
    -tau^2 u~^{-p} and T2 = rho^{-alpha} ||u~^{1-p}||_{L^1(B_{r+rho})}.
    The reported c-hat guards T1 by max(T1, 0) since random fields need not be
    supersolutions; the signed T1 is always part of the report.
    """
    if p <= 0 or p == 1.0:
        raise ValueError("need p > 0 with p != 1 (the log audit is separate)")
    grid = form.grid
    alpha = kernel_alpha(form)
    u = np.asarray(u, dtype=float)
    shift = _audit_shift(variant, eps, r, alpha, grid.d, f_inf, d_const, theta)
    u_t = u + shift
    if np.any(u_t <= 0):
        raise ValueError("shifted field must be strictly positive")
    tau = CutoffProfile(tuple(np.asarray(center, dtype=float)), r, rho / 2.0)
    tv = tau.values_on(grid)
    mask = grid.ball_mask(tau.center, r + rho)
    w = (tv * u_t ** ((1.0 - p) / 2.0))[mask]
    dw = w[:, None] - w[None, :]
    lhs = float(np.sum(dw * dw * form.ks_matrix(mask)) * grid.cell_volume ** 2)
    phi = -(tv * tv) * u_t ** (-p)
    t1 = _global_pairing(form, variant, u, phi, d_const, u_ext)
    t2 = rho ** (-alpha) * float(np.sum(u_t[mask] ** (1.0 - p)) * grid.cell_volume)
    denom = abs(p - 1.0) * max(t1, 0.0) + max(1.0, p ** weight_gamma) * t2
    c_hat = lhs / denom if denom > 0 else math.inf
    return {"c_hat": c_hat, "lhs": lhs, "t1": t1, "t2": t2, "p": p,
            "variant": variant, "eps": eps, "shift": shift,
            "r": r, "rho": rho, "h": grid.h}


def log_caccioppoli_audit(u: np.ndarray, form: DiscreteForm, center, r: float,
                          rho: float, eps: float, variant: str = "primal",
                          d_const: float = 0.0, f_inf: float = 0.0,
                          theta: float = math.inf, u_ext: float = 0.0) -> dict:
    """Log-energy audit: the weighted log increment against the pairing with
    -tau^2 u~^{-1} and the bulk term rho^{-alpha} |B_{r+rho}|.

    Pairs with vanishing cutoff weight are excluded (their min-weight factor
    vanishes and the shifted logarithm is undefined there).
    """
    grid = form.grid
    alpha = kernel_alpha(form)
    u = np.asarray(u, dtype=float)
    shift = _audit_shift(variant, eps, r, alpha, grid.d, f_inf, d_const, theta)
    u_t = u + shift
    if np.any(u_t <= 0):
        raise ValueError("shifted field must be strictly positive")
    tau = CutoffProfile(tuple(np.asarray(center, dtype=float)), r, rho / 2.0)
    tv = tau.values_on(grid)
    mask = grid.ball_mask(tau.center, r + rho)
    tb, pos = tv[mask], tv[mask] > 0
    Ks = np.where(pos[:, None] & pos[None, :], form.ks_matrix(mask), 0.0)
    logs = np.where(pos, np.log(np.where(pos, u_t[mask] / np.where(pos, tb, 1.0), 1.0)), 0.0)
    dlog = logs[:, None] - logs[None, :]
    wmin = np.minimum(tb[:, None] ** 2, tb[None, :] ** 2)
    lhs = float(np.sum(wmin * dlog * dlog * Ks) * grid.cell_volume ** 2)
    phi = -(tv * tv) / u_t
    t1 = _global_pairing(form, variant, u, phi, d_const, u_ext)
    t2 = rho ** (-alpha) * float(np.sum(mask) * grid.cell_volume)
    denom = max(t1, 0.0) + t2
    return {"c_hat": lhs / denom if denom > 0 else math.inf,
            "c2_hat": lhs / t2 if t2 > 0 else math.inf,
            "lhs": lhs, "t1": t1, "t2": t2, "variant": variant, "eps": eps,
            "shift": shift, "r": r, "rho": rho, "h": grid.h}


def tail_source_bound(beta_growth: float, R: float, sigma: float, alpha: float,
                      nu: float = 3.0, max_terms: int = 2000) -> dict:
    """Geometric-series bound on the far-field source created by truncation.

    primal: R^{-alpha} sum_j (3^{j b} - 1) 3^{-j (sigma ^ alpha)};
    dual:   R^{-alpha} (nu^{2b - s'} + sum_{j>=2} nu^{(2b - 2s') j + 2s'}),
    with s' = sigma ^ alpha.  Growth at or beyond the decay rate is flagged
    divergent instead of summed.
    """
    s = min(sigma, alpha)
    out = {"beta": beta_growth, "sigma": sigma, "alpha": alpha, "nu": nu}
    if beta_growth >= s:
        out.update({"primal": math.inf, "divergent": True})
        return out
    j = np.arange(1, max_terms + 1)
    ln3 = math.log(3.0)
    # (3^{jb} - 1) 3^{-js} written decay-first so large j never overflows
    terms = np.exp(j * (beta_growth - s) * ln3) - np.exp(-j * s * ln3)
    primal = R ** (-alpha) * float(np.sum(terms))
    lnv = math.log(nu)
    dual_terms = np.exp(((2 * beta_growth - 2 * s) * j[1:] + 2 * s) * lnv)
    dual = R ** (-alpha) * (3 * math.exp((2 * beta_growth - s) * lnv)
                            + 3 * float(np.sum(dual_terms)))
    out.update({"primal": primal, "dual": dual, "divergent": False})
    return out


def dual_beta_threshold(R: float, sigma: float, alpha: float, target: float,
                        nu_list=(3.0, 10.0, 30.0, 100.0),
                        n_beta: int = 60) -> float:
    """Largest growth exponent whose dual bound dips below target on a nu sweep."""
    best = 0.0
    s = min(sigma, alpha)
    for beta in np.linspace(1e-3, 0.999 * s, n_beta):
        vals = [tail_source_bound(beta, R, sigma, alpha, nu=nu)["dual"]
                for nu in nu_list]
        if min(vals) <= target:
            best = float(beta)
    return best


# --- ensembles ------------------------------------------------------------------


def philox_stream(seed: int, member: int) -> np.random.Generator:
    """Counter-based generator stream: reproducible across runs and platforms."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(member))


def random_smooth_positive_field(rng: np.random.Generator, d: int,
                                 n_modes: int = 4, roughness: float = 0.6):
    """Closed-form strictly positive random field (lognormal over cosines).

    Returning a callable keeps the ensemble resolution-independent: the same
    draw evaluates on any grid, which is what the refinement-stability
    comparisons need.
    """
    freq = rng.uniform(0.5, 3.0, size=(n_modes, d))
    phase = rng.uniform(0, 2 * np.pi, size=n_modes)
    amp = roughness * rng.normal(size=n_modes) / np.sqrt(n_modes)

    def field(x):
        x = np.asarray(x, dtype=float)
        acc = sum(a * np.cos(np.tensordot(x, f, axes=([-1], [0])) + p)
                  for a, f, p in zip(amp, freq, phase))
        return np.exp(acc)

    return field


def _positive_run(form: DiscreteForm, cyl: Cylinder, rng: np.random.Generator,
                  dt: float | None = None) -> Solution:
    grid = form.grid
    u0_field = random_smooth_positive_field(rng, grid.d)
    g_field = random_smooth_positive_field(rng, grid.d)
    ext = float(rng.uniform(0.2, 1.0))
    dt = dt or default_dt(grid.h, cyl.alpha)
    t_start = cyl.t0 - cyl.ralpha
    problem = ParabolicProblem(
        form, u0_field(grid.nodes), t_start, cyl.t0 + cyl.ralpha, dt,
        collar=g_field(grid.nodes[grid.collar]), exterior=ext, theta=1.0)
    sol = solve_parabolic(problem)
    sol.meta["alpha"] = cyl.alpha
    return sol


def harnack_ensemble(form: DiscreteForm, cyl: Cylinder, n_runs: int,
                     seed: int, dt: float | None = None) -> dict:
    """Harnack quotients of n_runs members, and each member's max step residual."""
    quotients, residuals = [], []
    for m in range(n_runs):
        sol = _positive_run(form, cyl, philox_stream(seed, m), dt=dt)
        quotients.append(harnack_quotient(sol, cyl, f_inf=0.0))
        residuals.append(float(np.max(sol.residuals)))
    q = np.asarray(quotients)
    return {"c_emp": quotients, "min": float(np.min(q)), "median": float(np.median(q)),
            "max": float(np.max(q)), "n_runs": n_runs, "seed": seed,
            "h": form.grid.h, "dt": dt or default_dt(form.grid.h, cyl.alpha),
            "max_step_residual": residuals}


def holder_ensemble(form: DiscreteForm, cyl: Cylinder, n_runs: int, seed: int,
                    n_scales: int = 4, nu: float = 2.0, R0: float | None = None,
                    dt: float | None = None) -> dict:
    """Hoelder fits of n_runs members, and each member's max step residual."""
    fits, residuals = [], []
    t_fit = cyl.t0 + 0.5 * cyl.ralpha
    R0 = R0 if R0 is not None else cyl.R
    for m in range(n_runs):
        sol = _positive_run(form, cyl, philox_stream(seed, m), dt=dt)
        fit = holder_fit(sol, t_fit, cyl.center, R0, n_scales=n_scales, nu=nu)
        fits.append(fit)
        residuals.append(float(np.max(sol.residuals)))
    gammas = [f.gamma for f in fits if not f.flat]
    in_range = [g for g in gammas if g is not None and 0.0 < g <= 1.0]
    return {"gamma_fit": [f.gamma for f in fits],
            "flat": [f.flat for f in fits],
            "fraction_in_range": len(in_range) / n_runs,
            "median": float(np.median(in_range)) if in_range else None,
            "n_runs": n_runs, "seed": seed, "h": form.grid.h,
            "max_step_residual": residuals}


def caccioppoli_ensemble(form: DiscreteForm, center, r: float, rho: float,
                         p_list, n_runs: int, seed: int, eps: float = 0.1,
                         variant: str = "primal") -> dict:
    out = {float(p): [] for p in p_list}
    for m in range(n_runs):
        rng = philox_stream(seed, m)
        field = random_smooth_positive_field(rng, form.grid.d)
        u = field(form.grid.nodes)
        for p in p_list:
            rep = caccioppoli_audit(u, form, center, r, rho, float(p), eps,
                                    variant=variant)
            out[float(p)].append(rep["c_hat"])
    summary = {p: {"max": float(np.max(v)), "median": float(np.median(v))}
               for p, v in out.items()}
    return {"c_hat": out, "summary": summary, "n_runs": n_runs, "seed": seed,
            "h": form.grid.h}
