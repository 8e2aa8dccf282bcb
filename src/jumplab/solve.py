"""Theta-scheme time stepping for the primal, dual and extended-dual equations.

The semi-discrete system on interior nodes (collar nodes pinned to the datum,
constant exterior datum beyond the box) reads

    du/dt + A_II u = f - A_IC g + T_I u_ext (+ d * drift_load_I).

The mass is the identity: the cell volume already sits inside the assembled
matrix (A u collocates the operator pointwise), so an extra h^d factor would
only rescale time.  Dual variants use the transposed coupling and the dual
tail weights; the extended dual adds the exact constant-drift load, which
makes the shift identity (dual solution minus a constant solves the extended
dual) hold at the level of the discrete recursion.

One ``_InteriorSystem`` per (form, variant) holds A_II, A_IC, T_I and the
drift load; the stepper factors I + theta dt A_II from it, the resolvent
lam I + A_II.  For a fixed ``DiscreteForm`` whose collar datum and source are
not callable, the load r is built once per solve and A_IC is then dropped; a
callable collar is evaluated once per step, at the new time.  A time-dependent
form is assembled once per time slice, also under theta < 1.

``sla`` is scipy.linalg, loaded on the first factorisation (see ``_lazy``); it
is a module global read at call time, so replacing ``solve.sla`` reroutes
every ``lu_factor`` and ``lu_solve``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._lazy import lazy_module
from .discretize import DiscreteForm, Grid

sla = lazy_module("scipy.linalg")

RESIDUAL_TOL = 1e-10


@dataclass
class ParabolicProblem:
    form: object                      # DiscreteForm or callable t -> DiscreteForm
    u0: object                        # initial values on all box nodes (or callable)
    t_start: float
    t_end: float
    dt: float
    f: object = None                  # source: callable (t, points) -> values, or None
    collar: object = None             # collar datum: callable (t, points), array, scalar
    exterior: float = 0.0
    theta: float = 1.0
    variant: str = "primal"           # primal | dual | dual_ext
    d_const: float = 0.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("time step must be positive")
        if not (0.5 <= self.theta <= 1.0):
            raise ValueError("theta must lie in [1/2, 1]")
        if self.variant not in ("primal", "dual", "dual_ext"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.t_end <= self.t_start:
            raise ValueError("empty time interval")

    def form_at(self, t: float) -> DiscreteForm:
        if isinstance(self.form, DiscreteForm):
            return self.form
        return self.form(t)

    @property
    def time_dependent(self) -> bool:
        return not isinstance(self.form, DiscreteForm)


@dataclass
class Solution:
    times: np.ndarray
    snapshots: np.ndarray             # (n_times, n_box_nodes), collar included
    grid: Grid
    meta: dict = field(default_factory=dict)
    residuals: np.ndarray | None = None


def _datum(value, t: float, grid: Grid, mask: np.ndarray) -> np.ndarray:
    """Collar datum or source on the masked nodes: callable (t, points), array,
    scalar or None (zero)."""
    value = value(t, grid.nodes[mask]) if callable(value) else value
    return np.asarray(0.0 if value is None else value, dtype=float) * np.ones(int(mask.sum()))


def _solve_refined(lu_piv, Mmat, x_rhs):
    """LU solve with up to three refinement sweeps; returns (x, relative
    residual), the residual infinite once it is not finite (singular M)."""
    x = sla.lu_solve(lu_piv, x_rhs)
    res = x_rhs - Mmat @ x
    scale = np.linalg.norm(x_rhs)
    nres = np.linalg.norm(res)
    for _ in range(3):
        if not math.isfinite(nres) or nres <= RESIDUAL_TOL * max(scale, 1e-300):
            break
        x = x + sla.lu_solve(lu_piv, res)
        res = x_rhs - Mmat @ x
        nres = np.linalg.norm(res)
    return x, nres / max(scale, 1e-300) if math.isfinite(nres) else math.inf


class _InteriorSystem:
    """A_II, A_IC, tail_I and drift_load_I of one (form, variant).

    ``factor(a, b)`` builds M = a I + b A_II and its LU factors: the stepper
    uses a = 1, b = theta dt, the resolvent a = lam, b = 1.  M takes the
    memory of A_II unless ``keep`` asks for A_II to stay (explicit part).
    """

    def __init__(self, form: DiscreteForm, variant: str):
        A, tail = (form.A, form.tail) if variant == "primal" else (form.A.T, form.tail_dual)
        load = form.drift_load if variant == "dual_ext" else None
        self.form, self.I, self._A = form, form.grid.interior, A
        self.A_II = A[np.ix_(self.I, self.I)]
        self.tail_I = tail[self.I]
        self.drift_load_I = None if load is None else load[self.I]

    @cached_property
    def A_IC(self) -> np.ndarray:
        return self._A[np.ix_(self.I, ~self.I)]

    def load(self, p: ParabolicProblem, t: float, g: np.ndarray | None = None):
        """r(t) = f - A_IC g + T_I u_ext (+ d * drift_load_I) on interior nodes,
        with the collar datum g evaluated at t unless given."""
        grid = self.form.grid
        g = _datum(p.collar, t, grid, grid.collar) if g is None else g
        r = _datum(p.f, t, grid, self.I) - self.A_IC @ g
        r = r + self.tail_I * p.exterior
        if self.drift_load_I is not None:
            r = r + p.d_const * self.drift_load_I
        return r

    def factor(self, a: float, b: float, keep: bool = False):
        self.M = np.multiply(self.A_II, b, out=None if keep else self.A_II)
        self.A_II = self.A_II if keep else None      # else its memory now holds M
        self.M[np.diag_indices_from(self.M)] += a
        self.lu = sla.lu_factor(self.M)


class _Stepper:
    """The factored interior system, cached per time for time-dependent forms.

    Under theta < 1 the explicit part of a step at t reuses the implicit
    system of the previous step (its A_II is kept) when that step ended at t
    bit for bit, or ``form0`` when t is ``form0_t``; only a step that starts
    elsewhere assembles its explicit slice anew.
    """

    def __init__(self, problem: ParabolicProblem, form0: DiscreteForm | None = None,
                 form0_t: float | None = None):
        self.problem = problem
        self._key = self._system = None
        self._form0, self._form0_t = form0, form0_t
        self._static = not (problem.time_dependent or callable(problem.collar)
                            or callable(problem.f))
        self._r = self._g = None      # load and collar entries when _static

    def matrices(self, t_new: float) -> _InteriorSystem:
        p = self.problem
        key = t_new if p.time_dependent else None
        if self._system is not None and key == self._key:
            return self._system
        system = _InteriorSystem(p.form_at(t_new), p.variant)
        if self._static:
            self._g = _datum(p.collar, t_new, system.form.grid, system.form.grid.collar)
            self._r = system.load(p, t_new, self._g)
            del system.A_IC           # the N_I x N_C block is not needed again
        system.factor(1.0, p.theta * p.dt, keep=p.theta < 1.0)
        self._key, self._system = key, system
        return system

    def _explicit(self, t: float) -> _InteriorSystem:
        """The system at t for the explicit part of a time-dependent step."""
        if self._system is not None and t == self._key:
            return self._system
        form = self._form0 if t == self._form0_t else self.problem.form_at(t)
        return _InteriorSystem(form, self.problem.variant)

    def step(self, u_full: np.ndarray, t: float):
        p = self.problem
        t_new = t + p.dt
        # the explicit slice first: matrices() replaces the previous step's system
        old = self._explicit(t) if p.theta < 1.0 and p.time_dependent else None
        system = self.matrices(t_new)
        old = system if old is None else old
        I = system.I
        g_new = self._g if self._static else _datum(p.collar, t_new, system.form.grid, ~I)
        u_I = u_full[I]
        b = u_I.copy()
        if p.theta < 1.0:
            b = b - (1.0 - p.theta) * p.dt * (old.A_II @ u_I)
            b = b + p.dt * (1.0 - p.theta) * (self._r if self._static else old.load(p, t))
        b = b + p.dt * p.theta * (self._r if self._static else system.load(p, t_new, g_new))
        u_new_I, rel_res = _solve_refined(system.lu, system.M, b)
        if not rel_res <= RESIDUAL_TOL:       # also a non-finite state (nan, inf)
            k = int(round((t - p.t_start) / p.dt))
            raise RuntimeError(f"step {k} to t={t_new:.12g}: relative residual "
                               f"{rel_res:.3e} > RESIDUAL_TOL = {RESIDUAL_TOL:.1e}")
        out = np.empty_like(u_full)
        out[I] = u_new_I
        out[~I] = g_new
        return out, rel_res


def theta_step(problem: ParabolicProblem, u_full: np.ndarray, t: float,
               stepper: _Stepper | None = None):
    """One theta-scheme step from t to t + dt; returns the new full-box state."""
    stepper = stepper or _Stepper(problem)
    out, _ = stepper.step(np.asarray(u_full, dtype=float), t)
    return out


def solve_parabolic(problem: ParabolicProblem) -> Solution:
    """Snapshots at t_start + k dt, k <= round((t_end - t_start) / dt) = meta["n_steps"]."""
    form = problem.form_at(problem.t_start)
    grid = form.grid
    u0 = problem.u0(grid.nodes) if callable(problem.u0) else np.asarray(
        problem.u0, dtype=float)
    if u0.shape != (grid.n_nodes,):
        raise ValueError("initial state must live on all box nodes")
    if not np.all(np.isfinite(u0)):
        raise ValueError("initial state contains non-finite values")
    u = u0.copy()
    u[grid.collar] = _datum(problem.collar, problem.t_start, grid, grid.collar)
    n_steps = max(int(round((problem.t_end - problem.t_start) / problem.dt)), 1)
    times = problem.t_start + problem.dt * np.arange(n_steps + 1)
    snaps = np.empty((n_steps + 1, grid.n_nodes))
    snaps[0] = u
    residuals = np.empty(n_steps)
    stepper = _Stepper(problem, form, problem.t_start)
    for k in range(n_steps):
        u, residuals[k] = stepper.step(u, times[k])
        snaps[k + 1] = u
    meta = {"variant": problem.variant, "theta": problem.theta, "dt": problem.dt,
            "h": grid.h, "exterior": problem.exterior,
            "d_const": problem.d_const, "kernel_hash": form.meta.get("kernel_hash"),
            "n_steps": n_steps, "t_end_requested": problem.t_end,
            "t_end": float(times[-1])}
    if "alpha" in form.meta.get("kernel", {}):
        meta["alpha"] = form.meta["kernel"]["alpha"]
    return Solution(times, snaps, grid, meta, residuals)


def solve_dual_ext(problem: ParabolicProblem) -> Solution:
    """Extended dual run; problem.variant is forced to dual_ext."""
    if problem.variant != "dual_ext":
        raise ValueError("problem.variant must be 'dual_ext'")
    return solve_parabolic(problem)


def default_dt(h: float, alpha: float) -> float:
    """Step matched to the order-alpha parabolic scaling of the cylinders."""
    return 0.25 * h ** alpha


def resolvent_solve(form: DiscreteForm, lam: float, f: np.ndarray,
                    variant: str = "primal") -> np.ndarray:
    """Solve (lam I + A) u = f with zero collar and exterior datum.

    Returns the full-box vector (collar entries zero).  lam must sit above the
    coercivity threshold of the form; a solve whose refined residual stays
    above 1e-6 is reported with a smallest-singular-value estimate.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    system = _InteriorSystem(form, variant)
    rhs = np.asarray(f, dtype=float)[system.I]
    system.factor(lam, 1.0)
    x, rel = _solve_refined(system.lu, system.M, rhs)
    if rel > 1e-6:
        smin = np.linalg.svd(system.M, compute_uv=False)[-1]
        raise RuntimeError(f"resolvent solve unstable (s_min ~ {smin:.3e})")
    out = np.zeros(form.grid.n_nodes)
    out[system.I] = x
    return out
