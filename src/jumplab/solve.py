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

``solve_parabolic`` steps from times[k] to times[k + 1] = t_start + (k + 1) dt
and evaluates form, collar datum and source only at grid times, the form once
per time.  One ``_InteriorSystem`` per (form object, variant) holds A_II, A_IC
and the load; the stepper keeps up to ``_SYSTEMS`` of them and factors
I + theta dt A_II once per kept form object (see ``_Stepper``), the resolvent
lam I + A_II.
A step carries the interior vector and solves with the LAPACK ``getrs`` of the
LU factors.  The residuals are checked a block of ``_BLOCK`` steps at a time,
with one product R = B - X M^T that reads M once per block rather than once
per step: x stands if |b - M x| <= RESIDUAL_TOL |b|, else (b not finite too)
``_solve_refined`` redoes the step (``lu_solve`` and up to 3 refinement
sweeps) and the later steps of the block are recomputed from it.  Every step
is checked before ``solve_parabolic`` or ``theta_step`` returns.

``sla`` is ``_lapack`` (LAPACK's getrf and getrs from scipy's compiled
wrapper, without the scipy.linalg package), loaded on the first factorisation
(see ``_lazy``), a module global read at call time: a replaced ``solve.sla``
sees every ``lu_factor``, the ``getrs`` that solves every step, and the
``lu_solve`` calls of ``_solve_refined`` (refinement, resolvent).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._lazy import lazy_module
from .discretize import DiscreteForm, Grid

sla = lazy_module("jumplab._lapack")

RESIDUAL_TOL = 1e-10
_BLOCK = 128          # steps per residual check in solve_parabolic (see _Stepper)
_SYSTEMS = 4          # interior systems a stepper keeps, one per form object (see _Stepper)


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
        for name in ("t_start", "t_end", "dt", "exterior", "d_const"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
    """A_II, A_IC and the load of one (form, variant), sliced on first use.

    ``factor(a, b)`` builds M = a I + b A_II and its LU factors: the stepper
    uses a = 1, b = theta dt, the resolvent a = lam, b = 1.  M takes the
    memory of A_II unless ``keep`` asks for A_II to stay (explicit part).
    ``lu`` is None until then; ``loads`` is the stepper's load pair.
    """
    lu = loads = None

    def __init__(self, form: DiscreteForm, variant: str):
        self.form, self.variant, self.I = form, variant, form.grid.interior

    @cached_property
    def _A(self) -> np.ndarray:
        return self.form.A if self.variant == "primal" else self.form.A.T

    @cached_property
    def A_II(self) -> np.ndarray:
        i = np.flatnonzero(self.I)
        return self._A[np.ix_(i, i)]

    @cached_property
    def A_IC(self) -> np.ndarray:
        return self._A[np.ix_(np.flatnonzero(self.I), np.flatnonzero(~self.I))]

    def load(self, p: ParabolicProblem, t: float, g: np.ndarray):
        """r(t) = f - A_IC g + T_I u_ext (+ d * drift_load_I) on interior nodes,
        g being the collar datum at t."""
        form = self.form
        tail = form.tail if self.variant == "primal" else form.tail_dual
        r = _datum(p.f, t, form.grid, self.I) - self.A_IC @ g
        r = r + tail[self.I] * p.exterior
        if self.variant == "dual_ext":
            r = r + p.d_const * form.drift_load[self.I]
        return r

    def factor(self, a: float, b: float, keep: bool = False):
        self.M = np.multiply(self.A_II, b, out=None if keep else self.A_II)
        self.A_II = self.A_II if keep else None      # else its memory now holds M
        self.M[np.diag_indices_from(self.M)] += a
        self.lu = sla.lu_factor(self.M)
        self.getrs = sla.getrs


class _Stepper:
    """Steps the interior state from one grid time to the next.

    It carries the interior system of the current time and keeps the last
    ``_SYSTEMS`` systems it used, keyed on their form objects, so a form
    function that cycles through up to ``_SYSTEMS`` forms builds one system
    per form and factors it once, when it first becomes implicit; the least
    recently used system is dropped beyond that.  Memory: each kept system
    holds M and its LU factors, 16 N_I^2 bytes (52 MB at N_I = 1804; A_II
    too under theta < 1), and keeps its form alive.  A form function that
    returns a fresh object at every time thus keeps ``_SYSTEMS`` systems and
    forms, none of which is used again.
    Under theta < 1 the explicit part of a step is the system of its start
    time (its A_II is kept).  The load pair (dt (1 - theta) r, dt theta r) is
    built at each time, or once per system when neither the collar datum nor
    the source is callable.

    A step solves M x = b with ``getrs`` and records b and x as rows of the
    block buffers B and X.  ``check`` tests the recorded rows with one product
    R = B - X M^T, written into a third block buffer, when ``rows`` steps are
    recorded, before the stepper changes system, and when asked (the end of a
    run); a row passes if |r| <= RESIDUAL_TOL |b|.  The first row j that
    misses (a non-finite one too) is redone from its b by ``_solve_refined``,
    which raises if it misses again; steps j + 1, ... are then recomputed
    from the corrected state and checked anew, so the states equal those of
    a check after every step.
    Checked rows go to ``emit(k0, X, residuals)``, k0 the index of the first.
    """

    def __init__(self, problem: ParabolicProblem, form: DiscreteForm, t: float,
                 emit=None, rows: int = 1):
        self.problem = problem
        self._timed = callable(problem.collar) or callable(problem.f)
        self.system = _InteriorSystem(form, problem.variant)
        self.systems = [self.system]  # the kept systems, the most recently used last
        self.g = None                 # collar datum at the current time, once loaded
        self.loads = self._loads(self.system, t) if problem.theta < 1.0 else None
        self.emit, self.rows = emit, rows
        self.steps = []               # (k, t_new, load pair) of each recorded row
        self.B = self.X = self.R = self.res = None  # rows of b, x, b - M x and residual

    def _loads(self, system: _InteriorSystem, t: float):
        p = self.problem
        if system.loads is None or self._timed:
            grid = system.form.grid
            self.g = _datum(p.collar, t, grid, grid.collar)
            r = system.load(p, t, self.g)
            system.loads = (p.dt * (1.0 - p.theta) * r if p.theta < 1.0 else None,
                            p.dt * p.theta * r)
            if not self._timed:
                del system.A_IC       # the N_I x N_C block is not needed again
        return system.loads

    def _system(self, form: DiscreteForm) -> _InteriorSystem:
        """The kept system of form, or a new one, now the most recently used."""
        system = next((s for s in self.systems if s.form is form), None)
        if system is None:
            system = _InteriorSystem(form, self.problem.variant)
        self.systems = ([s for s in self.systems if s is not system] + [system])[-_SYSTEMS:]
        return system

    def step(self, u_I: np.ndarray, t_new: float, k: int):
        """(interior state at t_new, relative residual) of step k from the
        interior state u_I at the current time.

        The state is a row of X, which a check corrects in place and the steps
        after the next check overwrite.  The residual is None until the row is
        checked, which with the default ``rows`` = 1 happens before returning.
        """
        p = self.problem
        old = system = self.system
        form = p.form_at(t_new)
        if form is not old.form:      # the old system checks its rows first
            self.check()
            system = self._system(form)
        explicit, loads = self.loads, self._loads(system, t_new)
        if system.lu is None:         # after the loads, which free a static A_IC first
            system.factor(1.0, p.theta * p.dt, keep=p.theta < 1.0)
        if self.B is None:            # after the factorisation, whose peak they would raise
            self.B, self.X, self.R = np.empty((3, self.rows, len(loads[1])))
            self.res = np.empty(self.rows)
        self.system, self.loads = system, loads
        i = len(self.steps)
        self.steps.append((k, t_new, loads))
        self._solve(i, u_I, old.A_II if p.theta < 1.0 else None, explicit)
        checked = i + 1 == self.rows
        if checked:
            self.check()
        return self.X[i], self.res[i] if checked else None

    def _solve(self, i: int, u_I: np.ndarray, A_exp, explicit):
        """b and x of row i from the state u_I; A_exp and the load pair
        ``explicit`` are the explicit part under theta < 1."""
        p, system, b = self.problem, self.system, self.B[i]
        if A_exp is None:
            np.add(u_I, self.steps[i][2][1], out=b)
        else:
            np.subtract(u_I, (1.0 - p.theta) * p.dt * (A_exp @ u_I), out=b)
            b += explicit[0]
            b += self.steps[i][2][1]
        self.X[i] = system.getrs(*system.lu, b)[0]

    def check(self):
        """Check the recorded rows (see the class docstring) and emit them.
        The rows are consumed, also by a check that raises."""
        n, i = len(self.steps), 0
        if not n:
            return
        B, X, M = self.B[:n], self.X[:n], self.system.M
        try:
            while i < n:
                R = np.matmul(X[i:], M.T, out=self.R[:n - i])
                np.subtract(B[i:], R, out=R)
                nres = np.sqrt(np.einsum("ij,ij->i", R, R))
                scale = np.maximum(np.sqrt(np.einsum("ij,ij->i", B[i:], B[i:])), 1e-300)
                missed = np.flatnonzero(~(nres <= RESIDUAL_TOL * scale))
                self.res[i:n] = nres / scale
                if not missed.size:
                    break
                j = i + int(missed[0])
                k, t_new, _ = self.steps[j]
                x, rel_res = _solve_refined(self.system.lu, M, B[j])
                if not rel_res <= RESIDUAL_TOL:       # also a non-finite state (nan, inf)
                    raise RuntimeError(f"step {k} to t={t_new:.12g}: relative residual "
                                       f"{rel_res:.3e} > RESIDUAL_TOL = {RESIDUAL_TOL:.1e}")
                X[j], self.res[j] = x, rel_res
                A_exp = self.system.A_II if self.problem.theta < 1.0 else None
                for m in range(j + 1, n):   # the block's system: it changes between blocks only
                    self._solve(m, X[m - 1], A_exp, self.steps[m - 1][2])
                i = j + 1
            if self.emit is not None:
                self.emit(self.steps[0][0], X, self.res[:n])
        finally:
            self.steps = []


def theta_step(problem: ParabolicProblem, u_full: np.ndarray, t: float):
    """One theta-scheme step from t to t + dt; returns the new full-box state."""
    stepper = _Stepper(problem, problem.form_at(t), t)
    out = np.array(u_full, dtype=float)
    I = stepper.system.I
    out[I], _ = stepper.step(out[I], t + problem.dt,
                             int(round((t - problem.t_start) / problem.dt)))
    out[~I] = stepper.g
    return out


def time_grid(t_start: float, t_end: float, dt: float) -> np.ndarray:
    """The step times t_start + k dt, k <= max(round((t_end - t_start) / dt), 1),
    of every run (``solve_parabolic``) and run horizon (``estimates``)."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"time step must be finite and positive, got {dt}")
    return t_start + dt * np.arange(max(int(round((t_end - t_start) / dt)), 1) + 1)


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
    times = time_grid(problem.t_start, problem.t_end, problem.dt)
    n_steps = len(times) - 1
    I, C = np.flatnonzero(grid.interior), np.flatnonzero(grid.collar)
    snaps = np.empty((n_steps + 1, grid.n_nodes))
    u = snaps[0, I] = u0[I]
    residuals = np.empty(n_steps)

    def emit(k0, X, res):             # a checked block: the states after steps k0, k0 + 1, ...
        snaps[k0 + 1:k0 + 1 + len(X), I] = X
        residuals[k0:k0 + len(X)] = res

    stepper = _Stepper(problem, form, problem.t_start, emit, min(_BLOCK, n_steps))
    # under theta < 1 the stepper has read the datum at t_start for its first load
    snaps[0, C] = stepper.g if stepper.g is not None else _datum(
        problem.collar, problem.t_start, grid, grid.collar)
    try:
        for k in range(n_steps):
            u, _ = stepper.step(u, times[k + 1], k)
            if callable(problem.collar):
                snaps[k + 1, C] = stepper.g
    finally:    # the rows of the last block; after an error too, as a miss before it comes first
        stepper.check()
    if not callable(problem.collar):  # after the loop: the buffer fills as the steps go
        snaps[1:, C] = snaps[0, C]
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
