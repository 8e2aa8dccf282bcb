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
per time.  A form keeps one ``_InteriorSystem`` per operator, A or A^T (dual
and dual_ext), which holds M and its LU factors while the form lives: every
run, theta step and resolvent on the form shares it, and it refactors only
when M changes (I + theta dt A_II for a step, lam I + A_II for the resolvent).
A step adds the load to the interior vector in a row of the block buffer B
and solves a copy of that row in X in place with the LAPACK ``getrs`` of the
LU factors.  The residuals are checked a block of ``_BLOCK`` steps at a time,
with one product R = B - X M^T that reads M once per block rather than once
per step: x stands if |b - M x| <= RESIDUAL_TOL |b|, else (b not finite too)
``_solve_refined`` redoes the step (``lu_solve`` and up to 3 refinement
sweeps) and the later steps of the block are recomputed from it.  Every step
is checked before ``solve_parabolic`` or ``theta_step`` returns.
``solve_parabolic`` writes checked rows and the collar datum into its
snapshots with one slice copy per run of consecutive nodes (``_runs``).

``sla`` is ``_lapack`` (LAPACK's getrf and getrs from scipy's compiled
wrapper, without the scipy.linalg package), loaded on the first factorisation
(see ``_lazy``), a module global read at call time: a replaced ``solve.sla``
sees every ``lu_factor``, the ``lu_solve`` calls of ``_solve_refined``
(refinement, resolvent) and the ``getrs`` of every step (``_Stepper._bind``).
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
_VARIANTS = ("primal", "dual", "dual_ext")


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
        if self.variant not in _VARIANTS:
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
    """The interior system of one operator of a form, kept by the form
    (``_system``): the operator A (primal) or A^T (dual, dual_ext), its
    interior tail weights, the interior drift load (once a dual_ext load reads
    it), M and its LU factors, 16 N_I^2 bytes, and 8 N_I^2 more once a
    theta < 1 step reads its explicit part A_II (``A_exp``).  It holds arrays
    only, never the form, so a dropped form frees it at once.

    ``factor(a, b)`` builds M = a I + b A_II and its LU factors unless (a, b)
    is the ``key`` of those it holds: a = 1, b = theta dt for a step, a = lam,
    b = 1 for the resolvent.  M takes the memory of a fresh A_II slice, given
    or its own, so a refactor leaves the M and LU factors a stepper bound as
    they were.
    """
    key = drift = None

    def __init__(self, form: DiscreteForm, operator: str):
        self.I = form.grid.interior
        self._A = form.A if operator == "A" else form.A.T
        self.tail = (form.tail if operator == "A" else form.tail_dual)[self.I]

    def block(self, cols: np.ndarray) -> np.ndarray:
        """A copy of A (A^T) on the interior rows and the columns in mask cols."""
        return self._A[np.ix_(np.flatnonzero(self.I), np.flatnonzero(cols))]

    @cached_property
    def A_exp(self) -> np.ndarray:
        """A_II for the explicit part of a theta < 1 step, never written into."""
        return self.block(self.I)

    def factor(self, a: float, b: float, A_II: np.ndarray | None = None):
        if (a, b) == self.key:
            return
        M = self.block(self.I) if A_II is None else A_II
        M *= b
        M[np.diag_indices_from(M)] += a
        self.M, self.lu, self.key = M, sla.lu_factor(M), (a, b)


def _system(form: DiscreteForm, variant: str) -> _InteriorSystem:
    """The form's interior system of variant's operator, built on first use."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    operator = "A" if variant == "primal" else "A^T"
    if operator not in form._systems:
        form._systems[operator] = _InteriorSystem(form, operator)
    return form._systems[operator]


class _Stepper:
    """Steps the interior state from one grid time to the next.

    It steps on the system that the current form keeps (``_system``), so a
    form function over any number of forms factors once per form.  Under
    theta < 1 a step's explicit part is the ``A_exp`` of its start time's system.
    The load pair (dt (1 - theta) r, dt theta r) is the problem's: it is built
    from a temporary A_IC on each new system, and at each time under a
    callable collar datum or source (the system's A_IC is then kept).

    ``_bind`` makes a system current: it builds the load pair, factors the
    system if its key differs, binds M with its LU handles and ``sla.getrs``
    (a later refactor of the shared system leaves them as they are) and allocates
    the block buffers B, X and R once.  It runs on the first step, on a form
    switch and, for the loads, at each step of a problem with a callable
    collar datum or source.  A step adds the load into row i of B (after the
    explicit part under theta < 1), copies it into row i of X and solves that
    row in place with ``getrs``; an array that a replaced ``getrs`` returns
    instead is copied back.  Step indices and times go to the arrays k and t;
    under a callable collar datum or source, L keeps each row's load pair for
    a redo.
    ``check`` tests the recorded rows with one product R = B - X M^T, written
    into R, when ``rows`` steps are recorded, before the stepper changes
    system, and when asked (the end of a run); a row passes if
    |r| <= RESIDUAL_TOL |b|.  The first row j that misses (a non-finite one
    too) is redone from its b by ``_solve_refined``, which raises if it
    misses again; steps j + 1, ... are then recomputed from the corrected
    state and checked anew, so the states equal those of a check after every
    step.
    Checked rows go to ``emit(k0, X, residuals)``, k0 the index of the first.
    """

    def __init__(self, problem: ParabolicProblem, form: DiscreteForm, t: float,
                 emit=None, rows: int = 1):
        p = self.problem = problem
        self._timed = callable(p.collar) or callable(p.f)
        self._forms = None if isinstance(p.form, DiscreteForm) else p.form
        # the weight of the explicit part, None at theta = 1 (no explicit part)
        self._c = (1.0 - p.theta) * p.dt if p.theta < 1.0 else None
        self.form, self.system = form, _system(form, p.variant)
        self.A_IC = None              # the current system's, kept for a callable datum or source
        self.g = None                 # collar datum at the current time, once loaded
        self.loads = self._loads(t) if self._c is not None else None
        self.M = self.lu = self.piv = self.getrs = None    # the current system's, by _bind
        self.emit, self.rows, self.n = emit, rows, 0    # n rows recorded since the last check
        self.k, self.t = np.empty(rows, dtype=np.intp), np.empty(rows)
        self.B = self.X = self.R = self.res = None  # rows of b, x, b - M x and residual
        self.L = None                 # rows of load pairs, kept for a callable datum or source

    def _loads(self, t: float):
        """The current system's load pair at t; reads the collar datum g first."""
        p, system, grid = self.problem, self.system, self.form.grid
        A_IC = self.A_IC if self.A_IC is not None else system.block(~system.I)
        self.A_IC = A_IC if self._timed else None
        self.g = _datum(p.collar, t, grid, grid.collar)
        r = _datum(p.f, t, grid, system.I) - A_IC @ self.g
        r = r + system.tail * p.exterior
        if p.variant == "dual_ext":   # the system keeps the drift slice of its first such load
            system.drift = self.form.drift_load[system.I] if system.drift is None else system.drift
            r = r + p.d_const * system.drift
        return p.dt * (1.0 - p.theta) * r if p.theta < 1.0 else None, p.dt * p.theta * r

    def _bind(self, form: DiscreteForm, t: float):
        """Make the system of form current with its load pair at t (see the
        class docstring)."""
        p, switch = self.problem, form is not self.form
        if switch:
            self.form, self.system, self.A_IC = form, _system(form, p.variant), None
        s, key, bind = self.system, (1.0, p.theta * p.dt), switch or self.getrs is None
        # M's A_II slice comes before the load's temporary A_IC (31.5 MiB on holder-2d):
        # in the other order holder-2d read a 6 MB higher peak resident set (measured)
        fresh = s.block(s.I) if bind and s.key != key else None
        if switch or self._timed or self.loads is None:
            self.loads = self._loads(t)
        if bind:
            s.factor(*key, fresh)
            self.M, (self.lu, self.piv), self.getrs = s.M, s.lu, sla.getrs
        if self.B is None:            # after the factorisation, whose peak they would raise
            n_I = len(self.loads[1])
            self.B, self.X, self.R = np.empty((3, self.rows, n_I))
            self.res = np.empty(self.rows)
            if self._timed:
                self.L = np.empty((self.rows, 2, n_I))

    def step(self, u_I: np.ndarray, t_new: float, k: int):
        """(interior state at t_new, relative residual) of step k from the
        interior state u_I at the current time.

        The state is a row of X, which a check corrects in place and the steps
        after the next check overwrite.  The residual is None until the row is
        checked, which with the default ``rows`` = 1 happens before returning.
        """
        system, explicit = self.system, self.loads  # the start time's, under theta < 1
        if self._forms is not None and (form := self._forms(t_new)) is not self.form:
            self.check()              # the old system checks its rows first
            self._bind(form, t_new)
        elif self._timed or self.getrs is None:
            self._bind(self.form, t_new)
        i = self.n
        self.k[i], self.t[i] = k, t_new
        if self.L is not None:        # the load pair, its explicit part under theta < 1 only
            self.L[i, 1] = self.loads[1]
            if self._c is not None:
                self.L[i, 0] = self.loads[0]
        x = self._solve(i, u_I, system, explicit, self.loads[1])
        self.n = i + 1
        if self.n < self.rows:
            return x, None
        self.check()
        return x, self.res[i]

    def _solve(self, i: int, u_I: np.ndarray, system, explicit, load: np.ndarray):
        """Fill row i of B from the state u_I and the load dt theta r (after
        the explicit part under theta < 1: the ``A_exp`` of system and the
        load pair ``explicit``), solve it into row i of X and return that row."""
        b, x = self.B[i], self.X[i]
        if self._c is not None:
            np.subtract(u_I, self._c * (system.A_exp @ u_I), out=b)
            b += explicit[0]
            b += load
        else:
            np.add(u_I, load, out=b)
        x[...] = b
        out = self.getrs(self.lu, self.piv, x, 0, 1)[0]
        if out is not x:              # a replaced getrs may return another array
            x[...] = out
        return x

    def check(self):
        """Check the recorded rows (see the class docstring) and emit them.
        The rows are consumed, also by a check that raises."""
        n, i = self.n, 0
        if not n:
            return
        B, X, M = self.B[:n], self.X[:n], self.M
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
                x, rel_res = _solve_refined((self.lu, self.piv), M, B[j])
                if not rel_res <= RESIDUAL_TOL:       # also a non-finite state (nan, inf)
                    raise RuntimeError(f"step {int(self.k[j])} to t={float(self.t[j]):.12g}: "
                                       f"relative residual {rel_res:.3e} > "
                                       f"RESIDUAL_TOL = {RESIDUAL_TOL:.1e}")
                X[j], self.res[j] = x, rel_res
                for m in range(j + 1, n):   # the block's system: it changes between blocks only
                    explicit, load = ((self.loads, self.loads[1]) if self.L is None
                                      else (self.L[m - 1], self.L[m, 1]))
                    self._solve(m, X[m - 1], self.system, explicit, load)
                i = j + 1
            if self.emit is not None:
                self.emit(int(self.k[0]), X, self.res[:n])
        finally:
            self.n = 0


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


def _runs(mask: np.ndarray) -> list:
    """(node slice, value slice) of each run of consecutive nodes in mask:
    ``_write(rows, _runs(mask), values)`` writes ``rows[..., mask] = values``."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False)).tolist()
    runs, j = [], 0
    for a, b in zip(edges[::2], edges[1::2]):
        runs.append((slice(a, b), slice(j, j + b - a)))
        j += b - a
    return runs


def _write(rows: np.ndarray, runs: list, values: np.ndarray):
    """rows[..., mask] = values, one slice copy per run of ``_runs(mask)``."""
    for nodes, vals in runs:
        rows[..., nodes] = values[..., vals]


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
    I, C = _runs(grid.interior), _runs(grid.collar)
    snaps = np.empty((n_steps + 1, grid.n_nodes))
    u = u0[grid.interior]
    _write(snaps[0], I, u)
    residuals = np.empty(n_steps)

    def emit(k0, X, res):             # a checked block: the states after steps k0, k0 + 1, ...
        _write(snaps[k0 + 1:k0 + 1 + len(X)], I, X)
        residuals[k0:k0 + len(X)] = res

    stepper = _Stepper(problem, form, problem.t_start, emit, min(_BLOCK, n_steps))
    # under theta < 1 the stepper has read the datum at t_start for its first load
    g = stepper.g if stepper.g is not None else _datum(
        problem.collar, problem.t_start, grid, grid.collar)
    _write(snaps[0], C, g)
    timed = callable(problem.collar)
    try:
        for k, t_new in enumerate(times[1:]):
            u, _ = stepper.step(u, t_new, k)
            if timed:
                _write(snaps[k + 1], C, stepper.g)
    finally:    # the rows of the last block; after an error too, as a miss before it comes first
        stepper.check()
    if not timed:                     # after the loop: the buffer fills as the steps go
        _write(snaps[1:], C, g)
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
    system = _system(form, variant)
    rhs = np.asarray(f, dtype=float)[system.I]
    system.factor(lam, 1.0)
    x, rel = _solve_refined(system.lu, system.M, rhs)
    if rel > 1e-6:
        smin = np.linalg.svd(system.M, compute_uv=False)[-1]
        raise RuntimeError(f"resolvent solve unstable (s_min ~ {smin:.3e})")
    out = np.zeros(form.grid.n_nodes)
    out[system.I] = x
    return out
