"""Theta-scheme time stepping for the primal, dual and extended-dual equations.

The semi-discrete system on interior nodes (collar nodes pinned to the datum,
constant exterior datum beyond the box) reads

    du/dt + A_II u = f - A_IC g + T_I u_ext (+ d * drift_load_I),

its data fixed in time: the collar datum g and the source f are arrays or
scalars, the initial state an array.  The mass is the identity: the cell
volume already sits inside the assembled matrix (A u collocates the operator
pointwise), so an extra h^d factor would only rescale time.  Dual variants use
the transposed coupling and the dual tail weights; the extended dual adds the
exact constant-drift load, which makes the shift identity (dual solution minus
a constant solves the extended dual) hold at the level of the discrete
recursion.

``solve_parabolic`` steps one form over the whole steps of ``time_grid`` to
t_end.  A form keeps one ``_InteriorSystem`` per operator, A or A^T (dual
and dual_ext), which holds M and its LU factors while the form lives: every
run, theta step and resolvent on the form shares it, and it refactors only
when M changes (I + theta dt A_II for a step, lam I + A_II for the
resolvent).
A step adds the load to the interior vector in a row of the block buffer B
and solves a copy of that row in X in place with the LAPACK ``getrs`` of the
LU factors.  The residuals are checked a block of ``_BLOCK`` steps at a time,
with one product R = B - X M^T that reads M once per block rather than once
per step: x stands if |b - M x| <= RESIDUAL_TOL |b|, else (b not finite too)
``_solve_refined`` redoes the step (``lu_solve`` and up to 3 refinement
sweeps) and the later steps of the block are recomputed from it.  Every step
is checked before ``solve_parabolic`` or ``theta_step`` returns.
``solve_parabolic`` writes checked rows and, once for all rows, the collar
datum into its snapshots with one slice copy per run of consecutive nodes
(``_runs``).

``sla`` is ``_lapack`` (LAPACK's getrf and getrs from scipy's compiled
wrapper, without the scipy.linalg package), loaded on the first factorisation
(see ``_lazy``), a module global read at call time: a replaced ``solve.sla``
sees every ``lu_factor``, the ``lu_solve`` calls of ``_solve_refined``
(refinement, resolvent) and the ``getrs`` of every step (bound by ``_Stepper``).
``sla`` and the returned ``Solution`` (states and each step's residual) are
the seams that tests pin the stepper by; the private classes may change.
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
    """A theta-scheme run of a form on data fixed in time: the initial state
    u0, the collar datum, the source f, the exterior."""
    form: DiscreteForm
    u0: object                        # initial values on all box nodes (array)
    t_start: float
    t_end: float
    dt: float
    f: object = None                  # source on the interior nodes: array, scalar or None
    collar: object = None             # collar datum: array, scalar or None
    exterior: float = 0.0
    theta: float = 1.0
    variant: str = "primal"           # primal | dual | dual_ext
    d_const: float = 0.0

    def __post_init__(self):
        if not isinstance(self.form, DiscreteForm):
            raise ValueError(f"form must be a DiscreteForm, not {type(self.form).__name__}")
        for name in ("collar", "f", "u0"):
            if callable(getattr(self, name)):
                raise ValueError(f"{name} must be an array fixed in time, not a callable")
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


@dataclass
class Solution:
    times: np.ndarray
    snapshots: np.ndarray             # (n_times, n_box_nodes), collar included
    grid: Grid
    meta: dict = field(default_factory=dict)
    residuals: np.ndarray | None = None


def _datum(value, mask: np.ndarray) -> np.ndarray:
    """Collar datum or source on the masked nodes: array, scalar or None (zero)."""
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
    """Steps the interior state of a run from one grid time to the next.

    It steps on the system that the run's form keeps (``_system``), so every
    run on the form shares its factors.  Under theta < 1 a step's explicit
    part is that system's ``A_exp``.

    A new stepper builds the load pair (dt (1 - theta) r, dt theta r) from
    the data, fixed in time, and a temporary A_IC, factors the system if its
    key differs, binds M with its LU handles and ``sla.getrs`` (a later
    refactor of the shared system leaves them as they are) and allocates the
    block buffers B, X and R.  A step adds the load into row i of B (after
    the explicit part under theta < 1), copies it into row i of X and solves
    that row in place with ``getrs``; an array that a replaced ``getrs``
    returns instead is copied back.  Step indices and times go to the arrays
    k and t.
    ``check`` tests the recorded rows with one product R = B - X M^T, written
    into R, when ``rows`` steps are recorded and when asked (the end of a
    run); a row passes if |r| <= RESIDUAL_TOL |b|.  The first row j that
    misses (a non-finite one too) is redone from its b by ``_solve_refined``,
    which raises if it misses again; steps j + 1, ... are then recomputed
    from the corrected state and checked anew, so the states equal those of a
    check after every step.
    Checked rows go to ``emit(k0, X, residuals)``, k0 the index of the first.
    """

    def __init__(self, problem: ParabolicProblem, emit=None, rows: int = 1):
        p = self.problem = problem
        # the weight of the explicit part, None at theta = 1 (no explicit part)
        self._c = (1.0 - p.theta) * p.dt if p.theta < 1.0 else None
        s = self.system = _system(p.form, p.variant)
        self.g = _datum(p.collar, p.form.grid.collar)
        key = (1.0, p.theta * p.dt)
        # M's A_II slice comes before the load's temporary A_IC (31.5 MiB on holder-2d):
        # in the other order holder-2d read a 6 MB higher peak resident set (measured)
        fresh = s.block(s.I) if s.key != key else None
        self.loads = self._loads()
        s.factor(*key, fresh)
        self.M, (self.lu, self.piv), self.getrs = s.M, s.lu, sla.getrs
        self.emit, self.rows, self.n = emit, rows, 0    # n rows recorded since the last check
        self.k, self.t = np.empty(rows, dtype=np.intp), np.empty(rows)
        # rows of b, x, b - M x and residual, after the factorisation, whose peak they would raise
        self.B, self.X, self.R = np.empty((3, rows, len(self.loads[1])))
        self.res = np.empty(rows)

    def _loads(self):
        """The load pair of the run's data."""
        p, system = self.problem, self.system
        r = _datum(p.f, system.I) - system.block(~system.I) @ self.g
        r = r + system.tail * p.exterior
        if p.variant == "dual_ext":   # the system keeps the drift slice of its first such load
            system.drift = p.form.drift_load[system.I] if system.drift is None else system.drift
            r = r + p.d_const * system.drift
        return p.dt * (1.0 - p.theta) * r if p.theta < 1.0 else None, p.dt * p.theta * r

    def step(self, u_I: np.ndarray, t_new: float, k: int) -> np.ndarray:
        """The interior state at t_new of step k from the interior state u_I
        at the current time: a row of X, which a check corrects in place and
        the steps after the next check overwrite.  With the default ``rows`` = 1
        the row is checked before it is returned."""
        i = self.n
        self.k[i], self.t[i] = k, t_new
        x = self._solve(i, u_I)
        self.n = i + 1
        if self.n == self.rows:
            self.check()
        return x

    def _solve(self, i: int, u_I: np.ndarray):
        """Fill row i of B from the state u_I and the load pair (after the
        explicit part under theta < 1), solve it into row i of X and return
        that row."""
        b, x = self.B[i], self.X[i]
        explicit, load = self.loads
        if self._c is not None:
            np.subtract(u_I, self._c * (self.system.A_exp @ u_I), out=b)
            b += explicit
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
                for m in range(j + 1, n):
                    self._solve(m, X[m - 1])
                i = j + 1
            if self.emit is not None:
                self.emit(int(self.k[0]), X, self.res[:n])
        finally:
            self.n = 0


def theta_step(problem: ParabolicProblem, u_full: np.ndarray, t: float):
    """One theta-scheme step from t to t + dt; returns the new full-box state."""
    stepper = _Stepper(problem)
    out = np.array(u_full, dtype=float)
    I = stepper.system.I
    out[I] = stepper.step(out[I], t + problem.dt, int(round((t - problem.t_start) / problem.dt)))
    out[~I] = stepper.g
    return out


def whole_steps(span: float, dt: float) -> tuple[int, float]:
    """(n, span / n): the fewest steps of at most dt that make up span > 0, a
    ratio span / dt within 1e-9 relative above a whole number taken as it."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"time step must be finite and positive, got {dt}")
    n = max(math.ceil(span / dt * (1 - 1e-9)), 1)
    return n, span / n


def time_grid(t_start: float, t_end: float, dt: float) -> np.ndarray:
    """The step times t_start + k dt, k < n, and t_end of a run over n whole
    steps: (t_end - t_start) / dt = n within 1e-9 relative."""
    span = t_end - t_start
    n, _ = whole_steps(span, dt)
    if not abs(n * dt - span) <= 1e-9 * span:
        raise ValueError(f"dt={dt} does not divide the span t_end - t_start = {span}")
    return np.append(t_start + dt * np.arange(n), t_end)


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
    """Snapshots at the times of ``time_grid``, meta["n_steps"] steps of dt to t_end."""
    form = problem.form
    grid = form.grid
    u0 = np.asarray(problem.u0, dtype=float)
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

    stepper = _Stepper(problem, emit, min(_BLOCK, n_steps))
    try:
        for k, t_new in enumerate(times[1:]):
            u = stepper.step(u, t_new, k)
    finally:    # the rows of the last block; after an error too, as a miss before it comes first
        stepper.check()
    _write(snaps, C, stepper.g)       # after the loop: the buffer fills as the steps go
    meta = {"variant": problem.variant, "theta": problem.theta, "dt": problem.dt,
            "h": grid.h, "exterior": problem.exterior,
            "d_const": problem.d_const, "kernel_hash": form.meta.get("kernel_hash"),
            "n_steps": n_steps, "t_end": problem.t_end}
    if "alpha" in form.meta.get("kernel", {}):
        meta["alpha"] = form.meta["kernel"]["alpha"]
    return Solution(times, snaps, grid, meta, residuals)


def solve_dual_ext(problem: ParabolicProblem) -> Solution:
    """Extended dual run; problem.variant is forced to dual_ext."""
    if problem.variant != "dual_ext":
        raise ValueError("problem.variant must be 'dual_ext'")
    return solve_parabolic(problem)


def default_dt(h: float, alpha: float) -> float:
    """The upper bound c h^alpha, c = 0.5, on the step, matched to the
    order-alpha parabolic scaling of the cylinders.  c is set by a measured
    time-error budget (ROADMAP item 18): at c = 0.5 the Harnack median and min
    (h = 1/32, 1/64) and the Hoelder ratios osc(s/2)/osc(s) (h = 1/64, 1/128)
    of the README presets lie within a tenth of their 50-member bootstrap
    standard error of runs at a 32 times finer step."""
    return 0.5 * h ** alpha


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
