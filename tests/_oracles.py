"""Shared independent oracles used by the unit and acceptance tests."""
import numpy as np
import scipy.linalg as sla


def bump(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < 1.0, np.cos(np.pi * np.clip(x, -1, 1) / 2) ** 2, 0.0)


def pv_operator_oracle(xi, u, c, alpha, hf, window=64.0):
    """Brute-force pair-symmetric quadrature of 2 pv int (u(x)-u(y)) K dy at xi.

    Antipodal offsets are paired so the principal value converges; beyond the
    window the field is assumed to vanish and the tail is added analytically.
    """
    offs = (np.arange(int(window / hf)) + 0.5) * hf
    u_i = float(u(np.array([xi]))[0])
    s = np.sum((2 * u_i - u(xi + offs) - u(xi - offs)) * c *
               offs ** (-1 - alpha)) * hf
    tail = 2 * u_i * c * window ** (-alpha) / alpha
    return 2 * (s + tail)


# --- frozen theta-scheme stepping loop and resolvent ------------------------
# The solver as it was before the interior system was shared between
# the stepper and the resolvent and before time-independent loads were built
# once per solve: every step slices A_II / A_IC out of the form again and
# evaluates the collar datum and the source afresh.  Tests compare the
# production solver against it bit for bit, so nothing here may be "tidied":
# the order of the floating-point operations is the point.

ORACLE_RESIDUAL_TOL = 1e-10


def _old_operator(problem, form):
    if problem.variant == "primal":
        return form.A, form.tail, None
    load = form.drift_load if problem.variant == "dual_ext" else None
    return form.A.T, form.tail_dual, load


def _old_collar_values(problem, grid, t):
    pts = grid.nodes[grid.collar]
    g = problem.collar
    if g is None:
        return np.zeros(pts.shape[0])
    if callable(g):
        return np.asarray(g(t, pts), dtype=float) * np.ones(pts.shape[0])
    g = np.asarray(g, dtype=float)
    if g.ndim == 0:
        return np.full(pts.shape[0], float(g))
    return g


def _old_source(problem, grid, t):
    if problem.f is None:
        return np.zeros(int(np.sum(grid.interior)))
    return np.asarray(problem.f(t, grid.nodes[grid.interior]), dtype=float) * np.ones(
        int(np.sum(grid.interior)))


def _old_rhs_load(problem, form, t):
    grid = form.grid
    I = grid.interior
    A, tail, load = _old_operator(problem, form)
    r = _old_source(problem, grid, t)
    g = _old_collar_values(problem, grid, t)
    if np.any(~I):
        r = r - A[np.ix_(I, ~I)] @ g
    r = r + tail[I] * problem.exterior
    if load is not None:
        r = r + problem.d_const * load[I]
    return r


def _old_solve_refined(lu_piv, Mmat, x_rhs):
    x = sla.lu_solve(lu_piv, x_rhs)
    res = x_rhs - Mmat @ x
    scale = np.linalg.norm(x_rhs)
    nres = np.linalg.norm(res)
    for _ in range(3):
        if nres <= ORACLE_RESIDUAL_TOL * max(scale, 1e-300):
            break
        x = x + sla.lu_solve(lu_piv, res)
        res = x_rhs - Mmat @ x
        nres = np.linalg.norm(res)
    return x, nres / max(scale, 1e-300)


class _OldStepper:
    def __init__(self, problem):
        self.problem = problem
        self._cache = {}

    def matrices(self, t_new):
        p = self.problem
        key = None if not p.time_dependent else round(t_new, 12)
        if key in self._cache:
            return self._cache[key]
        form = p.form_at(t_new)
        I = form.grid.interior
        A, _, _ = _old_operator(p, form)
        A_II = A[np.ix_(I, I)]
        M_impl = np.eye(A_II.shape[0]) + p.theta * p.dt * A_II
        entry = (form, A_II, M_impl, sla.lu_factor(M_impl))
        self._cache.clear()
        self._cache[key] = entry
        return entry

    def step(self, u_full, t):
        p = self.problem
        form_new, A_II, M_impl, lu_piv = self.matrices(t + p.dt)
        form_old = p.form_at(t) if p.time_dependent and p.theta < 1.0 else form_new
        grid = form_new.grid
        I = grid.interior
        u_I = u_full[I]
        b = u_I.copy()
        if p.theta < 1.0:
            A_old, _, _ = _old_operator(p, form_old)
            b = b - (1.0 - p.theta) * p.dt * (A_old[np.ix_(I, I)] @ u_I)
            b = b + p.dt * (1.0 - p.theta) * _old_rhs_load(p, form_old, t)
        b = b + p.dt * p.theta * _old_rhs_load(p, form_new, t + p.dt)
        u_new_I, rel_res = _old_solve_refined(lu_piv, M_impl, b)
        out = np.empty_like(u_full)
        out[I] = u_new_I
        out[~I] = _old_collar_values(p, grid, t + p.dt)
        return out, rel_res


def old_solve_parabolic(problem):
    """(times, snapshots, residuals) of the old loop."""
    grid = problem.form_at(problem.t_start).grid
    u0 = problem.u0(grid.nodes) if callable(problem.u0) else np.asarray(
        problem.u0, dtype=float)
    u = u0.copy()
    u[grid.collar] = _old_collar_values(problem, grid, problem.t_start)
    n_steps = max(int(round((problem.t_end - problem.t_start) / problem.dt)), 1)
    times = problem.t_start + problem.dt * np.arange(n_steps + 1)
    snaps = np.empty((n_steps + 1, grid.n_nodes))
    snaps[0] = u
    residuals = np.empty(n_steps)
    stepper = _OldStepper(problem)
    for k in range(n_steps):
        u, residuals[k] = stepper.step(u, times[k])
        snaps[k + 1] = u
    return times, snaps, residuals


def old_resolvent_solve(form, lam, f, variant="primal"):
    grid = form.grid
    I = grid.interior
    A = form.A if variant == "primal" else form.A.T
    A_II = A[np.ix_(I, I)]
    Mmat = lam * np.eye(A_II.shape[0]) + A_II
    x, _ = _old_solve_refined(sla.lu_factor(Mmat), Mmat, np.asarray(f, dtype=float)[I])
    out = np.zeros(grid.n_nodes)
    out[I] = x
    return out
