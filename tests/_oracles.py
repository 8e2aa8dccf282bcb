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


# --- the mean-zero eigenvalue pencil of the spectral checks ------------------

def eigh_pencil(L_num, L_den, which):
    """The extreme eigenvalue of v^T L_num v / v^T L_den v on mean-zero v as
    scipy.linalg.eigh solves the pencil, on the basis of
    assumptions._pencil_extreme."""
    n = L_num.shape[0]
    Q = np.linalg.qr(np.eye(n) - np.ones((n, n)) / n)[0][:, : n - 1]
    A, B = Q.T @ L_num @ Q, Q.T @ L_den @ Q
    w = sla.eigh(0.5 * (A + A.T), 0.5 * (B + B.T), eigvals_only=True)
    return float(w[-1] if which == "max" else w[0])


# K1 on a drift kernel with V = |x|^0.9 (the CI's finite case): its domination
# ratio takes the pencil's eigenvalues
K1_DRIFT_09 = {"harness": {"type": "check-kernel", "assumption": "K1"},
               "kernel": {"family": "drift", "d": 1, "alpha": 1.5, "L": 0.5,
                          "V": {"preset": "abs-power-V", "gamma0": 0.9}}}


# --- frozen theta-scheme stepping loop and resolvent ------------------------
# The solver as it was before the interior system was shared between
# the stepper and the resolvent and before time-independent loads were built
# once per solve: every step slices A_II / A_IC out of the form again and
# evaluates the collar datum and the source afresh (arrays or scalars, as
# ``ParabolicProblem`` takes them).  Tests compare the
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
    g = np.asarray(g, dtype=float)
    if g.ndim == 0:
        return np.full(pts.shape[0], float(g))
    return g


def _old_source(problem, grid, t):
    if problem.f is None:
        return np.zeros(int(np.sum(grid.interior)))
    return np.asarray(problem.f, dtype=float) * np.ones(int(np.sum(grid.interior)))


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
        from jumplab.discretize import DiscreteForm

        self.problem = problem
        self.time_dependent = not isinstance(problem.form, DiscreteForm)
        self._cache = {}

    def matrices(self, t_new):
        p = self.problem
        key = None if not self.time_dependent else round(t_new, 12)
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
        form_old = p.form_at(t) if self.time_dependent and p.theta < 1.0 else form_new
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
    u = np.array(problem.u0, dtype=float)
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


def system_matrix(form, a, b, operator="A"):
    """a I + b A_II of the operator A or A^T, as the solver builds the matrix
    it factors: a = 1, b = theta dt for a step, a = lam, b = 1 for a resolvent."""
    I = form.grid.interior
    M = (form.A if operator == "A" else form.A.T)[np.ix_(I, I)]
    M *= b
    M[np.diag_indices_from(M)] += a
    return M


# --- frozen moment integrals of the nonlocal-to-local layer -----------------
# local_coefficients, the sub-cell moments and the corrected assembly as they
# were before one moment helper and one column-stacked extrapolation replaced
# the per-entry loops.  Like the loop above, these are a bit-for-bit reference
# and must not be tidied.

def _old_moment_eval(kernel, i, j):
    if j is None:
        def ev(x, y):
            return (x[..., i] - y[..., i]) * kernel.anti(x, y)
    else:
        def ev(x, y):
            return (y[..., i] - x[..., i]) * (y[..., j] - x[..., j]) * kernel.sym(x, y)
    return ev


def _old_extrapolate(eps, vals):
    if len(eps) == 1:
        return float(vals[0]), float("nan")
    order = np.argsort(eps)
    take = order[: max(2, min(3, len(eps)))]
    coeff = np.polyfit(eps[take], vals[take], 1)
    fit = np.polyval(coeff, eps[take])
    resid = float(np.sqrt(np.mean((fit - vals[take]) ** 2)))
    return float(coeff[1]), resid


def old_local_coefficients(family, x, delta, alphas=None, quad=None,
                           delta_check=None, verify_quadrature=False):
    from jumplab.quadrature import QuadSpec, ball_integral

    alphas = tuple(alphas) if alphas is not None else tuple(family)
    quad = quad or QuadSpec(n_ang=256, n_panels=48, growth_octaves=24)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = next(iter(family.values())).d
    out = {"alphas": list(alphas), "a": {}, "b": {}}

    def moments(alpha, dlt, q=quad):
        k = family[alpha]
        a_mat = np.empty((x.shape[0], d, d))
        for i in range(d):
            for j in range(i, d):
                sing = d + alpha - 2
                vals = ball_integral(_old_moment_eval(k, i, j), x, None, dlt, d,
                                     q, singular_order=max(sing, 0.0),
                                     breaks=k.radial_breaks())
                a_mat[:, i, j] = vals
                a_mat[:, j, i] = vals
        b_vec = np.empty((x.shape[0], d))
        for i in range(d):
            sing = d + k.diag_orders(x)[1] - 1
            b_vec[:, i] = ball_integral(_old_moment_eval(k, i, None), x, None, dlt,
                                        d, q, singular_order=max(sing, 0.0),
                                        breaks=k.radial_breaks())
        return a_mat, b_vec

    eps = 2.0 - np.asarray(alphas)
    a_all = np.empty((len(alphas), x.shape[0], d, d))
    b_all = np.empty((len(alphas), x.shape[0], d))
    for idx, a in enumerate(alphas):
        a_all[idx], b_all[idx] = moments(a, delta)
        out["a"][a] = a_all[idx]
        out["b"][a] = b_all[idx]
    if verify_quadrature:
        a_ref, _ = moments(alphas[-1], delta, q=quad.refined())
        scale = max(float(np.max(np.abs(a_ref))), 1e-300)
        out["quadrature_drift"] = float(np.max(np.abs(a_ref - a_all[-1])) / scale)
    a_lim = np.empty((x.shape[0], d, d))
    b_lim = np.empty((x.shape[0], d))
    resid = 0.0
    for n in range(x.shape[0]):
        for i in range(d):
            for j in range(d):
                a_lim[n, i, j], r = _old_extrapolate(eps, a_all[:, n, i, j])
                resid = max(resid, r)
            b_lim[n, i], r = _old_extrapolate(eps, b_all[:, n, i])
            resid = max(resid, r)
    out["a_limit"] = a_lim
    out["b_limit"] = b_lim
    out["fit_residual"] = resid
    dlt2 = delta_check if delta_check is not None else delta / 2.0
    if len(alphas) > 1:
        a2 = np.empty_like(a_all)
        for idx, a in enumerate(alphas):
            a2[idx], _ = moments(a, dlt2)
        a_lim2 = np.empty_like(a_lim)
        for n in range(x.shape[0]):
            for i in range(d):
                for j in range(d):
                    a_lim2[n, i, j], _ = _old_extrapolate(eps, a2[:, n, i, j])
        scale = max(float(np.max(np.abs(a_lim))), 1e-300)
        out["delta_sensitivity"] = float(np.max(np.abs(a_lim2 - a_lim)) / scale)
    else:
        out["delta_sensitivity"] = float("nan")
    out["quad"] = quad.to_dict()
    return out


def old_cell_moments(kernel, pts, h, d, quad):
    from jumplab.quadrature import ball_integral

    alpha = kernel.alpha
    C = np.empty((pts.shape[0], d))
    b = np.empty((pts.shape[0], d))
    for k in range(d):
        def c_eval(x, y, _k=k):
            return (y[..., _k] - x[..., _k]) ** 2 * kernel.sym(x, y)

        def b_eval(x, y, _k=k):
            return (x[..., _k] - y[..., _k]) * kernel.anti(x, y)

        C[:, k] = ball_integral(c_eval, pts, None, h / 2.0, d, quad,
                                singular_order=max(d + alpha - 2, 0.0))
        b[:, k] = ball_integral(b_eval, pts, None, h / 2.0, d, quad,
                                singular_order=max(d + kernel.diag_orders(pts)[1]
                                                   - 1, 0.0))
    return C, b


def old_assemble_corrected(kernel, grid, quad=None):
    from jumplab.mosco import _axis_stencil
    from jumplab.quadrature import QuadSpec

    quad = quad or QuadSpec(n_ang=32, n_panels=24)
    form = old_assemble(kernel, grid, quad=quad)
    C, b_cell = old_cell_moments(kernel, grid.nodes, grid.h, grid.d, quad)
    N = grid.n_nodes
    corr = np.zeros((N, N))
    h = grid.h
    for k in range(grid.d):
        rows, plus, minus = _axis_stencil(grid, k)
        corr[rows, plus] += -C[rows, k] / h ** 2 + 2.0 * b_cell[rows, k] / (2 * h)
        corr[rows, minus] += -C[rows, k] / h ** 2 - 2.0 * b_cell[rows, k] / (2 * h)
    S, W = form.A_s, form.A_a
    np.fill_diagonal(S, 0.0)
    S += corr
    W += corr
    return old_completed_form(grid, S, W, form.tail_sym, form.tail_anti,
                              dict(form.meta, corrected=True), 1.0)


# --- frozen whole-array assembly ----------------------------------------------
# assemble as it was while the stencil path filled each N x N pair array in
# one go, _completed_form then summed the rows of the whole arrays and scaled
# them in a pass of their own, and the profiled tails were one expression.
# Tests compare the one-pass assembly against it byte for byte, signed zeros
# included, so do not tidy the order of the operations.


def old_stencil_pair_values(axes, *fns, ops=()):
    from itertools import zip_longest

    n, d = axes[0].size, len(axes)
    off = np.arange(-(n - 1), n)
    ends = [np.meshgrid(*(a[np.maximum(sgn * off, 0)] for a in axes), indexing="ij")
            for sgn in (-1, 1)]
    xs, ys = (np.stack(e, axis=-1).reshape(-1, d) for e in ends)
    live = np.ones(xs.shape[0], dtype=bool)
    live[xs.shape[0] // 2] = False
    out = []
    for fn, op in zip_longest(fns, ops):
        stencil = np.zeros(xs.shape[0])
        stencil[live] = fn(xs[live], ys[live])
        if op is not None:
            stencil = op(stencil, stencil[::-1]) * 0.5
        windows = np.lib.stride_tricks.sliding_window_view(
            stencil.reshape((2 * n - 1,) * d), (n,) * d)
        M = np.empty((n ** d, n ** d))
        M.reshape((n,) * (2 * d))[...] = windows[(slice(None, None, -1),) * d]
        out.append(M)
    return out


def old_completed_form(grid, S, W, T_s, T_a, meta, scale, *, symmetrised=False):
    from jumplab.discretize import DiscreteForm, _symmetrise

    if not symmetrised:
        _symmetrise(S, np.add)
        _symmetrise(W, np.subtract)
    row_s = -scale * np.sum(S, axis=1)
    row_a = -scale * np.sum(W, axis=1)
    S *= scale
    W *= scale
    np.fill_diagonal(S, row_s + T_s + row_a + T_a)
    return DiscreteForm(grid, S, W, T_s, T_a, meta)


def old_tail_columns(c, gamma, s0):
    return c / gamma * s0 ** -gamma


def old_assemble(kernel, grid, quad=None):
    from jumplab.discretize import _symmetrise
    from jumplab.kernels import pair_values
    from jumplab.quadrature import QuadSpec, directions, exterior_tail, ray_exit_box

    quad = quad or QuadSpec()
    dirs, ang_w = directions(grid.d, quad.n_ang)
    profiles = {part: kernel.ray_profile(part, dirs) for part in ("sym", "anti")}
    profiled = all(prof is not None for prof in profiles.values())
    ops = (np.add, np.subtract)
    axes = old_toeplitz_axes(grid) if profiled else None
    if axes is not None:
        Ks, Ka = old_stencil_pair_values(axes, kernel.sym, kernel.anti, ops=ops)
    else:
        Ks, Ka = pair_values(grid.nodes, kernel.sym, kernel.anti)
        for M, op in zip((Ks, Ka), ops):
            _symmetrise(M, op)
    if profiled:
        s0 = ray_exit_box(grid.nodes, dirs, grid.X)
        tails = (old_tail_columns(c, gamma, s0) @ ang_w for c, gamma in profiles.values())
    else:
        exit_fn = lambda x, dirs: ray_exit_box(x, dirs, grid.X)
        tails = (exterior_tail(kernel.radial_pieces(part), grid.nodes, exit_fn, grid.d, quad)
                 for part in profiles)
    T_s, T_a = (2.0 * T for T in tails)
    meta = {"kernel": kernel.spec.to_config(), "kernel_hash": kernel.spec.digest(),
            "h": grid.h, "X": grid.X, "quad": quad.to_dict()}
    return old_completed_form(grid, Ks, Ka, T_s, T_a, meta, -2.0 * grid.cell_volume,
                              symmetrised=True)


def old_local_operator(a_mat, b_vec, grid):
    from jumplab.mosco import _axis_stencil

    N = grid.n_nodes
    h = grid.h
    A = np.zeros((N, N))
    a_field = a_mat if a_mat.ndim == 3 else np.broadcast_to(
        a_mat, (N,) + a_mat.shape).copy()
    b_field = b_vec if b_vec.ndim == 2 else np.broadcast_to(
        b_vec, (N, grid.d)).copy()
    for k in range(grid.d):
        rows, plus, minus = _axis_stencil(grid, k)
        a_here = a_field[rows, k, k]
        a_plus = 0.5 * (a_here + a_field[plus, k, k])
        a_minus = 0.5 * (a_here + a_field[minus, k, k])
        A[rows, rows] += (a_plus + a_minus) / h ** 2
        A[rows, plus] += -a_plus / h ** 2 + 2.0 * b_field[rows, k] / (2 * h)
        A[rows, minus] += -a_minus / h ** 2 - 2.0 * b_field[rows, k] / (2 * h)
    return A


def old_resolvent_gaps(family, grid, f, lam, alphas=None, quad=None):
    from jumplab.solve import resolvent_solve

    alphas = tuple(alphas) if alphas is not None else tuple(family)
    f_vals = f(grid.nodes) if callable(f) else np.asarray(f, dtype=float)
    probe = grid.nodes[grid.interior][:: max(1, int(grid.interior.sum()) // 20)]
    coeffs = old_local_coefficients(family, probe, delta=0.5, alphas=alphas)
    A_loc = old_local_operator(np.mean(coeffs["a_limit"], axis=0),
                               np.mean(coeffs["b_limit"], axis=0), grid)
    I = grid.interior
    M = lam * np.eye(int(I.sum())) + A_loc[np.ix_(I, I)]
    u_loc = np.zeros(grid.n_nodes)
    u_loc[I] = sla.solve(M, f_vals[I])
    gaps = []
    for a in alphas:
        u_a = resolvent_solve(old_assemble_corrected(family[a], grid, quad), lam, f_vals)
        gaps.append(float(np.sqrt(np.sum((u_a - u_loc) ** 2) * grid.cell_volume)))
    return gaps


# --- frozen radial quadratures and assumption checkers ----------------------
# ball_integral, exterior_tail, the assembly's blocked tail vector and the K1,
# K1glob, Tail and Cutoff checkers as they were before one ray rule served
# every tail and ball integral: three copies of the points -> kernel ->
# Jacobian sum, two end terms, two K1 bodies.  A bit-for-bit reference; the
# order of the floating-point operations is the point, so do not tidy.

def _old_ball_integral_block(eval2, x, center, radius, d, spec, singular_order, breaks):
    from jumplab.quadrature import _log_nodes, _segments, directions, ray_exit_ball

    dirs, ang_w = directions(d, spec.n_ang)
    if center is None:
        caps = np.full((x.shape[0], dirs.shape[0]), float(radius))
    else:
        caps = ray_exit_ball(x, dirs, center, radius)
    total = np.zeros(x.shape[0])
    for seg_lo, seg_hi in _segments(caps, breaks, spec):
        s, w = _log_nodes(seg_lo, seg_hi, spec)
        y = x[:, None, None, :] + s[..., None] * dirs[None, :, None, :]
        vals = eval2(x[:, None, None, :], y)
        contrib = np.sum(vals * np.power(s, d - 1) * w, axis=-1)
        total += contrib @ ang_w
    if singular_order is not None and singular_order < d:
        s_min = spec.s_min_rel * caps
        y = x[:, None, None, :] + s_min[:, :, None, None] * dirs[None, :, None, :]
        f0 = eval2(x[:, None, None, :], y)[..., 0]
        rem = f0 * np.power(s_min, d) / (d - singular_order)
        total += rem @ ang_w
    return total


def old_ball_integral(eval2, x, center, radius, d, spec, *, singular_order=None,
                      breaks=(), block=32):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], block):
        out[lo:lo + block] = _old_ball_integral_block(
            eval2, x[lo:lo + block], center, radius, d, spec, singular_order, breaks)
    return out


def old_exterior_tail(pieces, x, exit_fn, d, spec):
    from jumplab.quadrature import _log_nodes, directions

    x = np.atleast_2d(np.asarray(x, dtype=float))
    dirs, ang_w = directions(d, spec.n_ang)
    s0 = exit_fn(x, dirs)
    total = np.zeros(x.shape[0])
    for eval2, upper, decay_fn in pieces:
        if upper is not None:
            hi = np.broadcast_to(float(upper), s0.shape)
            mask = s0 < hi
            if not np.any(mask):
                continue
            s, w = _log_nodes(np.where(mask, s0, 1.0), np.where(mask, hi, 1.0), spec)
            y = x[:, None, None, :] + s[..., None] * dirs[None, :, None, :]
            vals = eval2(x[:, None, None, :], y)
            contrib = np.sum(vals * np.power(s, d - 1) * w, axis=-1)
            contrib = np.where(mask, contrib, 0.0)
            total += contrib @ ang_w
        else:
            s0f = np.asarray(s0, dtype=float)
            s_max = s0f * (2.0 ** spec.growth_octaves)
            s, w = _log_nodes(s0f, s_max, spec)
            y = x[:, None, None, :] + s[..., None] * dirs[None, :, None, :]
            vals = eval2(x[:, None, None, :], y)
            contrib = np.sum(vals * np.power(s, d - 1) * w, axis=-1)
            gam = np.asarray(decay_fn(dirs), dtype=float)
            y_out = x[:, None, None, :] + s_max[..., None, None] * np.broadcast_to(
                dirs[None, :, None, :], (x.shape[0],) + dirs.shape[:1] + (1, d))
            f_out = eval2(x[:, None, None, :], y_out)[..., 0]
            rem = f_out * np.power(s_max, d) / np.maximum(gam[None, :], 1e-12)
            total += (contrib + rem) @ ang_w
    return total


def old_tail_vector(kernel, part, points, exit_fn, d, quad, block=128):
    pieces = kernel.radial_pieces(part)
    out = np.zeros(points.shape[0])
    for lo in range(0, points.shape[0], block):
        hi = min(lo + block, points.shape[0])
        out[lo:hi] = 2.0 * old_exterior_tail(pieces, points[lo:hi], exit_fn, d, quad)
    return out


def old_assembly_tails(kernel, grid, quad=None):
    """(T_s, T_a) of ``assemble(kernel, grid, quad)`` by the blocked tail vector."""
    from jumplab.quadrature import QuadSpec, ray_exit_box

    quad = quad or QuadSpec()
    exit_fn = lambda x, dirs: ray_exit_box(x, dirs, grid.X)
    return tuple(old_tail_vector(kernel, part, grid.nodes, exit_fn, grid.d, quad)
                 for part in ("sym", "anti"))


def old_k1_profile(kernel, J, ball, theta, grid=None, quad=None, spacing=None):
    from jumplab.assumptions import (INF, AssumptionReport, _domination_ratio,
                                     _lattice, _lp_norm, _safe_ratio)
    from jumplab.quadrature import QuadSpec

    quad = quad or QuadSpec(n_ang=256, n_panels=32)
    d = ball.d
    lattice = _lattice(ball, 2 * ball.r, grid, spacing)[0]
    sing = d + 2 * kernel.diag_orders(lattice)[1] - J.diag_orders(lattice)[0]
    resolution = {"quad": quad.to_dict(), "kappa": 1 + kernel.alpha / d}
    if sing >= d:
        return AssumptionReport(
            "K1", {"norm": INF}, {"theta": theta}, resolution, "divergent",
            "inner integrand fails the integrability pre-test at the diagonal")
    pts, h, _ = _lattice(ball, 2 * ball.r, grid, spacing)
    W = old_ball_integral(lambda x, y: _safe_ratio(kernel, J, x, y), pts,
                          np.asarray(ball.center), 2 * ball.r, d, quad,
                          singular_order=max(sing, 0.0))
    norm = _lp_norm(W, theta, h ** d)
    ratio = _domination_ratio(kernel, J, ball, grid, spacing)
    resolution["n_points"] = int(pts.shape[0])
    verdict = "finite" if np.isfinite(norm) and np.isfinite(ratio) else "divergent"
    return AssumptionReport("K1", {"norm": norm, "W_max": float(np.max(W)),
                                   "domination_ratio": ratio},
                            {"theta": theta}, resolution, verdict)


def old_k1_glob_profile(kernel, J, ball, theta, grid=None, quad=None, spacing=None):
    from jumplab.assumptions import (INF, AssumptionReport, _domination_ratio,
                                     _lattice, _lp_norm, _safe_ratio)
    from jumplab.quadrature import QuadSpec, directions

    quad = quad or QuadSpec(n_ang=256, n_panels=32)
    d = ball.d
    lattice = _lattice(ball, 2 * ball.r, grid, spacing)[0]
    sing = d + 2 * kernel.diag_orders(lattice)[1] - J.diag_orders(lattice)[0]
    resolution = {"quad": quad.to_dict(), "kappa": 1 + kernel.alpha / d}
    if sing >= d:
        return AssumptionReport(
            "K1glob", {"norm": INF}, {"theta": theta}, resolution, "divergent",
            "inner integrand fails the integrability pre-test at the diagonal")
    if kernel.anti_support() is None:
        dirs, _ = directions(d, quad.n_ang)
        ka_dec = kernel.decay_orders("anti", dirs)
        j_dec = J.decay_orders("sym", dirs)
        exponent = 2 * ka_dec - j_dec
        probe = np.asarray(ball.center) + 10.0 * dirs
        active = np.abs(kernel.anti(np.asarray(ball.center)[None, :], probe)) > 0
        if np.any(active & (exponent <= 0)):
            return AssumptionReport(
                "K1glob", {"norm": INF}, {"theta": theta}, resolution, "divergent",
                "far-field exponent of K_a^2/J is not integrable")
    pts, h, _ = _lattice(ball, 2 * ball.r, grid, spacing)
    near_radius = max(4 * ball.r, 1.0)
    W = old_ball_integral(lambda a, b: _safe_ratio(kernel, J, a, b), pts, None,
                          near_radius, d, quad, singular_order=max(sing, 0.0))
    decay = lambda dd: 2 * kernel.decay_orders("anti", dd) - J.decay_orders("sym", dd)
    pieces = [(lambda a, b: _safe_ratio(kernel, J, a, b),
               kernel.anti_support(), decay)]
    W = W + old_exterior_tail(pieces, pts,
                              lambda x, dd: np.full((x.shape[0], dd.shape[0]),
                                                    near_radius), d, quad)
    norm = _lp_norm(W, theta, h ** d)
    ratio = _domination_ratio(kernel, J, ball, grid, spacing)
    resolution["n_points"] = int(pts.shape[0])
    return AssumptionReport("K1glob", {"norm": norm, "W_max": float(np.max(W)),
                                       "domination_ratio": ratio},
                            {"theta": theta}, resolution, "finite")


def _old_tail_divergent(kernel, parts, ball, quad):
    from jumplab.quadrature import directions

    dirs, _ = directions(ball.d, min(quad.n_ang, 64))
    probe = np.asarray(ball.center)[None, :] + 10.0 * dirs
    for part in parts:
        if part == "anti" and kernel.anti_support() is not None:
            continue
        ev = kernel.sym if part == "sym" else kernel.anti
        active = np.abs(np.asarray(ev(np.asarray(ball.center)[None, :],
                                      probe))) > 0
        decay = kernel.decay_orders(part, dirs)
        if np.any(active & (decay <= 0)):
            return True
    return False


def old_tail_sup(kernel, ball, A, dual=False, grid=None, quad=None, spacing=None):
    import math

    from jumplab.assumptions import INF, _lattice
    from jumplab.quadrature import QuadSpec

    quad = quad or QuadSpec()
    k = kernel.dual() if dual else kernel
    pts, h, _ = _lattice(ball, 2 * ball.r, grid, spacing, max_points=60)
    if _old_tail_divergent(k, ("sym", "anti"), ball, quad):
        return {"sup": INF, "sigma_fit": 0.0, "A": A, "divergent": True,
                "n_points": pts.shape[0], "quad": quad.to_dict()}
    pieces = k.radial_pieces("full")

    def tail_at(radius):
        exit_fn = lambda x, dd: np.full((x.shape[0], dd.shape[0]), radius)
        return old_exterior_tail(pieces, pts, exit_fn, ball.d, quad)

    sup1 = float(np.max(tail_at(A * ball.r)))
    sup2 = float(np.max(tail_at(2 * A * ball.r)))
    sigma = math.log(sup1 / sup2) / math.log(2.0) if sup2 > 0 else INF
    return {"sup": sup1, "sup_2A": sup2, "sigma_fit": sigma, "A": A,
            "radius": A * ball.r, "divergent": False,
            "n_points": pts.shape[0], "quad": quad.to_dict()}


def old_cutoff_sup(kernel, zeta, ball, grid=None, quad=None, spacing=None, n_sweep=4):
    from jumplab.assumptions import INF, _lattice
    from jumplab.quadrature import QuadSpec

    quad = quad or QuadSpec()
    pts, h, _ = _lattice(ball, ball.r + (ball.rho or ball.r), grid, spacing,
                         max_points=60)
    if _old_tail_divergent(kernel, ("sym",), ball, quad):
        return {"sup": INF, "zeta": zeta, "divergent": True,
                "n_points": pts.shape[0], "quad": quad.to_dict()}
    pieces = kernel.radial_pieces("sym")

    def sup_at(z):
        exit_fn = lambda x, dd: np.full((x.shape[0], dd.shape[0]), z)
        return float(np.max(old_exterior_tail(pieces, pts, exit_fn, ball.d, quad)))

    zetas = zeta * 0.5 ** np.arange(n_sweep)
    sups = np.array([sup_at(z) for z in zetas])
    slope, intercept = np.polyfit(np.log(zetas), np.log(sups), 1)
    return {"sup": sups[0], "zeta": zeta, "exponent_fit": float(-slope),
            "prefactor_fit": float(np.exp(intercept)), "sweep": list(zetas),
            "n_points": pts.shape[0], "quad": quad.to_dict()}


# --- Caccioppoli left-hand sides on the full pair matrix ---------------------
# Both audits before they took only the ball block of K_s: the full N x N
# matrix masked to the pairs inside B_{r+rho}.  Same terms, other summation
# order, so the production audits agree to rounding, not bit for bit.

def old_caccioppoli_lhs(u, form, center, r, rho, p, shift):
    from jumplab.discretize import CutoffProfile, pair_mask_ball

    grid = form.grid
    u_t = np.asarray(u, dtype=float) + shift
    tau = CutoffProfile(tuple(np.asarray(center, dtype=float)), r, rho / 2.0)
    tv = tau.values_on(grid)
    w = tv * u_t ** ((1.0 - p) / 2.0)
    Kb = np.where(pair_mask_ball(grid, center, r + rho), form.ks_matrix(), 0.0)
    dw = w[:, None] - w[None, :]
    return float(np.sum(dw * dw * Kb) * grid.cell_volume ** 2)


def old_log_caccioppoli_lhs(u, form, center, r, rho, shift):
    from jumplab.discretize import CutoffProfile, pair_mask_ball

    grid = form.grid
    u_t = np.asarray(u, dtype=float) + shift
    tau = CutoffProfile(tuple(np.asarray(center, dtype=float)), r, rho / 2.0)
    tv = tau.values_on(grid)
    pos = tv > 0
    pairs = pair_mask_ball(grid, center, r + rho) & pos[:, None] & pos[None, :]
    Ks = np.where(pairs, form.ks_matrix(), 0.0)
    logs = np.where(pos, np.log(np.where(pos, u_t / np.where(pos, tv, 1.0), 1.0)), 0.0)
    dlog = logs[:, None] - logs[None, :]
    wmin = np.minimum(tv[:, None] ** 2, tv[None, :] ** 2)
    return float(np.sum(wmin * dlog * dlog * Ks) * grid.cell_volume ** 2)


# --- frozen full-matrix restricted form sums --------------------------------
# form_value and layer_cake_weighted_form as they were before each sum ran over
# the block of the nodes its pair mask or cutoff support touches: the full
# N x N pair matrix, masked.  Same terms, other summation order.

def _old_part_matrix(form, part):
    return {"full": form.k_matrix, "sym": form.ks_matrix, "anti": form.ka_matrix}[part]()


def old_form_value(form, mask, u, v, part="full", weight="onesided"):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    K = _old_part_matrix(form, part)
    if mask is not None:
        K = np.where(mask, K, 0.0)
    h2d = form.grid.cell_volume ** 2
    Ku = K @ u
    row = np.sum(K, axis=1)
    if weight == "onesided":
        val = np.sum(v * (u * row - Ku))
    elif weight == "difference":
        Kv = K @ v
        Kuv = K @ (u * v)
        val = np.sum(u * v * row - v * Ku - u * Kv + Kuv)
    else:
        Kv = K @ v
        Kuv = K @ (u * v)
        val = np.sum(u * v * row - v * Ku + u * Kv - Kuv)
    return float(h2d * val)


def old_layer_cake_weighted_form(form, tau, u, part="full"):
    grid = form.grid
    tv = tau.values_on(grid)
    K = _old_part_matrix(form, part)
    u = np.asarray(u, dtype=float)
    t2 = tv * tv
    w = np.minimum(t2[:, None], t2[None, :])
    du = u[:, None] - u[None, :]
    h2d = grid.cell_volume ** 2
    direct = float(np.sum(du * du * w * K) * h2d)
    levels = np.unique(t2[t2 > 0])[::-1]
    levels = np.append(levels, 0.0)
    cake = 0.0
    for k in range(len(levels) - 1):
        v_hi, v_lo = levels[k], levels[k + 1]
        m = t2 >= v_hi
        sub = K[np.ix_(m, m)]
        dusub = u[m][:, None] - u[m][None, :]
        cake += (v_hi - v_lo) * float(np.sum(dusub * dusub * sub) * h2d)
    return {"value": direct, "layer_cake": cake,
            "gap": abs(direct - cake) / max(abs(direct), 1e-300)}


# --- frozen full-cylinder ensemble member and box exit radius ---------------
# An ensemble member as it was when every Hoelder member stepped over the
# whole cylinder [t0 - R^alpha, t0 + R^alpha], and the box exit radius as it
# was when it divided by both walls of every axis.  Keep them as they are.


def old_positive_run(form, cyl, rng, dt=None):
    from jumplab.estimates import random_smooth_positive_field
    from jumplab.solve import ParabolicProblem, default_dt, solve_parabolic

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


def old_ray_exit_box(x, dirs, halfwidth):
    x = np.atleast_2d(x)
    with np.errstate(divide="ignore"):
        t_pos = (halfwidth - x[:, None, :]) / dirs[None, :, :]
        t_neg = (-halfwidth - x[:, None, :]) / dirs[None, :, :]
    t = np.where(dirs[None, :, :] > 0, t_pos,
                 np.where(dirs[None, :, :] < 0, t_neg, np.inf))
    return np.min(t, axis=-1)


# --- frozen stencil-path test ------------------------------------------------
# The lattice test of the stencil path as it was when it compared the
# differences of every offset m along an axis in its own pass.  Keep it as it
# is: tests compare the one-comparison-per-axis test against its decisions.


def old_toeplitz_axes(grid):
    P, d = grid.nodes, grid.d
    n = round(P.shape[0] ** (1.0 / d))
    if n ** d != P.shape[0]:
        return None
    lattice = P.reshape((n,) * d + (d,))
    axes = [lattice[(0,) * k + (slice(None),) + (0,) * (d - 1 - k) + (k,)] for k in range(d)]
    if not np.array_equal(lattice, np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)):
        return None
    if not all(np.all(a[m:] - a[:-m] == a[m] - a[0]) for a in axes for m in range(1, n)):
        return None
    return axes


# --- frozen Caccioppoli audits and potential/Sobolev checkers ---------------
# caccioppoli_audit, log_caccioppoli_audit (with the pairing and the shift),
# suffK1_check and sobolev_ratio as they were while they took the options that
# no caller set: the weight exponent, the theta term of the shift, the exterior
# value u_ext, the pass/fail threshold and the probe and sweep counts (suffK1's
# Hoelder branch only: its gradient branch is gone).  Called with their defaults they are the reference; tests
# compare the production reports against them with ==, so do not tidy.

def _old_global_pairing(form, variant, u, phi, d_const, u_ext):
    hd = form.grid.cell_volume
    if variant == "primal":
        return hd * float(phi @ (form.A @ u - u_ext * form.tail))
    val = hd * float(phi @ (form.A.T @ u - u_ext * form.tail_dual))
    if variant == "dual_ext":
        val -= d_const * hd * float(phi @ form.drift_load)
    return val


def _old_audit_shift(variant, eps, r, alpha, d, f_inf, d_const, theta):
    import math

    shift = eps
    if variant in ("dual", "dual_ext"):
        shift = shift + r ** alpha * f_inf
    if variant == "dual_ext":
        exponent = 0.5 * (alpha - (d / theta if theta != math.inf else 0.0))
        shift = shift + r ** exponent * abs(d_const)
    return shift


def old_caccioppoli_audit(u, form, center, r, rho, p, eps, variant="primal",
                          d_const=0.0, f_inf=0.0, weight_gamma=1.0,
                          theta=float("inf"), u_ext=0.0):
    import math

    from jumplab.discretize import CutoffProfile, kernel_alpha

    if p <= 0 or p == 1.0:
        raise ValueError("need p > 0 with p != 1 (the log audit is separate)")
    grid = form.grid
    alpha = kernel_alpha(form)
    u = np.asarray(u, dtype=float)
    shift = _old_audit_shift(variant, eps, r, alpha, grid.d, f_inf, d_const, theta)
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
    t1 = _old_global_pairing(form, variant, u, phi, d_const, u_ext)
    t2 = rho ** (-alpha) * float(np.sum(u_t[mask] ** (1.0 - p)) * grid.cell_volume)
    denom = abs(p - 1.0) * max(t1, 0.0) + max(1.0, p ** weight_gamma) * t2
    c_hat = lhs / denom if denom > 0 else math.inf
    return {"c_hat": c_hat, "lhs": lhs, "t1": t1, "t2": t2, "p": p,
            "variant": variant, "eps": eps, "shift": shift,
            "r": r, "rho": rho, "h": grid.h}


def old_log_caccioppoli_audit(u, form, center, r, rho, eps, variant="primal",
                              d_const=0.0, f_inf=0.0, theta=float("inf"), u_ext=0.0):
    import math

    from jumplab.discretize import CutoffProfile, kernel_alpha

    grid = form.grid
    alpha = kernel_alpha(form)
    u = np.asarray(u, dtype=float)
    shift = _old_audit_shift(variant, eps, r, alpha, grid.d, f_inf, d_const, theta)
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
    t1 = _old_global_pairing(form, variant, u, phi, d_const, u_ext)
    t2 = rho ** (-alpha) * float(np.sum(mask) * grid.cell_volume)
    denom = max(t1, 0.0) + t2
    return {"c_hat": lhs / denom if denom > 0 else math.inf,
            "c2_hat": lhs / t2 if t2 > 0 else math.inf,
            "lhs": lhs, "t1": t1, "t2": t2, "variant": variant, "eps": eps,
            "shift": shift, "r": r, "rho": rho, "h": grid.h}


def old_sobolev_ratio(form, ball, rho, rng=None, n_probe=40, n_iter=3):
    from jumplab.assumptions import _graph_laplacian, _lp_norm
    from jumplab.discretize import kernel_alpha

    grid = form.grid
    alpha = kernel_alpha(form)
    if alpha >= grid.d:
        raise ValueError("exponent d/(d-alpha) needs alpha < d")
    p_s = grid.d / (grid.d - alpha)
    rng = rng or np.random.Generator(np.random.Philox(key=0))
    inner = grid.ball_mask(np.asarray(ball.center), ball.r)
    outer = grid.ball_mask(np.asarray(ball.center), ball.r + rho)
    L = _graph_laplacian(form.ks_matrix(outer), grid.cell_volume ** 2)
    pts = grid.nodes[outer]
    in_sub = inner[outer]
    hd = grid.cell_volume

    def ratio(v):
        num = _lp_norm(v[in_sub] ** 2, p_s, hd)
        den = float(v @ L @ v) + rho ** (-alpha) * float(np.sum(v * v) * hd)
        return num / den if den > 0 else 0.0

    probes = [np.ones(pts.shape[0])]
    z = np.asarray(ball.center)
    dist = np.linalg.norm(pts - z, axis=-1)
    for width in (ball.r, ball.r / 2, ball.r / 4):
        probes.append(np.maximum(1 - dist / width, 0.0))
    spike = np.zeros(pts.shape[0])
    spike[int(np.argmin(dist))] = 1.0
    probes.append(spike)
    for _ in range(n_probe):
        freq = rng.uniform(0.5, 6.0, size=(3, grid.d))
        phase = rng.uniform(0, 2 * np.pi, size=3)
        amp = rng.normal(size=3)
        v = sum(a * np.cos(pts @ f + p) for a, f, p in zip(amp, freq, phase))
        probes.append(v)
    best = max(probes, key=ratio)
    M = L + rho ** (-alpha) * hd * np.eye(L.shape[0])
    lu = sla.lu_factor(M)
    v = best.copy()
    for _ in range(n_iter):
        w = np.where(in_sub, v * np.abs(v) ** (2 * (p_s - 1)), 0.0)
        nw = np.linalg.norm(w)
        if nw == 0:
            break
        v_new = sla.lu_solve(lu, hd * w / nw)
        if ratio(v_new) > ratio(v):
            v = v_new
        else:
            break
    sup = max(ratio(best), ratio(v))
    return {"ratio": sup, "p": p_s, "n_probes": len(probes),
            "n_points": int(outer.sum())}


def old_suffK1_check(V, ball, theta, gamma, alpha, grid=None, spacing=None,
                     threshold=float("inf"), max_points=1500):
    from jumplab.assumptions import AssumptionReport, _lattice, _lp_norm

    pts, h, volume = _lattice(ball, 2 * ball.r, grid, spacing, max_points=max_points)
    n = pts.shape[0]
    d = ball.d
    Vv = np.asarray(V(pts), dtype=float)
    diffs = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diffs ** 2, axis=-1))
    off = ~np.eye(n, dtype=bool)
    if not (alpha / 2 < gamma <= 1.0):
        raise ValueError("Hoelder branch needs gamma in (alpha/2, 1]")
    quot = np.zeros((n, n))
    quot[off] = np.abs(Vv[:, None] - Vv[None, :])[off] / dist[off] ** gamma
    seminorm = np.max(quot, axis=1)
    norm = _lp_norm(seminorm, 2 * theta, volume)
    const = {"holder_norm": norm, "seminorm_max": float(np.max(seminorm))}
    exps = {"theta": theta, "gamma": gamma}
    verdict = "pass" if norm <= threshold else "fail"
    if not np.isfinite(threshold):
        verdict = "finite" if np.isfinite(norm) else "divergent"
    return AssumptionReport("suffK1", const, exps,
                            {"n_points": n, "spacing": h,
                             "kappa": 1 + alpha / d}, verdict)
