"""Local-limit extraction: diffusion/drift coefficients, form and resolvent
convergence of the order-alpha families toward a second-order operator.

Families are normalized so the symmetric part carries the vanishing (2-alpha)
factor; the finite-alpha moment integrals then stay O(1) and their limits are
read off by Richardson extrapolation in (2 - alpha).

The resolvent comparison corrects the lattice collocation by the sub-cell
moments of the kernel: near alpha = 2 essentially all of the kernel's mass
sits below any fixed lattice spacing, so the plain lattice operator
degenerates while the corrected one stays consistent.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .discretize import DiscreteForm, Grid, _completed_form, assemble
from .kernels import (Kernel, c_alpha_norm, make_coefficient_kernel, make_drift_kernel,
                      make_stable_kernel)
from .quadrature import QuadSpec, ball_integral
from .solve import resolvent_solve


@dataclass
class AlphaFamily:
    """Map alpha -> kernel on a shared domain, with comparison constant Lam.

    Members must satisfy the two-sided bound
        Lam^{-1} (2-alpha) |x-y|^{-d-alpha} <= K_s <= Lam (2-alpha) |x-y|^{-d-alpha};
    the constructor spot-checks this on sample pairs for every requested alpha.
    """

    factory: object                  # callable alpha -> Kernel
    d: int
    alphas: tuple
    Lam: float = 4.0
    name: str = "family"
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.alphas = tuple(sorted(float(a) for a in self.alphas))
        rng = np.random.Generator(np.random.Philox(key=1234))
        x = rng.uniform(-0.5, 0.5, size=(64, self.d))
        y = rng.uniform(-0.5, 0.5, size=(64, self.d))
        keep = np.linalg.norm(x - y, axis=-1) > 1e-2
        x, y = x[keep], y[keep]
        for a in self.alphas:
            k = self.kernel(a)
            r = np.linalg.norm(x - y, axis=-1)
            ref = (2.0 - a) * r ** (-(self.d + a))
            ks = k.sym(x, y)
            if np.any(ks > self.Lam * ref * (1 + 1e-9)) or np.any(
                    ks < ref / self.Lam * (1 - 1e-9)):
                raise ValueError(
                    f"family member alpha={a} violates the (2-alpha) comparison "
                    f"bound with Lam={self.Lam}")

    def kernel(self, alpha: float) -> Kernel:
        if alpha not in self._cache:
            self._cache[alpha] = self.factory(alpha)
        return self._cache[alpha]


def make_isotropic_family(d: int, alphas, coeff: float = 1.0) -> AlphaFamily:
    """K^(a) = coeff * c_{d,a} |x-y|^{-d-a}; the c constant embeds (2-alpha)."""
    factory = lambda a: make_stable_kernel(d, a, coeff * c_alpha_norm(d, a))
    return AlphaFamily(factory, d, tuple(alphas), Lam=max(4.0, 4 * coeff),
                       name="isotropic")


def make_drift_family(d: int, alphas, V, L: float, lam: float = 1.0,
                      Lam: float = 1.0, v_holder: float = 1.0) -> AlphaFamily:
    factory = lambda a: make_drift_kernel(1.0, V, L, a, d, lam=lam, Lam=Lam,
                                          v_holder=v_holder)
    return AlphaFamily(factory, d, tuple(alphas), Lam=4.0 * Lam, name="drift")


def make_coefficient_family(d: int, alphas, g, lam: float, Lam: float,
                            g_smoothness: float = 1.0) -> AlphaFamily:
    def factory(a):
        base = make_stable_kernel(d, a, c_alpha_norm(d, a))
        return make_coefficient_kernel(g, a, lam, Lam, d, base=base,
                                       g_smoothness=g_smoothness)

    return AlphaFamily(factory, d, tuple(alphas), Lam=4.0 * Lam,
                       name="coefficient")


def _ball_moment(weight, kernel: Kernel, part: str, x: np.ndarray, center,
                 radius: float, quad: QuadSpec) -> np.ndarray:
    """int_{B_radius(center)} weight(x, y) K_part(x, y) dy for each x.

    The weights of this module vanish at y = x to second order against K_s
    and to first order against K_a, which sets the singular order of the
    analytic sub-cutoff remainder; panel edges sit on the kernel's jumps.
    """
    d = kernel.d
    K, order, degree = ((kernel.sym, kernel.sym_diag_order(), 2) if part == "sym"
                        else (kernel.anti, kernel.anti_diag_order(), 1))
    return ball_integral(lambda xb, y: weight(xb, y) * K(xb, y), x, center, radius,
                         d, quad, singular_order=max(d + order - degree, 0.0),
                         breaks=kernel.radial_breaks())


def _moments(kernel: Kernel, x: np.ndarray, radius: float,
             quad: QuadSpec) -> tuple[np.ndarray, np.ndarray]:
    """a_ij = int_{B_radius} h_i h_j K_s(x, x+h) dh (n, d, d) and
    b_i = int_{B_radius} (-h_i) K_a(x, x+h) dh (n, d) at the rows of x."""
    d = kernel.d
    a = np.empty((x.shape[0], d, d))
    b = np.empty((x.shape[0], d))
    for i in range(d):
        for j in range(i, d):
            a[:, i, j] = a[:, j, i] = _ball_moment(
                lambda xb, y, i=i, j=j: (y[..., i] - xb[..., i]) * (y[..., j] - xb[..., j]),
                kernel, "sym", x, None, radius, quad)
        b[:, i] = _ball_moment(lambda xb, y, i=i: xb[..., i] - y[..., i],
                               kernel, "anti", x, None, radius, quad)
    return a, b


def _extrapolate(eps: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear fit in eps = 2 - alpha over the (at most three) smallest eps, one
    per column of vals (n_eps, m); returns (intercepts, rms residuals)."""
    if len(eps) == 1:
        return vals[0], np.zeros(vals.shape[1])
    take = np.argsort(eps)[:3]
    coeff = np.polyfit(eps[take], vals[take], 1)
    fit = np.polyval(coeff, eps[take][:, None])
    return coeff[1], np.sqrt(np.mean((fit - vals[take]) ** 2, axis=0))


def local_coefficients(family: AlphaFamily, x, delta: float,
                       alphas=None, quad: QuadSpec | None = None,
                       verify_quadrature: bool = False) -> dict:
    """Finite-alpha moment matrices/vectors and their extrapolated limits.

    a_ij(x; alpha) = int_{B_delta} h_i h_j K_s(x, x+h) dh,
    b_i(x; alpha)  = int_{B_delta} (-h_i) K_a(x, x+h) dh,
    extrapolated linearly in (2 - alpha); the limit is checked for
    delta-independence at delta/2.  With verify_quadrature=True the
    sharpest-alpha moments are recomputed at a refined rule and a drift beyond
    1% raises with both levels reported.
    """
    alphas = tuple(alphas) if alphas is not None else family.alphas
    quad = quad or QuadSpec(n_ang=256, n_panels=48, growth_octaves=24)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, d, m = x.shape[0], family.d, len(alphas)
    eps = 2.0 - np.asarray(alphas)
    a_all, b_all = map(np.array, zip(*(_moments(family.kernel(a), x, delta, quad)
                                       for a in alphas)))
    out = {"alphas": list(alphas), "a": dict(zip(alphas, a_all)),
           "b": dict(zip(alphas, b_all))}
    if verify_quadrature:
        a_ref, _ = _moments(family.kernel(alphas[-1]), x, delta, quad.refined())
        scale = max(float(np.max(np.abs(a_ref))), 1e-300)
        drift = float(np.max(np.abs(a_ref - a_all[-1])) / scale)
        out["quadrature_drift"] = drift
        if drift > 0.01:
            raise RuntimeError(
                f"moment quadrature has not converged: levels differ by "
                f"{drift:.2%} (coarse {a_all[-1].tolist()}, "
                f"refined {a_ref.tolist()})")
    lim, resid = _extrapolate(eps, np.hstack([a_all.reshape(m, -1), b_all.reshape(m, -1)]))
    a_lim, b_lim = lim[:n * d * d], lim[n * d * d:]
    out["a_limit"] = a_lim.reshape(n, d, d)
    out["b_limit"] = b_lim.reshape(n, d)
    out["fit_residual"] = float(np.max(resid))
    # the extrapolated limit must not depend on the moment window
    if m > 1:
        a2 = np.array([_moments(family.kernel(a), x, delta / 2.0, quad)[0] for a in alphas])
        a_lim2, _ = _extrapolate(eps, a2.reshape(m, -1))
        scale = max(float(np.max(np.abs(a_lim))), 1e-300)
        out["delta_sensitivity"] = float(np.max(np.abs(a_lim2 - a_lim)) / scale)
    else:
        out["delta_sensitivity"] = float("nan")
    out["quad"] = quad.to_dict()
    return out


def _fd_gradient(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Central differences on the tensor lattice (one-sided at the box edge)."""
    n_axis = int(round(2 * grid.X / grid.h))
    shape = (n_axis,) * grid.d
    v = values.reshape(shape)
    out = np.empty(shape + (grid.d,))
    for k in range(grid.d):
        out[..., k] = np.gradient(v, grid.h, axis=k, edge_order=2)
    return out.reshape(-1, grid.d)


def form_convergence(family: AlphaFamily, u, v, grid: Grid,
                     ball_center, ball_radius: float, alphas=None,
                     quad: QuadSpec | None = None) -> dict:
    """Table of restricted form values against the extrapolated local target.

    The symmetric (difference-difference) and drift (difference-sum) parts are
    integrated separately per alpha by polar quadrature in the inner variable;
    the target is sum a_ij du dv + 2 sum b_i du v with lattice finite
    differences for the gradients.
    """
    alphas = tuple(alphas) if alphas is not None else family.alphas
    quad = quad or QuadSpec(n_ang=64, n_panels=32)
    z = np.asarray(ball_center, dtype=float)
    mask = grid.ball_mask(z, ball_radius)
    pts = grid.nodes[mask]
    hd = grid.cell_volume
    u_vals = u(grid.nodes) if callable(u) else np.asarray(u, dtype=float)
    v_vals = v(grid.nodes) if callable(v) else np.asarray(v, dtype=float)
    du = _fd_gradient(u_vals, grid)[mask]
    dv = _fd_gradient(v_vals, grid)[mask]

    rows = []
    for a in alphas:
        k = family.kernel(a)

        es = _ball_moment(lambda xb, y: (u(xb) - u(y)) * (v(xb) - v(y)),
                          k, "sym", pts, z, ball_radius, quad)
        ea = _ball_moment(lambda xb, y: (u(xb) - u(y)) * (v(xb) + v(y)),
                          k, "anti", pts, z, ball_radius, quad)
        rows.append({"alpha": a, "E_sym": float(np.sum(es) * hd),
                     "E_anti": float(np.sum(ea) * hd)})

    coeffs = local_coefficients(family, pts[:: max(1, len(pts) // 40)],
                                delta=min(0.5, ball_radius / 2), alphas=alphas)
    a_lim = np.mean(coeffs["a_limit"], axis=0)
    b_lim = np.mean(coeffs["b_limit"], axis=0)
    target_sym = float(np.einsum("ij,ni,nj->", a_lim, du, dv) * hd)
    target_anti = float(2.0 * np.einsum("i,ni,n->", b_lim, du,
                                        v_vals[mask]) * hd)
    gaps = [abs(r["E_sym"] - target_sym) + abs(r["E_anti"] - target_anti)
            for r in rows]
    return {"table": rows, "target_sym": target_sym, "target_anti": target_anti,
            "gaps": gaps, "monotone": all(np.diff(gaps) <= 1e-12)}


def garding_sector_check(form: DiscreteForm, lam_G: float, rng=None,
                         n_probe: int = 30) -> dict:
    """Coercivity margin and sector-condition fit on a probe set.

    Garding margin: min over probes of u'Au - u'A_s u / 2 + (lam_G - 1)|u|^2;
    sector: smallest (c1, c2) on a small grid with
    |u'A_a v|^2 <= u'A_s u (c1 v'A_s v + c2 |v|^2) over all probe pairs.
    """
    rng = rng or np.random.Generator(np.random.Philox(key=7))
    grid = form.grid
    I = grid.interior
    n = int(I.sum())
    A = form.A[np.ix_(I, I)]
    A_s = form.A_s[np.ix_(I, I)]
    A_a = form.A_a[np.ix_(I, I)]
    pts = grid.nodes[I]
    probes = [np.ones(n), pts[:, 0]]
    for _ in range(n_probe - 2):
        freq = rng.uniform(0.5, 5.0, size=(2, grid.d))
        phase = rng.uniform(0, 2 * np.pi, size=2)
        amp = rng.normal(size=2)
        probes.append(sum(a * np.cos(pts @ f + p)
                          for a, f, p in zip(amp, freq, phase)))
    margins = []
    lam_min_needed = 1.0
    for u in probes:
        qa = float(u @ A @ u)
        qs = float(u @ A_s @ u)
        nn = float(u @ u)
        margins.append(qa - 0.5 * qs + (lam_G - 1.0) * nn)
        lam_min_needed = max(lam_min_needed, 1.0 + (0.5 * qs - qa) / max(nn, 1e-300))
    num, den_s, den_n = [], [], []
    for i, u in enumerate(probes):
        for v in probes[i + 1:]:
            cross = float(u @ A_a @ v) ** 2
            qs_u = max(float(u @ A_s @ u), 1e-300)
            num.append(cross / qs_u)
            den_s.append(max(float(v @ A_s @ v), 0.0))
            den_n.append(float(v @ v))
    num = np.asarray(num)
    den_s = np.asarray(den_s)
    den_n = np.asarray(den_n)
    best = None
    for c1 in np.logspace(-3, 3, 25):
        need = np.max((num - c1 * den_s) / np.maximum(den_n, 1e-300))
        c2 = max(need, 0.0)
        cost = c1 + c2
        if best is None or cost < best[0]:
            best = (cost, float(c1), float(c2))
    _, c1, c2 = best
    sector_margin = float(np.min(c1 * den_s + c2 * den_n - num))
    return {"garding_margin": float(np.min(margins)),
            "lam_admissible": float(lam_min_needed),
            "sector_c1": c1, "sector_c2": c2,
            "sector_margin": sector_margin, "n_probes": len(probes)}


def _diffusion_diagonal(a: np.ndarray) -> np.ndarray:
    """The diagonal a_kk of diffusion matrices a (..., d, d).  The lattice
    stencils have no mixed second difference, so a mixed term a_ij (i != j)
    above 1e-10 max |a_kk| raises instead of being dropped."""
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    mixed = np.abs(a[..., ~np.eye(a.shape[-1], dtype=bool)])
    if mixed.size and np.max(mixed) > 1e-10 * np.max(np.abs(diag)):
        raise ValueError(f"mixed diffusion term |a_ij| = {np.max(mixed):.3e} (i != j) "
                         f"against max |a_kk| = {np.max(np.abs(diag)):.3e}: the lattice "
                         f"stencil carries only the diagonal of a")
    return diag


def _axis_stencil(grid: Grid, k: int):
    """Nodes with both lattice neighbours along axis k, and those neighbours."""
    n_axis = int(round(2 * grid.X / grid.h))
    idx = np.arange(grid.n_nodes).reshape((n_axis,) * grid.d)
    inner = np.ones(idx.shape, dtype=bool)
    edge = [slice(None)] * grid.d
    for end in (0, -1):
        edge[k] = end
        inner[tuple(edge)] = False
    return (idx[inner], np.roll(idx, -1, axis=k)[inner],
            np.roll(idx, 1, axis=k)[inner])


def assemble_corrected(kernel: Kernel, grid: Grid,
                       quad: QuadSpec | None = None) -> DiscreteForm:
    """Lattice assembly plus the sub-cell second-moment/drift correction.

    The correction adds C_kk(x) times the second-difference stencil and the
    sub-cell drift times the central first difference, restoring consistency
    of the collocated operator uniformly as alpha -> 2 at fixed h.  The
    stencil rows sum to zero, so only its off-diagonal entries are added (the
    symmetric part to A_s, the antisymmetric part to A_a) and the diagonal is
    completed again.
    """
    quad = quad or QuadSpec(n_ang=32, n_panels=24)
    form = assemble(kernel, grid, quad=quad)
    # sub-cell moments over the inscribed ball B_{h/2}(x_i): exactly the operator
    # mass the lattice sum cannot see
    a_cell, b_cell = _moments(kernel, grid.nodes, grid.h / 2.0, quad)
    C = _diffusion_diagonal(a_cell)
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
    return _completed_form(grid, S, W, form.tail_sym, form.tail_anti,
                           dict(form.meta, corrected=True), 1.0, 1.0)


def local_operator(a_mat: np.ndarray, b_vec: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order divergence-form collocation -d_k(a_kk d_k u) + 2 b . grad u
    with centered differences on the same grid (zero Dirichlet outside)."""
    N = grid.n_nodes
    h = grid.h
    A = np.zeros((N, N))
    a_field = np.broadcast_to(_diffusion_diagonal(a_mat), (N, grid.d))
    b_field = np.broadcast_to(b_vec, (N, grid.d))
    for k in range(grid.d):
        rows, plus, minus = _axis_stencil(grid, k)
        a_here = a_field[rows, k]
        a_plus = 0.5 * (a_here + a_field[plus, k])
        a_minus = 0.5 * (a_here + a_field[minus, k])
        A[rows, rows] += (a_plus + a_minus) / h ** 2
        A[rows, plus] += -a_plus / h ** 2 + 2.0 * b_field[rows, k] / (2 * h)
        A[rows, minus] += -a_minus / h ** 2 - 2.0 * b_field[rows, k] / (2 * h)
    return A


def resolvent_convergence(family: AlphaFamily, grid: Grid, f, lam: float,
                          alphas=None, coeffs: dict | None = None,
                          quad: QuadSpec | None = None) -> dict:
    """L2 gaps between the order-alpha resolvents and the local-limit resolvent.

    Solves (lam + A^(alpha)) u = f with the corrected nonlocal assembly and
    (lam + A_loc) u = f with the divergence-form comparison operator built
    from the extrapolated coefficients.
    """
    alphas = tuple(alphas) if alphas is not None else family.alphas
    f_vals = f(grid.nodes) if callable(f) else np.asarray(f, dtype=float)
    if coeffs is None:
        probe = grid.nodes[grid.interior][:: max(1, int(grid.interior.sum()) // 20)]
        coeffs = local_coefficients(family, probe, delta=0.5, alphas=alphas)
    a_lim = np.mean(coeffs["a_limit"], axis=0)
    b_lim = np.mean(coeffs["b_limit"], axis=0)
    A_loc = local_operator(a_lim, b_lim, grid)
    I = grid.interior
    M = lam * np.eye(int(I.sum())) + A_loc[np.ix_(I, I)]
    u_loc = np.zeros(grid.n_nodes)
    u_loc[I] = sla.solve(M, f_vals[I])
    rel = np.linalg.norm(f_vals[I] - M @ u_loc[I]) / max(np.linalg.norm(f_vals[I]), 1e-300)
    if not rel <= 1e-6:
        raise RuntimeError(f"local resolvent solve unstable (relative residual {rel:.3e})")
    hd = grid.cell_volume
    gaps = []
    for a in alphas:
        form = assemble_corrected(family.kernel(a), grid, quad=quad)
        u_a = resolvent_solve(form, lam, f_vals)
        gaps.append(float(np.sqrt(np.sum((u_a - u_loc) ** 2) * hd)))
    return {"alphas": list(alphas), "gaps": gaps,
            "u_loc_norm": float(np.sqrt(np.sum(u_loc ** 2) * hd)),
            "monotone": all(np.diff(gaps) <= 1e-12)}
