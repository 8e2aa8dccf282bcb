"""Local-limit extraction: diffusion/drift coefficients and resolvent
convergence of the order-alpha families toward a second-order operator.

Families are normalized so the symmetric part carries the vanishing (2-alpha)
factor; the finite-alpha moment integrals then stay O(1) and their limits are
read off by Richardson extrapolation in (2 - alpha).

The resolvent comparison corrects the lattice collocation by the sub-cell
moments of the kernel: near alpha = 2 essentially all of the kernel's mass
sits below any fixed lattice spacing, so the plain lattice operator
degenerates while the corrected one stays consistent.  The limit is a
``DiscreteForm`` too (``local_form``): ``resolvent_solve`` solves every resolvent.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._lazy import lazy_module
from .discretize import DiscreteForm, Grid, _completed_form, assemble
from .kernels import (Kernel, c_alpha_norm, make_coefficient_kernel, make_drift_kernel,
                      make_stable_kernel)
from .quadrature import QuadSpec, ball_integral
from .solve import resolvent_solve

lapack = lazy_module("jumplab._lapack")


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


def make_isotropic_family(d: int, alphas) -> AlphaFamily:
    """K^(a) = c_{d,a} |x-y|^{-d-a}; the c constant embeds (2-alpha)."""
    factory = lambda a: make_stable_kernel(d, a, c_alpha_norm(d, a))
    return AlphaFamily(factory, d, tuple(alphas))


def make_drift_family(d: int, alphas, V, L: float) -> AlphaFamily:
    """Drift kernels with j = 1 and lam = Lam = 1."""
    factory = lambda a: make_drift_kernel(1.0, V, L, a, d)
    return AlphaFamily(factory, d, tuple(alphas))


def make_coefficient_family(d: int, alphas, g, lam: float, Lam: float) -> AlphaFamily:
    """Coefficient kernels over the normalized stable kernel."""
    def factory(a):
        base = make_stable_kernel(d, a, c_alpha_norm(d, a))
        return make_coefficient_kernel(g, a, lam, Lam, d, base=base)

    return AlphaFamily(factory, d, tuple(alphas), Lam=4.0 * Lam)


def _ball_moment(weight, kernel: Kernel, part: str, order: float, x: np.ndarray,
                 radius: float, quad: QuadSpec) -> np.ndarray:
    """int_{B_radius(x)} weight(x, y) K_part(x, y) dy for each x, with order
    the diagonal order of K_part.

    The weights of this module vanish at y = x to second order against K_s
    and to first order against K_a, which sets the singular order of the
    analytic sub-cutoff remainder; panel edges sit on the kernel's jumps.
    """
    d = kernel.d
    K, degree = (kernel.sym, 2) if part == "sym" else (kernel.anti, 1)
    return ball_integral(lambda xb, y: weight(xb, y) * K(xb, y), x, None, radius,
                         d, quad, singular_order=max(d + order - degree, 0.0),
                         breaks=kernel.radial_breaks())


def _moments(kernel: Kernel, x: np.ndarray, radius: float,
             quad: QuadSpec) -> tuple[np.ndarray, np.ndarray]:
    """a_ij = int_{B_radius} h_i h_j K_s(x, x+h) dh (n, d, d) and
    b_i = int_{B_radius} (-h_i) K_a(x, x+h) dh (n, d) at the rows of x, with
    the kernel's diagonal orders measured at x."""
    d = kernel.d
    order_s, order_a = kernel.diag_orders(x)
    a = np.empty((x.shape[0], d, d))
    b = np.empty((x.shape[0], d))
    for i in range(d):
        for j in range(i, d):
            a[:, i, j] = a[:, j, i] = _ball_moment(
                lambda xb, y, i=i, j=j: (y[..., i] - xb[..., i]) * (y[..., j] - xb[..., j]),
                kernel, "sym", order_s, x, radius, quad)
        b[:, i] = _ball_moment(lambda xb, y, i=i: xb[..., i] - y[..., i],
                               kernel, "anti", order_a, x, radius, quad)
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
                       verify_quadrature: bool = False) -> dict:
    """Moment matrices/vectors at each alpha of the family and their
    extrapolated limits.

    a_ij(x; alpha) = int_{B_delta} h_i h_j K_s(x, x+h) dh,
    b_i(x; alpha)  = int_{B_delta} (-h_i) K_a(x, x+h) dh,
    extrapolated linearly in (2 - alpha); the limit is checked for
    delta-independence at delta/2.  With verify_quadrature=True the
    sharpest-alpha moments are recomputed at a refined rule and a drift beyond
    1% raises with both levels reported.
    """
    alphas = family.alphas
    quad = QuadSpec(n_ang=256, n_panels=48)
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


def garding_sector_check(form: DiscreteForm, lam_G: float) -> dict:
    """Exact Garding and sector constants of the interior blocks S = A_s,II
    and W = A_a,II (form.A is not read, so no N x N sum is built).

    Since u'Wu = 0, the Garding margin u'Au - u'A_s u / 2 + (lam_G - 1)|u|^2
    equals u'Su / 2 + (lam_G - 1)|u|^2, whose minimum per unit |u|^2 is
    lambda_min(S) / 2 + lam_G - 1; lam_admissible = max(1, 1 - lambda_min / 2)
    is the least lam_G >= 1 at which it is nonnegative.  The sector constant at
    c2 = 0, the least c1 with |u'Wv|^2 <= c1 (u'Su)(v'Sv) for all u, v, is
    ||L^{-1} W L^{-T}||_2^2 with S = L L^T, read as the top eigenvalue of
    B'B for B = L^{-1} W L^{-T}; it is inf when lambda_min(S) <= 0.
    """
    I = form.grid.interior
    S = form.A_s[np.ix_(I, I)]
    lam_min = float(np.linalg.eigvalsh(S)[0])
    c1 = np.inf
    if lam_min > 0:
        L = lapack.cholesky(S)
        LW = lapack.solve_lower(L, form.A_a[np.ix_(I, I)])
        B = lapack.solve_lower(L, LW.T).T
        c1 = float(np.linalg.eigvalsh(B.T @ B)[-1])
    return {"lambda_min": lam_min, "garding_margin": 0.5 * lam_min + lam_G - 1.0,
            "lam_admissible": max(1.0, 1.0 - 0.5 * lam_min), "sector_c1": c1}


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


def assemble_corrected(kernel: Kernel, grid: Grid) -> DiscreteForm:
    """Lattice assembly plus the sub-cell second-moment/drift correction.

    The correction adds C_kk(x) times the second-difference stencil and the
    sub-cell drift times the central first difference, restoring consistency
    of the collocated operator uniformly as alpha -> 2 at fixed h.  The
    stencil rows sum to zero, so only its off-diagonal entries are added (the
    symmetric part to A_s, the antisymmetric part to A_a) and the diagonal is
    completed again.
    """
    quad = QuadSpec(n_ang=32, n_panels=24)
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
                           dict(form.meta, corrected=True), 1.0)


def local_form(a, b, grid: Grid) -> DiscreteForm:
    """-d_k(a_kk d_k u) + 2 b . grad u as a form on the grid, zero outside:
    a is (d, d) or (N, d, d), b is (d,) or (N, d).  Each pair of lattice
    neighbours i, i + e_k couples both ways at the face values of a_kk and
    b_k: -a_f / h^2 in A_s and +-b_f / h in A_a.  As in ``assemble``, A_s's
    diagonal holds the drift's row sums (zero for a constant b) besides the
    diffusion.  The tails are zero; meta records the order alpha = 2."""
    N, h, d = grid.n_nodes, grid.h, grid.d
    a_field = np.broadcast_to(_diffusion_diagonal(np.asarray(a, dtype=float)), (N, d))
    b_field = np.broadcast_to(b, (N, d))
    S, W, diag = np.zeros((N, N)), np.zeros((N, N)), np.zeros(N)
    idx = np.arange(N).reshape((round(2 * grid.X / h),) * d)
    for k in range(d):
        lo, hi = np.delete(idx, -1, axis=k).ravel(), np.delete(idx, 0, axis=k).ravel()
        a_f = 0.5 * (a_field[lo, k] + a_field[hi, k])
        b_f = 0.5 * (b_field[lo, k] + b_field[hi, k]) / h
        S[lo, hi] = S[hi, lo] = -a_f / h ** 2
        W[lo, hi], W[hi, lo] = b_f, -b_f
        plus, minus = np.zeros((2, 2, N))   # (a_f, b_f) of each node's faces, 0 at the box edge
        plus[:, lo] = minus[:, hi] = a_f, b_f
        diag += (plus[0] + minus[0]) / h ** 2 - (plus[1] - minus[1])
    np.fill_diagonal(S, diag)
    return DiscreteForm(grid, S, W, np.zeros(N), np.zeros(N), {"kernel": {"alpha": 2.0}})


def resolvent_convergence(family: AlphaFamily, grid: Grid, f, lam: float,
                          coeffs: dict | None = None) -> dict:
    """L2 gaps between the order-alpha resolvents and the local-limit resolvent.

    Solves (lam + A^(alpha)) u = f with the corrected nonlocal assembly and
    (lam + A_loc) u = f with the ``local_form`` of the extrapolated
    coefficients, averaged over the probes, each by ``resolvent_solve``.
    """
    f_vals = f(grid.nodes) if callable(f) else np.asarray(f, dtype=float)
    if coeffs is None:
        probe = grid.nodes[grid.interior][:: max(1, int(grid.interior.sum()) // 20)]
        coeffs = local_coefficients(family, probe, delta=0.5)
    u_loc = resolvent_solve(local_form(np.mean(coeffs["a_limit"], axis=0),
                                       np.mean(coeffs["b_limit"], axis=0), grid), lam, f_vals)
    norm = lambda u: float(np.sqrt(np.sum(u ** 2) * grid.cell_volume))
    gaps = [norm(resolvent_solve(assemble_corrected(family.kernel(a), grid), lam, f_vals) - u_loc)
            for a in family.alphas]
    return {"alphas": list(family.alphas), "gaps": gaps, "u_loc_norm": norm(u_loc),
            "monotone": all(np.diff(gaps) <= 1e-12)}
