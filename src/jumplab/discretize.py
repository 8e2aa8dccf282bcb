"""Uniform grids and dense collocation of the nonlocal forms.

Assembly convention: for box nodes x_i with cell volume h^d,

    A[i][j] = -2 K(x_i, x_j) h^d            (j != i)
    A[i][i] =  2 sum_{j != i} K(x_i, x_j) h^d + T_i,

with T_i = 2 int_{R^d \\ box} K(x_i, y) dy, so that (A u)_i - T_i * u_ext
collocates the operator 2 pv int (u(x_i) - u(y)) K(x_i, y) dy for fields
extended by the constant u_ext beyond the box.  The self cell j = i is
excluded; its omitted principal-value contribution is O(h^{2-alpha}) on C^2
fields and is documented rather than corrected.

A form stores only the split and the tail weights T_s, T_a of K_s and K_a;
A = A_s + A_a, T = T_s + T_a and T-hat = T_s - T_a are derived, so the split
is exact bit for bit.  The drift intensity sits on the diagonal of A_s (a
diagonal shift preserves symmetry):

    A_a := pure off-diagonal coupling of K_a (zero diagonal),
    A_s := off-diagonal coupling of K_s, diagonal = full-K row completion.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .kernels import Kernel, TimeKernel, pair_values
from .quadrature import QuadSpec, exterior_tail, ray_exit_box

NODE_CAP = 4096


@dataclass(frozen=True)
class Grid:
    """Cell-centered tensor lattice on [-X, X]^d with interior/collar masks."""

    d: int
    X: float
    h: float
    nodes: np.ndarray          # (N, d)
    interior: np.ndarray       # bool (N,)
    omega: dict = field(default_factory=dict)

    @property
    def collar(self) -> np.ndarray:
        return ~self.interior

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def cell_volume(self) -> float:
        return self.h ** self.d

    def ball_mask(self, center, radius: float) -> np.ndarray:
        c = np.asarray(center, dtype=float)
        return np.sqrt(np.sum((self.nodes - c) ** 2, axis=-1)) < radius

    def radii(self, center) -> np.ndarray:
        c = np.asarray(center, dtype=float)
        return np.sqrt(np.sum((self.nodes - c) ** 2, axis=-1))


def build_grid(d: int, X: float, h: float, omega: dict | None = None,
               node_cap: int = NODE_CAP) -> Grid:
    """Cell-centered grid; omega is {"type": "box", "halfwidth": w} or
    {"type": "ball", "radius": r} (optionally with "center")."""
    if d not in (1, 2):
        raise ValueError("only d in {1, 2} is supported")
    n_axis = 2.0 * X / h
    if abs(n_axis - round(n_axis)) > 1e-9 * max(1.0, n_axis):
        raise ValueError(f"h={h} does not divide the box width 2X={2 * X}")
    n_axis = int(round(n_axis))
    if n_axis ** d > node_cap:
        raise ValueError(f"node count {n_axis ** d} exceeds the dense cap {node_cap}")
    axis = -X + (np.arange(n_axis) + 0.5) * h
    if d == 1:
        nodes = axis[:, None]
    else:
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        nodes = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    omega = dict(omega) if omega else {"type": "box", "halfwidth": X - h}
    center = np.asarray(omega.get("center", [0.0] * d), dtype=float)
    if omega["type"] == "box":
        w = float(omega["halfwidth"])
        if w > X - h + 1e-12:
            raise ValueError("domain leaves no collar inside the box")
        interior = np.all(np.abs(nodes - center) < w, axis=-1)
    elif omega["type"] == "ball":
        r = float(omega["radius"])
        if r > X - h + 1e-12:
            raise ValueError("domain leaves no collar inside the box")
        interior = np.sqrt(np.sum((nodes - center) ** 2, axis=-1)) < r
    else:
        raise ValueError(f"unknown domain type {omega['type']!r}")
    return Grid(d, float(X), float(h), nodes, interior, omega)


@dataclass
class DiscreteForm:
    """Dense collocation matrices of a kernel on a grid, plus tail weights.

    A = A_s + A_a is computed on first use and kept.  tail / tail_dual are
    the exterior weights of K(x_i, .) and K(., x_i); drift_load = A^T 1 -
    tail_dual is the exact constant-drift load used by the extended dual
    equation (zero for symmetric kernels).
    """

    grid: Grid
    A_s: np.ndarray
    A_a: np.ndarray
    tail_sym: np.ndarray
    tail_anti: np.ndarray
    meta: dict = field(default_factory=dict)

    @cached_property
    def A(self) -> np.ndarray:
        return self.A_s + self.A_a

    @property
    def tail(self) -> np.ndarray:
        return self.tail_sym + self.tail_anti

    @property
    def tail_dual(self) -> np.ndarray:
        return self.tail_sym - self.tail_anti

    @property
    def drift_load(self) -> np.ndarray:
        return self.A.T @ np.ones(self.grid.n_nodes) - self.tail_dual

    def _pair_matrix(self, coupling: np.ndarray) -> np.ndarray:
        M = (-0.5 / self.grid.cell_volume) * coupling
        np.fill_diagonal(M, 0.0)
        return M

    def ks_matrix(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Pairwise K_s(x_i, x_j) values (zero diagonal); with a node mask m
        only the (m, m) block, without building the N x N matrix."""
        return self._pair_matrix(self.A_s if mask is None else self.A_s[np.ix_(mask, mask)])

    def ka_matrix(self) -> np.ndarray:
        return self._pair_matrix(self.A_a)

    def k_matrix(self) -> np.ndarray:
        return self.ks_matrix() + self.ka_matrix()


def _completed_form(grid: Grid, S: np.ndarray, W: np.ndarray, T_s, T_a,
                    meta: dict, scale_s: float, scale_a: float) -> DiscreteForm:
    """Form from zero-diagonal pair matrices S, W, built in place: A_s is
    scale_s * sym(S) with the row completion A 1 = T_s + T_a on its diagonal,
    A_a is scale_a * anti(W)."""
    S += S.T
    S *= 0.5
    W -= W.T
    W *= 0.5
    row_s = -scale_s * np.sum(S, axis=1)
    row_a = -scale_a * np.sum(W, axis=1)
    S *= scale_s
    W *= scale_a
    np.fill_diagonal(S, row_s + T_s + row_a + T_a)
    return DiscreteForm(grid, S, W, T_s, T_a, meta)


def assemble(kernel: Kernel, grid: Grid, quad: QuadSpec | None = None,
             chunk: int = 256) -> DiscreteForm:
    if kernel.d != grid.d:
        raise ValueError("kernel/grid dimension mismatch")
    quad = quad or QuadSpec()
    P = grid.nodes
    try:
        Ks, Ka = pair_values(P, kernel.sym, kernel.anti, chunk=chunk)
    except ValueError as exc:
        raise RuntimeError(f"kernel evaluation failed on node pairs: {exc}")
    exit_fn = lambda x, dirs: ray_exit_box(x, dirs, grid.X)
    T_s = _tail_vector(kernel, "sym", P, exit_fn, grid.d, quad)
    T_a = _tail_vector(kernel, "anti", P, exit_fn, grid.d, quad)
    meta = {"kernel": kernel.spec.to_config(), "kernel_hash": kernel.spec.digest(),
            "h": grid.h, "X": grid.X, "quad": quad.to_dict()}
    scale = -2.0 * grid.cell_volume
    return _completed_form(grid, Ks, Ka, T_s, T_a, meta, scale, scale)


def _tail_vector(kernel: Kernel, part: str, points, exit_fn, d, quad,
                 block: int = 128) -> np.ndarray:
    pieces = kernel.radial_pieces(part)
    out = np.zeros(points.shape[0])
    for lo in range(0, points.shape[0], block):
        hi = min(lo + block, points.shape[0])
        out[lo:hi] = 2.0 * exterior_tail(pieces, points[lo:hi], exit_fn, d, quad)
    return out


def transpose_form(form: DiscreteForm) -> DiscreteForm:
    """Dual form: same symmetric part, negated drift coupling and drift tail
    (the weights of the reversed-argument kernel)."""
    meta = dict(form.meta)
    meta["dual_of"] = meta.get("kernel_hash")
    return DiscreteForm(form.grid, form.A_s, -form.A_a, form.tail_sym,
                        -form.tail_anti, meta)


def assemble_time(time_kernel: TimeKernel, grid: Grid, t: float,
                  quad: QuadSpec | None = None,
                  _cache: dict | None = None) -> DiscreteForm:
    """Per-time-slice assembly; separable modulations rescale the base split."""
    if time_kernel.separable:
        cache = _cache if _cache is not None else {}
        if "base" not in cache:
            cache["base"] = assemble(time_kernel.base, grid, quad=quad)
        base = cache["base"]
        a = float(time_kernel.a(t))
        s = float(time_kernel.ka_scale(t))
        S = base.A_s.copy()
        np.fill_diagonal(S, 0.0)
        meta = dict(base.meta)
        meta["t"] = t
        return _completed_form(grid, S, base.A_a.copy(), a * base.tail_sym,
                               s * base.tail_anti, meta, a, s)
    frozen = time_kernel.at(t)
    form = assemble(frozen, grid, quad=quad)
    form.meta["t"] = t
    return form


@dataclass(frozen=True)
class CutoffProfile:
    """Piecewise-linear radial cutoff: 1 on B_r(z), 0 outside B_{r+rho}(z)."""

    center: tuple
    r: float
    rho: float

    def __post_init__(self):
        if self.r <= 0 or self.rho <= 0:
            raise ValueError("need r > 0 and rho > 0")
        object.__setattr__(self, "center", tuple(np.asarray(self.center, dtype=float)))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        dist = np.sqrt(np.sum((x - np.asarray(self.center)) ** 2, axis=-1))
        return np.clip((self.r + self.rho - dist) / self.rho, 0.0, 1.0)

    def values_on(self, grid: Grid) -> np.ndarray:
        return self(grid.nodes)


def pair_mask_ball(grid: Grid, center, radius: float) -> np.ndarray:
    m = grid.ball_mask(center, radius)
    return m[:, None] & m[None, :]


def pair_mask_level(f_values: np.ndarray) -> np.ndarray:
    """{(i, j) : f(x_j) > f(x_i)} as a dense boolean matrix."""
    f = np.asarray(f_values)
    return f[None, :] > f[:, None]


def form_value(form: DiscreteForm, mask: np.ndarray | None, u, v,
               part: str = "full", weight: str = "onesided") -> float:
    """Restricted-form sums over node pairs.

    weight="onesided":   sum (u_i - u_j) v_i       K_ij h^{2d}
    weight="difference": sum (u_i - u_j)(v_i - v_j) K_ij h^{2d}
    weight="sum":        sum (u_i - u_j)(v_i + v_j) K_ij h^{2d}

    ``mask`` is a dense boolean pair matrix (None = all off-diagonal pairs);
    ``part`` selects the kernel matrix: full, sym or anti.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    K = {"full": form.k_matrix, "sym": form.ks_matrix, "anti": form.ka_matrix}[part]()
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
    elif weight == "sum":
        Kv = K @ v
        Kuv = K @ (u * v)
        val = np.sum(u * v * row - v * Ku + u * Kv - Kuv)
    else:
        raise ValueError(f"unknown weight {weight!r}")
    return float(h2d * val)


def carre_du_champ(form: DiscreteForm, tau: CutoffProfile) -> dict:
    """Gradient surrogate Gamma(tau,tau)(x_i) = int (tau(x_i)-tau(y))^2 K_s dy.

    Box pairs are summed on the lattice; beyond the box tau vanishes, so the
    exterior contributes tau_i^2 times the symmetric tail.  Reports the sup
    over the support annulus against the rho^{-alpha} reference scaling.
    """
    grid = form.grid
    tv = tau.values_on(grid)
    Ks = form.ks_matrix()
    diffs = tv[:, None] - tv[None, :]
    gamma = np.sum(diffs * diffs * Ks, axis=1) * grid.cell_volume
    gamma = gamma + tv * tv * 0.5 * form.tail_sym
    support = grid.ball_mask(tau.center, tau.r + tau.rho)
    sup = float(np.max(gamma[support])) if np.any(support) else 0.0
    alpha = form.meta.get("kernel", {}).get("alpha", 1.0)
    return {"gamma": gamma, "sup": sup, "rho": tau.rho,
            "c_fit": sup * tau.rho ** alpha}


def layer_cake_weighted_form(form: DiscreteForm, tau: CutoffProfile, u,
                             part: str = "full") -> dict:
    """Min-weighted energy sum and its layer-cake recomputation (two paths).

    value = sum (u_i-u_j)^2 min(tau_i^2, tau_j^2) K_ij h^{2d}; the identity
    rewrites min(tau_i^2, tau_j^2) = int 1{tau_i^2 >= v} 1{tau_j^2 >= v} dv and
    is exact on the lattice (finitely many levels), which the return value
    reports for cross-checking.
    """
    grid = form.grid
    tv = tau.values_on(grid)
    _check_radial_decreasing(grid, tau, tv)
    K = {"full": form.k_matrix, "sym": form.ks_matrix, "anti": form.ka_matrix}[part]()
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


def _check_radial_decreasing(grid: Grid, tau: CutoffProfile, values: np.ndarray):
    r = grid.radii(tau.center)
    order = np.argsort(r)
    v = values[order]
    if np.any(np.diff(v) > 1e-12):
        # equal radii may permute; verify monotonicity radius-blockwise
        rv = r[order]
        for i in range(1, len(v)):
            if rv[i] > rv[i - 1] + 1e-12 and v[i] > np.min(v[:i]) + 1e-12:
                raise ValueError("cutoff weight is not radially decreasing")
