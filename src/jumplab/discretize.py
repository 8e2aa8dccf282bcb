"""Uniform grids and dense collocation of the nonlocal forms.

Assembly convention: for box nodes x_i with cell volume h^d,

    A[i][j] = -2 K(x_i, x_j) h^d            (j != i)
    A[i][i] =  2 sum_{j != i} K(x_i, x_j) h^d + T_i,

with T_i = 2 int_{R^d \\ box} K(x_i, y) dy, so that (A u)_i - T_i * u_ext
collocates the operator 2 pv int (u(x_i) - u(y)) K(x_i, y) dy for fields
extended by the constant u_ext beyond the box.  The self cell j = i is
excluded; its omitted principal-value contribution is O(h^{2-alpha}) on C^2
fields and is documented rather than corrected.

Power-law kernels.  A kernel with a ray profile (``Kernel.ray_profile``: the
stable and cone families and their duals) is translation
invariant and equals c(e) s^{-d-gamma(e)} along every ray x + s e.  Assembly
uses both facts:

- pairs: K_s and K_a run once per node offset on the (2n-1)^d difference
  stencil, which is symmetrised there (offset k against -k), and the N x N
  pair arrays are filled as (block-)Toeplitz copies of it.  This path is
  taken only when along every axis the node difference a_j - a_i depends on
  j - i alone, bit for bit (a dyadic h such as 1/32 on X = 1); the arrays
  are then those of ``pair_values`` symmetrised on all pairs, bit for bit.
  Any other grid (h = 4/48 on X = 2, say) and any other kernel runs
  ``pair_values`` on all node pairs and symmetrises the N x N arrays;
- tails: T_i = 2 sum_e w_e c(e) s0(x_i, e)^{-gamma(e)} / gamma(e), on the
  directions, weights and box exit radii s0 of the ray rule, whose radial
  quadrature it replaces.  Kernels without a profile keep the ray rule
  (``quadrature.exterior_tail``).

Each pair array goes through memory once after it is written: one row
block of about 1 MB at a time is filled (on the stencil path), row-summed
for the diagonal completion and scaled by -2 h^d while it sits in cache
(``_sum_and_scale``); the other paths run the same loop on their filled
arrays.  The row sums are those of the whole array, bit for bit.

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
from itertools import zip_longest

import numpy as np

from .kernels import Kernel, pair_values
from .quadrature import QuadSpec, directions, exterior_tail, ray_exit_box

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
        return self.radii(center) < radius

    def radii(self, center) -> np.ndarray:
        c = np.asarray(center, dtype=float)
        if c.shape != (self.d,):     # it would broadcast against the nodes
            raise ValueError(f"center {center!r} needs d = {self.d} entries")
        return np.sqrt(np.sum((self.nodes - c) ** 2, axis=-1))


def build_grid(d: int, X: float, h: float, omega: dict | None = None) -> Grid:
    """Cell-centered grid; omega is {"type": "box", "halfwidth": w} or
    {"type": "ball", "radius": r} (optionally with "center")."""
    if d not in (1, 2):
        raise ValueError("only d in {1, 2} is supported")
    n_axis = 2.0 * X / h
    if abs(n_axis - round(n_axis)) > 1e-9 * max(1.0, n_axis):
        raise ValueError(f"h={h} does not divide the box width 2X={2 * X}")
    n_axis = int(round(n_axis))
    if n_axis ** d > NODE_CAP:
        raise ValueError(f"node count {n_axis ** d} exceeds the dense cap {NODE_CAP}")
    axis = -X + (np.arange(n_axis) + 0.5) * h
    if d == 1:
        nodes = axis[:, None]
    else:
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        nodes = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    omega = dict(omega) if omega else {"type": "box", "halfwidth": X - h}
    center = np.asarray(omega.get("center", [0.0] * d), dtype=float)
    if center.shape != (d,):         # it would broadcast against the nodes
        raise ValueError(f"domain center {omega['center']!r} needs d = {d} entries")
    if omega["type"] == "box":
        w = float(omega["halfwidth"])
        interior = np.all(np.abs(nodes - center) < w, axis=-1)
    elif omega["type"] == "ball":
        w = float(omega["radius"])
        interior = np.sqrt(np.sum((nodes - center) ** 2, axis=-1)) < w
    else:
        raise ValueError(f"unknown domain type {omega['type']!r}")
    # the domain's bounding box, centre included, keeps one cell from the box's edge
    if np.any(np.abs(center) + w > X - h + 1e-12):
        raise ValueError("domain leaves no collar inside the box")
    if not interior.any():
        raise ValueError(f"domain {omega} holds no grid node at h={h}")
    return Grid(d, float(X), float(h), nodes, interior, omega)


def _ball_leaves(omega: dict, center, r: float) -> tuple[bool, float, str]:
    """Whether B_r(center) leaves the domain omega of ``build_grid``: the
    centre's offset from omega's centre, in the max-norm of a box or the
    Euclidean norm of a ball, plus r, against omega's halfwidth or radius
    (to 1e-12).  Returns (leaves, that reach, the size key)."""
    off = np.subtract(center, omega.get("center", [0.0] * len(center)))
    box = omega["type"] == "box"
    size = "halfwidth" if box else "radius"
    reach = float(np.max(np.abs(off)) if box else np.linalg.norm(off)) + r
    return reach > float(omega[size]) + 1e-12, reach, size


@dataclass
class DiscreteForm:
    """Dense collocation matrices of a kernel on a grid, plus tail weights.

    A = A_s + A_a is computed on first use and kept.  tail / tail_dual are
    the exterior weights of K(x_i, .) and K(., x_i); drift_load = A^T 1 -
    tail_dual is the exact constant-drift load used by the extended dual
    equation (zero for symmetric kernels).  ``_systems`` holds the interior
    systems that ``jumplab.solve`` builds on the form, one per operator: "A"
    (primal) and "A^T" (dual and dual_ext); a new form, ``dataclasses.replace``
    of one too, starts without them.
    """

    grid: Grid
    A_s: np.ndarray
    A_a: np.ndarray
    tail_sym: np.ndarray
    tail_anti: np.ndarray
    meta: dict = field(default_factory=dict)
    _systems: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def _pair_matrix(self, coupling: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
        """Pair values of a coupling (zero diagonal); with a node mask m only
        the (m, m) block, without building the N x N matrix."""
        block = coupling if mask is None else coupling[np.ix_(mask, mask)]
        M = (-0.5 / self.grid.cell_volume) * block
        np.fill_diagonal(M, 0.0)
        return M

    def ks_matrix(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Pairwise K_s(x_i, x_j) values (zero diagonal)."""
        return self._pair_matrix(self.A_s, mask)

    def ka_matrix(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Pairwise K_a(x_i, x_j) values (zero diagonal)."""
        return self._pair_matrix(self.A_a, mask)

    def k_matrix(self, mask: np.ndarray | None = None) -> np.ndarray:
        return self.ks_matrix(mask) + self.ka_matrix(mask)

    def part_matrix(self, part: str, mask: np.ndarray | None = None) -> np.ndarray:
        """``k_matrix``, ``ks_matrix`` or ``ka_matrix`` for part full, sym, anti."""
        return {"full": self.k_matrix, "sym": self.ks_matrix, "anti": self.ka_matrix}[part](mask)


def kernel_alpha(form: DiscreteForm) -> float:
    """The kernel order alpha that assembly records in form.meta; the audits
    scale with it, so a form without it is refused rather than read as 1."""
    try:
        return form.meta["kernel"]["alpha"]
    except KeyError:
        raise ValueError("the audit needs the kernel order in "
                         "form.meta['kernel']['alpha']") from None


_TILE = 256   # tile edge of the in-place symmetrisation, row block of form_value
_BLOCK_BYTES = 1_000_000   # row block of the one-pass fill, row sum and scale; a 2 MB
                           # block measured slower where L2 is 2 MB a core


def _symmetrise(M: np.ndarray, op) -> None:
    """M := op(M, M.T) / 2 in place, one pair of 256 x 256 tiles at a time
    (``M += M.T`` would copy all of M first).  Each tile is computed from the
    old values with the same operation in the same order, so the result is
    that of ``M = op(M, M.T) * 0.5`` bit for bit, signed zeros included."""
    n = M.shape[0]
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            a, c = M[i:i + _TILE, j:j + _TILE], M[j:j + _TILE, i:i + _TILE]
            s, t = op(a, c.T), op(c, a.T)
            s *= 0.5
            t *= 0.5
            a[...] = s
            c[...] = t


def _row_blocks(n_rows: int, row_bytes: int, unit: int) -> list[slice]:
    """Row slices of about _BLOCK_BYTES: whole groups of ``unit`` rows, or
    equal parts of one group when a group is larger."""
    per = max(1, _BLOCK_BYTES // row_bytes)
    if per >= unit:
        step = per - per % unit
        return [slice(lo, lo + step) for lo in range(0, n_rows, step)]
    parts = -(-unit // per)
    step = -(-unit // parts)
    return [slice(g + a, g + min(a + step, unit))
            for g in range(0, n_rows, unit) for a in range(0, unit, step)]


def _sum_and_scale(M: np.ndarray, scale: float, fill=None, unit: int = 1) -> np.ndarray:
    """The row sums of M, then M *= scale, in one pass over memory: one row
    block of about _BLOCK_BYTES (``_row_blocks``) at a time, first written by
    ``fill(rows)`` when given, then summed and scaled while it sits in cache.
    The sums are those of ``np.sum(M, axis=1)`` bit for bit: each is taken
    over the same contiguous row."""
    sums = np.empty(M.shape[0])
    for rows in _row_blocks(M.shape[0], M[0].nbytes, unit):
        if fill is not None:
            fill(rows)
        block = M[rows]
        np.sum(block, axis=1, out=sums[rows])
        block *= scale
    return sums


def _completed_form(grid: Grid, S: np.ndarray, W: np.ndarray, T_s, T_a,
                    meta: dict, scale: float, *, row_sums=None) -> DiscreteForm:
    """Form from zero-diagonal pair matrices S, W, built in place: A_s is
    scale * sym(S) with the row completion A 1 = T_s + T_a on its diagonal,
    A_a is scale * anti(W).  Each array is symmetrised, then row-summed and
    scaled per row block (``_sum_and_scale``).  With ``row_sums`` S and W
    already are scale * sym(S) and scale * anti(W), with these unscaled row
    sums (``assemble`` fills, sums and scales each row block as it goes), and
    only the diagonal is written."""
    if row_sums is None:
        _symmetrise(S, np.add)
        _symmetrise(W, np.subtract)
        row_sums = [_sum_and_scale(M, scale) for M in (S, W)]
    sum_s, sum_a = row_sums
    np.fill_diagonal(S, -scale * sum_s + T_s + -scale * sum_a + T_a)
    return DiscreteForm(grid, S, W, T_s, T_a, meta)


def _toeplitz_axes(grid: Grid) -> list[np.ndarray] | None:
    """The per-axis node coordinates when the nodes are their tensor lattice
    and every difference a[j] - a[i] along an axis depends on j - i alone,
    bit for bit; None otherwise.

    Checked with one comparison per axis: the difference table
    D[i, j] = a[j] - a[i] must equal itself shifted by one along its
    diagonal.  By induction that is a[i + m] - a[i] == a[m] - a[0] for all
    i and m; the lower triangle is the exact negation of the upper one, and
    a nan (or an infinity, whose D[i, i] is nan) fails.  D has n^2 entries
    per axis, fewer than one of the N x N pair arrays that follow."""
    P, d = grid.nodes, grid.d
    n = round(P.shape[0] ** (1.0 / d))
    if n ** d != P.shape[0]:
        return None
    lattice = P.reshape((n,) * d + (d,))
    axes = [lattice[(0,) * k + (slice(None),) + (0,) * (d - 1 - k) + (k,)] for k in range(d)]
    if not np.array_equal(lattice, np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)):
        return None
    for a in axes:
        D = a[None, :] - a[:, None]
        if not np.array_equal(D[1:, 1:], D[:-1, :-1]):
            return None
    return axes


def _stencil_pair_values(axes: list[np.ndarray], *fns, ops=(),
                         scale: float = 1.0) -> list[tuple[np.ndarray, np.ndarray]]:
    """``pair_values`` of translation-invariant fns from the (2n-1)^d
    difference stencil: each fn runs once per node offset, on a node pair with
    that offset, and the N x N array M is filled as (block-)Toeplitz copies of
    the stencil through a strided view, with no N x N temporary.  With ops,
    one per fn, a stencil s is first op(s[k], s[-k]) * 0.5 at every offset k,
    so its array is op(M, M.T) * 0.5, what ``_symmetrise`` makes of M.
    Returns per fn scale * M and the row sums of M: M is filled, row-summed
    and scaled per row block of whole first-axis lattice slices, or of parts
    of one slice when one is larger than a block."""
    n, d = axes[0].size, len(axes)
    off = np.arange(-(n - 1), n)
    # per axis, offset k = j - i is the node pair x = a[max(-k, 0)], y = a[max(k, 0)]
    ends = [np.meshgrid(*(a[np.maximum(sgn * off, 0)] for a in axes), indexing="ij")
            for sgn in (-1, 1)]
    xs, ys = (np.stack(e, axis=-1).reshape(-1, d) for e in ends)
    live = np.ones(xs.shape[0], dtype=bool)
    live[xs.shape[0] // 2] = False               # offset zero: the diagonal
    unit = n ** (d - 1)                          # rows of one first-axis slice
    out = []
    for fn, op in zip_longest(fns, ops):
        stencil = np.zeros(xs.shape[0])
        stencil[live] = fn(xs[live], ys[live])
        if op is not None:
            # reversing the flat stencil reverses every axis: offset k meets -k
            stencil = op(stencil, stencil[::-1]) * 0.5
        windows = np.lib.stride_tricks.sliding_window_view(
            stencil.reshape((2 * n - 1,) * d), (n,) * d)[(slice(None, None, -1),) * d]
        M = np.empty((n ** d, n ** d))
        # first-axis slice, row within it, column lattice
        lattice = M.reshape((n, unit) + (n,) * d)
        windows = windows.reshape(lattice.shape)

        def fill(rows):
            # M[i, j] = stencil[j - i]: row i reads the window starting at n-1-i
            g, a = divmod(rows.start, unit)
            if rows.stop - rows.start < unit:            # a part of slice g
                part = (g, slice(a, a + rows.stop - rows.start))
            else:
                part = slice(g, rows.stop // unit)
            lattice[part] = windows[part]

        out.append((M, _sum_and_scale(M, scale, fill, unit)))
    return out


def _pair_arrays(kernel: Kernel, grid: Grid, profiled: bool, ops=(),
                 scale: float = 1.0) -> list[tuple[np.ndarray, np.ndarray]]:
    """K_s and K_a on all off-diagonal node pairs, zero diagonal, each as
    scale * M with the row sums of M.  With ops (np.add, np.subtract) M is
    op(M, M.T) * 0.5, taken on the stencil when the stencil path runs, by
    ``_symmetrise`` on the arrays otherwise."""
    axes = _toeplitz_axes(grid) if profiled else None
    try:
        if axes is not None:
            return _stencil_pair_values(axes, kernel.sym, kernel.anti, ops=ops, scale=scale)
        out = pair_values(grid.nodes, kernel.sym, kernel.anti)
    except ValueError as exc:
        raise RuntimeError(f"kernel evaluation failed on node pairs: {exc}")
    for M, op in zip(out, ops):
        _symmetrise(M, op)
    return [(M, _sum_and_scale(M, scale)) for M in out]


def _power_tail_columns(c: np.ndarray, gamma: np.ndarray, s0: np.ndarray,
                        out: np.ndarray) -> np.ndarray:
    """c / gamma * s0 ** -gamma, the radial tail integral of every node and
    ray, written into out: the power in place, then the factor in place, so
    the bits are the expression's, signed zeros of the rays with c = 0
    included, with no temporary of the size of s0."""
    np.power(s0, -gamma, out=out)
    out *= c / gamma
    return out


def _tail_weights(kernel: Kernel, grid: Grid, quad: QuadSpec, dirs, ang_w, profiles,
                  profiled: bool) -> list[np.ndarray]:
    """T_s, T_a: 2 int_{R^d \\ box} K_part(x_i, y) dy at every node.  On a
    power-law ray the radial integral from the exit radius s0 is
    c s0^{-gamma} / gamma, summed with the angular weights; other kernels
    take the ray rule.  Its temporaries are freed on return, before
    ``assemble`` allocates the pair arrays."""
    if profiled:
        s0 = ray_exit_box(grid.nodes, dirs, grid.X)
        E = np.empty(s0.shape)                   # one buffer for both parts
        tails = (_power_tail_columns(c, gamma, s0, E) @ ang_w
                 for c, gamma in profiles.values())
    else:
        exit_fn = lambda x, dirs: ray_exit_box(x, dirs, grid.X)
        tails = (exterior_tail(kernel.radial_pieces(part), grid.nodes, exit_fn, grid.d, quad)
                 for part in profiles)
    return [2.0 * T for T in tails]


def assemble(kernel: Kernel, grid: Grid, quad: QuadSpec | None = None) -> DiscreteForm:
    if kernel.d != grid.d:
        raise ValueError("kernel/grid dimension mismatch")
    quad = quad or QuadSpec()
    dirs, ang_w = directions(grid.d, quad.n_ang)
    profiles = {part: kernel.ray_profile(part, dirs) for part in ("sym", "anti")}
    profiled = all(prof is not None for prof in profiles.values())
    T_s, T_a = _tail_weights(kernel, grid, quad, dirs, ang_w, profiles, profiled)
    scale = -2.0 * grid.cell_volume
    (Ks, sum_s), (Ka, sum_a) = _pair_arrays(kernel, grid, profiled,
                                            ops=(np.add, np.subtract), scale=scale)
    meta = {"kernel": kernel.spec.to_config(), "kernel_hash": kernel.spec.digest(),
            "h": grid.h, "X": grid.X, "quad": quad.to_dict()}
    return _completed_form(grid, Ks, Ka, T_s, T_a, meta, scale, row_sums=(sum_s, sum_a))


def transpose_form(form: DiscreteForm) -> DiscreteForm:
    """Dual form: same symmetric part, negated drift coupling and drift tail
    (the weights of the reversed-argument kernel)."""
    meta = dict(form.meta)
    meta["dual_of"] = meta.get("kernel_hash")
    return DiscreteForm(form.grid, form.A_s, -form.A_a, form.tail_sym,
                        -form.tail_anti, meta)


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
    ``part`` selects the kernel matrix: full, sym or anti.  With a mask the
    sums run over the block of the nodes that the mask touches.
    """
    # the pair weight w_ij from the row block v_i and all v_j
    pair = {"onesided": lambda vi, vj: vi[:, None], "difference": np.subtract.outer,
            "sum": np.add.outer}.get(weight)
    if pair is None:
        raise ValueError(f"unknown weight {weight!r}")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if mask is None:
        K = form.part_matrix(part)
    else:
        nodes = np.any(mask, axis=1) | np.any(mask, axis=0)
        K = np.where(mask[np.ix_(nodes, nodes)], form.part_matrix(part, nodes), 0.0)
        u, v = u[nodes], v[nodes]
    # the pair terms themselves, in row blocks: a matvec expansion such as
    # v row(K) u - v Ku of these sums cancels
    val = 0.0
    for lo in range(0, len(u), _TILE):
        rows = slice(lo, lo + _TILE)
        val += float(np.sum(K[rows] * np.subtract.outer(u[rows], u) * pair(v[rows], v)))
    return form.grid.cell_volume ** 2 * val


def carre_du_champ(form: DiscreteForm, tau: CutoffProfile) -> dict:
    """Gradient surrogate Gamma(tau,tau)(x_i) = int (tau(x_i)-tau(y))^2 K_s dy.

    Box pairs are summed on the lattice; beyond the box tau vanishes, so the
    exterior contributes tau_i^2 times the symmetric tail.  Reports the sup
    over the support annulus against the rho^{-alpha} reference scaling.
    """
    grid = form.grid
    alpha = kernel_alpha(form)
    tv = tau.values_on(grid)
    Ks = form.ks_matrix()
    diffs = tv[:, None] - tv[None, :]
    gamma = np.sum(diffs * diffs * Ks, axis=1) * grid.cell_volume
    gamma = gamma + tv * tv * 0.5 * form.tail_sym
    support = grid.ball_mask(tau.center, tau.r + tau.rho)
    sup = float(np.max(gamma[support])) if np.any(support) else 0.0
    return {"gamma": gamma, "sup": sup, "rho": tau.rho,
            "c_fit": sup * tau.rho ** alpha}


def layer_cake_weighted_form(form: DiscreteForm, tau: CutoffProfile, u,
                             part: str = "full") -> dict:
    """Min-weighted energy sum and its layer-cake recomputation (two paths).

    value = sum (u_i-u_j)^2 min(tau_i^2, tau_j^2) K_ij h^{2d}; the identity
    rewrites min(tau_i^2, tau_j^2) = int 1{tau_i^2 >= v} 1{tau_j^2 >= v} dv and
    is exact on the lattice (finitely many levels), which the return value
    reports for cross-checking.  Both sums run over the block of the nodes
    where tau is positive, the only pairs with a nonzero weight.
    """
    grid = form.grid
    tv = tau.values_on(grid)
    support = tv > 0
    K = form.part_matrix(part, support)
    u = np.asarray(u, dtype=float)[support]
    t2 = tv[support] * tv[support]
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

