"""Numerical evaluation of the structural kernel assumptions on concrete balls.

Each checker turns one assumption into a quantitative profile (a norm, a sup,
an eigenvalue, a fraction) plus a verdict at a declared resolution.  Inner
singular integrals run through the graded polar quadrature; an analytic
integrability pre-test on the singularity/decay exponents short-circuits
genuinely divergent inputs instead of returning large garbage values.  The
singularity exponents are the kernels' diagonal orders measured at the
checker's lattice points (``Kernel.diag_orders``), the decay exponents the
kernels' declared ``decay_orders``.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ._lazy import lazy_module
from .discretize import DiscreteForm, Grid, _ball_leaves, _symmetrise, kernel_alpha
from .kernels import Kernel, StableKernel, pair_values
from .quadrature import QuadSpec, ball_integral, directions, exterior_tail

lapack = lazy_module("jumplab._lapack")

INF = float("inf")
# random probes and fixed-point sweeps of sobolev_ratio
_SOB_PROBES = 40
_SOB_SWEEPS = 3
# lattice points of suffK1_check on B_2r
_SUFFK1_POINTS = 1500


@dataclass(frozen=True)
class BallSpec:
    """Ball B_r(z) with scale pair (r, rho) inside a domain descriptor.

    The checkers integrate over B_{2r}(z); construction verifies that this
    double ball stays inside the declared domain.
    """

    center: tuple
    r: float
    rho: float | None = None
    omega: dict = field(default_factory=lambda: {"type": "box", "halfwidth": 4.0})

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(np.asarray(self.center, dtype=float)))
        if not (0 < self.r <= 1.0):
            raise ValueError("radius must lie in (0, 1]")
        if self.rho is not None and not (0 < self.rho <= self.r):
            raise ValueError("need 0 < rho <= r")
        if _ball_leaves(self.omega, self.center, 2 * self.r)[0]:
            raise ValueError("B_2r leaves the domain")

    @property
    def d(self) -> int:
        return len(self.center)


@dataclass
class AssumptionReport:
    assumption: str
    constants: dict
    exponents: dict
    resolution: dict
    verdict: str
    notes: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _lattice(ball: BallSpec, radius: float, grid: Grid | None, spacing: float | None,
             max_points: int = 400) -> tuple[np.ndarray, float, float]:
    """Lattice in B_radius(z) (grid nodes if a grid is given), its spacing h and the
    volume per point: h^d, times n_all / n_kept if only every s-th node is kept."""
    z = np.asarray(ball.center)
    if grid is not None:
        pts = grid.nodes[grid.ball_mask(z, radius)]
        h = grid.h
    else:
        h = spacing if spacing is not None else radius / 6
        n = int(math.ceil(radius / h))
        axes = [z[k] + h * (np.arange(-n, n + 1) + 0.0) for k in range(ball.d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        pts = pts[np.linalg.norm(pts - z, axis=-1) < radius]
    n_all = pts.shape[0]
    if n_all > max_points:
        pts = pts[::int(math.ceil(n_all / max_points))]
    if pts.shape[0] == 0:
        raise ValueError("empty evaluation lattice")
    return pts, h, h ** ball.d * (n_all / pts.shape[0])


def _lp_norm(values: np.ndarray, p: float, weight: float) -> float:
    values = np.abs(np.asarray(values, dtype=float))
    if p == INF:
        return float(np.max(values))
    return float((np.sum(values ** p) * weight) ** (1.0 / p))


def _pair_form_matrix(kern_eval, pts: np.ndarray, h: float) -> np.ndarray:
    """L with v^T L v = sum_{i != j} (v_i - v_j)^2 k(x_i, x_j) h^{2d}."""
    (vals,) = pair_values(pts, kern_eval)
    _symmetrise(vals, np.add)
    return _graph_laplacian(vals, h ** (2 * pts.shape[1]))


def _graph_laplacian(K: np.ndarray, h2d: float) -> np.ndarray:
    """2 h^{2d} (diag(row sums of K) - K) for a symmetric pair matrix K."""
    return 2.0 * h2d * (np.diag(np.sum(K, axis=1)) - K)


def _pencil_extreme(L_num: np.ndarray, L_den: np.ndarray, which: str) -> float:
    """Extreme generalized eigenvalue of v^T L_num v / v^T L_den v on mean-zero v, inf
    where L_den is singular there: with A and B = C C^T the pencil in an orthonormal
    mean-zero basis, an extreme eigenvalue of C^-1 A C^-T."""
    n = L_num.shape[0]
    Q = np.linalg.qr(np.eye(n) - np.ones((n, n)) / n)[0][:, : n - 1]
    A = Q.T @ L_num @ Q
    B = Q.T @ L_den @ Q
    B = 0.5 * (B + B.T)
    wB = np.linalg.eigvalsh(B)
    if wB[0] <= 1e-12 * max(wB[-1], 1e-300):
        return INF
    C = lapack.cholesky(B)
    CA = lapack.solve_lower(C, 0.5 * (A + A.T))
    w = np.linalg.eigvalsh(lapack.solve_lower(C, CA.T))
    return float(w[-1] if which == "max" else w[0])


def _safe_ratio(kernel: Kernel, J: Kernel, x, y):
    """K_a(x,y)^2 / J(x,y) with the convention 0 where K_a vanishes."""
    ka = np.asarray(kernel.anti(x, y), dtype=float)
    out = np.zeros_like(ka)
    nz = np.abs(ka) > 0
    if np.any(nz):
        jv = np.asarray(J.sym(x, y), dtype=float) * np.ones_like(ka)
        with np.errstate(divide="ignore", invalid="ignore"):
            out[nz] = ka[nz] ** 2 / jv[nz]
    return out


def _domination_ratio(kernel: Kernel, J: Kernel, ball: BallSpec,
                      grid: Grid | None, spacing: float | None) -> float:
    # the eigenproblem needs a genuine lattice even when the norm profile is
    # sampled coarsely, so the spacing floor is set from the ball itself
    h_max = 2 * ball.r / 6
    spacing = min(spacing, h_max) if spacing is not None else h_max
    pts, h, _ = _lattice(ball, 2 * ball.r, grid, spacing, max_points=150)
    if pts.shape[0] < 3:
        return INF
    L_J = _pair_form_matrix(lambda x, y: J.sym(x, y), pts, h)
    L_K = _pair_form_matrix(lambda x, y: kernel.sym(x, y), pts, h)
    return _pencil_extreme(L_J, L_K, "max")


def k1_profile(kernel: Kernel, J: Kernel, ball: BallSpec, theta: float,
               grid: Grid | None = None, quad: QuadSpec | None = None,
               spacing: float | None = None) -> AssumptionReport:
    """Profile of the local drift-integrability assumption.

    Measures || int_{B_2r} K_a(., y)^2 / J(., y) dy ||_{L^theta(B_2r)} by
    graded polar quadrature and the form-domination ratio sup E^J / E^{K_s}
    by a generalized eigenvalue computation on the ball lattice.
    """
    return _k1_report(kernel, J, ball, theta, grid, quad, spacing, glob=False)


def k1_glob_profile(kernel: Kernel, J: Kernel, ball: BallSpec, theta: float,
                    grid: Grid | None = None, quad: QuadSpec | None = None,
                    spacing: float | None = None) -> AssumptionReport:
    """Global variant: the inner integral runs over all of R^d.

    Computed as a near-field polar integral plus the exterior tail beyond it,
    with the far-field exponent 2 gamma(K_a) - gamma(J) as the tail's decay;
    the decay pre-test flags divergence when that exponent is not integrable.
    """
    return _k1_report(kernel, J, ball, theta, grid, quad, spacing, glob=True)


def _k1_report(kernel: Kernel, J: Kernel, ball: BallSpec, theta: float,
               grid: Grid | None, quad: QuadSpec | None, spacing: float | None,
               glob: bool) -> AssumptionReport:
    """K1 (inner integral over B_2r(z)) or K1glob (over R^d) with one verdict
    rule: finite exactly when the norm and the domination ratio are.  J of a
    higher measured diagonal order than K_s is divergent: E^J / E^{K_s} is unbounded."""
    name = "K1glob" if glob else "K1"
    quad = quad or QuadSpec(n_ang=256, n_panels=32)
    d = ball.d
    pts, _, volume = _lattice(ball, 2 * ball.r, grid, spacing)
    (order_s, order_a), order_J = kernel.diag_orders(pts), J.diag_orders(pts)[0]
    sing = d + 2 * order_a - order_J
    resolution = {"quad": quad.to_dict(), "kappa": 1 + kernel.alpha / d}

    def divergent(notes):
        return AssumptionReport(name, {"norm": INF}, {"theta": theta}, resolution,
                                "divergent", notes)

    if order_J > order_s:
        return divergent(f"J's diagonal order {order_J!r} exceeds K_s's {order_s!r}: "
                         f"E^J is not dominated by E^(K_s)")
    if sing >= d:
        return divergent("inner integrand fails the integrability pre-test at the diagonal")
    ratio_fn = lambda x, y: _safe_ratio(kernel, J, x, y)
    decay = lambda dd: 2 * kernel.decay_orders("anti", dd) - J.decay_orders("sym", dd)
    if glob and kernel.anti_support() is None and _far_field_divergent(
            kernel.anti, decay, ball, quad.n_ang):
        return divergent("far-field exponent of K_a^2/J is not integrable")
    # K1glob: the near field B_radius(x) around each point, then the tail beyond
    center, radius = (None, max(4 * ball.r, 1.0)) if glob else (np.asarray(ball.center),
                                                                2 * ball.r)
    W = ball_integral(ratio_fn, pts, center, radius, d, quad, singular_order=max(sing, 0.0),
                      breaks=kernel.radial_breaks())
    if glob:
        W = W + _tail_beyond([(ratio_fn, kernel.anti_support(), decay)], pts, radius, d, quad)
    norm = _lp_norm(W, theta, volume)
    ratio = _domination_ratio(kernel, J, ball, grid, spacing)
    resolution["n_points"] = int(pts.shape[0])
    verdict = "finite" if np.isfinite(norm) and np.isfinite(ratio) else "divergent"
    return AssumptionReport(name, {"norm": norm, "W_max": float(np.max(W)),
                                   "domination_ratio": ratio},
                            {"theta": theta}, resolution, verdict)


def k2_coefficient_D(lam: float, Lam: float) -> float:
    """Sharp domination constant (Lam - lam)/(Lam + lam) for coefficient kernels."""
    if lam <= 0 or Lam < lam:
        raise ValueError("need 0 < lam <= Lam")
    return (Lam - lam) / (Lam + lam)


def _split_on_ball(kernel: Kernel, ball: BallSpec, grid: Grid | None, spacing: float | None):
    """The good-set lattice in B, its spacing, and K_s, K_a on all of its pairs."""
    pts, h, _ = _lattice(ball, ball.r, grid, spacing, max_points=300)
    return (pts, h, *pair_values(pts, kernel.sym, kernel.anti))


def k2_lattice_D(kernel: Kernel, ball: BallSpec, grid: Grid | None = None,
                 spacing: float | None = None) -> float:
    """The kernel's own domination constant: sup |K_a| / K_s over the off-diagonal
    pairs of the good-set lattice (0 where K_a = 0, inf where K_s = 0 < |K_a|)."""
    pts, _, ks, ka = _split_on_ball(kernel, ball, grid, spacing)
    off = ~np.eye(pts.shape[0], dtype=bool)
    ks, ka = ks[off], np.abs(ka[off])
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.where(ka > 0, ka / ks, 0.0), initial=0.0))


def good_set_fraction(kernel: Kernel, ball: BallSpec, D: float,
                      grid: Grid | None = None, spacing: float | None = None) -> dict:
    """Smallest lattice fraction of {y in B : |K_a(x,y)| <= D K_s(x,y)} over x in B."""
    if not (0 < D < 1):
        raise ValueError("D must lie in (0, 1)")
    pts, h, ks, ka = _split_on_ball(kernel, ball, grid, spacing)
    n = pts.shape[0]
    good = np.abs(ka) <= D * ks + 1e-300
    good[np.eye(n, dtype=bool)] = True
    fractions = np.sum(good, axis=1) / n
    i_center = int(np.argmin(np.linalg.norm(pts - np.asarray(ball.center), axis=-1)))
    return {"fraction": float(np.min(fractions)),
            "fraction_at_center": float(fractions[i_center]),
            "D": D, "n_points": n, "spacing": h}


def tail_sup(kernel: Kernel, ball: BallSpec, A: float, dual: bool = False,
             grid: Grid | None = None, quad: QuadSpec | None = None,
             spacing: float | None = None) -> dict:
    """sup_x int_{R^d \\ B_{Ar}(x)} K(x, y) dy (or K(y, x) for the dual).

    Also fits the decay rate sigma from the values at A and 2A; kernels whose
    far field is not integrable are flagged divergent by the exponent test
    instead of being summed.
    """
    quad = quad or QuadSpec()
    k = kernel.dual() if dual else kernel
    n, sups = _tail_sups(k, "full", ball, 2 * ball.r, (A * ball.r, 2 * A * ball.r),
                         grid, quad, spacing)
    if sups is None:
        return {"sup": INF, "sigma_fit": 0.0, "A": A, "divergent": True,
                "n_points": n, "quad": quad.to_dict()}
    sup1, sup2 = sups
    sigma = math.log(sup1 / sup2) / math.log(2.0) if sup2 > 0 else INF
    return {"sup": sup1, "sup_2A": sup2, "sigma_fit": sigma, "A": A,
            "radius": A * ball.r, "divergent": False,
            "n_points": n, "quad": quad.to_dict()}


def _tail_sups(kernel: Kernel, part: str, ball: BallSpec, lattice_radius: float, radii,
               grid: Grid | None, quad: QuadSpec, spacing: float | None):
    """The number of points of the tail lattice in B_lattice_radius(z) and, over
    them, the sup of the tail of the kernel's part ("full" or "sym") beyond
    B_radius(x) at each radius; None where the exponent pre-test finds K_s, or a
    K_a of the part without compact support, not integrable in the far field."""
    pts, _, _ = _lattice(ball, lattice_radius, grid, spacing, max_points=60)
    tested = ("sym", "anti") if part == "full" and kernel.anti_support() is None else ("sym",)
    if any(_far_field_divergent(getattr(kernel, p), lambda dd, p=p: kernel.decay_orders(p, dd),
                                ball, min(quad.n_ang, 64)) for p in tested):
        return pts.shape[0], None
    pieces = kernel.radial_pieces(part)
    return pts.shape[0], [float(np.max(_tail_beyond(pieces, pts, radius, ball.d, quad)))
                          for radius in radii]


def _tail_beyond(pieces, pts: np.ndarray, radius: float, d: int,
                 quad: QuadSpec) -> np.ndarray:
    """Exterior tail of the pieces beyond B_radius(x) around each point x."""
    exit_fn = lambda x, dd: np.full((x.shape[0], dd.shape[0]), radius)
    return exterior_tail(pieces, pts, exit_fn, d, quad)


def _far_field_divergent(ev, decay_fn, ball: BallSpec, n_ang: int) -> bool:
    """Exponent pre-test: is ev active 10 units out from the centre along a
    direction whose decay exponent decay_fn(e) is not positive?"""
    dirs, _ = directions(ball.d, n_ang)
    z = np.asarray(ball.center)[None, :]
    active = np.abs(np.asarray(ev(z, z + 10.0 * dirs))) > 0
    return bool(np.any(active & (decay_fn(dirs) <= 0)))


def cutoff_sup(kernel: Kernel, zeta: float, ball: BallSpec,
               grid: Grid | None = None, quad: QuadSpec | None = None,
               spacing: float | None = None) -> dict:
    """sup_x int_{R^d \\ B_zeta(x)} K_s(x, y) dy with an exponent fit over the
    sweep zeta, zeta/2, zeta/4, zeta/8."""
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    quad = quad or QuadSpec()
    zetas = zeta * 0.5 ** np.arange(4)
    n, sups = _tail_sups(kernel, "sym", ball, ball.r + (ball.rho or ball.r), zetas,
                         grid, quad, spacing)
    if sups is None:
        return {"sup": INF, "zeta": zeta, "divergent": True,
                "n_points": n, "quad": quad.to_dict()}
    slope, intercept = np.polyfit(np.log(zetas), np.log(sups), 1)
    return {"sup": sups[0], "zeta": zeta, "exponent_fit": float(-slope),
            "prefactor_fit": float(np.exp(intercept)), "sweep": list(zetas),
            "n_points": n, "quad": quad.to_dict()}


def _ball_submatrices(form: DiscreteForm, ball: BallSpec, radius: float):
    grid = form.grid
    m = grid.ball_mask(np.asarray(ball.center), radius)
    if int(m.sum()) < 3:
        raise ValueError("ball contains too few grid nodes")
    Ks = form.ks_matrix(m)
    return m, _graph_laplacian(Ks, grid.cell_volume ** 2)


def poincare_constant(form: DiscreteForm, ball: BallSpec) -> dict:
    """Best constant in the mean-zero spectral-gap inequality on B_r.

    c = r^{-alpha} / lambda_2 with lambda_2 the smallest nonzero eigenvalue of
    the restricted symmetric form against the mean-zero mass form.
    """
    alpha = kernel_alpha(form)
    m, L = _ball_submatrices(form, ball, ball.r)
    n = int(m.sum())
    lam2 = _pencil_extreme(L, form.grid.cell_volume * np.eye(n), "min")
    if lam2 <= 0:
        raise ValueError("restricted form is singular on mean-zero functions")
    return {"constant": ball.r ** (-alpha) / lam2, "lambda2": lam2,
            "n_points": n, "alpha": alpha}


def coercivity_ratio(form: DiscreteForm, ball: BallSpec) -> dict:
    """Smallest eigenvalue of E^{K_s}_{B_r} against the reference seminorm
    built from the unit kernel |x - y|^{-d-alpha}."""
    grid = form.grid
    alpha = kernel_alpha(form)
    m, L = _ball_submatrices(form, ball, ball.r)
    L_ref = _pair_form_matrix(StableKernel(grid.d, alpha).sym, grid.nodes[m], grid.h)
    val = _pencil_extreme(L, L_ref, "min")
    return {"ratio": val, "n_points": int(m.sum()), "alpha": alpha}


def sobolev_ratio(form: DiscreteForm, ball: BallSpec, rho: float,
                  rng=None) -> dict:
    """Empirical sup of ||v^2||_{L^{d/(d-alpha)}(B_r)} over the localized energy.

    Probes: the constant field, three radial bumps, a single-node spike and 40
    random cosine fields, then up to 3 fixed-point sweeps toward the
    quotient's extremizer.
    """
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
    for _ in range(_SOB_PROBES):
        freq = rng.uniform(0.5, 6.0, size=(3, grid.d))
        phase = rng.uniform(0, 2 * np.pi, size=3)
        amp = rng.normal(size=3)
        v = sum(a * np.cos(pts @ f + p) for a, f, p in zip(amp, freq, phase))
        probes.append(v)
    best = max(probes, key=ratio)
    M = L + rho ** (-alpha) * hd * np.eye(L.shape[0])
    lu = lapack.lu_factor(M)
    v = best.copy()
    for _ in range(_SOB_SWEEPS):
        w = np.where(in_sub, v * np.abs(v) ** (2 * (p_s - 1)), 0.0)
        nw = np.linalg.norm(w)
        if nw == 0:
            break
        v_new = lapack.lu_solve(lu, hd * w / nw)
        if ratio(v_new) > ratio(v):
            v = v_new
        else:
            break
    sup = max(ratio(best), ratio(v))
    return {"ratio": sup, "p": p_s, "n_probes": len(probes),
            "n_points": int(outer.sum())}


def suffK1_check(V, ball: BallSpec, theta: float, gamma: float,
                 alpha: float, grid: Grid | None = None,
                 spacing: float | None = None) -> AssumptionReport:
    """Criterion for the drift-integrability assumption via potential regularity.

    For gamma in (alpha/2, 1]: the lattice sup of the local Hoelder quotient
    per point, then its L^{2 theta} norm.  The verdict is "finite" or
    "divergent" with the norm.
    """
    if not (alpha / 2 < gamma <= 1.0):
        raise ValueError("suffK1 needs gamma in (alpha/2, 1]")
    pts, h, volume = _lattice(ball, 2 * ball.r, grid, spacing, max_points=_SUFFK1_POINTS)
    n = pts.shape[0]
    # the quotient on all pairs of the lattice points, each with V in its last column
    (quot,) = pair_values(np.column_stack([pts, np.asarray(V(pts), dtype=float)]),
                          lambda x, y: np.abs(x[:, -1] - y[:, -1]) / np.sqrt(
                              np.sum((x[:, :-1] - y[:, :-1]) ** 2, axis=-1)) ** gamma)
    seminorm = np.max(quot, axis=1)
    norm = _lp_norm(seminorm, 2 * theta, volume)
    return AssumptionReport("suffK1", {"holder_norm": norm,
                                       "seminorm_max": float(np.max(seminorm))},
                            {"theta": theta, "gamma": gamma},
                            {"n_points": n, "spacing": h, "kappa": 1 + alpha / ball.d},
                            "finite" if np.isfinite(norm) else "divergent")


def cp_check(d: int, alpha: float, theta: float, mu: float) -> dict:
    """Compatibility of the space/time integrability exponents.

    CP:  d/(alpha theta) + 1/mu <= 1 (theta in (d/alpha, inf], mu in (1, inf]);
    CP-hat: the strict variant.
    """
    if theta != INF and theta <= d / alpha:
        raise ValueError("theta must exceed d/alpha")
    if mu != INF and mu <= 1:
        raise ValueError("mu must exceed 1")
    lhs = (0.0 if theta == INF else d / (alpha * theta)) + (
        0.0 if mu == INF else 1.0 / mu)
    return {"cp": lhs <= 1.0, "cp_hat": lhs < 1.0, "value": lhs}
