"""Jumping-kernel families with exact symmetric/antisymmetric splits.

A kernel is a nonnegative density K(x, y) on R^d x R^d \\ {x = y}; its
symmetric part K_s(x,y) = (K(x,y) + K(y,x))/2 carries the diffusion and the
antisymmetric part K_a = (K(x,y) - K(y,x))/2 acts as a nonlocal drift.
Three concrete families are provided (bounded nonsymmetric coefficient,
potential-difference drift, cone-supported anisotropy) plus a custom
symmetric-plus-antisymmetric wrapper and time modulation.

Every family evaluates K, K_s, K_a in closed form; ``decompose`` recomputes
the split from the two orderings of K as an independent cross-check.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._lazy import lazy_module
from .quadrature import directions

_lapack = lazy_module("jumplab._lapack")

MIN_SEPARATION = 1e-14
# diag_orders: the ladder's last two rungs r = 2^-k, its 2D fan, its decimals
_DIAG_RUNGS = np.array([2.0 ** -19, 2.0 ** -20])
_DIAG_FAN = 64
_DIAG_DECIMALS = 4


def c_alpha_norm(d: int, alpha: float) -> float:
    """Normalizing constant 2^a Gamma((d+a)/2) / (pi^{d/2} |Gamma(-a/2)|).

    This is the constant that makes the order-a stable kernel generate the
    standard fractional power of the Laplacian; it vanishes linearly in
    (2 - a) as a -> 2 and in a as a -> 0.
    """
    if not (0.0 < alpha < 2.0):
        raise ValueError(f"order alpha must lie in (0, 2), got {alpha}")
    if d < 1 or int(d) != d:
        raise ValueError(f"dimension must be a positive integer, got {d}")
    gamma = _lapack.gamma
    return (2.0 ** alpha) * gamma((d + alpha) / 2.0) / (
        math.pi ** (d / 2.0) * abs(gamma(-alpha / 2.0)))


def _project(h, v) -> np.ndarray:
    """h . v over the last axis; elementwise, so one row of a batch gets the
    same bits as the same row alone (a BLAS dot may not)."""
    return np.sum(np.asarray(h, dtype=float) * np.asarray(v, dtype=float), axis=-1)


def _check_separation(x, y):
    h = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    r = np.sqrt(np.sum(h * h, axis=-1))
    if np.any(r < MIN_SEPARATION):
        raise ValueError("kernel evaluated at (nearly) coincident points; "
                         "the diagonal is excluded by construction")
    return h, r


@dataclass(frozen=True)
class Cone:
    """Cone {h : h.axis >= |h| cos(half_angle)}; double=True adds the mirror."""

    axis: tuple
    half_angle: float
    double: bool = False

    def __post_init__(self):
        ax = np.asarray(self.axis, dtype=float)
        n = np.linalg.norm(ax)
        if n == 0:
            raise ValueError("cone axis must be nonzero")
        object.__setattr__(self, "axis", tuple(ax / n))
        if not (0.0 < self.half_angle < math.pi / 2):
            raise ValueError("half_angle must lie in (0, pi/2)")

    @property
    def dim(self) -> int:
        return len(self.axis)

    def indicator(self, h: np.ndarray) -> np.ndarray:
        h = np.asarray(h, dtype=float)
        r = np.sqrt(np.sum(h * h, axis=-1))
        proj = _project(h, self.axis)
        if self.double:
            proj = np.abs(proj)
        return ((proj >= r * math.cos(self.half_angle)) & (r > 0)).astype(float)

    def disjoint_from(self, other: "Cone") -> bool:
        dot = float(np.dot(self.axis, other.axis))
        if self.double or other.double:
            dot = abs(dot)  # nearest of the two opposite nappes
        gap = math.acos(max(-1.0, min(1.0, dot)))
        return gap > self.half_angle + other.half_angle


@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of a kernel; ``digest`` keys run manifests."""

    family: str
    d: int
    alpha: float
    beta: float | None = None
    lam: float | None = None
    Lam: float | None = None
    trunc: float | None = None
    cone: Cone | None = None
    double_cone: Cone | None = None
    params: tuple = field(default_factory=tuple)

    def to_config(self) -> dict:
        cfg = {"family": self.family, "d": self.d, "alpha": self.alpha}
        for key in ("beta", "lam", "Lam"):
            if getattr(self, key) is not None:
                cfg[key] = getattr(self, key)
        if self.trunc is not None:
            cfg["L"] = self.trunc if np.isfinite(self.trunc) else None
        for c, key in ((self.cone, "cone"), (self.double_cone, "double_cone")):
            if c is not None:
                cfg[key] = {"axis": list(c.axis), "half_angle": c.half_angle,
                            "double": c.double}
        if self.params:
            cfg["params"] = list(self.params)
        return cfg

    def digest(self) -> str:
        blob = json.dumps(self.to_config(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


class Kernel:
    """Base class: eval of K, K_s, K_a plus the metadata the quadratures need.

    Subclasses must set ``spec`` and implement ``sym`` and ``anti``.  The
    diagonal orders are measured from those two (``diag_orders``), never
    declared; they and the declared decay orders steer the graded quadratures
    and the analytic integrability pre-tests of the assumption checkers.
    """

    spec: KernelSpec

    def __call__(self, x, y):
        return self.sym(x, y) + self.anti(x, y)

    def sym(self, x, y):
        raise NotImplementedError

    def anti(self, x, y):
        raise NotImplementedError

    # --- structural metadata -------------------------------------------------
    @property
    def d(self) -> int:
        return self.spec.d

    @property
    def alpha(self) -> float:
        return self.spec.alpha

    def diag_orders(self, points) -> tuple[float, float]:
        """(gamma_s, gamma_a) with |K_part(x, x + h)| ~ |h|^{-d-gamma} near the
        diagonal: the slope of log|K_part| between the rungs ``_DIAG_RUNGS``
        on the axis rays (1D) or a fan of rays (2D) from each row x of
        points, the worst point and ray.  gamma_s is read to
        ``_DIAG_DECIMALS`` decimals and so is the gap gamma_s - gamma_a, so
        alpha - 1 comes out as the float alpha - 1.0.
        """
        x = np.atleast_2d(np.asarray(points, dtype=float))[:, None, None, :]
        y = x + _DIAG_RUNGS[:, None] * directions(self.d, _DIAG_FAN)[0][:, None, :]
        x = np.broadcast_to(x, y.shape)                         # (N, rays, rungs, d)
        fit_s, fit_a = (_worst_order(part(x, y), self.d) for part in (self.sym, self.anti))
        gamma_s = round(fit_s, _DIAG_DECIMALS)
        return gamma_s, (fit_a if math.isinf(gamma_s)
                         else gamma_s - round(gamma_s - fit_a, _DIAG_DECIMALS))

    def anti_support(self) -> float | None:
        """Radius beyond which K_a vanishes (None = unbounded support)."""
        return None

    def decay_orders(self, part: str, dirs: np.ndarray) -> np.ndarray:
        """Per-direction decay exponent gamma(e): part ~ s^{-d-gamma} for large s."""
        return np.full(dirs.shape[0], self.spec.alpha)

    def radial_pieces(self, part: str):
        """(eval2, upper_radius|None, decay_fn) summands used by tail quadrature."""
        if part == "full":
            return self.radial_pieces("sym") + self.radial_pieces("anti")
        if part == "sym":
            return [(lambda x, y: self.sym(x, y), None,
                     lambda dirs: self.decay_orders("sym", dirs))]
        if part == "anti":
            return [(lambda x, y: self.anti(x, y), self.anti_support(),
                     lambda dirs: self.decay_orders("anti", dirs))]
        raise ValueError(f"unknown part {part!r}")

    def radial_breaks(self) -> tuple[float, ...]:
        """Radii where the kernel jumps (quadrature panel edges are pinned there)."""
        return ()

    def ray_profile(self, part: str, dirs: np.ndarray):
        """(c, gamma) with part(x, x + s e) = c(e) s^{-d-gamma(e)} for every x,
        every s > 0 and every direction e in dirs (m, d), or None.

        A kernel that returns a profile is translation invariant and computes
        K_s, K_a from y - x alone, so equal node differences give equal values
        bit for bit; assembly relies on both.  The base class makes no claim.
        """
        return None

    def dual(self) -> "Kernel":
        """K(y, x): the same symmetric part and the drift negated."""
        return _ScaledKernel(self, 1.0, -1.0)


def _worst_order(vals, d: int) -> float:
    """Largest log2(|K(r_2)| / |K(r_1)|) - d over the rays of vals (..., 2) at
    the rungs r_1 > r_2; a ray that vanishes at both is skipped: -inf if all
    do, +inf if a value is not finite."""
    v = np.abs(np.asarray(vals, dtype=float))
    if not np.all(np.isfinite(v)):
        return math.inf
    live = np.any(v > 0, axis=-1)
    with np.errstate(divide="ignore"):
        fit = np.log2(v[live][:, 1] / v[live][:, 0]) - d
    return float(np.max(fit, initial=-math.inf))


class _ScaledKernel(Kernel):
    """View of a base kernel with K_s = sym_scale * base.sym and K_a =
    anti_scale * base.anti for two numbers: the dual is (1, -1), a time slice
    (a(t), ka_scale(t)).  Support, breaks and decay are the base's, and the
    ray profile is the base's with c scaled."""

    def __init__(self, base: Kernel, sym_scale: float, anti_scale: float):
        self.base = base
        self.sym_scale = float(sym_scale)
        self.anti_scale = float(anti_scale)
        self.spec = base.spec

    def sym(self, x, y):
        return self.sym_scale * self.base.sym(x, y)

    def anti(self, x, y):
        return self.anti_scale * self.base.anti(x, y)

    def anti_support(self):
        return self.base.anti_support()

    def decay_orders(self, part, dirs):
        return self.base.decay_orders(part, dirs)

    def radial_breaks(self):
        return self.base.radial_breaks()

    def ray_profile(self, part, dirs):
        prof = self.base.ray_profile(part, dirs)
        if prof is None:
            return None
        c, gamma = prof
        return (self.sym_scale if part == "sym" else self.anti_scale) * c, gamma

    def dual(self):
        if (self.sym_scale, self.anti_scale) == (1.0, -1.0):
            return self.base
        return super().dual()


class StableKernel(Kernel):
    """Symmetric kernel coeff * |x - y|^{-d-order}; the workhorse comparison J."""

    def __init__(self, d: int, order: float, coeff: float = 1.0):
        if not (0.0 < order < 2.0):
            raise ValueError("order must lie in (0, 2)")
        if coeff <= 0:
            raise ValueError("coeff must be positive")
        self.order = float(order)
        self.coeff = float(coeff)
        self.spec = KernelSpec("stable", d, order, params=(("coeff", coeff),))

    def __call__(self, x, y):
        return self.sym(x, y)

    def sym(self, x, y):
        _, r = _check_separation(x, y)
        return self.coeff * np.power(r, -(self.d + self.order))

    def anti(self, x, y):
        _, r = _check_separation(x, y)
        return np.zeros_like(r)

    def decay_orders(self, part, dirs):
        return np.full(dirs.shape[0], self.order)

    def ray_profile(self, part, dirs):
        if part not in ("sym", "anti"):
            raise ValueError(f"unknown part {part!r}")
        c = self.coeff if part == "sym" else 0.0
        return np.full(dirs.shape[0], c), self.decay_orders(part, dirs)


class SplitKernel(Kernel):
    """Custom kernel given directly by a symmetric and an antisymmetric part."""

    def __init__(self, d: int, alpha: float, sym_fn, anti_fn, *,
                 anti_support: float | None = None, validate: bool = True):
        self.spec = KernelSpec("custom-symmetric-plus-antisymmetric", d, alpha)
        self._sym = sym_fn
        self._anti = anti_fn
        self._anti_supp = anti_support
        if validate:
            _validate_split(self, d)

    def sym(self, x, y):
        return self._sym(x, y)

    def anti(self, x, y):
        return self._anti(x, y)

    def anti_support(self):
        return self._anti_supp


def pair_values(points, *fns, chunk: int = 256):
    """One N x N array per ``fn(x, y)`` over all off-diagonal node pairs
    (zero diagonal); one gather per block of ``chunk`` rows feeds every fn."""
    P = np.asarray(points, dtype=float)
    n, d = P.shape
    out = [np.zeros((n, n)) for _ in fns]
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        off = np.ones((hi - lo, n), dtype=bool)
        off[np.arange(hi - lo), np.arange(lo, hi)] = False
        xs = np.broadcast_to(P[lo:hi, None, :], (hi - lo, n, d))[off]
        ys = np.broadcast_to(P[None, :, :], (hi - lo, n, d))[off]
        for M, fn in zip(out, fns):
            M[lo:hi][off] = fn(xs, ys)
    return out


def _lattice_pair_values(d: int, *fns, breaks=(), n: int = 6, extent: float = 2.0):
    """Values of each ``fn`` on the off-diagonal pairs of an n^d validation lattice,
    then on the pairs (x, x + r u) of each lattice point x and direction u of a
    fan (+-1 in 1D; in 2D the 16 angles k pi / 8, axes and diagonals among them)
    with r just inside and just outside each radius in ``breaks``, where the
    kernel jumps.  The lattice's own pair distances are multiples of its
    spacing (0.8), so a truncation radius between two of them would go untested."""
    axes = [np.linspace(-extent, extent, n)] * d
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    off = ~np.eye(pts.shape[0], dtype=bool)
    values = [M[off] for M in pair_values(pts, *fns)]
    if not breaks:
        return values
    phi = np.arange(16) * (np.pi / 8)
    fan = np.array([[-1.0], [1.0]]) if d == 1 else np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    steps = np.concatenate([b * (1 + t * 1e-9) * fan for b in breaks for t in (-1, 1)])
    xs = np.repeat(pts, len(steps), axis=0)
    ys = xs + np.tile(steps, (len(pts), 1))
    return [np.concatenate((v, fn(xs, ys))) for v, fn in zip(values, fns)]


def _validate_split(kernel: Kernel, d: int):
    ks, ka = _lattice_pair_values(d, kernel.sym, kernel.anti, breaks=kernel.radial_breaks())
    scale = np.maximum(np.abs(ks), 1e-300)
    if np.any(ks + ka < -1e-12 * scale):
        raise ValueError("kernel is negative on the validation lattice")
    if np.any(np.abs(ka) > ks * (1 + 1e-12) + 1e-300):
        raise ValueError("antisymmetric part exceeds symmetric part; "
                         "K would be negative for one ordering")


class CoefficientKernel(Kernel):
    """K(x,y) = g(x,y) * J(x,y) with a bounded two-point coefficient g.

    How fast g's antisymmetric part vanishes on the diagonal sets the drift
    order |K_a| = O(|h|^{s - d - a}) (s = 1 for a Lipschitz g); ``diag_orders``
    measures it from g itself.
    """

    def __init__(self, g, alpha: float, lam: float, Lam: float, d: int,
                 base: Kernel | None = None):
        if not (0.0 < lam <= Lam < math.inf):
            raise ValueError("need 0 < lam <= Lam < inf")
        self.g = g
        self.base = base if base is not None else StableKernel(d, alpha)
        if self.base.anti_support() is not None or not isinstance(self.base, Kernel):
            raise ValueError("base must be a symmetric kernel")
        self.lam = float(lam)
        self.Lam = float(Lam)
        self.spec = KernelSpec("coefficient", d, alpha, lam=lam, Lam=Lam)
        (gv,) = _lattice_pair_values(d, g)
        if np.any(gv < lam - 1e-12) or np.any(gv > Lam + 1e-12):
            raise ValueError("coefficient g leaves [lam, Lam] on the validation lattice")

    def __call__(self, x, y):
        return np.asarray(self.g(x, y), dtype=float) * self.base.sym(x, y)

    def sym(self, x, y):
        gs = 0.5 * (np.asarray(self.g(x, y), dtype=float)
                    + np.asarray(self.g(y, x), dtype=float))
        return gs * self.base.sym(x, y)

    def anti(self, x, y):
        ga = 0.5 * (np.asarray(self.g(x, y), dtype=float)
                    - np.asarray(self.g(y, x), dtype=float))
        return ga * self.base.sym(x, y)

    def decay_orders(self, part, dirs):
        return self.base.decay_orders("sym", dirs)


class DriftKernel(Kernel):
    """Symmetric stable part plus a truncated potential-difference drift.

    K(x,y) = j(x,y) c_{d,a} |x-y|^{-d-a}
           + (V(x) - V(y)) 1{|x-y| <= L} c_{d,a} |x-y|^{-d-a}.

    The class needs |V(x) - V(y)| <= lam within the truncation radius, and a
    nonnegative K needs K_s >= |K_a|, that is |V(x) - V(y)| <= j(x, y) there;
    both are checked at construction, on a validation lattice and on pairs at
    the truncation radius along a fan of directions.
    """

    def __init__(self, j, V, L: float, alpha: float, d: int,
                 lam: float = 1.0, Lam: float = 1.0):
        if not (0.0 < lam <= Lam < math.inf):
            raise ValueError("need 0 < lam <= Lam < inf")
        if L <= 0:
            raise ValueError("truncation radius must be positive")
        self.j = j if callable(j) else (lambda x, y, _c=float(j): np.full(
            np.broadcast_shapes(np.asarray(x).shape[:-1], np.asarray(y).shape[:-1]), _c))
        self.V = V
        self.L = float(L)
        self.lam = float(lam)
        self.Lam = float(Lam)
        self.c_norm = c_alpha_norm(d, alpha)
        self.spec = KernelSpec("drift", d, alpha, lam=lam, Lam=Lam, trunc=L)
        (dv,) = _lattice_pair_values(d, lambda x, y: np.abs(
            np.asarray(V(x)) - np.asarray(V(y))) * (
            np.sqrt(np.sum((x - y) ** 2, axis=-1)) <= self.L), breaks=self.radial_breaks())
        if np.any(dv > lam + 1e-12):
            raise ValueError(
                "potential increment exceeds lam inside the truncation radius; "
                "kernel would go negative (shrink L or rescale V)")
        _validate_split(self, d)

    def _stable(self, x, y):
        _, r = _check_separation(x, y)
        return self.c_norm * np.power(r, -(self.d + self.alpha)), r

    def sym(self, x, y):
        base, _ = self._stable(x, y)
        return np.asarray(self.j(x, y), dtype=float) * base

    def anti(self, x, y):
        base, r = self._stable(x, y)
        dv = np.asarray(self.V(x), dtype=float) - np.asarray(self.V(y), dtype=float)
        return dv * (r <= self.L) * base

    def anti_support(self):
        return self.L if np.isfinite(self.L) else None

    def radial_breaks(self):
        return (self.L,) if np.isfinite(self.L) else ()


class ConeKernel(Kernel):
    """Order-a jumps on a symmetric double cone plus order-b jumps on a single cone.

    K(x,y) = |x-y|^{-d-a} 1_D(x-y) + |x-y|^{-d-b} 1_C(x-y), C and D disjoint,
    0 < 2b < a < 2.  The drift part is genuinely anisotropic: |K_a| equals K_s
    on the single cone, so this family is not dominated by a multiple of K_s
    there.  ``double_cone=None`` drops the D part (the only disjoint option in
    d = 1, where any nonempty double cone covers both directions).
    """

    def __init__(self, alpha: float, beta: float, cone: Cone,
                 double_cone: Cone | None, d: int):
        if not (0.0 < 2.0 * beta < alpha < 2.0):
            raise ValueError("need 0 < 2*beta < alpha < 2")
        if cone.dim != d or (double_cone is not None and double_cone.dim != d):
            raise ValueError("cone dimension mismatch")
        if cone.double:
            raise ValueError("C must be a single cone")
        if double_cone is not None:
            if not double_cone.double:
                raise ValueError("D must be a double cone")
            if not cone.disjoint_from(double_cone):
                raise ValueError("cones overlap: C and D must be disjoint")
        self.cone = cone
        self.double_cone = double_cone
        self.beta = float(beta)
        self.spec = KernelSpec("cone", d, alpha, beta=beta, cone=cone,
                               double_cone=double_cone)

    def _parts(self, x, y):
        h_rev, r = _check_separation(x, y)
        h = -h_rev                       # the jump x - y
        rd_alpha = np.power(r, -(self.d + self.alpha))
        rd_beta = np.power(r, -(self.d + self.beta))
        ind_D = self.double_cone.indicator(h) if self.double_cone is not None else 0.0
        ind_C = self.cone.indicator(h)
        ind_Cm = self.cone.indicator(-h)
        return rd_alpha, rd_beta, ind_D, ind_C, ind_Cm

    def __call__(self, x, y):
        rd_alpha, rd_beta, ind_D, ind_C, _ = self._parts(x, y)
        return rd_alpha * ind_D + rd_beta * ind_C

    def sym(self, x, y):
        rd_alpha, rd_beta, ind_D, ind_C, ind_Cm = self._parts(x, y)
        return rd_alpha * ind_D + 0.5 * rd_beta * (ind_C + ind_Cm)

    def anti(self, x, y):
        _, rd_beta, _, ind_C, ind_Cm = self._parts(x, y)
        return 0.5 * rd_beta * (ind_C - ind_Cm)

    def decay_orders(self, part, dirs):
        in_C = (self.cone.indicator(dirs) + self.cone.indicator(-dirs)) > 0
        return np.where(in_C, self.beta, self.alpha)

    def ray_profile(self, part, dirs):
        # the jump x - y = -s e; C and D are disjoint, so one power per ray
        ind_C, ind_Cm = self.cone.indicator(-dirs), self.cone.indicator(dirs)
        if part == "sym":
            c = 0.5 * (ind_C + ind_Cm)
            if self.double_cone is not None:
                c = c + self.double_cone.indicator(dirs)
        elif part == "anti":
            c = 0.5 * (ind_C - ind_Cm)
        else:
            raise ValueError(f"unknown part {part!r}")
        return c, self.decay_orders(part, dirs)


# --- operations ---------------------------------------------------------------

def make_coefficient_kernel(g, alpha: float, lam: float, Lam: float, d: int,
                            base: Kernel | None = None) -> CoefficientKernel:
    return CoefficientKernel(g, alpha, lam, Lam, d, base=base)


def make_drift_kernel(j, V, L: float, alpha: float, d: int,
                      lam: float = 1.0, Lam: float = 1.0) -> DriftKernel:
    return DriftKernel(j, V, L, alpha, d, lam=lam, Lam=Lam)


def make_cone_kernel(alpha: float, beta: float, cone: Cone,
                     double_cone: Cone | None, d: int) -> ConeKernel:
    return ConeKernel(alpha, beta, cone, double_cone, d)


def make_stable_kernel(d: int, order: float, coeff: float = 1.0) -> StableKernel:
    return StableKernel(d, order, coeff)


def decompose(kernel: Kernel, x, y):
    """Generic split ((K(x,y)+K(y,x))/2, (K(x,y)-K(y,x))/2); rejects x == y."""
    _check_separation(x, y)
    kxy = np.asarray(kernel(x, y), dtype=float)
    kyx = np.asarray(kernel(y, x), dtype=float)
    return 0.5 * (kxy + kyx), 0.5 * (kxy - kyx)


_VALIDATION_TIMES = (0.0, 0.5, 1.0)   # where TimeKernel checks a and ka_scale


class TimeKernel:
    """k(t;x,y) = a(t) K_s(x,y) + s(t) K_a(x,y) with a(t) in [lam, Lam].

    ``a`` and ``ka_scale`` (s, default 1) are functions of t alone; |s| <= 1
    keeps the kernel admissible.  Both are checked at ``_VALIDATION_TIMES``.
    A time slice keeps the base's ray profile with c scaled (see ``at``).
    """

    def __init__(self, base: Kernel, a, lam: float, Lam: float, ka_scale=None):
        if not (0.0 < lam <= Lam < math.inf):
            raise ValueError("need 0 < lam <= Lam < inf")
        self.base = base
        self.a = a
        self.lam = float(lam)
        self.Lam = float(Lam)
        self.ka_scale = ka_scale if ka_scale is not None else (lambda t: 1.0)
        for t in _VALIDATION_TIMES:
            k = self.at(t)
            if not lam - 1e-12 <= k.sym_scale <= Lam + 1e-12:
                raise ValueError(f"modulation a(t) = {k.sym_scale} leaves [lam, Lam] at t={t}")
            if not abs(k.anti_scale) <= 1.0 + 1e-12:
                raise ValueError(f"|ka_scale(t)| = {abs(k.anti_scale)} > 1 at t={t}")

    def at(self, t: float) -> Kernel:
        """Freeze time: the base kernel with K_s scaled by a(t) and K_a by
        ka_scale(t)."""
        return _ScaledKernel(self.base, self.a(t), self.ka_scale(t))

    def __call__(self, t, x, y):
        return self.at(t)(x, y)


def time_modulate(base: Kernel, a, lam: float, Lam: float,
                  ka_scale=None) -> TimeKernel:
    return TimeKernel(base, a, lam, Lam, ka_scale=ka_scale)


# --- named closed-form fields used by scenario configs -------------------------

FIELD_PRESETS = {
    "zero": lambda **kw: (lambda x: np.zeros(np.asarray(x).shape[:-1])),
    "one": lambda **kw: (lambda x: np.ones(np.asarray(x).shape[:-1])),
    "linear-V": lambda b=(1.0,), **kw: (lambda x: _project(x, b)),
    "sin-V": lambda scale=1.0, **kw: (
        lambda x: scale * np.sin(np.asarray(x, dtype=float)[..., 0])),
    "abs-power-V": lambda gamma0=0.5, **kw: (lambda x: np.power(
        np.sqrt(np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)), gamma0)),
}

PAIR_FIELD_PRESETS = {
    "one": lambda **kw: (lambda x, y: np.ones(np.broadcast_shapes(
        np.asarray(x).shape[:-1], np.asarray(y).shape[:-1]))),
    # g(x,y) = 2 + (sin(x_1) - sin(y_1))/2: range exactly [1, 3], and the
    # split-domination ratio |K_a|/K_s attains (Lam - lam)/(Lam + lam) = 1/2
    "sin-coefficient": lambda offset=2.0, amplitude=0.5, **kw: (
        lambda x, y: offset + amplitude * (
            np.sin(np.asarray(x, dtype=float)[..., 0])
            - np.sin(np.asarray(y, dtype=float)[..., 0]))),
    "sum-V": lambda V1="sin-V", V2="sin-V", offset=2.0, **kw: _pair_sum(V1, V2, offset),
    "product-V": lambda V1="sin-V", V2="sin-V", offset=2.0, **kw: _pair_prod(V1, V2, offset),
}


def _pair_sum(V1, V2, offset):
    f1, f2 = get_field(V1), get_field(V2)
    return lambda x, y: offset + f1(x) + f2(y)


def _pair_prod(V1, V2, offset):
    f1, f2 = get_field(V1), get_field(V2)
    return lambda x, y: offset + f1(x) * f2(y)


def _from_presets(presets, descriptor):
    """Resolve a field descriptor: callable, preset name, or config dict."""
    if callable(descriptor):
        return descriptor
    if isinstance(descriptor, str):
        return presets[descriptor]()
    d = dict(descriptor)
    return presets[d.pop("preset")](**d)


def get_field(descriptor):
    """A scalar field V(x) from ``FIELD_PRESETS`` (see ``_from_presets``)."""
    return _from_presets(FIELD_PRESETS, descriptor)


def get_pair_field(descriptor):
    """A pair field g(x, y) from ``PAIR_FIELD_PRESETS`` (see ``_from_presets``)."""
    return _from_presets(PAIR_FIELD_PRESETS, descriptor)


# --- seeded random fields: ensemble members and scenario data ----------------

def philox_stream(seed: int, member: int) -> np.random.Generator:
    """Counter-based generator stream: reproducible across runs and platforms."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(member))


def random_smooth_positive_field(rng: np.random.Generator, d: int):
    """Closed-form strictly positive random field: exp of four cosine modes
    with amplitudes 0.6 N(0, 1) / sqrt(4).

    Returning a callable keeps the ensemble resolution-independent: the same
    draw evaluates on any grid, which is what the refinement-stability
    comparisons need.
    """
    n_modes = 4
    freq = rng.uniform(0.5, 3.0, size=(n_modes, d))
    phase = rng.uniform(0, 2 * np.pi, size=n_modes)
    amp = 0.6 * rng.normal(size=n_modes) / np.sqrt(n_modes)

    def field(x):
        acc = sum(a * np.cos(_project(x, f) + p)
                  for a, f, p in zip(amp, freq, phase))
        return np.exp(acc)

    return field


# the keys besides family, d and alpha that kernel_from_config reads, per family
_FAMILY_KEYS = {"stable": {"coeff"}, "cone": {"beta", "cone", "double_cone"},
                "coefficient": {"g", "lam", "Lam"}, "drift": {"V", "j", "L", "lam", "Lam"}}


def kernel_from_config(cfg: dict) -> Kernel:
    """Build a kernel from a scenario-config dictionary (see cli schema)."""
    fam = cfg["family"]
    if fam not in _FAMILY_KEYS:
        raise ValueError(f"unknown kernel family {fam!r}")
    unread = sorted(set(cfg) - {"family", "d", "alpha"} - _FAMILY_KEYS[fam])
    if unread:
        raise ValueError(f"a {fam} kernel does not read {', '.join(map(repr, unread))}")
    d = int(cfg["d"])
    alpha = float(cfg["alpha"])
    if fam == "stable":
        return StableKernel(d, alpha, coeff=float(cfg.get("coeff", 1.0)))
    if fam == "cone":
        cone = Cone(tuple(cfg["cone"]["axis"]), float(cfg["cone"]["half_angle"]))
        dc = cfg.get("double_cone")
        double = None
        if dc is not None:
            double = Cone(tuple(dc["axis"]), float(dc["half_angle"]), double=True)
        return ConeKernel(alpha, float(cfg["beta"]), cone, double, d)
    # values resolved here that the spec lacks, defaults too, go into its params and hash
    if fam == "coefficient":
        g = cfg.get("g", "sin-coefficient")
        kernel = CoefficientKernel(get_pair_field(g), alpha, float(cfg.get("lam", 1.0)),
                                   float(cfg.get("Lam", 3.0)), d)
        resolved = {"g": g}
    elif fam == "drift":
        # |b| = 1 = lam: the increment |b| |x - y| stays within lam inside L = 1
        V = cfg.get("V", {"preset": "linear-V", "b": [1.0] if d == 1 else [0.5 ** 0.5] * d})
        j = cfg.get("j", 1.0)
        kernel = DriftKernel(get_pair_field(j) if isinstance(j, (dict, str)) else j,
                             get_field(V), float(cfg.get("L", 1.0)), alpha, d,
                             lam=float(cfg.get("lam", 1.0)), Lam=float(cfg.get("Lam", 1.0)))
        resolved = {"V": V, "j": j}
    kernel.spec = replace(kernel.spec, params=tuple(resolved.items()))
    return kernel
