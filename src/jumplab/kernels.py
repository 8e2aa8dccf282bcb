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
import inspect
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as _gamma

MIN_SEPARATION = 1e-14


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
    return (2.0 ** alpha) * _gamma((d + alpha) / 2.0) / (
        math.pi ** (d / 2.0) * abs(_gamma(-alpha / 2.0)))


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
        proj = np.tensordot(h, np.asarray(self.axis), axes=([-1], [0]))
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
    """Declarative description of a kernel; hashable for run manifests."""

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
        if self.beta is not None:
            cfg["beta"] = self.beta
        if self.lam is not None:
            cfg["lam"] = self.lam
        if self.Lam is not None:
            cfg["Lam"] = self.Lam
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

    Subclasses must set ``spec`` and implement ``sym`` and ``anti``; the
    singularity/decay orders steer the graded quadratures and the analytic
    integrability pre-tests of the assumption checkers.
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

    def sym_diag_order(self) -> float:
        """gamma with K_s(x, x+h) = O(|h|^{-d-gamma}) near the diagonal."""
        return self.spec.alpha

    def anti_diag_order(self) -> float:
        """gamma_a with |K_a(x, x+h)| = O(|h|^{-d-gamma_a}) near the diagonal."""
        return self.spec.alpha

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

    def dual(self) -> "Kernel":
        return _DualKernel(self)


class _DualKernel(Kernel):
    """View of K with swapped arguments: same symmetric part, negated drift."""

    def __init__(self, base: Kernel):
        self.base = base
        self.spec = base.spec

    def __call__(self, x, y):
        return self.base(y, x)

    def sym(self, x, y):
        return self.base.sym(x, y)

    def anti(self, x, y):
        return -self.base.anti(x, y)

    def sym_diag_order(self):
        return self.base.sym_diag_order()

    def anti_diag_order(self):
        return self.base.anti_diag_order()

    def anti_support(self):
        return self.base.anti_support()

    def decay_orders(self, part, dirs):
        return self.base.decay_orders(part, dirs)

    def radial_breaks(self):
        return self.base.radial_breaks()

    def dual(self):
        return self.base


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

    def anti_diag_order(self):
        return -math.inf

    def decay_orders(self, part, dirs):
        return np.full(dirs.shape[0], self.order)


class SplitKernel(Kernel):
    """Custom kernel given directly by a symmetric and an antisymmetric part."""

    def __init__(self, d: int, alpha: float, sym_fn, anti_fn, *,
                 anti_diag_order: float | None = None,
                 anti_support: float | None = None, validate: bool = True):
        self.spec = KernelSpec("custom-symmetric-plus-antisymmetric", d, alpha)
        self._sym = sym_fn
        self._anti = anti_fn
        self._anti_diag = alpha if anti_diag_order is None else anti_diag_order
        self._anti_supp = anti_support
        if validate:
            _validate_split(self, d)

    def sym(self, x, y):
        return self._sym(x, y)

    def anti(self, x, y):
        return self._anti(x, y)

    def anti_diag_order(self):
        return self._anti_diag

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


def _lattice_pair_values(d: int, *fns, n: int = 6, extent: float = 2.0):
    """Values of each ``fn`` on the off-diagonal pairs of an n^d validation lattice."""
    axes = [np.linspace(-extent, extent, n)] * d
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    off = ~np.eye(pts.shape[0], dtype=bool)
    return [M[off] for M in pair_values(pts, *fns)]


def _validate_split(kernel: Kernel, d: int):
    ks, ka = _lattice_pair_values(d, kernel.sym, kernel.anti)
    scale = np.maximum(np.abs(ks), 1e-300)
    if np.any(ks + ka < -1e-12 * scale):
        raise ValueError("kernel is negative on the validation lattice")
    if np.any(np.abs(ka) > ks * (1 + 1e-12) + 1e-300):
        raise ValueError("antisymmetric part exceeds symmetric part; "
                         "K would be negative for one ordering")


class CoefficientKernel(Kernel):
    """K(x,y) = g(x,y) * J(x,y) with a bounded two-point coefficient g.

    ``g_smoothness`` records the Hoelder exponent of g's antisymmetric part
    in |x - y| (0 = bounded only); it sharpens the drift singularity order
    used by the integrability pre-tests, |K_a| = O(|h|^{smoothness - d - a}).
    """

    def __init__(self, g, alpha: float, lam: float, Lam: float, d: int,
                 base: Kernel | None = None, g_smoothness: float = 0.0):
        if not (0.0 < lam <= Lam < math.inf):
            raise ValueError("need 0 < lam <= Lam < inf")
        self.g = g
        self.base = base if base is not None else StableKernel(d, alpha)
        if self.base.anti_support() is not None or not isinstance(self.base, Kernel):
            raise ValueError("base must be a symmetric kernel")
        self.lam = float(lam)
        self.Lam = float(Lam)
        self.g_smoothness = float(g_smoothness)
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

    def sym_diag_order(self):
        return self.base.sym_diag_order()

    def anti_diag_order(self):
        return self.base.sym_diag_order() - min(self.g_smoothness, 1.0)

    def decay_orders(self, part, dirs):
        return self.base.decay_orders("sym", dirs)


class DriftKernel(Kernel):
    """Symmetric stable part plus a truncated potential-difference drift.

    K(x,y) = j(x,y) c_{d,a} |x-y|^{-d-a}
           + (V(x) - V(y)) 1{|x-y| <= L} c_{d,a} |x-y|^{-d-a}.

    Nonnegativity requires |V(x) - V(y)| <= lam within the truncation radius;
    this is checked on a validation lattice at construction.
    """

    def __init__(self, j, V, L: float, alpha: float, d: int,
                 lam: float = 1.0, Lam: float = 1.0, *,
                 v_holder: float = 1.0):
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
        self.v_holder = float(v_holder)
        self.spec = KernelSpec("drift", d, alpha, lam=lam, Lam=Lam, trunc=L)
        (dv,) = _lattice_pair_values(d, lambda x, y: np.abs(
            np.asarray(V(x)) - np.asarray(V(y))) * (
            np.sqrt(np.sum((x - y) ** 2, axis=-1)) <= self.L))
        if np.any(dv > lam + 1e-12):
            raise ValueError(
                "potential increment exceeds lam inside the truncation radius; "
                "kernel would go negative (shrink L or rescale V)")

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

    def anti_diag_order(self):
        # Hoelder-gamma potential gives |K_a| = O(|h|^{gamma - d - alpha})
        return self.alpha - min(self.v_holder, 1.0)

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

    def sym_diag_order(self):
        return self.alpha if self.double_cone is not None else self.beta

    def anti_diag_order(self):
        return self.beta

    def decay_orders(self, part, dirs):
        in_C = (self.cone.indicator(dirs) + self.cone.indicator(-dirs)) > 0
        out = np.full(dirs.shape[0], self.alpha)
        if part in ("sym", "full", "anti"):
            out = np.where(in_C, self.beta, self.alpha)
        return out


# --- operations ---------------------------------------------------------------

def make_coefficient_kernel(g, alpha: float, lam: float, Lam: float, d: int,
                            base: Kernel | None = None,
                            g_smoothness: float = 0.0) -> CoefficientKernel:
    return CoefficientKernel(g, alpha, lam, Lam, d, base=base,
                             g_smoothness=g_smoothness)


def make_drift_kernel(j, V, L: float, alpha: float, d: int,
                      lam: float = 1.0, Lam: float = 1.0,
                      v_holder: float = 1.0) -> DriftKernel:
    return DriftKernel(j, V, L, alpha, d, lam=lam, Lam=Lam, v_holder=v_holder)


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


class TimeKernel:
    """k(t;x,y) = a(t;x,y) K_s(x,y) + s(t) K_a(x,y) with a in [lam, Lam].

    ``a`` may be a scalar-valued function of t alone (separable modulation,
    fast assembly path) or a full a(t, x, y) field; ``ka_scale`` modulates the
    drift part, |s| <= 1 keeps the kernel admissible.
    """

    def __init__(self, base: Kernel, a, lam: float, Lam: float,
                 ka_scale=None, *, validate_times=(0.0, 0.5, 1.0)):
        if not (0.0 < lam <= Lam < math.inf):
            raise ValueError("need 0 < lam <= Lam < inf")
        self.base = base
        self.lam = float(lam)
        self.Lam = float(Lam)
        self.ka_scale = ka_scale if ka_scale is not None else (lambda t: 1.0)
        n_args = len(inspect.signature(a).parameters)
        self.separable = n_args == 1
        self.a = a
        for t in validate_times:
            (av,) = _lattice_pair_values(base.d, lambda x, y: self._a_vals(t, x, y), n=4)
            if np.any(av < lam - 1e-12) or np.any(av > Lam + 1e-12):
                raise ValueError(f"modulation leaves [lam, Lam] at t={t}")
            sv = float(self.ka_scale(t))
            if abs(sv) > 1.0 + 1e-12:
                raise ValueError(f"|ka_scale(t)| > 1 at t={t}")

    def _a_vals(self, t, x, y):
        if self.separable:
            return np.full(np.broadcast_shapes(np.asarray(x).shape[:-1],
                                               np.asarray(y).shape[:-1]),
                           float(self.a(t)))
        va = np.asarray(self.a(t, x, y), dtype=float)
        return 0.5 * (va + np.asarray(self.a(t, y, x), dtype=float))

    def at(self, t: float):
        """Freeze time: returns a SplitKernel evaluating k(t; x, y)."""
        s = float(self.ka_scale(t))
        if self.separable:
            a = float(self.a(t))
            sym_fn = lambda x, y: a * self.base.sym(x, y)
        else:
            sym_fn = lambda x, y: self._a_vals(t, x, y) * self.base.sym(x, y)
        anti_fn = lambda x, y: s * self.base.anti(x, y)
        k = SplitKernel(self.base.d, self.base.alpha, sym_fn, anti_fn,
                        anti_diag_order=self.base.anti_diag_order(),
                        anti_support=self.base.anti_support(), validate=False)
        return k

    def __call__(self, t, x, y):
        return (self._a_vals(t, x, y) * self.base.sym(x, y)
                + float(self.ka_scale(t)) * self.base.anti(x, y))

    def sym_at(self, t, x, y):
        return self._a_vals(t, x, y) * self.base.sym(x, y)

    def anti_at(self, t, x, y):
        return float(self.ka_scale(t)) * self.base.anti(x, y)


def time_modulate(base: Kernel, a, lam: float, Lam: float,
                  ka_scale=None) -> TimeKernel:
    return TimeKernel(base, a, lam, Lam, ka_scale=ka_scale)


# --- named closed-form fields used by scenario configs -------------------------

def _field_linear(b):
    b = np.asarray(b, dtype=float)
    return lambda x: np.tensordot(np.asarray(x, dtype=float), b, axes=([-1], [0]))


def _field_sin1(scale=1.0):
    return lambda x: scale * np.sin(np.asarray(x, dtype=float)[..., 0])


def _field_abs_power(gamma0):
    return lambda x: np.power(np.sqrt(np.sum(np.asarray(x, dtype=float) ** 2,
                                             axis=-1)), gamma0)


FIELD_PRESETS = {
    "zero": lambda **kw: (lambda x: np.zeros(np.asarray(x).shape[:-1])),
    "one": lambda **kw: (lambda x: np.ones(np.asarray(x).shape[:-1])),
    "linear-V": lambda b=(1.0,), **kw: _field_linear(b),
    "sin-V": lambda scale=1.0, **kw: _field_sin1(scale),
    "abs-power-V": lambda gamma0=0.5, **kw: _field_abs_power(gamma0),
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


def _resolve_field(name_or_fn, **kw):
    if callable(name_or_fn):
        return name_or_fn
    return FIELD_PRESETS[name_or_fn](**kw)


def _pair_sum(V1, V2, offset):
    f1, f2 = _resolve_field(V1), _resolve_field(V2)
    return lambda x, y: offset + f1(x) + f2(y)


def _pair_prod(V1, V2, offset):
    f1, f2 = _resolve_field(V1), _resolve_field(V2)
    return lambda x, y: offset + f1(x) * f2(y)


def get_field(descriptor):
    """Resolve a scalar-field descriptor: callable, preset name, or config dict."""
    if callable(descriptor):
        return descriptor
    if isinstance(descriptor, str):
        return FIELD_PRESETS[descriptor]()
    d = dict(descriptor)
    name = d.pop("preset")
    return FIELD_PRESETS[name](**d)


def get_pair_field(descriptor):
    if callable(descriptor):
        return descriptor
    if isinstance(descriptor, str):
        return PAIR_FIELD_PRESETS[descriptor]()
    d = dict(descriptor)
    name = d.pop("preset")
    return PAIR_FIELD_PRESETS[name](**d)


class SampledField:
    """Scalar field given by samples on a uniform tensor grid.

    Multilinear interpolation off-grid, constant extension outside the box;
    lets data-driven potentials plug into the same kernel constructors as
    closed forms.
    """

    def __init__(self, axes, values):
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != tuple(len(a) for a in self.axes):
            raise ValueError("value array shape does not match the axes")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        shape = x.shape[:-1]
        pts = x.reshape(-1, x.shape[-1])
        out = self._interp(pts)
        return out.reshape(shape)

    def _interp(self, pts):
        d = len(self.axes)
        idx = []
        frac = []
        for k in range(d):
            a = self.axes[k]
            t = np.clip(pts[:, k], a[0], a[-1])
            i = np.clip(np.searchsorted(a, t) - 1, 0, len(a) - 2)
            idx.append(i)
            frac.append((t - a[i]) / (a[i + 1] - a[i]))
        out = np.zeros(pts.shape[0])
        for corner in range(2 ** d):
            w = np.ones(pts.shape[0])
            loc = []
            for k in range(d):
                hi = (corner >> k) & 1
                w = w * (frac[k] if hi else (1.0 - frac[k]))
                loc.append(idx[k] + hi)
            out += w * self.values[tuple(loc)]
        return out


def kernel_from_config(cfg: dict) -> Kernel:
    """Build a kernel from a scenario-config dictionary (see cli schema)."""
    fam = cfg["family"]
    d = int(cfg["d"])
    alpha = float(cfg["alpha"])
    if fam == "stable":
        return StableKernel(d, alpha, coeff=float(cfg.get("coeff", 1.0)))
    if fam == "coefficient":
        g = get_pair_field(cfg.get("g", "sin-coefficient"))
        # the named presets are all Lipschitz in each slot
        smooth = float(cfg.get("g_smoothness", 1.0))
        return CoefficientKernel(g, alpha, float(cfg.get("lam", 1.0)),
                                 float(cfg.get("Lam", 3.0)), d,
                                 g_smoothness=smooth)
    if fam == "drift":
        V = get_field(cfg.get("V", {"preset": "linear-V", "b": [1.0] * d}))
        j = cfg.get("j", 1.0)
        if isinstance(j, (dict, str)):
            j = get_pair_field(j)
        return DriftKernel(j, V, float(cfg.get("L", 1.0)), alpha, d,
                           lam=float(cfg.get("lam", 1.0)),
                           Lam=float(cfg.get("Lam", 1.0)),
                           v_holder=float(cfg.get("v_holder", 1.0)))
    if fam == "cone":
        cone = Cone(tuple(cfg["cone"]["axis"]), float(cfg["cone"]["half_angle"]))
        dc = cfg.get("double_cone")
        double = None
        if dc is not None:
            double = Cone(tuple(dc["axis"]), float(dc["half_angle"]), double=True)
        return ConeKernel(alpha, float(cfg["beta"]), cone, double, d)
    raise ValueError(f"unknown kernel family {fam!r}")
