"""Radial/angular quadrature helpers shared by assembly and assumption checkers.

One ray rule computes every tail and ball integral.  Along each direction e
it takes int_lo^hi F(x, x + s e) s^{d-1} ds on Gauss panels in log
coordinates s = lo * exp(tau) (``_ray_sum``), which turn power-law integrands
into smooth exponentials, so the panels converge fast however close the
singular endpoint is approached; the angular weights then sum the rays.  Two
end terms close the rule, both built from F(x, x + s e) s^d at the cut radius
(``_ray_end``):

- inner: a ball integral starts at s_min = s_min_rel * cap; assuming
  F ~ s^{-p} below it (p < d), the missing [0, s_min] adds
  F(s_min) s_min^d / (d - p);
- outer: an infinite tail stops at s_max = s0 * 2**growth_octaves; assuming
  F ~ s^{-d-gamma(e)} beyond it, the missing [s_max, inf) adds
  F(s_max) s_max^d / gamma(e).

Assembly takes its tail weights from this rule only for kernels without a ray
profile: coefficient, drift and custom (``SplitKernel``) kernels and their
duals and time slices; stable and cone kernels, their duals and their time
slices get closed-form tails in ``discretize``.
The assumption checkers (K1, K1glob, Tail, Cutoff) and ``mosco`` use the rule
for every kernel.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_BALL_BLOCK = 32    # points per ball_integral block
_TAIL_BLOCK = 128   # points per exterior_tail block


def _gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]."""
    if n not in _GAUSS_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GAUSS_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _GAUSS_CACHE[n]


@dataclass(frozen=True)
class QuadSpec:
    """Resolution knobs for the polar quadratures; recorded in every report."""

    n_ang: int = 64          # angular midpoint nodes (d=2); ignored for d=1
    n_panels: int = 40       # log-space Gauss panels per radial integral
    n_gauss: int = 4         # Gauss points per panel
    s_min_rel: float = 1e-8  # inner cutoff relative to the outer radius
    growth_octaves: int = 24 # outer truncation of infinite tails: s0 * 2**octaves

    def refined(self) -> "QuadSpec":
        """Twice the angular and radial panels, half the inner cutoff."""
        return QuadSpec(self.n_ang * 2, self.n_panels * 2,
                        self.n_gauss, self.s_min_rel / 2, self.growth_octaves + 4)

    def to_dict(self):
        return asdict(self)


def directions(d: int, n_ang: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions and angular weights; antipodal pairs sit at k and k + n/2.

    d=1 returns the two signs with weight 1 each (counting measure on S^0);
    d=2 uses the midpoint rule on [0, 2pi).
    """
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if d == 2:
        if n_ang % 2:
            n_ang += 1
        phi = (np.arange(n_ang) + 0.5) * (2.0 * np.pi / n_ang)
        dirs = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        return dirs, np.full(n_ang, 2.0 * np.pi / n_ang)
    raise ValueError(f"unsupported dimension {d}")


def _log_nodes(lo: np.ndarray, hi: np.ndarray, spec: QuadSpec):
    """Nodes/weights for int_lo^hi f(s) ds with log grading toward lo.

    lo, hi broadcast against each other; returns nodes and weights of shape
    broadcast_shape + (n_panels * n_gauss,).  Weights include ds.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    gx, gw = _gauss01(spec.n_gauss)
    edges = np.linspace(0.0, 1.0, spec.n_panels + 1)
    # positions in [0,1] of all Gauss nodes across panels
    xi = (edges[:-1, None] + np.diff(edges)[:, None] * gx[None, :]).ravel()
    wxi = (np.diff(edges)[:, None] * gw[None, :]).ravel()
    ratio = np.where(lo > 0, hi / np.maximum(lo, 1e-300), 1.0)
    ln_ratio = np.log(np.maximum(ratio, 1.0))
    # s = lo * exp(tau), tau in [0, ln_ratio]
    tau = ln_ratio[..., None] * xi
    s = lo[..., None] * np.exp(tau)
    w = s * ln_ratio[..., None] * wxi
    return s, w


def ray_exit_box(x: np.ndarray, dirs: np.ndarray, halfwidth: float) -> np.ndarray:
    """Distance from x (inside the box) to the boundary of [-X, X]^d along dirs.

    x: (N, d), dirs: (m, d) -> (N, m).  Per axis, a direction divides only by
    the wall it meets (+X for a positive component, -X for a negative one);
    a zero component never meets a wall of that axis.
    """
    x = np.atleast_2d(x)
    t = None
    for a in range(x.shape[1]):
        e = dirs[:, a]
        moving = e != 0
        q = np.where(e > 0, halfwidth, -halfwidth) - x[:, a, None]
        np.divide(q, e, out=q, where=moving)
        q[:, ~moving] = np.inf
        t = q if t is None else np.minimum(t, q, out=t)
    return t


def ray_exit_ball(x: np.ndarray, dirs: np.ndarray, center: np.ndarray,
                  radius: float) -> np.ndarray:
    """Distance from x (inside the ball) to the sphere |y - center| = radius."""
    x = np.atleast_2d(x)
    q = x - np.asarray(center)[None, :]
    b = np.einsum("nd,md->nm", q, dirs)
    disc = b ** 2 + radius ** 2 - np.sum(q * q, axis=-1)[:, None]
    disc = np.maximum(disc, 0.0)
    return -b + np.sqrt(disc)


def _ray_sum(eval2, x, dirs, lo, hi, d, spec):
    """Integrals int_lo^hi F(x, x + s e) s^{d-1} ds, one per ray: the origins
    x (..., d) and directions dirs (..., d) broadcast against lo and hi, as
    x[:, None, :] with dirs (m, d) for every (point, direction) pair."""
    s, w = _log_nodes(lo, hi, spec)                          # (..., K)
    x = x[..., None, :]
    y = x + s[..., None] * dirs[..., None, :]
    vals = eval2(x, y)
    return np.sum(vals * np.power(s, d - 1) * w, axis=-1)


def _ray_end(eval2, x, dirs, s, d):
    """(N, m) end terms F(x, x + s e) s^d at the per-direction radii s."""
    y = x[:, None, None, :] + s[:, :, None, None] * dirs[None, :, None, :]
    return eval2(x[:, None, None, :], y)[..., 0] * np.power(s, d)


def ball_integral(eval2, x: np.ndarray, center, radius: float,
                  d: int, spec: QuadSpec, *, singular_order: float | None = None,
                  breaks: tuple[float, ...] = ()) -> np.ndarray:
    """Compute int_{B_radius(center)} F(x, y) dy for each x by polar quadrature.

    ``center=None`` integrates over the ball B_radius(x) around each x itself.
    ``eval2(xb, y)`` must broadcast: xb (N,1,1,d), y (N,m,K,d) -> (N,m,K).
    The radial rule is graded geometrically toward y = x.  If singular_order
    ``p`` is given (F ~ s^{-p} near s=0) the analytic remainder of the missing
    [0, s_min] piece is added assuming that local power law.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    dirs, ang_w = directions(d, spec.n_ang)
    out = np.zeros(x.shape[0])
    for lo in range(0, x.shape[0], _BALL_BLOCK):
        xb, total = x[lo:lo + _BALL_BLOCK], out[lo:lo + _BALL_BLOCK]
        if center is None:
            caps = np.full((xb.shape[0], dirs.shape[0]), float(radius))
        else:
            caps = ray_exit_ball(xb, dirs, center, radius)  # (N, m)
        for seg_lo, seg_hi in _segments(caps, breaks, spec):
            total += _ray_sum(eval2, xb[:, None, :], dirs, seg_lo, seg_hi, d, spec) @ ang_w
        if singular_order is not None and singular_order < d:
            rem = _ray_end(eval2, xb, dirs, spec.s_min_rel * caps, d) / (d - singular_order)
            total += rem @ ang_w
    return out


def _segments(caps: np.ndarray, breaks: tuple[float, ...], spec: QuadSpec):
    """Split [s_min_rel*cap, cap] at fixed radii so kernel jumps sit on edges."""
    lo = spec.s_min_rel * caps
    cuts = sorted(b for b in breaks if b > 0)
    prev = lo
    for b in cuts:
        seg_hi = np.minimum(caps, b)
        seg_hi = np.maximum(seg_hi, prev)
        yield prev, seg_hi
        prev = seg_hi
    yield prev, np.maximum(caps, prev)


def exterior_tail(pieces, x: np.ndarray, exit_fn, d: int,
                  spec: QuadSpec) -> np.ndarray:
    """Integrate kernel pieces over the exterior region along each direction.

    ``pieces`` is a sequence of (eval2, upper, decay_fn); see Kernel.radial_pieces.
    ``exit_fn(x, dirs)`` gives the per-direction start radius (region boundary).
    Finite-upper pieces are integrated on [s0, upper], on the rays with
    s0 < upper only; infinite pieces get a truncated log-space rule plus a
    power-law remainder with the per-direction decay exponent.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    dirs, ang_w = directions(d, spec.n_ang)
    out = np.zeros(x.shape[0])
    for lo in range(0, x.shape[0], _TAIL_BLOCK):
        xb, total = x[lo:lo + _TAIL_BLOCK], out[lo:lo + _TAIL_BLOCK]
        s0 = exit_fn(xb, dirs)                               # (N, m)
        for eval2, upper, decay_fn in pieces:
            if upper is not None:
                rows, cols = np.nonzero(s0 < upper)
                if rows.size == 0:
                    continue
                contrib = np.zeros(s0.shape)
                contrib[rows, cols] = _ray_sum(eval2, xb[rows], dirs[cols], s0[rows, cols],
                                               float(upper), d, spec)
                total += contrib @ ang_w
            else:
                s_max = s0 * (2.0 ** spec.growth_octaves)
                contrib = _ray_sum(eval2, xb[:, None, :], dirs, s0, s_max, d, spec)
                gam = np.asarray(decay_fn(dirs), dtype=float)  # (m,)
                rem = _ray_end(eval2, xb, dirs, s_max, d) / np.maximum(gam[None, :], 1e-12)
                total += (contrib + rem) @ ang_w
    return out
