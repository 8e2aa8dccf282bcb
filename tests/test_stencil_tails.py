"""Power-law kernels in assembly: the ray profile, the stencil pair arrays
(bit for bit against pair_values), the closed-form exterior tails (against
the ray rule), the tiled symmetrisation, the active-ray tail branch and the
block-restricted form sums."""
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from _oracles import old_form_value, old_layer_cake_weighted_form, old_toeplitz_axes
from jumplab import (
    Cone,
    CutoffProfile,
    assemble,
    build_grid,
    form_value,
    layer_cake_weighted_form,
    make_cone_kernel,
    make_drift_kernel,
    make_stable_kernel,
)
from jumplab import discretize
from jumplab.discretize import (
    _completed_form,
    _pair_arrays,
    _symmetrise,
    _toeplitz_axes,
    pair_mask_ball,
    pair_mask_level,
)
from jumplab.kernels import SplitKernel, pair_values, time_modulate
from jumplab.quadrature import QuadSpec, directions, exterior_tail, ray_exit_box

V2 = lambda x: np.tensordot(np.asarray(x, dtype=float), np.array([0.3, -0.4]),
                            axes=([-1], [0]))


def _tilted_cone_kernel():
    # axes off the lattice directions: the cone projections are rounded sums
    C = Cone((math.cos(0.3), math.sin(0.3)), math.pi / 5)
    D = Cone((math.cos(0.3 + math.pi / 2), math.sin(0.3 + math.pi / 2)), math.pi / 7,
             double=True)
    return make_cone_kernel(1.2, 0.4, C, D, d=2)


# --- ray_profile -------------------------------------------------------------

def _profiled(cone_kernel_1d, cone_kernel_2d):
    return [cone_kernel_1d, cone_kernel_2d, cone_kernel_2d.dual(), _tilted_cone_kernel(),
            make_stable_kernel(2, 1.3, coeff=0.7), make_stable_kernel(1, 0.8)]


@pytest.mark.parametrize("part", ["sym", "anti"])
def test_profile_matches_the_kernel_along_rays(cone_kernel_1d, cone_kernel_2d, part):
    rng = np.random.Generator(np.random.Philox(key=6))
    for kernel in _profiled(cone_kernel_1d, cone_kernel_2d):
        d = kernel.d
        dirs, _ = directions(d, 64)
        c, gamma = kernel.ray_profile(part, dirs)
        live = c != 0
        assert np.array_equal(gamma[live], kernel.decay_orders(part, dirs)[live])
        fn = kernel.sym if part == "sym" else kernel.anti
        for s in (0.01, 0.7, 40.0):
            x = rng.uniform(-1, 1, size=(1, d))
            vals = fn(np.broadcast_to(x, dirs.shape), x + s * dirs)
            ref = c * s ** (-d - gamma)
            assert np.allclose(vals, ref, rtol=1e-13, atol=0.0), (kernel.spec, s)


def test_profile_of_the_dual_negates_only_the_drift(cone_kernel_2d):
    dirs, _ = directions(2, 64)
    for part, sign in (("sym", 1.0), ("anti", -1.0)):
        c, gamma = cone_kernel_2d.ray_profile(part, dirs)
        c_dual, gamma_dual = cone_kernel_2d.dual().ray_profile(part, dirs)
        assert np.array_equal(c_dual, sign * c) and np.array_equal(gamma_dual, gamma)
    assert np.any(cone_kernel_2d.ray_profile("anti", dirs)[0] != 0)


def test_unprofiled_kernels(sin_coefficient_kernel, linear_drift_kernel):
    J = make_stable_kernel(1, 1.0)
    split = SplitKernel(1, 1.0, J.sym, lambda x, y: 0.0 * J.sym(x, y))
    dirs, _ = directions(1, 2)
    for kernel in (sin_coefficient_kernel, linear_drift_kernel, split,
                   linear_drift_kernel.dual()):
        for part in ("sym", "anti"):
            assert kernel.ray_profile(part, dirs) is None, type(kernel).__name__


def test_profile_of_a_time_slice_scales_the_base(cone_kernel_1d):
    frozen = time_modulate(cone_kernel_1d, lambda t: 1.0 + t, 1.0, 2.0,
                           ka_scale=lambda t: -0.5).at(0.5)
    dirs, _ = directions(1, 2)
    for part, scale in (("sym", 1.5), ("anti", -0.5)):
        c, gamma = cone_kernel_1d.ray_profile(part, dirs)
        c_t, gamma_t = frozen.ray_profile(part, dirs)
        assert np.array_equal(c_t, scale * c) and np.array_equal(gamma_t, gamma)


# --- stencil pairs -----------------------------------------------------------

def _pair_cases(cone_kernel_1d, cone_kernel_2d):
    box_1d = build_grid(1, 2.0, 1 / 64, {"type": "box", "halfwidth": 1.5})
    ball_2d = build_grid(2, 1.0, 1 / 16, {"type": "ball", "radius": 0.75})
    return [("cone-1d-box", cone_kernel_1d, box_1d),
            ("cone-2d-ball", cone_kernel_2d, ball_2d),
            ("stable-2d", make_stable_kernel(2, 1.3, coeff=0.7), ball_2d),
            ("dual-cone-2d", cone_kernel_2d.dual(), ball_2d),
            ("tilted-cone-2d", _tilted_cone_kernel(), build_grid(2, 1.0, 1 / 8))]


def test_stencil_pairs_equal_pair_values(cone_kernel_1d, cone_kernel_2d, monkeypatch):
    for name, kernel, grid in _pair_cases(cone_kernel_1d, cone_kernel_2d):
        ref = pair_values(grid.nodes, kernel.sym, kernel.anti)
        assert _toeplitz_axes(grid) is not None, name
        with monkeypatch.context() as m:
            m.setattr(discretize, "pair_values", None)      # the stencil path only
            new = [M for M, _ in _pair_arrays(kernel, grid, True)]
        assert all(np.array_equal(a, b) for a, b in zip(new, ref)), name
        assert np.any(ref[1] != 0) or name == "stable-2d"


def test_non_dyadic_grid_falls_back(cone_kernel_1d):
    grid = build_grid(1, 2.0, 4.0 / 48)
    assert _toeplitz_axes(grid) is None
    new = [M for M, _ in _pair_arrays(cone_kernel_1d, grid, True)]
    ref = pair_values(grid.nodes, cone_kernel_1d.sym, cone_kernel_1d.anti)
    assert all(np.array_equal(a, b) for a, b in zip(new, ref))


def test_assembled_form_matches_the_pair_values_path(cone_kernel_2d, monkeypatch):
    grid = build_grid(2, 1.0, 1 / 8, {"type": "ball", "radius": 0.75})
    quad = QuadSpec(n_ang=32, n_panels=20)
    F = assemble(cone_kernel_2d, grid, quad=quad)
    monkeypatch.setattr(discretize, "_toeplitz_axes", lambda grid: None)
    G = assemble(cone_kernel_2d, grid, quad=quad)
    assert np.array_equal(F.A_s, G.A_s) and np.array_equal(F.A_a, G.A_a)
    assert np.array_equal(F.tail_sym, G.tail_sym)


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("case", ["dual-cone-2d", "time-slice-2d", "stable-2d"])
def test_assembled_forms_match_the_pair_values_path_bit_for_bit(case, cone_kernel_2d,
                                                                monkeypatch):
    kernel = {"dual-cone-2d": cone_kernel_2d.dual(),
              "time-slice-2d": time_modulate(cone_kernel_2d, lambda t: 1.0 + t, 1.0, 2.0,
                                             ka_scale=lambda t: -0.7).at(0.5),
              "stable-2d": make_stable_kernel(2, 1.3, coeff=0.7)}[case]
    grid = build_grid(2, 1.0, 1 / 16, {"type": "ball", "radius": 0.75})
    quad = QuadSpec(n_ang=32, n_panels=20)
    F = assemble(kernel, grid, quad=quad)
    monkeypatch.setattr(discretize, "_toeplitz_axes", lambda grid: None)
    G = assemble(kernel, grid, quad=quad)
    for name in ("A_s", "A_a", "tail_sym", "tail_anti"):
        assert _same_bits(getattr(F, name), getattr(G, name)), name


def _counting(monkeypatch, name):
    calls = []
    fn = getattr(discretize, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(discretize, name, counted)
    return calls


def test_assembly_symmetrises_on_the_stencil_and_reads_the_grid_once(cone_kernel_1d,
                                                                     cone_kernel_2d,
                                                                     monkeypatch):
    counted = {name: _counting(monkeypatch, name)
               for name in ("_symmetrise", "_toeplitz_axes", "ray_exit_box")}
    cases = [(cone_kernel_2d, build_grid(2, 1.0, 1 / 8), 0),
             (cone_kernel_1d, build_grid(1, 2.0, 1 / 64), 0),
             (cone_kernel_1d, build_grid(1, 2.0, 4.0 / 48), 2)]     # the non-dyadic fallback
    for kernel, grid, n_symmetrise in cases:
        for calls in counted.values():
            calls.clear()
        assemble(kernel, grid)
        assert len(counted["_symmetrise"]) == n_symmetrise
        assert len(counted["_toeplitz_axes"]) == 1 and len(counted["ray_exit_box"]) == 1


def _axes_to_test(rng):
    """Cell-centred axes as ``build_grid`` makes them, dyadic or not, and
    reversed; each also with one coordinate moved by one ulp and with a nan,
    at random offsets."""
    axes = []
    for h in (1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64, 4 / 48, 0.1, 1 / 3, 2 / 7):
        for X in (0.5, 1.0, 2.0):
            n = round(2 * X / h)
            if abs(2 * X / h - n) > 1e-9 * n or n > 256:
                continue
            a = -X + (np.arange(n) + 0.5) * h
            axes += [a, a[::-1].copy()]
    out = []
    for a in axes:
        ulp, nan = a.copy(), a.copy()
        m = rng.integers(a.size)
        ulp[m] = np.nextafter(ulp[m], rng.choice([-np.inf, np.inf]))
        nan[rng.integers(a.size)] = np.nan
        out += [a, ulp, nan]
    return out


def _lattice(*axes):
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    return SimpleNamespace(nodes=nodes, d=len(axes))


def test_one_comparison_per_axis_decides_as_the_per_offset_loop(rng):
    axes = _axes_to_test(rng)
    by_size = {}
    for a in axes:
        by_size.setdefault(a.size, []).append(a)
    pairs = [(a, b) for same in by_size.values() for a in same for b in same]
    cases = [_lattice(a) for a in axes] + [
        _lattice(*pairs[i]) for i in rng.choice(len(pairs), 300, replace=False)]
    accepted = 0
    for grid in cases:
        new, ref = _toeplitz_axes(grid), old_toeplitz_axes(grid)
        assert (new is None) == (ref is None), grid.nodes
        if new is not None:
            accepted += 1
            assert all(np.array_equal(x, y) for x, y in zip(new, ref))
    assert 0 < accepted < len(cases)


def test_node_lattice_that_is_not_a_tensor_grid():
    grid = build_grid(2, 1.0, 1 / 4)
    flipped = discretize.Grid(2, grid.X, grid.h, grid.nodes[::-1].copy(), grid.interior)
    swapped = grid.nodes.copy()
    swapped[[0, 5]] = swapped[[5, 0]]
    swapped = discretize.Grid(2, grid.X, grid.h, swapped, grid.interior)
    assert _toeplitz_axes(grid) is not None and _toeplitz_axes(flipped) is not None
    assert _toeplitz_axes(swapped) is None


# --- closed-form tails -------------------------------------------------------

def _rule(kernel, grid, part, quad, rows):
    exit_fn = lambda x, dirs: ray_exit_box(x, dirs, grid.X)
    return 2.0 * exterior_tail(kernel.radial_pieces(part), grid.nodes[rows], exit_fn,
                               grid.d, quad)


@pytest.mark.parametrize("case", ["cone-1d", "cone-2d", "stable-2d"])
def test_closed_form_tails_against_the_ray_rule(case, cone_kernel_1d, cone_kernel_2d):
    if case == "cone-1d":
        kernel, grid = cone_kernel_1d, build_grid(1, 2.0, 1 / 64, {"type": "box", "halfwidth": 1.5})
    else:
        kernel = cone_kernel_2d if case == "cone-2d" else make_stable_kernel(2, 1.3)
        grid = build_grid(2, 1.0, 1 / 16, {"type": "ball", "radius": 0.75})
    quad = QuadSpec()
    refined = QuadSpec(quad.n_ang, 4 * quad.n_panels, 2 * quad.n_gauss, quad.s_min_rel,
                       quad.growth_octaves)
    F = assemble(kernel, grid, quad=quad)
    rows = np.arange(0, grid.n_nodes, max(1, grid.n_nodes // 40))
    rows = np.union1d(rows, [0, grid.n_nodes - 1])       # corner nodes included
    for part, closed in (("sym", F.tail_sym[rows]), ("anti", F.tail_anti[rows])):
        default = _rule(kernel, grid, part, quad, rows)
        if part == "anti" and not np.any(default):
            assert not np.any(closed)
            continue
        scale = np.abs(closed) if part == "sym" else np.max(np.abs(closed))
        err_default = np.max(np.abs(closed - default) / scale)
        assert err_default <= 1e-10, (part, err_default)
        if part == "sym":
            err_refined = np.max(np.abs(closed - _rule(kernel, grid, part, refined, rows))
                                 / scale)
            assert err_refined < err_default, (err_refined, err_default)


def test_assembly_runs_no_ray_rule_for_profiled_kernels(cone_kernel_2d, monkeypatch):
    grid = build_grid(2, 1.0, 1 / 8)
    monkeypatch.setattr(discretize, "exterior_tail", None)
    F = assemble(cone_kernel_2d, grid)
    assert np.all(F.tail_sym > 0)


# --- tiled symmetrisation ----------------------------------------------------

@pytest.mark.parametrize("n", [1, 255, 256, 600])
def test_tiled_symmetrisation_equals_the_two_line_form(n):
    rng = np.random.Generator(np.random.Philox(key=n))
    M = rng.standard_normal((n, n))
    M[rng.random((n, n)) < 0.3] = 0.0
    M[rng.random((n, n)) < 0.1] = -0.0
    M[:n // 2, :n // 2] = M[:n // 2, :n // 2].T                # equal pairs
    for op, two_line in ((np.add, lambda S: (S + S.T) * 0.5),
                         (np.subtract, lambda S: (S - S.T) * 0.5)):
        ref = M.copy()
        ref = two_line(ref)
        new = M.copy()
        _symmetrise(new, op)
        assert np.array_equal(new, ref)
        assert np.array_equal(np.signbit(new), np.signbit(ref))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 17])
def test_symmetrised_stencil_fills_what_symmetrise_makes_of_the_raw_fill(d, n):
    rng = np.random.Generator(np.random.Philox(key=10 * n + d))
    m = (2 * n - 1) ** d
    R = rng.standard_normal(m)
    R[rng.random(m) < 0.3] = 0.0
    R[rng.random(m) < 0.2] = -0.0
    pairs = np.flatnonzero(rng.random(m) < 0.2)
    R[m - 1 - pairs] = R[pairs]                 # equal pairs: offsets k and -k alike
    flips = np.flatnonzero(rng.random(m) < 0.2)
    R[m - 1 - flips] = -R[flips]                # opposite pairs: a zero from either op
    table = R.reshape((2 * n - 1,) * d)
    # integer node coordinates: y - x + n - 1 is the stencil index of the pair
    fn = lambda x, y: table[tuple((y - x + n - 1).astype(int).T)]
    axes = [np.arange(n, dtype=float)] * d
    ops = (np.add, np.subtract)
    raw = discretize._stencil_pair_values(axes, fn, fn)
    new = discretize._stencil_pair_values(axes, fn, fn, ops=ops)
    for (M, _), (S, _), op in zip(raw, new, ops):
        _symmetrise(M, op)
        assert _same_bits(S, M)


def test_completed_form_adds_no_n_by_n_temporary():
    n = 1024
    S, W = np.ones((n, n)), np.ones((n, n))
    grid = build_grid(2, 1.0, 1 / 16)
    tracemalloc.start()
    _completed_form(grid, S, W, np.zeros(n), np.zeros(n), {}, 1.0)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 8 * n * n / 2       # a hidden copy of S or W would be 8 n^2


# --- the finite-support tail branch -------------------------------------------

def test_finite_support_tail_evaluates_only_active_rays():
    k = make_drift_kernel(1.0, V2, L=0.5, alpha=1.0, d=2)
    grid = build_grid(2, 1.0, 1 / 8)
    quad = QuadSpec(n_ang=32, n_panels=20)
    counted = []

    def eval2(x, y):
        counted.append(y.size // 2)
        return k.anti(x, y)

    exit_fn = lambda x, dirs: ray_exit_box(x, dirs, grid.X)
    T = exterior_tail([(eval2, k.anti_support(), None)], grid.nodes, exit_fn, 2, quad)
    dirs, _ = directions(2, quad.n_ang)
    active = int(np.sum(exit_fn(grid.nodes, dirs) < 0.5))
    assert 0 < active < 0.35 * grid.n_nodes * dirs.shape[0]
    assert sum(counted) == active * quad.n_panels * quad.n_gauss
    assert np.any(T != 0.0)


# --- block-restricted form sums ----------------------------------------------

@pytest.fixture(scope="module")
def cone_form_2d(cone_kernel_2d):
    grid = build_grid(2, 1.0, 1 / 16, {"type": "ball", "radius": 0.75})
    assert grid.n_nodes == 1024
    return assemble(cone_kernel_2d, grid, quad=QuadSpec(n_ang=32, n_panels=20))


def _fields(grid):
    x = grid.nodes
    u = 1.0 + 0.5 * np.sin(3 * x[:, 0]) * np.cos(2 * x[:, 1])
    v = np.cos(x[:, 0] - 0.5 * x[:, 1])
    return u, v


def test_masked_pair_blocks(cone_form_2d):
    F = cone_form_2d
    m = F.grid.ball_mask((0.1, 0.0), 0.3)
    for method in (F.ks_matrix, F.ka_matrix, F.k_matrix):
        assert np.array_equal(method(m), method()[np.ix_(m, m)])


def _rounding_scale(F, mask, u, v, part, weight):
    """h^{2d} times the summed magnitudes of the terms that form_value adds
    (u v row - v Ku - u Kv + Kuv and the like): reordering that sum moves its
    result by a few eps times this, however much the terms cancel."""
    K = np.abs(np.where(mask, F.part_matrix(part), 0.0))
    au, av = np.abs(u), np.abs(v)
    terms = au * av * K.sum(axis=1) + av * (K @ au)
    if weight != "onesided":
        terms = terms + au * (K @ av) + K @ (au * av)
    return F.grid.cell_volume ** 2 * np.sum(terms)


def test_form_value_on_the_touched_block(cone_form_2d, coeff_form_1d):
    for F, center in ((cone_form_2d, (0.1, -0.05)), (coeff_form_1d, (0.2,))):
        u, v = _fields(F.grid) if F.grid.d == 2 else (np.sin(F.grid.nodes[:, 0]) + 2,
                                                        np.cos(F.grid.nodes[:, 0]))
        ball = pair_mask_ball(F.grid, center, 0.4)
        # rows near the centre against columns further out: touched = both
        lopsided = (F.grid.ball_mask(center, 0.2)[:, None]
                    & F.grid.ball_mask(center, 0.6)[None, :])
        for mask in (ball, ball & pair_mask_level(u), lopsided):
            for part in ("full", "sym", "anti"):
                for weight in ("onesided", "difference", "sum"):
                    new = form_value(F, mask, u, v, part=part, weight=weight)
                    old = old_form_value(F, mask, u, v, part=part, weight=weight)
                    scale = _rounding_scale(F, mask, u, v, part, weight)
                    assert abs(new - old) <= 1e-13 * scale, (part, weight)


def test_layer_cake_on_the_support_block(cone_form_2d, stable_form_1d):
    for F, tau in ((cone_form_2d, CutoffProfile((0.1, 0.0), 0.2, 0.25)),
                   (stable_form_1d, CutoffProfile((0.0,), 0.3, 0.4))):
        u, _ = _fields(F.grid) if F.grid.d == 2 else (np.sin(2 * F.grid.nodes[:, 0]), None)
        t2 = tau.values_on(F.grid) ** 2
        du2 = (u[:, None] - u[None, :]) ** 2
        for part in ("full", "sym", "anti"):
            new = layer_cake_weighted_form(F, tau, u, part=part)
            old = old_layer_cake_weighted_form(F, tau, u, part=part)
            # K_a terms cancel in pairs: their sums vanish up to rounding of this size
            scale = F.grid.cell_volume ** 2 * np.sum(
                du2 * np.minimum(t2[:, None], t2[None, :]) * np.abs(F.part_matrix(part)))
            for key in ("value", "layer_cake"):
                assert abs(new[key] - old[key]) <= 1e-13 * (abs(old[key]) if part != "anti"
                                                            else scale), (part, key)
            assert new["layer_cake"] == old["layer_cake"]


def test_ball_sums_stay_below_one_n_by_n_array(cone_form_2d):
    F = cone_form_2d
    n = F.grid.n_nodes
    u, v = _fields(F.grid)
    mask = pair_mask_ball(F.grid, (0.0, 0.0), 0.25)
    tau = CutoffProfile((0.0, 0.0), 0.1, 0.15)
    tracemalloc.start()
    for part in ("full", "sym", "anti"):
        form_value(F, mask, u, v, part=part, weight="difference")
        layer_cake_weighted_form(F, tau, u, part=part)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 8 * n * n
