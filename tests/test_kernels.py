import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from jumplab import Cone, c_alpha_norm, decompose, make_cone_kernel, make_drift_kernel
from jumplab import make_coefficient_kernel, make_stable_kernel
from jumplab.kernels import (MIN_SEPARATION, _project, _ScaledKernel, get_field,
                             get_pair_field, kernel_from_config)


def random_pairs(rng, d, n, extent=2.0, min_sep=1e-3):
    x = rng.uniform(-extent, extent, size=(n, d))
    y = rng.uniform(-extent, extent, size=(n, d))
    keep = np.linalg.norm(x - y, axis=-1) > min_sep
    return x[keep], y[keep]


class TestNormalizingConstant:
    def test_d1_alpha1_closed_form(self):
        # Gamma(-1/2) = -2 sqrt(pi), so the constant collapses to 1/pi
        assert abs(c_alpha_norm(1, 1.0) - 1.0 / math.pi) < 1e-12

    def test_d2_alpha1_gamma_oracle(self):
        expected = 2.0 * gamma(1.5) / (math.pi * abs(gamma(-0.5)))
        assert abs(c_alpha_norm(2, 1.0) - expected) < 1e-14

    def test_vanishes_linearly_at_two(self):
        # |Gamma(-a/2)| ~ 2/(2-a) near a=2 forces c ~ (2-a); the rescaled
        # constant approaches a finite positive limit (1 in d = 1)
        for eps in (1e-2, 1e-3, 1e-4):
            ratio = c_alpha_norm(1, 2.0 - eps) / eps
            assert abs(ratio - 1.0) < 0.05
        assert abs(c_alpha_norm(1, 2 - 1e-6) / 1e-6 - 1.0) < 1e-3

    @pytest.mark.parametrize("alpha", [0.0, 2.0, -0.3, 2.5])
    def test_rejects_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            c_alpha_norm(1, alpha)


class TestCoefficientKernel:
    def test_unit_coefficient_is_base(self, rng):
        k = make_coefficient_kernel(get_pair_field("one"), 1.2, 0.5, 2.0, d=1)
        x, y = random_pairs(rng, 1, 200)
        base = make_stable_kernel(1, 1.2)
        np.testing.assert_allclose(k(x, y), base.sym(x, y), rtol=1e-14)
        assert np.all(k.anti(x, y) == 0)

    def test_sum_potential_is_symmetric(self, rng):
        g = get_pair_field({"preset": "sum-V", "V1": "sin-V", "V2": "sin-V",
                            "offset": 2.5})
        k = make_coefficient_kernel(g, 1.0, 0.4, 4.6, d=1)
        x, y = random_pairs(rng, 1, 200)
        # identical V on both slots cancels up to summation roundoff
        assert np.all(np.abs(k.anti(x, y)) <= 1e-13 * k.sym(x, y))

    def test_sin_coefficient_split(self, rng):
        k = make_coefficient_kernel(get_pair_field("sin-coefficient"), 1.0,
                                    1.0, 3.0, d=2)
        x, y = random_pairs(rng, 2, 300)
        base = make_stable_kernel(2, 1.0)
        expected = 0.5 * (np.sin(x[:, 0]) - np.sin(y[:, 0])) * base.sym(x, y)
        np.testing.assert_allclose(k.anti(x, y), expected, rtol=1e-12, atol=1e-15)

    def test_rejects_coefficient_outside_bounds(self):
        g = lambda x, y: 5.0 + np.sin(np.asarray(x)[..., 0])
        with pytest.raises(ValueError):
            make_coefficient_kernel(g, 1.0, 1.0, 3.0, d=1)

    def test_domination_constant(self, rng):
        # |K_a| <= D K_s with D = (Lam - lam)/(Lam + lam)
        k = make_coefficient_kernel(get_pair_field("sin-coefficient"), 1.0,
                                    1.0, 3.0, d=1)
        D = 0.5
        x, y = random_pairs(rng, 1, 2000)
        assert np.all(np.abs(k.anti(x, y)) <= D * k.sym(x, y) * (1 + 1e-12))


class TestDriftKernel:
    def test_zero_potential_symmetric(self, rng):
        k = make_drift_kernel(1.0, lambda x: np.zeros(np.asarray(x).shape[:-1]),
                              L=1.0, alpha=1.0, d=1)
        x, y = random_pairs(rng, 1, 100)
        assert np.all(k.anti(x, y) == 0)
        np.testing.assert_allclose(
            k(x, y), c_alpha_norm(1, 1.0) * np.abs(x - y)[:, 0] ** -2.0, rtol=1e-13)

    def test_holder_truncation_rule_accepts(self):
        # [V]_{C^{0,gamma}} = 1, lam = 1, L = 1 <= (lam/[V])^{1/gamma}
        V = lambda x: np.abs(np.asarray(x, dtype=float)[..., 0])
        make_drift_kernel(1.0, V, L=1.0, alpha=1.0, d=1, lam=1.0)

    def test_rejects_negative_kernel(self):
        V = lambda x: 3.0 * np.asarray(x, dtype=float)[..., 0]
        with pytest.raises(ValueError):
            make_drift_kernel(1.0, V, L=1.0, alpha=1.0, d=1, lam=1.0)

    def test_linear_potential_split(self, rng, linear_drift_kernel):
        x, y = random_pairs(rng, 1, 500)
        r = np.abs(x - y)[:, 0]
        expected = 0.5 * (x - y)[:, 0] * (r <= 1.0) * c_alpha_norm(1, 1.0) * r ** -2.0
        np.testing.assert_allclose(linear_drift_kernel.anti(x, y), expected,
                                   rtol=1e-13)

    def test_lower_bound_under_suffK2(self, rng, linear_drift_kernel):
        # |V(x)-V(y)| <= D lam inside the truncation gives K >= (1-D) j c |h|^-d-a
        x, y = random_pairs(rng, 1, 2000, extent=0.9)
        r = np.abs(x - y)[:, 0]
        D = 0.5 * (2 * 0.9)  # Lipschitz 0.5 over diameter 1.8... but capped by L=1
        D = 0.5 * 1.0
        base = c_alpha_norm(1, 1.0) * r ** -2.0
        assert np.all(linear_drift_kernel(x, y) >= (1 - D) * base * (1 - 1e-12))


class TestConeKernel:
    def test_requires_disjoint_cones(self):
        C = Cone((1.0, 0.0), np.pi / 4)
        D_bad = Cone((1.0, 0.0), np.pi / 8, double=True)
        with pytest.raises(ValueError):
            make_cone_kernel(1.5, 0.5, C, D_bad, d=2)

    def test_rejects_large_beta(self):
        C = Cone((1.0, 0.0), np.pi / 4)
        with pytest.raises(ValueError):
            make_cone_kernel(1.0, 0.5, C, None, d=2)

    def test_split_on_the_cones(self, cone_kernel_2d):
        k = cone_kernel_2d
        h = np.array([0.3, 0.02])            # inside C (axis e1, angle pi/4)
        x = np.zeros(2)
        r = np.linalg.norm(h)
        assert abs(k.anti(x, x - h) - 0.5 * r ** -2.5) < 1e-12
        assert abs(k.anti(x, x + h) + 0.5 * r ** -2.5) < 1e-12
        hD = np.array([0.01, 0.4])           # inside D (axis e2)
        rD = np.linalg.norm(hD)
        assert abs(k(x, x - hD) - rD ** -3.5) < 1e-12
        assert k.anti(x, x - hD) == 0.0
        h_out = np.array([-0.3, -0.28])      # outside C u -C u D
        assert k(x, x - h_out) == 0.0

    def test_full_value_on_single_cone(self, cone_kernel_2d):
        # x - y in C only: K = |x-y|^{-d-beta}, its mirror carries zero
        x = np.zeros(2)
        y = -np.array([0.5, 0.1])
        r = np.linalg.norm(y)
        assert abs(cone_kernel_2d(x, y) - r ** -2.5) < 1e-12
        assert cone_kernel_2d(y, x) == 0.0


class TestDecompose:
    def test_matches_direct_split(self, rng, cone_kernel_2d):
        x, y = random_pairs(rng, 2, 500)
        ks, ka = decompose(cone_kernel_2d, x, y)
        np.testing.assert_allclose(ks, cone_kernel_2d.sym(x, y), atol=1e-14)
        np.testing.assert_allclose(ka, cone_kernel_2d.anti(x, y), atol=1e-14)
        np.testing.assert_allclose(ks + ka, cone_kernel_2d(x, y), rtol=1e-14)

    def test_simple_arithmetic(self):
        class TwoValue:
            d = 1

            def __call__(self, x, y):
                return np.where(np.asarray(x)[..., 0] < np.asarray(y)[..., 0], 3.0, 1.0)

        ks, ka = decompose(TwoValue(), np.array([0.0]), np.array([1.0]))
        assert ks == 2.0 and ka == 1.0

    def test_rejects_coincident_points(self, cone_kernel_2d):
        with pytest.raises(ValueError):
            decompose(cone_kernel_2d, np.zeros(2), np.zeros(2) + 0.5 * MIN_SEPARATION)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(0.1, 1.9), st.integers(1, 2), st.integers(0, 2 ** 31 - 1))
def test_split_invariants_hold_for_every_family(alpha, d, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    kernels = [make_coefficient_kernel(get_pair_field("sin-coefficient"),
                                       alpha, 1.0, 3.0, d=d)]
    if alpha > 0.4:
        beta = alpha / 2.5
        C = Cone((1.0,) + (0.0,) * (d - 1), np.pi / 4)
        D = Cone((0.0, 1.0), np.pi / 8, double=True) if d == 2 else None
        kernels.append(make_cone_kernel(alpha, beta, C, D, d=d))
    x = rng.uniform(-2, 2, size=(200, d))
    y = rng.uniform(-2, 2, size=(200, d))
    keep = np.linalg.norm(x - y, axis=-1) > 1e-2
    x, y = x[keep], y[keep]
    for k in kernels:
        ks, ka = k.sym(x, y), k.anti(x, y)
        assert np.all(ks + ka >= -1e-12 * np.maximum(ks, 1e-300))      # K >= 0
        assert np.all(np.abs(ka) <= ks * (1 + 1e-12) + 1e-300)         # |K_a| <= K_s
        np.testing.assert_allclose(ks, k.sym(y, x), rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(ka, -k.anti(y, x), rtol=1e-12, atol=1e-300)


class TestScaledKernel:
    def test_scaling_by_one_is_the_base(self, rng, sin_coefficient_kernel):
        scaled = _ScaledKernel(sin_coefficient_kernel, 1.0, 1.0)
        x, y = random_pairs(rng, 1, 100)
        for part in ("sym", "anti"):
            assert np.array_equal(getattr(scaled, part)(x, y),
                                  getattr(sin_coefficient_kernel, part)(x, y))
        # the base may evaluate K in one pass, the view sums its parts
        np.testing.assert_allclose(scaled(x, y), sin_coefficient_kernel(x, y), rtol=1e-14)

    @pytest.mark.parametrize("a", [0.5, 1.5])
    def test_the_symmetric_part_is_scaled(self, rng, sin_coefficient_kernel, a):
        scaled = _ScaledKernel(sin_coefficient_kernel, a, 1.0)
        x, y = random_pairs(rng, 1, 300)
        assert np.array_equal(scaled.sym(x, y), a * sin_coefficient_kernel.sym(x, y))

    def test_drift_scaling(self, rng, linear_drift_kernel):
        scaled = _ScaledKernel(linear_drift_kernel, 1.0, np.cos(0.5))
        x, y = random_pairs(rng, 1, 100)
        assert np.array_equal(scaled.anti(x, y), np.cos(0.5) * linear_drift_kernel.anti(x, y))
        assert np.array_equal(scaled.sym(x, y), linear_drift_kernel.sym(x, y))

    def test_the_kernel_is_its_scaled_parts(self, rng, linear_drift_kernel):
        scaled = _ScaledKernel(linear_drift_kernel, 1.5, -0.5)
        x, y = random_pairs(rng, 1, 100)
        assert np.array_equal(scaled(x, y), 1.5 * linear_drift_kernel.sym(x, y)
                              - 0.5 * linear_drift_kernel.anti(x, y))


@pytest.mark.parametrize("axis", [(0.3, -0.4), (0.6, 0.8), (1.0, 0.0), (0.7,)])
def test_projection_bits_do_not_depend_on_the_batch(axis):
    # a BLAS dot takes another kernel for one row than for many, which moves
    # the last bit of ~1/3 of random rows off the lattice axes
    h = np.random.default_rng(11).standard_normal((4000, len(axis)))
    many = _project(h, axis)
    assert np.array_equal(many, [_project(row[None], axis)[0] for row in h])
    assert np.array_equal(many, [_project(row, axis) for row in h])
    cone = Cone((0.3, -0.4), 0.6) if len(axis) == 2 else Cone((1.0,), 0.6)
    assert np.array_equal(cone.indicator(h), [cone.indicator(row) for row in h])
    V = get_field({"preset": "linear-V", "b": list(axis)})
    assert np.array_equal(V(h), [V(row) for row in h])


@pytest.mark.parametrize("base, one, other", [
    ({"family": "drift", "d": 1, "alpha": 1.5},
     {"V": {"preset": "linear-V", "b": [0.5]}}, {"V": {"preset": "sin-V", "scale": 0.3}}),
    ({"family": "coefficient", "d": 1, "alpha": 1.5}, {}, {"g": "one"}),
    ({"family": "drift", "d": 1, "alpha": 1.5}, {}, {"j": 1.5}),
])
def test_config_kernels_that_differ_hash_apart(base, one, other):
    digest = lambda extra: kernel_from_config({**base, **extra}).spec.digest()
    assert digest(one) != digest(other)


@pytest.mark.parametrize("cfg, digest", [
    ({"family": "cone", "d": 1, "alpha": 1.5, "beta": 0.5,
      "cone": {"axis": [1.0], "half_angle": 0.7853981633974483}, "double_cone": None},
     "0c4e883732b311a5"),
    ({"family": "stable", "d": 1, "alpha": 1.0}, "d75e02c633088b62"),
])
def test_cone_and_stable_hashes_stay(cfg, digest):
    # the kernel_hash of the builtin presets, as manifests recorded it
    assert kernel_from_config(cfg).spec.digest() == digest


# --- measured diagonal orders ------------------------------------------------

_PTS = {1: np.linspace(-1.0, 1.0, 9)[:, None],
        2: np.stack(np.meshgrid(np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 1.0, 5)),
                    axis=-1).reshape(-1, 2)}
_C1 = Cone((1.0,), math.pi / 4)
_C2, _D2 = Cone((1.0, 0.0), math.pi / 4), Cone((0.0, 1.0), math.pi / 8, double=True)


@pytest.mark.parametrize("alpha", [1.5, 1.6, 1.7, 1.8, 1.9, 1.95, 1.99])
@pytest.mark.parametrize("d", [1, 2])
def test_mosco_family_orders_are_the_declared_ones(d, alpha):
    # the orders the classes declared before they were measured, bit for bit:
    # alpha for K_s, -inf for a zero K_a and alpha - 1 for a Lipschitz V or g
    from jumplab.mosco import alpha_family
    # |b| = 0.4: the increment |b| L = 0.8 stays below lam = 1 in every direction
    V = get_field({"preset": "linear-V", "b": [0.4 / math.sqrt(d)] * d})
    g = get_pair_field("sin-coefficient")
    for generator, expected in ((make_stable_kernel(d, 1.0), (alpha, -math.inf)),
                                (make_drift_kernel(1.0, V, 2.0, 1.0, d), (alpha, alpha - 1.0)),
                                (make_coefficient_kernel(g, 1.0, 1.0, 3.0, d),
                                 (alpha, alpha - 1.0))):
        family = alpha_family(generator, (alpha,))
        assert family[alpha].diag_orders(_PTS[d]) == expected


@pytest.mark.parametrize("kernel, d, expected", [
    (make_cone_kernel(1.5, 0.5, _C1, None, d=1), 1, (0.5, 0.5)),
    (make_cone_kernel(1.5, 0.5, _C1, None, d=1).dual(), 1, (0.5, 0.5)),
    (make_cone_kernel(1.5, 0.5, _C2, _D2, d=2), 2, (1.5, 0.5)),
    (make_cone_kernel(1.5, 0.5, _C2, _D2, d=2).dual(), 2, (1.5, 0.5)),
    (make_cone_kernel(1.9, 0.25, _C2, _D2, d=2), 2, (1.9, 0.25)),
    (make_stable_kernel(1, 0.5), 1, (0.5, -math.inf)),
    (make_stable_kernel(2, 1.5, 3.0), 2, (1.5, -math.inf)),
    (kernel_from_config({"family": "drift", "d": 1, "alpha": 1.5}), 1, (1.5, 0.5)),
    (kernel_from_config({"family": "drift", "d": 2, "alpha": 1.0}), 2, (1.0, 0.0)),
    (kernel_from_config({"family": "coefficient", "d": 1, "alpha": 0.5}), 1, (0.5, -0.5)),
    (kernel_from_config({"family": "coefficient", "d": 2, "alpha": 1.5}), 2, (1.5, 0.5)),
], ids=["cone-1d", "cone-1d-dual", "cone-2d", "cone-2d-dual", "cone-2d-beta-0.25",
        "stable-1d", "stable-2d", "drift-1d", "drift-2d", "coefficient-1d", "coefficient-2d"])
def test_diag_orders_are_the_declared_ones(kernel, d, expected):
    assert kernel.diag_orders(_PTS[d]) == expected


def test_the_default_2d_drift_kernel_is_nonnegative_on_a_fan_of_directions():
    # b = (1, 1) / sqrt 2 has |b| = lam = 1: |V(x) - V(y)| <= |x - y| <= L in every
    # direction; b = (1, 1) built as well, with K(0, (0.65, 0.65)) = -0.06
    k = kernel_from_config({"family": "drift", "d": 2, "alpha": 1.0})
    phi = np.arange(16) * np.pi / 8
    fan = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    for x in ([0.0, 0.0], [0.3, -0.7], [-1.2, 0.4]):
        for r in (0.3, 0.65 * 2 ** 0.5, 1.0 - 1e-9, 1.0 + 1e-9, 1.5):
            y = np.asarray(x) + r * fan
            assert np.all(k(np.broadcast_to(x, y.shape), y) >= 0.0)
            assert np.all(k(y, np.broadcast_to(x, y.shape)) >= 0.0)


def test_a_kernel_scaled_to_no_drift_has_drift_order_minus_inf():
    base = kernel_from_config({"family": "drift", "d": 1, "alpha": 1.5})
    assert _ScaledKernel(base, 1.0, 0.0).diag_orders(_PTS[1]) == (1.5, -math.inf)


def test_an_infinite_drift_has_order_plus_inf():
    from jumplab.kernels import SplitKernel
    J = make_stable_kernel(1, 1.0)
    inf_anti = lambda x, y: np.full(np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1]),
                                    np.inf)
    k = SplitKernel(1, 1.0, J.sym, inf_anti, validate=False)
    assert k.diag_orders(_PTS[1]) == (1.0, math.inf)


@pytest.mark.parametrize("gamma0", [0.5, 0.75, 0.9])
def test_a_holder_potential_sets_the_drift_order_where_it_is_singular(gamma0):
    # V = |x|^gamma0 is smooth away from 0: K_a has order alpha - 1 there and
    # alpha - gamma0 at 0
    k = kernel_from_config({"family": "drift", "d": 1, "alpha": 1.5, "L": 0.5,
                            "V": {"preset": "abs-power-V", "gamma0": gamma0}})
    assert k.diag_orders([[0.0], [0.5]]) == (1.5, 1.5 - gamma0)
    assert k.diag_orders([[0.25], [0.5]]) == (1.5, 0.5)
