import numpy as np
import pytest

from jumplab import (
    Cone,
    QuadSpec,
    assemble,
    build_grid,
    c_alpha_norm,
    make_coefficient_kernel,
    make_cone_kernel,
    make_drift_kernel,
    make_stable_kernel,
)
from jumplab.kernels import get_pair_field


@pytest.fixture(scope="session")
def rng():
    return np.random.Generator(np.random.Philox(key=20240817))


@pytest.fixture(scope="session")
def cone_kernel_2d():
    C = Cone((1.0, 0.0), np.pi / 4)
    D = Cone((0.0, 1.0), np.pi / 8, double=True)
    return make_cone_kernel(1.5, 0.5, C, D, d=2)


@pytest.fixture(scope="session")
def cone_kernel_1d():
    # in d = 1 any nonempty double cone covers both directions, so the only
    # admissible disjoint configuration drops the alpha part
    return make_cone_kernel(1.5, 0.5, Cone((1.0,), np.pi / 4), None, d=1)


@pytest.fixture(scope="session")
def sin_coefficient_kernel():
    return make_coefficient_kernel(get_pair_field("sin-coefficient"), 1.0,
                                   lam=1.0, Lam=3.0, d=1)


@pytest.fixture(scope="session")
def linear_drift_kernel():
    V = lambda x: 0.5 * np.asarray(x, dtype=float)[..., 0]
    return make_drift_kernel(1.0, V, L=1.0, alpha=1.0, d=1, lam=1.0, Lam=1.0)


@pytest.fixture(scope="session")
def grid_1d():
    return build_grid(1, 2.0, 1 / 16, {"type": "box", "halfwidth": 1.0})


@pytest.fixture(scope="session")
def stable_form_1d(grid_1d):
    k = make_stable_kernel(1, 1.0, c_alpha_norm(1, 1.0))
    return assemble(k, grid_1d)


@pytest.fixture(scope="session")
def coeff_form_1d(grid_1d, sin_coefficient_kernel):
    return assemble(sin_coefficient_kernel, grid_1d)


@pytest.fixture(scope="session")
def fast_quad():
    return QuadSpec(n_ang=32, n_panels=20, n_gauss=4, s_min_rel=1e-6,
                    growth_octaves=20)
