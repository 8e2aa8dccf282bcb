import numpy as np
import pytest

import jumplab.solve

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


class RecordedLinalg:
    """Stands in for ``jumplab.solve.sla``, the solver's LAPACK seam, and
    records each call: ``lu_factor_calls`` holds (copy of M, the factors
    returned), ``lu_solve_calls`` (lu_piv, copy of b) and ``getrs_calls`` a
    copy of the right-hand side b, which a step solves in place.  A function
    set as ``stand_in[name]`` runs as f(real routine, *args) in the routine's
    place; ``real`` is the module that was in place."""

    def __init__(self, real):
        self.real, self.stand_in = real, {}
        self.lu_factor_calls, self.lu_solve_calls, self.getrs_calls = [], [], []

    def __getattr__(self, name):
        return getattr(self.real, name)

    def _run(self, name, *args):
        real, f = getattr(self.real, name), self.stand_in.get(name)
        return real(*args) if f is None else f(real, *args)

    def lu_factor(self, M):
        M_copy = np.array(M)
        out = self._run("lu_factor", M)
        self.lu_factor_calls.append((M_copy, out))
        return out

    def lu_solve(self, lu_piv, b):
        self.lu_solve_calls.append((lu_piv, np.array(b)))
        return self._run("lu_solve", lu_piv, b)

    def getrs(self, lu, piv, b, *args):
        self.getrs_calls.append(np.array(b))
        return self._run("getrs", lu, piv, b, *args)


@pytest.fixture
def sla_calls(monkeypatch):
    """A ``RecordedLinalg`` in place of ``jumplab.solve.sla`` for the test."""
    recorded = RecordedLinalg(jumplab.solve.sla)
    monkeypatch.setattr(jumplab.solve, "sla", recorded)
    return recorded
