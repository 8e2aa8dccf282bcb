"""mosco.alpha_family: the members at each order come from the generator
kernel's own fields, and only stable, drift and coefficient kernels generate
a family."""
import numpy as np
import pytest

from jumplab.kernels import (SplitKernel, c_alpha_norm, kernel_from_config, make_drift_kernel,
                             make_stable_kernel)
from jumplab.mosco import alpha_family

ALPHAS = (1.5, 1.9)
rng = np.random.Generator(np.random.Philox(key=5))
X, Y = rng.uniform(-0.5, 0.5, size=(2, 40, 1))


def _values(kernel):
    return np.concatenate([kernel.sym(X, Y), kernel.anti(X, Y)]).tobytes()


def test_the_generator_order_is_not_read():
    low, high = (alpha_family(make_stable_kernel(1, a), ALPHAS) for a in (0.5, 1.5))
    for a in ALPHAS:
        assert _values(low[a]) == _values(high[a])


def test_a_stable_generator_scales_the_normalised_member_by_its_coeff():
    family = alpha_family(make_stable_kernel(1, 1.0, 2.0), ALPHAS)
    unit = alpha_family(make_stable_kernel(1, 1.0), ALPHAS)
    for a in ALPHAS:
        assert family[a].coeff == 2.0 * c_alpha_norm(1, a)
        assert np.array_equal(family[a].sym(X, Y), 2.0 * unit[a].sym(X, Y))


def test_a_drift_generator_keeps_its_potential_truncation_and_bounds():
    kernel = kernel_from_config({"family": "drift", "d": 1, "alpha": 1.0, "L": 0.5,
                                 "lam": 0.5, "Lam": 2.0, "j": 1.5})
    family = alpha_family(kernel, ALPHAS)
    for a in ALPHAS:
        member = family[a]
        assert (member.alpha, member.L, member.lam, member.Lam) == (a, 0.5, 0.5, 2.0)
        direct = make_drift_kernel(kernel.j, kernel.V, 0.5, a, 1, lam=0.5, Lam=2.0)
        assert _values(member) == _values(direct)


def test_a_coefficient_generator_compares_with_four_times_its_Lam():
    kernel = kernel_from_config({"family": "coefficient", "d": 1, "alpha": 1.0, "Lam": 3.5})
    family = alpha_family(kernel, ALPHAS)
    for a in ALPHAS:
        member = family[a]
        assert member.base.coeff == c_alpha_norm(1, a) and member.g is kernel.g
    # both give K_s = 8 c_{1,a} |h|^{-1-a}: inside 4 Lam = 36 times (2 - a) |h|^{-1-a}
    # for the coefficient kernel (g in [7, 9]), outside 4 times it for the stable one
    g = {"preset": "sin-coefficient", "offset": 8.0}
    kernel = kernel_from_config({"family": "coefficient", "d": 1, "alpha": 1.0, "g": g,
                                 "lam": 7.0, "Lam": 9.0})
    assert list(alpha_family(kernel, ALPHAS)) == list(ALPHAS)
    with pytest.raises(ValueError, match="alpha=1.5 violates the"):
        alpha_family(make_stable_kernel(1, 1.0, 8.0), (1.5,))


def test_members_come_in_increasing_alpha():
    family = alpha_family(make_stable_kernel(1, 1.0), (1.95, 1.5, 1.8))
    assert list(family) == [1.5, 1.8, 1.95]
    assert [member.order for member in family.values()] == [1.5, 1.8, 1.95]


@pytest.mark.parametrize("kernel", [
    kernel_from_config({"family": "cone", "d": 1, "alpha": 1.5, "beta": 0.5,
                        "cone": {"axis": [1.0], "half_angle": 0.7853981633974483}}),
    SplitKernel(1, 1.0, make_stable_kernel(1, 1.0).sym, make_stable_kernel(1, 1.0).anti),
])
def test_other_kernels_generate_no_family(kernel):
    with pytest.raises(ValueError, match=f"alpha-family of a {kernel.spec.family!r} kernel"):
        alpha_family(kernel, ALPHAS)
