"""The dual kernel and the other scaled kernels are views of their base: K_s
and K_a scaled by two numbers, with the base's orders, breaks, decay and ray
profile."""
import hashlib
import math

import numpy as np
import pytest

from jumplab import assemble, build_grid
from jumplab.kernels import _ScaledKernel, kernel_from_config
from jumplab.quadrature import directions


def _form_digest(form):
    h = hashlib.sha256()
    for a in (form.A_s, form.A_a, form.tail_sym, form.tail_anti):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _assert_forms_equal(a, b):
    for name in ("A_s", "A_a", "tail_sym", "tail_anti"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.fixture(scope="module")
def drift_2d():
    return kernel_from_config({"family": "drift", "d": 2, "alpha": 1.5, "L": 1.0,
                               "V": {"preset": "linear-V", "b": [0.3, 0.0]}})


@pytest.mark.parametrize("name, digest", [("cone", "3d1b9424d897a979"),
                                          ("drift", "84f9cf2047859c1b")])
def test_dual_forms_keep_their_digest(cone_kernel_2d, drift_2d, name, digest):
    # digests of the forms written by the forwarding dual view this one replaced
    kernel = {"cone": cone_kernel_2d, "drift": drift_2d}[name]
    grid = build_grid(2, 1.0, 1 / 16, {"type": "ball", "radius": 0.75})
    assert _form_digest(assemble(kernel.dual(), grid)) == digest


def test_dual_of_the_dual_is_the_kernel(cone_kernel_2d, drift_2d, sin_coefficient_kernel):
    for kernel in (cone_kernel_2d, drift_2d, sin_coefficient_kernel):
        assert kernel.dual().dual() is kernel


def test_dual_of_a_scaled_kernel_negates_its_drift(cone_kernel_1d):
    scaled = _ScaledKernel(cone_kernel_1d, 1.5, 0.5)
    dual = scaled.dual()
    x, y = np.array([[0.1], [0.3]]), np.array([[0.7], [-0.2]])
    assert np.array_equal(dual.sym(x, y), scaled.sym(x, y))
    assert np.array_equal(dual.anti(x, y), -scaled.anti(x, y))


@pytest.mark.parametrize("base", ["cone-1d", "stable-2d"])
def test_a_kernel_scaled_by_one_assembles_the_base_form(cone_kernel_1d, base):
    if base == "cone-1d":
        kernel, grid = cone_kernel_1d, build_grid(1, 2.0, 1 / 32, {"type": "box", "halfwidth": 1.5})
    else:
        kernel = kernel_from_config({"family": "stable", "d": 2, "alpha": 1.3})
        grid = build_grid(2, 1.0, 1 / 16, {"type": "ball", "radius": 0.75})
    _assert_forms_equal(assemble(_ScaledKernel(kernel, 1.0, 1.0), grid), assemble(kernel, grid))


def test_a_scaled_kernel_keeps_the_base_metadata(drift_2d):
    scaled = _ScaledKernel(drift_2d, 1.0 + 0.5 * math.sin(0.7), math.cos(0.7))
    dirs, _ = directions(2, 16)
    assert scaled.radial_breaks() == (1.0,)
    assert scaled.anti_support() == 1.0
    pts = np.array([[0.1, -0.2], [0.0, 0.3]])
    assert scaled.diag_orders(pts) == drift_2d.diag_orders(pts)
    for part in ("sym", "anti"):
        assert np.array_equal(scaled.decay_orders(part, dirs), drift_2d.decay_orders(part, dirs))
