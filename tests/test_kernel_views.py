"""The dual kernel and the time slices of a modulated kernel are scaled views
of their base: K_s and K_a scaled by numbers (or K_s by a field), with the
base's orders, breaks, decay and ray profile."""
import hashlib
import math

import numpy as np
import pytest

from jumplab import assemble, assemble_time, build_grid, time_modulate
from jumplab.kernels import kernel_from_config
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


def test_dual_of_a_time_slice_negates_its_drift(cone_kernel_1d):
    frozen = time_modulate(cone_kernel_1d, lambda t: 1.0 + t, 1.0, 2.0,
                           ka_scale=lambda t: 0.5).at(0.5)
    dual = frozen.dual()
    x, y = np.array([[0.1], [0.3]]), np.array([[0.7], [-0.2]])
    assert np.array_equal(dual.sym(x, y), frozen.sym(x, y))
    assert np.array_equal(dual.anti(x, y), -frozen.anti(x, y))


@pytest.mark.parametrize("base", ["cone-1d", "stable-2d"])
def test_identity_modulation_slice_is_the_base_form(cone_kernel_1d, base):
    if base == "cone-1d":
        kernel, grid = cone_kernel_1d, build_grid(1, 2.0, 1 / 32, {"type": "box", "halfwidth": 1.5})
    else:
        kernel = kernel_from_config({"family": "stable", "d": 2, "alpha": 1.3})
        grid = build_grid(2, 1.0, 1 / 16, {"type": "ball", "radius": 0.75})
    tk = time_modulate(kernel, lambda t: 1.0, 1.0, 1.0)
    static = assemble(kernel, grid)
    timed = assemble_time(tk, grid, 0.3)
    _assert_forms_equal(timed, static)
    _assert_forms_equal(assemble(tk.at(0.3), grid), static)
    assert timed.meta["t"] == 0.3


def test_time_slice_keeps_the_base_metadata(drift_2d):
    tk = time_modulate(drift_2d, lambda t: 1.0 + 0.5 * math.sin(t), 0.5, 1.5,
                       ka_scale=lambda t: math.cos(t))
    frozen = tk.at(0.7)
    dirs, _ = directions(2, 16)
    assert frozen.radial_breaks() == (1.0,)
    assert frozen.anti_support() == 1.0
    pts = np.array([[0.1, -0.2], [0.0, 0.3]])
    assert frozen.diag_orders(pts) == drift_2d.diag_orders(pts)
    for part in ("sym", "anti"):
        assert np.array_equal(frozen.decay_orders(part, dirs), drift_2d.decay_orders(part, dirs))


def test_modulation_field_slice_has_no_profile(cone_kernel_1d):
    tk = time_modulate(cone_kernel_1d,
                       lambda t, x, y: 1.0 + 0.25 * np.sin(t + x[..., 0] * y[..., 0]),
                       0.5, 1.5)
    frozen = tk.at(0.4)
    dirs, _ = directions(1, 2)
    assert frozen.ray_profile("sym", dirs) is None
    assert frozen.ray_profile("anti", dirs) is None
    assert np.array_equal(frozen.decay_orders("sym", dirs), cone_kernel_1d.decay_orders("sym", dirs))
    x, y = np.array([[0.2]]), np.array([[-0.5]])
    a = 1.0 + 0.25 * np.sin(0.4 + 0.2 * -0.5)
    np.testing.assert_allclose(frozen.sym(x, y), a * cone_kernel_1d.sym(x, y), rtol=1e-15)


@pytest.mark.parametrize("a, t", [(lambda t, c=1.0: c, 0.4), (np.cos, 0.0), (np.cos, 0.5)])
def test_functions_of_t_alone_are_separable(a, t):
    # a default argument or a ufunc's keywords do not make a a field a(t, x, y)
    base = kernel_from_config({"family": "stable", "d": 1, "alpha": 1.0})
    tk = time_modulate(base, a, 0.1, 2.0)
    assert tk.separable
    dirs, _ = directions(1, 2)
    for part in ("sym", "anti"):
        c, gamma = base.ray_profile(part, dirs)
        c_t, gamma_t = tk.at(t).ray_profile(part, dirs)
        assert np.array_equal(c_t, float(a(t)) * c) and np.array_equal(gamma_t, gamma)


def test_a_function_of_t_x_y_stays_a_field(cone_kernel_1d):
    tk = time_modulate(cone_kernel_1d, lambda t, x, y: 1.0 + 0.0 * x[..., 0], 0.5, 1.5)
    assert not tk.separable
    assert tk.at(0.2).ray_profile("sym", directions(1, 2)[0]) is None
