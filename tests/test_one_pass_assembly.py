"""One-pass assembly: each pair array is filled, row-summed and scaled one row
block at a time, and the power-law tails are taken in one buffer.  The forms
do not move by a bit when the row block changes (1D, 2D in whole first-axis
slices and in parts of one, on the stencil and the ``pair_values`` paths),
the completion of filled arrays equals its completion of arrays symmetrised
and scaled here, the tail columns are the radial integral c s0^-gamma / gamma
with the signed zeros of dead rays, and A 1 = tail.  A stencil-path assembly
holds no N x N temporary."""
import math
import tracemalloc

import numpy as np
import pytest

from jumplab import Cone, assemble, build_grid, make_cone_kernel, make_stable_kernel
from jumplab import discretize
from jumplab.discretize import (
    _completed_form,
    _power_tail_columns,
    _row_blocks,
    _toeplitz_axes,
)
from jumplab.quadrature import directions, ray_exit_box

FIELDS = ("A_s", "A_a", "tail_sym", "tail_anti")


def _cone_2d():
    C = Cone((1.0, 0.0), math.pi / 4)
    D = Cone((0.0, 1.0), math.pi / 8, double=True)
    return make_cone_kernel(1.5, 0.5, C, D, d=2)


def _ball_2d():
    # N = 1024 nodes: 96-row blocks of whole 32-row slices, the last one short
    return build_grid(2, 0.5, 1 / 32, {"type": "ball", "radius": 0.4})


CASES = {
    "harnack-1d": lambda: (make_cone_kernel(1.5, 0.5, Cone((1.0,), math.pi / 4), None, d=1),
                           build_grid(1, 2.0, 1 / 64, {"type": "box", "halfwidth": 1.5})),
    "cone-2d-ball": lambda: (_cone_2d(), _ball_2d()),
    "stable-2d": lambda: (make_stable_kernel(2, 1.3, coeff=0.7), _ball_2d()),
    "dual-cone-2d": lambda: (_cone_2d().dual(), _ball_2d()),
    "non-dyadic-1d": lambda: (make_cone_kernel(1.5, 0.5, Cone((1.0,), math.pi / 4), None, d=1),
                              build_grid(1, 2.0, 4.0 / 48)),
}


def _same_bytes(new, old):
    for name in FIELDS:
        assert getattr(new, name).tobytes() == getattr(old, name).tobytes(), name


def test_the_ball_grid_ends_in_a_short_block():
    blocks = _row_blocks(1024, 8 * 1024, 32)
    assert len(blocks) > 1 and 1024 % (blocks[0].stop - blocks[0].start) != 0


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("block_bytes", [3 * 8 * 1024, 40 * 8 * 1024])
def test_the_row_block_moves_no_bit(case, block_bytes, monkeypatch):
    # on the 2D grids, 3 rows: eleven parts of each 32-row slice; 40 rows: one
    # slice a block
    kernel, grid = CASES[case]()
    assert (_toeplitz_axes(grid) is None) == (case == "non-dyadic-1d")
    ref = assemble(kernel, grid)
    monkeypatch.setattr(discretize, "_BLOCK_BYTES", block_bytes)
    _same_bytes(assemble(kernel, grid), ref)


@pytest.mark.parametrize("case", sorted(CASES))
def test_constants_meet_only_the_tails(case):
    kernel, grid = CASES[case]()
    F = assemble(kernel, grid)
    A = F.A
    assert np.max(np.abs(A.sum(axis=1) - F.tail)) <= 1e-13 * np.max(np.abs(A))
    assert np.any(F.tail_anti) == (case != "stable-2d")


def test_tail_columns_keep_the_signed_zeros_of_dead_rays():
    kernel, grid = CASES["dual-cone-2d"]()
    dirs, _ = directions(2, 64)
    s0 = ray_exit_box(grid.nodes, dirs, grid.X)
    c, gamma = kernel.ray_profile("anti", dirs)
    dead = c == 0
    assert dead.any() and np.all(np.signbit(c[dead]))
    new = _power_tail_columns(c, gamma, s0, np.empty(s0.shape))
    # int_s0^inf c s^-1-gamma ds, each column's sign that of its c
    ref = c * s0 ** -gamma / gamma
    assert np.array_equal(np.signbit(new), np.signbit(ref))
    assert np.all(np.signbit(new[:, dead]))
    assert np.allclose(new, ref, rtol=4e-16, atol=0.0)


def test_completion_of_filled_arrays_is_that_of_arrays_symmetrised_apart(monkeypatch):
    # several row blocks of a raw pair array with signed zeros and equal pairs;
    # the branch given row sums gets S, W symmetrised, summed and scaled here
    monkeypatch.setattr(discretize, "_BLOCK_BYTES", 7 * 8 * 300)
    rng = np.random.Generator(np.random.Philox(key=23))
    n = 300
    grid = build_grid(1, 2.0, 4.0 / n)
    S, W = rng.standard_normal((2, n, n))
    for M in (S, W):
        M[rng.random((n, n)) < 0.2] = 0.0
        M[rng.random((n, n)) < 0.1] = -0.0
        np.fill_diagonal(M, 0.0)
    W[:50, :50] = W[:50, :50].T
    T_s, T_a = rng.standard_normal((2, n))
    scale = -2.0 * grid.cell_volume
    new = _completed_form(grid, S.copy(), W.copy(), T_s, T_a, {}, scale)
    S2, W2 = (S + S.T) * 0.5, (W - W.T) * 0.5
    sums = [np.sum(M, axis=1) for M in (S2, W2)]
    S2 *= scale
    W2 *= scale
    _same_bytes(new, _completed_form(grid, S2, W2, T_s, T_a, {}, scale, row_sums=sums))


def test_stencil_assembly_holds_the_two_arrays_and_at_most_one_block():
    kernel, grid = CASES["cone-2d-ball"]()
    n = grid.n_nodes
    assemble(kernel, grid)                      # imports and caches outside the trace
    tracemalloc.start()
    form = assemble(kernel, grid)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert form.A_s.shape == (n, n)
    assert peak < 2 * 8 * n * n + discretize._BLOCK_BYTES
