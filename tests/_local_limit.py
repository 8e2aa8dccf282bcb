"""Coefficients of the local limit for tests of ``mosco.resolvent_convergence``."""
from jumplab.mosco import local_coefficients


def probe_coefficients(family, grid):
    """``local_coefficients`` of family at every N_I // 20-th interior node of
    grid, with delta = 0.5: the probes at which the tests of
    ``resolvent_convergence`` (tests/test_mosco.py, tests/test_mosco_oracle.py
    and the acceptance tests) average the limit coefficients."""
    probe = grid.nodes[grid.interior][:: max(1, int(grid.interior.sum()) // 20)]
    return local_coefficients(family, probe, delta=0.5)
