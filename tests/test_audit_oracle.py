"""The Caccioppoli audits, suffK1_check and sobolev_ratio against frozen copies
of their earlier, option-taking bodies (tests/_oracles.py): the reports are
equal with ==, every float bit for bit."""
import numpy as np
import pytest

from _oracles import (
    old_caccioppoli_audit,
    old_log_caccioppoli_audit,
    old_sobolev_ratio,
    old_suffK1_check,
)
from jumplab import assemble, build_grid, make_stable_kernel
from jumplab.assumptions import INF, BallSpec, sobolev_ratio, suffK1_check
from jumplab.estimates import caccioppoli_audit, log_caccioppoli_audit
from jumplab.kernels import philox_stream, random_smooth_positive_field

VARIANTS = ["primal", "dual", "dual_ext"]


@pytest.fixture(params=["stable_form_1d", "coeff_form_1d"])
def form(request):
    return request.getfixturevalue(request.param)


def _field(form):
    return random_smooth_positive_field(philox_stream(11, 0), 1)(form.grid.nodes)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("p", [0.5, 2.0])
def test_caccioppoli_audit_matches_frozen_copy(form, variant, p):
    u = _field(form)
    new = caccioppoli_audit(u, form, (0.0,), 0.4, 0.3, p, 0.1, variant=variant)
    assert new == old_caccioppoli_audit(u, form, (0.0,), 0.4, 0.3, p, 0.1, variant=variant)


@pytest.mark.parametrize("variant", VARIANTS)
def test_log_caccioppoli_audit_matches_frozen_copy(form, variant):
    u = _field(form)
    new = log_caccioppoli_audit(u, form, (0.0,), 0.4, 0.3, 0.1, variant=variant)
    assert new == old_log_caccioppoli_audit(u, form, (0.0,), 0.4, 0.3, 0.1, variant=variant)


@pytest.mark.parametrize("V, theta, gamma", [
    (lambda x: np.abs(np.asarray(x, dtype=float)[..., 0]) ** 0.4, 2.0, 0.6),
    (lambda x: np.sin(np.asarray(x, dtype=float)[..., 0]), INF, 1.0),
], ids=["hoelder-theta-2", "hoelder-theta-inf"])
def test_suffk1_check_matches_frozen_copy(V, theta, gamma):
    ball = BallSpec((0.0,), 0.5)
    new = suffK1_check(V, ball, theta, gamma, 1.0, spacing=0.02)
    assert new == old_suffK1_check(V, ball, theta, gamma, 1.0, spacing=0.02)
    assert new.verdict == "finite"


@pytest.mark.parametrize("seeded", [True, False])
def test_sobolev_ratio_matches_frozen_copy(seeded):
    g = build_grid(1, 2.0, 1 / 16, {"type": "box", "halfwidth": 1.0})
    F = assemble(make_stable_kernel(1, 0.5), g)
    ball = BallSpec((0.0,), 0.5, 0.25)
    rng = (lambda: philox_stream(3, 0)) if seeded else (lambda: None)
    new = sobolev_ratio(F, ball, 0.25, rng=rng())
    assert new == old_sobolev_ratio(F, ball, 0.25, rng=rng())
