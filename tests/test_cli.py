import json
import math
from pathlib import Path

import numpy as np
import pytest

from jumplab.cli import (DEFAULT_GRID, DEFAULT_KERNEL, main, run_scenario, _default_config,
                         _validate, ConfigError)
# mosco binds discretize.assemble when its code runs: run it now, before a test
# patches the home module, so that no patch outlives its test in mosco
from jumplab.mosco import alpha_family  # noqa: F401


CONE_2D = {"family": "cone", "d": 2, "alpha": 1.5, "beta": 0.5,
           "cone": {"axis": [1.0, 0.0], "half_angle": 0.7853981633974483},
           "double_cone": {"axis": [0.0, 1.0], "half_angle": 0.39269908169872414}}
DRIFT_1D = {"family": "drift", "d": 1, "alpha": 1.5}
STABLE_1D = {"family": "stable", "d": 1, "alpha": 1.5}
MOSCO_GRID = {"d": 1, "X": 1.0, "h": 1 / 32, "omega": {"type": "box", "halfwidth": 0.75}}


def run(args):
    return main([str(a) for a in args])


class TestValidation:
    def test_default_configs_validate(self):
        for kind in ("harnack", "hoelder", "caccioppoli", "algebra-tests",
                     "mosco", "assemble", "check-kernel"):
            _validate(_default_config(kind))

    def test_field_path_in_error(self):
        cfg = _default_config("harnack")
        cfg["kernel"]["alpha"] = 3.0
        with pytest.raises(ConfigError) as err:
            _validate(cfg)
        assert "alpha" in str(err.value)

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"harness": {"type": "harnack"},
                                   "kernel": {"family": "cone", "d": 1,
                                              "alpha": 5.0}}))
        assert run(["harnack", "--config", bad, "--out", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("command, drop, grid_d, path", [
        ("solve", "kernel", 1, "$['kernel']"),
        ("harnack", "grid", 1, "$['grid']"),
        ("assemble", None, 2, "$['grid']['d']"),
        ("check-kernel", "grid", 1, "$['grid']"),
        ("check-kernel", "kernel", 1, "$['kernel']"),
    ])
    def test_missing_or_mismatched_kernel_grid_exits_2(self, tmp_path, capsys,
                                                       command, drop, grid_d, path):
        cfg = _default_config(command)
        cfg["grid"]["d"] = grid_d
        cfg.pop(drop, None)
        if command == "check-kernel":
            cfg["harness"]["assumption"] = "Poinc"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run([command, "--config", bad, "--out", tmp_path / "o"]) == 2
        assert f"config error: {path}" in capsys.readouterr().err

    def test_unparsable_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run(["harnack", "--config", bad, "--out", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("kernel, message", [
        ({"family": "cone", "d": 1, "alpha": 1.5}, "missing entry or unknown preset 'cone'"),
        ({"family": "cone", "d": 1, "alpha": 1.5, "beta": 0.9,
          "cone": {"axis": [1.0], "half_angle": 0.7853981633974483}},
         "need 0 < 2*beta < alpha < 2"),
        ({"family": "drift", "d": 1, "alpha": 1.5, "V": "nope"},
         "missing entry or unknown preset 'nope'"),
        ({"family": "cone", "d": 1, "alpha": 1.5, "beta": 0.5,
          "cone": {"axis": 1.0, "half_angle": 0.7853981633974483}},
         "object is not iterable"),
    ])
    def test_a_kernel_the_config_cannot_make_exits_2(self, tmp_path, capsys, kernel, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kernel": kernel}))
        assert run(["check-kernel", "--config", bad, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: $['kernel']: ") and message in err

    @pytest.mark.parametrize("kernel, unread", [
        ({"family": "stable", "d": 1, "alpha": 1.5, "beta": 0.3, "lam": 7.0, "V": "sin-V",
          "cone": {"axis": [1.0], "half_angle": 0.7853981633974483}},
         "'V', 'beta', 'cone', 'lam'"),
        ({"family": "cone", "d": 1, "alpha": 1.5, "beta": 0.5, "coeff": 2.0, "L": 1.0,
          "cone": {"axis": [1.0], "half_angle": 0.7853981633974483}}, "'L', 'coeff'"),
        ({"family": "coefficient", "d": 1, "alpha": 1.5, "V": "sin-V", "L": 1.0}, "'L', 'V'"),
        ({"family": "drift", "d": 1, "alpha": 1.5, "g": "one", "coeff": 2.0}, "'coeff', 'g'"),
    ])
    def test_a_kernel_key_its_family_does_not_read_exits_2(self, tmp_path, capsys, kernel,
                                                          unread):
        bad, out = tmp_path / "bad.json", tmp_path / "o"
        bad.write_text(json.dumps({"kernel": kernel}))
        assert run(["check-kernel", "--config", bad, "--out", out]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: $['kernel']: a {kernel['family']} kernel does not read {unread}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, harness, path", [
        ("harnack", {"R": 2.0}, "$['harness']['R']: 2.0 is greater than the maximum of 1"),
        ("check-kernel", {"assumption": "Tail", "R": 2.0},
         "$['harness']['R']: 2.0 is greater than the maximum of 1"),
        ("check-kernel", {"assumption": "Tail", "R": 0.0},
         "$['harness']['R']: 0.0 is less than or equal to the minimum of 0"),
        ("check-kernel", {"assumption": "Tail", "R": 0.5, "rho": 0.9},
         "$['harness']: need 0 < rho <= r"),
        ("check-kernel", {"assumption": "Tail", "R": 0.5, "center": [3.5]},
         "$['harness']: B_2r leaves the domain"),
    ])
    def test_a_radius_or_ball_out_of_range_exits_2(self, tmp_path, capsys, command,
                                                   harness, path):
        cfg = _default_config(command)
        cfg["grid"]["h"] = 1 / 8
        cfg["harness"].update(harness)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run([command, "--config", bad, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == f"config error: {path}\n"

    @pytest.mark.parametrize("command, cfg, path", [
        ("check-kernel", {"kernel": {"family": "cone", "d": 1, "alpha": 1.5}}, "$['kernel']"),
        ("check-kernel", {"harness": {"assumption": "Poinc", "R": 0.5, "rho": 0.9},
                          "kernel": CONE_2D,
                          "grid": {"d": 2, "X": 2.0, "h": 1 / 16,
                                   "omega": {"type": "box", "halfwidth": 1.5}}},
         "$['harness']: need 0 < rho <= r"),
        ("solve", {**_default_config("solve"), "problem": {"horizon": 1e-6}},
         "$['problem']['horizon']: 1e-06 is shorter than one time step"),
        # B_2R = [0.2, 2.2] leaves the preset's domain (halfwidth 1.5) and its box (X = 2)
        ("check-kernel", {**_default_config("check-kernel"),
                          "harness": {"assumption": "K1", "center": [1.2], "R": 0.5}},
         "$['harness']: B_2r leaves the domain\n"),
        ("solve", {**_default_config("solve"),
                   "grid": {**DEFAULT_GRID, "omega": {"type": "box"}}},
         "$['grid']: missing entry 'halfwidth'\n"),
        ("solve", {**_default_config("solve"),
                   "grid": {**DEFAULT_GRID, "omega": {"type": "ball", "raduis": 1.0}}},
         "$['grid']['omega']: Additional properties are not allowed ('raduis' was "
         "unexpected)\n"),
        ("harnack", {**_default_config("harnack"), "harness": {"ensemlbe": 2}},
         "$['harness']: Additional properties are not allowed ('ensemlbe' was unexpected)\n"),
        ("assemble", {**_default_config("assemble"), "kernels": {}},
         "$: Additional properties are not allowed ('kernels' was unexpected)\n"),
        # a 2-vector centre on the 1D grid would broadcast into two boxes
        ("solve", {**_default_config("solve"),
                   "grid": {**DEFAULT_GRID, "omega": {"type": "box", "halfwidth": 1.0,
                                                      "center": [0.5, -0.5]}}},
         "$['grid']: domain center [0.5, -0.5] needs d = 1 entries\n"),
        ("harnack", {**_default_config("harnack"), "harness": {"center": [0.0, 0.0]}},
         "$['harness']['center']: [0.0, 0.0] needs d = 1 entries\n"),
        ("check-kernel", {**_default_config("check-kernel"), "harness": {"center": [0.0, 0.0]}},
         "$['harness']['center']: [0.0, 0.0] needs d = 1 entries\n"),
        ("check-kernel", {**_default_config("check-kernel"),
                          "kernel": {**DEFAULT_KERNEL,
                                     "cone": {**DEFAULT_KERNEL["cone"], "duoble": True}}},
         "$['kernel']['cone']: Additional properties are not allowed ('duoble' was "
         "unexpected)\n"),
        ("check-kernel", {**_default_config("check-kernel"),
                          "kernel": {**DEFAULT_KERNEL, "double_cone": {"axis": [1.0]}}},
         "$['kernel']['double_cone']: 'half_angle' is a required property\n"),
        # a negative delta gave a negative a_00 at every alpha and exit 0
        ("mosco", {"harness": {"delta": -0.5}},
         "$['harness']['delta']: -0.5 is less than or equal to the minimum of 0\n"),
        ("mosco", {"harness": {"alphas": [2.5]}},
         "$['harness']['alphas'][0]: 2.5 is greater than or equal to the maximum of 2\n"),
        ("mosco", {"harness": {"alphas": []}}, "$['harness']['alphas']: [] should be non-empty\n"),
        # one distinct alpha: the limit fit was rank-deficient
        ("mosco", {"harness": {"alphas": [1.9, 1.9]}},
         "$['harness']['alphas']: [1.9, 1.9] has non-unique elements\n"),
        ("mosco", {"harness": {"lam_resolvent": 0}},
         "$['harness']['lam_resolvent']: 0 is less than or equal to the minimum of 0\n"),
        # mosco runs the family of the configured kernel: no selector of its own
        ("mosco", {"harness": {"family": "drift"}, "kernel": DRIFT_1D, "grid": MOSCO_GRID},
         "$['harness']: Additional properties are not allowed ('family' was unexpected)\n"),
        ("mosco", {"kernel": DEFAULT_KERNEL, "grid": MOSCO_GRID},
         "$['kernel']: the alpha-family of a 'cone' kernel is not defined: it needs a "
         "stable, drift or coefficient kernel\n"),
        # c_{1,0.5} = 0.1995 lies below (2 - 0.5) / 4
        ("mosco", {"harness": {"alphas": [0.5]}, "kernel": STABLE_1D, "grid": MOSCO_GRID},
         "$['kernel']: family member alpha=0.5 violates the (2-alpha) comparison bound "
         "with Lam=4.0\n"),
        ("mosco", {"grid": MOSCO_GRID}, "$['kernel']: required for mosco\n"),
        ("mosco", {"kernel": STABLE_1D}, "$['grid']: required for mosco\n"),
        ("caccioppoli", {**_default_config("caccioppoli"), "harness": {"p_list": [1.0]}},
         "$['harness']['p_list']: [1.0] holds p = 1"),
        ("caccioppoli", {**_default_config("caccioppoli"), "harness": {"p_list": [0.5, 1]}},
         "$['harness']['p_list']: [0.5, 1] holds p = 1"),
        ("caccioppoli", {**_default_config("caccioppoli"), "harness": {"p_list": [-1.0]}},
         "$['harness']['p_list'][0]: -1.0 is less than or equal to the minimum of 0\n"),
        ("caccioppoli", {**_default_config("caccioppoli"), "harness": {"p_list": []}},
         "$['harness']['p_list']: [] should be non-empty\n"),
        # two members gave four rows of caccioppoli.csv, each value twice
        ("caccioppoli", {**_default_config("caccioppoli"),
                         "harness": {"p_list": [0.5, 0.5], "ensemble": 2}},
         "$['harness']['p_list']: [0.5, 0.5] has non-unique elements\n"),
        # every comparison with NaN is false: NaN passed the bounds and exited 3
        ("mosco", {"harness": {"delta": math.nan}},
         "$['harness']['delta']: NaN is not a finite number\n"),
        ("mosco", {"harness": {"alphas": [1.5, math.inf]}},
         "$['harness']['alphas'][1]: Infinity is not a finite number\n"),
        ("caccioppoli", {**_default_config("caccioppoli"), "harness": {"eps": -math.inf}},
         "$['harness']['eps']: -Infinity is not a finite number\n"),
        ("caccioppoli", {**_default_config("caccioppoli"), "harness": {"rho": -0.3}},
         "$['harness']['rho']: -0.3 is less than or equal to the minimum of 0\n"),
        ("caccioppoli", {**_default_config("caccioppoli"), "harness": {"eps": -5}},
         "$['harness']['eps']: -5 is less than the minimum of 0\n"),
        ("algebra-tests", {"harness": {"samples": 0}},
         "$['harness']['samples']: 0 is less than the minimum of 1\n"),
        # B_0.5(1.4) reaches 1.9 past the halfwidth 1.5: the late box read the collar datum
        ("harnack", {**_default_config("harnack"), "harness": {"center": [1.4]}},
         "$['harness']: B_R(center) leaves the domain: center offset + R = 1.9 > box "
         "halfwidth 1.5\n"),
        ("hoelder", {**_default_config("hoelder"), "harness": {"center": [-1.2], "R": 0.4}},
         "$['harness']: B_R(center) leaves the domain: center offset + R = 1.6 > box "
         "halfwidth 1.5\n"),
        # the kernel's diagonal orders are measured, not set
        ("check-kernel", {"kernel": {**DRIFT_1D, "v_holder": 0.5}},
         "$['kernel']: Additional properties are not allowed ('v_holder' was unexpected)\n"),
        ("check-kernel", {"kernel": {"family": "coefficient", "d": 1, "alpha": 1.5,
                                     "g_smoothness": 1.0}},
         "$['kernel']: Additional properties are not allowed ('g_smoothness' was "
         "unexpected)\n"),
        # numbers no check-kernel assumption can mean: each exited 3 after making --out,
        # or 0 with a meaningless report
        ("check-kernel", {"harness": {"assumption": "suffK1", "gamma": 0.7}, "kernel": DRIFT_1D},
         "$['harness']['gamma']: 0.7 is not above alpha/2 = 0.75\n"),
        ("check-kernel", {"harness": {"assumption": "suffK1", "gamma": 1.2}, "kernel": DRIFT_1D},
         "$['harness']['gamma']: 1.2 is greater than the maximum of 1\n"),
        # null selected a second estimate of the gamma = 1 quotient
        ("check-kernel", {"harness": {"assumption": "suffK1", "gamma": None}, "kernel": DRIFT_1D},
         "$['harness']['gamma']: None is not of type 'number'\n"),
        ("check-kernel", {"harness": {"assumption": "Cutoff", "zeta": -1}, "kernel": DRIFT_1D},
         "$['harness']['zeta']: -1 is less than or equal to the minimum of 0\n"),
        ("check-kernel", {"harness": {"assumption": "good-set", "D": 1.5}, "kernel": DRIFT_1D},
         "$['harness']['D']: 1.5 is greater than or equal to the maximum of 1\n"),
        ("check-kernel", {"harness": {"assumption": "CP", "theta_exp": 0.5}, "kernel": DRIFT_1D},
         "$['harness']['theta_exp']: 0.5 is not above d/alpha = 0.6666666666666666\n"),
        ("check-kernel", {"harness": {"assumption": "CP", "mu": 0.5}, "kernel": DRIFT_1D},
         "$['harness']['mu']: 0.5 is less than or equal to the minimum of 1\n"),
        ("check-kernel", {"harness": {"assumption": "Tail", "A": -2}, "kernel": DRIFT_1D},
         "$['harness']['A']: -2 is less than or equal to the minimum of 0\n"),
        ("check-kernel", {"harness": {"assumption": "K1", "theta_exp": -1}, "kernel": DRIFT_1D},
         "$['harness']['theta_exp']: -1 is less than or equal to the minimum of 0\n"),
        # an exponent string other than "inf": "big" exited 3 after making --out, "Inf"
        # and "-inf" read as float(...)
        *[("check-kernel", {"harness": {"assumption": name, key: word}, "kernel": DRIFT_1D},
           f"$['harness'][{key!r}]: {word!r} does not match '^inf$'\n")
          for name, key in (("K1", "theta_exp"), ("CP", "mu"))
          for word in ("big", "nan", "-inf", "Inf")],
        # cylinders too small for their grid: each exited 3 after making --out
        ("hoelder", {**_default_config("hoelder"), "grid": DEFAULT_GRID},
         "$['harness']: R = 0.5 is too small for h = 0.03125: hoelder reads B_0.0625(center), "
         "which holds 4 grid nodes, fewer than 8\n"),
        ("harnack", {**_default_config("harnack"), "harness": {"R": 0.01}},
         "$['harness']: R = 0.01 is too small for h = 0.03125: harnack reads B_0.005(center), "
         "which holds 0 grid nodes, fewer than 1\n"),
        # K_s = 0.5 c |h|^{-1-alpha} < |K_a| = 0.9 |h| c |h|^{-1-alpha} at |h| = 0.8: exited 0
        ("harnack", {"kernel": {**DRIFT_1D, "j": 0.5, "V": {"preset": "linear-V", "b": [0.9]}},
                     "grid": DEFAULT_GRID},
         "$['kernel']: kernel is negative on the validation lattice\n"),
        # K(0, 0.9) = (0.5 - 0.6 * 0.9) c |h|^{-1-alpha} < 0 inside L = 1, between the
        # lattice's distances 0.8 and 1.6: exited 0
        ("harnack", {"kernel": {**DRIFT_1D, "L": 1.0, "j": 0.5,
                                "V": {"preset": "linear-V", "b": [0.6]}},
                     "grid": DEFAULT_GRID},
         "$['kernel']: kernel is negative on the validation lattice\n"),
        # |V(x) - V(y)| = sqrt 2 r on the diagonal, above lam = 1 inside L = 1, and
        # K(0, (0.65, 0.65)) < 0: the axes alone saw r <= 1 and it exited 0
        ("check-kernel", {"kernel": {"family": "drift", "d": 2, "alpha": 1.0, "L": 1.0,
                                     "V": {"preset": "linear-V", "b": [1.0, 1.0]}}},
         "$['kernel']: potential increment exceeds lam inside the truncation radius"),
        # keys the command does not read: each ran and exited 0
        ("solve", {**_default_config("solve"), "harness": {"alphas": [1.5]}},
         "$['harness']: solve does not read 'alphas'\n"),
        ("harnack", {**_default_config("harnack"), "problem": {"variant": "dual"}},
         "$['problem']: harnack does not read 'variant'\n"),
        ("mosco", {"harness": {"seed": 3}}, "$['harness']: mosco does not read 'seed'\n"),
        ("assemble", {**_default_config("assemble"), "harness": {"center": [0.0]}},
         "$['harness']: assemble does not read 'center'\n"),
    ], ids=["cone-without-beta", "poinc-2d-rho-above-R", "solve-horizon-below-dt",
            "check-kernel-ball-off-domain", "omega-without-halfwidth", "omega-misspelt-radius",
            "unknown-harness-key", "unknown-top-level-key", "omega-center-of-wrong-length",
            "harnack-center-of-wrong-length", "check-kernel-center-of-wrong-length",
            "misspelt-cone-key", "double-cone-without-half-angle", "mosco-negative-delta",
            "mosco-alpha-2.5", "mosco-no-alphas", "mosco-equal-alphas", "mosco-zero-lam",
            "mosco-family", "mosco-cone-kernel", "mosco-alpha-0.5", "mosco-without-kernel",
            "mosco-without-grid",
            "caccioppoli-p-1", "caccioppoli-p-list-with-1", "caccioppoli-negative-p",
            "caccioppoli-no-p", "caccioppoli-repeated-p", "mosco-nan-delta",
            "mosco-infinite-alpha", "caccioppoli-minus-infinite-eps", "caccioppoli-negative-rho",
            "caccioppoli-negative-eps",
            "algebra-no-samples", "harnack-ball-off-domain", "hoelder-ball-off-domain",
            "drift-v-holder", "coefficient-g-smoothness", "suffK1-gamma-at-alpha-over-2",
            "suffK1-gamma-above-1", "suffK1-gamma-null", "cutoff-negative-zeta", "good-set-D-above-1",
            "cp-theta-below-d-over-alpha", "cp-mu-below-1", "tail-negative-A",
            "k1-negative-theta", *[f"{key}-{word}" for key in ("k1-theta", "cp-mu")
                                   for word in ("big", "nan", "minus-inf", "Inf")],
            "hoelder-h-1/32", "harnack-R-0.01", "drift-j-below-its-potential-increment",
            "drift-j-below-its-increment-between-lattice-distances",
            "drift-2d-increment-above-lam-on-the-diagonal", "solve-alphas", "harnack-variant",
            "mosco-seed", "assemble-center"])
    def test_a_refused_config_assembles_nothing_and_leaves_no_output(
            self, tmp_path, capsys, monkeypatch, command, cfg, path):
        def refuse(*args, **kw):
            raise AssertionError("a refused config assembled a form")

        monkeypatch.setattr("jumplab.discretize.assemble", refuse)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run([command, "--config", bad, "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}")
        assert not out.exists()

    def test_a_number_that_overflows_is_refused_as_infinity(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"harness": {"type": "mosco", "delta": 1e400}}')
        assert run(["mosco", "--config", bad, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == ("config error: $['harness']['delta']: 1e400 is not "
                                           "a finite number\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("alphas", ["nan", "1.5,inf", "1.9,-inf"])
    def test_a_non_finite_alpha_on_the_command_line_exits_2(self, tmp_path, capsys, alphas):
        # named with its path in the config, like a non-finite number of the file
        assert run(["mosco", "--alphas", alphas, "--out", tmp_path / "o"]) == 2
        index, bad = alphas.count(","), alphas.split(",")[-1]
        assert capsys.readouterr().err == (f"config error: $['harness']['alphas'][{index}]: "
                                           f"{bad} is not a finite number\n")
        assert not (tmp_path / "o").exists()

    def test_a_word_for_an_alpha_on_the_command_line_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["mosco", "--alphas", "1.5,big", "--out", tmp_path / "o"])
        assert exc.value.code == 2
        assert "argument --alphas: invalid _float_list value" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("omega, center, R, inside", [
        ({"type": "box", "halfwidth": 1.5}, [1.0], 0.5, True),       # touches the edge
        ({"type": "box", "halfwidth": 1.5}, [-1.0 - 1e-9], 0.5, False),
        ({"type": "box", "halfwidth": 0.5, "center": [1.0]}, [1.25], 0.25, True),
        ({"type": "box", "halfwidth": 0.5, "center": [1.0]}, [0.0], 0.25, False),
        ({"type": "ball", "radius": 1.0}, [0.6, 0.0], 0.4, True),
        ({"type": "ball", "radius": 1.0}, [0.6, 0.6], 0.1, True),    # |c| + R = 0.949 <= 1
        ({"type": "ball", "radius": 1.0}, [0.6, 0.6], 0.2, False),   # a box test would pass
        ({"type": "ball", "radius": 0.5, "center": [0.5, 0.0]}, [0.5, 0.25], 0.25, True),
        ({"type": "ball", "radius": 0.5, "center": [0.5, 0.0]}, [0.0, 0.0], 0.25, False),
    ])
    def test_the_cylinder_ball_must_lie_in_the_domain(self, omega, center, R, inside):
        import jumplab.cli as cli
        from jumplab.discretize import build_grid
        from jumplab.kernels import kernel_from_config

        d = len(center)
        # h = 1/16: B_R/2 of each cylinder inside holds a node, as _inside asks
        grid = build_grid(d, 2.0, 1 / 16, omega)
        cfg = {"harness": {"type": "harnack", "center": center, "R": R}}
        kernel = kernel_from_config({"family": "stable", "d": d, "alpha": 1.0})
        if inside:
            (cyl,) = cli._inside(cfg, kernel, grid)
            assert cyl.R == R and cyl.center == tuple(center)
        else:
            with pytest.raises(ConfigError, match=r"^\$\['harness'\]: B_R\(center\) leaves"):
                cli._inside(cfg, kernel, grid)

    @pytest.mark.parametrize("kind, R, nodes, ok", [
        # at h = 1/32 the nodes lie at odd multiples of 1/64: B_R/2 of harnack
        # holds a node for R/2 > 1/64, B_R/8 of hoelder 8 nodes for R/8 > 7/64
        ("harnack", 0.04, 2, True), ("harnack", 0.03, 0, False),
        ("hoelder", 0.9, 8, True), ("hoelder", 0.85, 6, False),
    ])
    def test_the_cylinder_must_hold_the_nodes_its_run_reads(self, kind, R, nodes, ok):
        import jumplab.cli as cli
        from jumplab.discretize import build_grid
        from jumplab.kernels import kernel_from_config

        grid = build_grid(1, 2.0, 1 / 32, {"type": "box", "halfwidth": 1.5})
        cfg = {"harness": {"type": kind, "R": R}}
        kernel = kernel_from_config({"family": "stable", "d": 1, "alpha": 1.5})
        radius = R / 2 if kind == "harnack" else R / 8
        assert int(np.sum(grid.ball_mask((0.0,), radius))) == nodes
        if ok:
            assert cli._inside(cfg, kernel, grid)[0].R == R
        else:
            with pytest.raises(ConfigError, match=rf"^\$\['harness'\]: R = {R} is too small "
                                                  rf"for h = 0.03125: {kind} reads B_"):
                cli._inside(cfg, kernel, grid)


class TestRunners:
    def test_harnack_artifacts_and_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = run(["harnack", "--out", out, "--seed", 7, "--ensemble", 3])
            assert code == 0
        assert (a / "harnack.csv").read_bytes() == (b / "harnack.csv").read_bytes()
        manifest = json.loads((a / "manifest.json").read_text())
        assert manifest["config"]["harness"]["seed"] == 7
        assert "kernel_hash" in manifest
        assert (a / "summary.txt").exists()

    def test_different_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["harnack", "--out", a, "--seed", 1, "--ensemble", 3])
        run(["harnack", "--out", b, "--seed", 2, "--ensemble", 3])
        assert (a / "harnack.csv").read_bytes() != (b / "harnack.csv").read_bytes()

    def test_check_kernel_cone_preset(self, tmp_path):
        code = run(["check-kernel", "--out", tmp_path, "--assumption", "good-set"])
        assert code == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert 0 <= rep["fraction"] <= 1

    def test_check_kernel_k1_on_config(self, tmp_path):
        cfg = {
            "harness": {"type": "check-kernel", "assumption": "K1", "R": 1.0,
                        "center": [0.0, 0.0]},
            "kernel": {"family": "cone", "d": 2, "alpha": 1.5, "beta": 0.5,
                       "cone": {"axis": [1.0, 0.0],
                                "half_angle": 0.7853981633974483},
                       "double_cone": {"axis": [0.0, 1.0],
                                       "half_angle": 0.39269908169872414}},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["check-kernel", "--config", path, "--out", tmp_path]) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["verdict"] == "finite"

    def test_algebra_tests(self, tmp_path):
        assert run(["algebra-tests", "--out", tmp_path, "--seed", 5]) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert all(l["min_margin"] >= -1e-12 for l in rep["lemmas"])

    def test_mosco_gap_table(self, tmp_path):
        assert run(["mosco", "--out", tmp_path, "--alphas", "1.5,1.9"]) == 0
        lines = (tmp_path / "mosco.csv").read_text().strip().splitlines()
        assert lines[0] == "alpha,a_00,b_0,resolvent_gap"
        assert len(lines) == 3

    def test_mosco_2d_writes_every_coefficient(self, tmp_path):
        cfg = {"harness": {"type": "mosco", "alphas": [1.9]},
               "kernel": {"family": "drift", "d": 2, "alpha": 1.5, "L": 2.0,
                          "V": {"preset": "linear-V", "b": [0.4, -0.2]}},
               "grid": {"d": 2, "X": 0.5, "h": 1 / 8,
                        "omega": {"type": "box", "halfwidth": 0.375}}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["mosco", "--config", path, "--out", tmp_path]) == 0
        header, row, *rest = (tmp_path / "mosco.csv").read_text().strip().splitlines()
        assert not rest
        assert header == "alpha,a_00,a_01,a_10,a_11,b_0,b_1,resolvent_gap"
        vals = [float(v) for v in row.split(",")]
        a, b = np.reshape(vals[1:5], (2, 2)), np.array(vals[5:7])
        # one alpha: the limits are the moments at that alpha
        rep = json.loads((tmp_path / "report.json").read_text())
        assert vals[0] == 1.9
        assert np.array_equal(a, rep["a_limit"]) and np.array_equal(b, rep["b_limit"])
        assert a[0, 1] == a[1, 0] and abs(a[0, 1]) < 1e-12 * a[0, 0]
        # linear potential: b_i = a_ii * dV/dx_i
        assert np.allclose(b, np.diag(a) * [0.4, -0.2], rtol=1e-8, atol=0.0)

    def test_mosco_runs_the_family_of_the_configured_kernel(self, tmp_path):
        # a drift kernel without V or L: kernel_from_config's linear V with b = 1 and L = 1
        from jumplab.cli import write_csv
        from jumplab.discretize import build_grid
        from jumplab.kernels import kernel_from_config
        from jumplab.mosco import alpha_family, local_coefficients, resolvent_convergence

        cfg = {"harness": {"type": "mosco", "alphas": [1.8, 1.9]}, "kernel": DRIFT_1D,
               "grid": MOSCO_GRID}
        run_scenario(_validate(cfg), tmp_path / "run")
        kernel = kernel_from_config(DRIFT_1D)
        family = alpha_family(kernel, (1.8, 1.9))
        grid = build_grid(1, 1.0, 1 / 32, MOSCO_GRID["omega"])
        probe = grid.nodes[grid.interior][:: max(1, int(grid.interior.sum()) // 10)]
        coeffs = local_coefficients(family, probe, delta=0.5)
        f = lambda x: np.exp(-4 * np.sum(np.asarray(x) ** 2, axis=-1))
        res = resolvent_convergence(family, grid, f, 5.0, coeffs)
        write_csv(tmp_path / "mosco.csv", ["alpha", "a_00", "b_0", "resolvent_gap"],
                  [(a, np.mean(coeffs["a"][a]), np.mean(coeffs["b"][a]), gap)
                   for a, gap in zip(res["alphas"], res["gaps"])])
        assert ((tmp_path / "run" / "mosco.csv").read_text()
                == (tmp_path / "mosco.csv").read_text())
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["kernel_hash"] == kernel.spec.digest()

    def test_solve_snapshots(self, tmp_path):
        cfg = _default_config("solve")
        cfg["grid"]["h"] = 1 / 8
        cfg["problem"] = {"horizon": 0.2, "dt": 0.05}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["solve", "--config", path, "--out", tmp_path]) == 0
        lines = (tmp_path / "snapshots.csv").read_text().strip().splitlines()
        assert lines[0] == "t,node,value"
        assert len(lines) == 1 + 5 * 32

    def test_solve_reports_effective_horizon(self, tmp_path):
        cfg = _default_config("solve")
        cfg["grid"]["h"] = 1 / 8
        cfg["problem"] = {"horizon": 0.2, "dt": 0.03}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["solve", "--config", path, "--out", tmp_path]) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        # seven steps of 0.2 / 7 <= 0.03 end on the horizon
        assert rep["steps"] == 7 and rep["dt"] == 0.2 / 7
        assert rep["t_end"] == 0.2
        assert "t_end_requested" not in (tmp_path / "summary.txt").read_text()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["resolution"]["dt"] == 0.2 / 7

    def test_solve_refuses_a_horizon_shorter_than_one_step(self, tmp_path, capsys):
        cfg = _default_config("solve")
        cfg["grid"]["h"] = 1 / 8
        cfg["problem"] = {"dt": 1.0, "horizon": 0.01}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["solve", "--config", path, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "config error: $['problem']['horizon']" in err
        assert "0.01" in err and "dt = 1.0" in err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_assemble_with_dump(self, tmp_path):
        cfg = _default_config("assemble")
        cfg["grid"]["h"] = 1 / 8
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        dump = tmp_path / "form.csv"
        assert run(["assemble", "--config", path, "--out", tmp_path,
                    "--dump-form", dump]) == 0
        assert dump.exists()
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["constants_null_defect"] < 1e-6

    def test_relative_dump_path_is_taken_from_the_working_directory(self, tmp_path,
                                                                    monkeypatch):
        cfg = _default_config("assemble")
        cfg["grid"]["h"] = 1 / 8
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        monkeypatch.chdir(tmp_path)
        assert run(["assemble", "--config", "cfg.json", "--out", "o",
                    "--dump-form", "form.csv"]) == 0
        assert (tmp_path / "form.csv").exists()
        assert not (tmp_path / "o" / "form.csv").exists()

    def test_caccioppoli_runner(self, tmp_path):
        assert run(["caccioppoli", "--out", tmp_path, "--ensemble", 5,
                    "--seed", 2]) == 0
        lines = (tmp_path / "caccioppoli.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 5


def test_run_scenario_runs_hoelder(tmp_path):
    cfg = _default_config("hoelder")
    cfg["grid"]["h"] = 1 / 64
    cfg["harness"].update({"ensemble": 3, "seed": 4})
    out = run_scenario(_validate(cfg), tmp_path)
    assert 0 <= out["fraction_in_range"] <= 1


FORM_COMMANDS = {"assemble", "solve", "harnack", "hoelder", "caccioppoli", "check-kernel Poinc"}


@pytest.mark.parametrize("command", sorted(FORM_COMMANDS) + [
    "algebra-tests", "mosco", "check-kernel"])
def test_run_scenario_builds_the_kernel_once(command, tmp_path, monkeypatch):
    import jumplab.cli as cli
    from jumplab.discretize import assemble
    from jumplab.kernels import kernel_from_config

    kind, *assumption = command.split()
    calls = {"kernel": 0, "assemble": 0}

    def counting(name, real):
        def wrapped(*args):
            calls[name] += 1
            return real(*args)
        return wrapped

    monkeypatch.setattr("jumplab.kernels.kernel_from_config",
                        counting("kernel", kernel_from_config))
    monkeypatch.setattr("jumplab.discretize.assemble", counting("assemble", assemble))
    real_runner, returned = cli._RUNNERS[kind].run, []

    def runner(*args):
        # a runner returns its results and leaves the writing to run_scenario
        result = real_runner(*args)
        assert [p.name for p in tmp_path.rglob("*")] == ["out"]
        returned.append(result)
        return result

    monkeypatch.setitem(cli._RUNNERS, kind, cli._RUNNERS[kind]._replace(run=runner))
    monkeypatch.chdir(tmp_path)
    cfg = _default_config(kind)
    for key, value in (("ensemble", 1), ("seed", 3), ("alphas", [1.5])):
        if key in cli._RUNNERS[kind].harness:      # a key the command does not read exits 2
            cfg["harness"][key] = value
    if assumption:
        cfg["harness"]["assumption"] = assumption[0]
    out = tmp_path / "out"
    run_scenario(_validate(cfg), out)
    assert calls == {"kernel": int("kernel" in cfg), "assemble": int(command in FORM_COMMANDS)}
    ((summary, report, tables),) = returned
    written = {p.name for p in out.iterdir()}
    assert written == {"manifest.json", "report.json", "summary.txt"} | {
        str(path) for path, _, _ in tables}
    report_json = json.loads(json.dumps(cli._json_safe(report)))
    assert json.loads((out / "report.json").read_text()) == report_json
    manifest = json.loads((out / "manifest.json").read_text())
    if "kernel" in cfg:
        assert manifest["kernel_hash"] == kernel_from_config(cfg["kernel"]).spec.digest()


ASSUMPTIONS = ["K1", "K1glob", "K2", "Cutoff", "Poinc", "Sob", "Tail", "CP", "suffK1",
               "coercivity", "good-set", "summary"]
# the checks that do not fit the builtin preset, a 1D cone kernel with alpha = 1.5,
# and the field that rules each out
UNFIT_ON_THE_PRESET = {"K2": "$['kernel']['family']", "suffK1": "$['kernel']['family']",
                       "Sob": "$['kernel']['alpha']"}


def _strict_json(path):
    def refuse(constant):
        raise ValueError(f"{path.name} holds {constant}")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_the_assumption_table_is_the_schema_enum():
    import jumplab.cli as cli

    assert cli.SCHEMA["properties"]["harness"]["properties"]["assumption"]["enum"] == ASSUMPTIONS
    assert list(cli._ASSUMPTIONS) == ASSUMPTIONS
    reads_form = {a for a in ASSUMPTIONS
                  if cli._needs_form({"type": "check-kernel", "assumption": a})}
    assert reads_form == {"Poinc", "Sob", "coercivity"}


def test_the_command_table_holds_every_schema_key():
    import jumplab.cli as cli

    sections = cli.SCHEMA["properties"]
    assert set().union(*(c.harness for c in cli._RUNNERS.values())) | {"type"} == set(
        sections["harness"]["properties"])
    assert len(sections["harness"]["properties"]) == 21
    assert set().union(*(c.problem for c in cli._RUNNERS.values())) == set(
        sections["problem"]["properties"])


@pytest.mark.parametrize("assumption", ASSUMPTIONS)
def test_every_assumption_on_the_builtin_preset(assumption, tmp_path, capsys):
    code = run(["check-kernel", "--assumption", assumption, "--out", tmp_path])
    if assumption in UNFIT_ON_THE_PRESET:
        # a check that does not fit the kernel is a config error, never a
        # number computed on a stand-in
        assert code == 2
        assert f"config error: {UNFIT_ON_THE_PRESET[assumption]}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
    else:
        assert code == 0
        assert _strict_json(tmp_path / "report.json")["assumption"] == assumption
        assert _strict_json(tmp_path / "manifest.json")["harness"] == "check-kernel"


def test_k1_on_the_preset_reads_the_order_pre_test(tmp_path):
    # the preset's K_s has order beta = 0.5 and J = stable(1, 1.5): K1 read finite
    # with domination_ratio 50.97 at h = 1/32
    for assumption in ("K1", "summary"):
        assert run(["check-kernel", "--assumption", assumption,
                    "--out", tmp_path / assumption]) == 0
    rep = _strict_json(tmp_path / "K1" / "report.json")
    assert rep["verdict"] == "divergent" and rep["constants"] == {"norm": "inf"}
    assert rep["notes"].startswith("J's diagonal order 1.5 exceeds K_s's 0.5")
    assert (tmp_path / "summary" / "summary.txt").read_text().startswith(
        "check-kernel: K1 divergent, good-set ")


def _report(kernel, assumption, tmp_path):
    cfg = {"harness": {"type": "check-kernel", "assumption": assumption}, "kernel": kernel,
           "grid": dict(DEFAULT_GRID)}
    run_scenario(_validate(cfg), tmp_path)
    return _strict_json(tmp_path / "report.json")


@pytest.mark.parametrize("kernel, D", [
    ({"family": "coefficient", "d": 1, "alpha": 1.5}, 0.5),            # lam 1, Lam 3
    ({"family": "coefficient", "d": 1, "alpha": 1.5, "g": "one", "Lam": 2.0}, 1 / 3),
])
def test_k2_reads_lam_and_Lam_of_the_kernel(kernel, D, tmp_path):
    assert _report(kernel, "K2", tmp_path)["D"] == D


@pytest.mark.parametrize("kernel", [
    {"family": "coefficient", "d": 1, "alpha": 1.5},
    {"family": "coefficient", "d": 1, "alpha": 1.5, "g": "one", "Lam": 2.0},
])
def test_k2_reports_the_kernel_own_D_next_to_the_class_bound(kernel, tmp_path):
    rep = _report(kernel, "K2", tmp_path)
    if kernel.get("g") == "one":
        assert rep["D_lattice"] == 0.0          # g symmetric: K_a = 0
    else:
        assert 0.0 < rep["D_lattice"] <= rep["D"]


def test_sob_refuses_alpha_at_least_d_before_assembly(tmp_path, monkeypatch, capsys):
    assembled = []
    monkeypatch.setattr("jumplab.discretize.assemble",
                        lambda *args, **kw: assembled.append(args))
    code = run(["check-kernel", "--assumption", "Sob", "--out", tmp_path])
    assert code == 2
    assert "config error: $['kernel']['alpha']" in capsys.readouterr().err
    assert assembled == []


def test_suffk1_checks_the_potential_of_the_drift_kernel(tmp_path):
    # the default drift kernel is built on linear-V with b = 1: its Hoelder-1
    # quotient is 1 at every pair of points
    rep = _report({"family": "drift", "d": 1, "alpha": 1.5}, "suffK1", tmp_path)
    assert rep["constants"]["seminorm_max"] == 1.0
    rep = _report({"family": "drift", "d": 1, "alpha": 1.5,
                   "V": {"preset": "linear-V", "b": [0.5]}}, "suffK1", tmp_path)
    assert rep["constants"]["seminorm_max"] == 0.5


@pytest.mark.parametrize("gamma0, verdict", [(0.5, "divergent"), (0.75, "divergent"),
                                             (0.9, "finite")])
def test_k1_reads_the_drift_order_of_a_holder_potential(gamma0, verdict, tmp_path):
    # V = |x|^gamma0: K_a^2 / J ~ |h|^{2 gamma0 - 1 - alpha} at x = 0, which is
    # not integrable for 2 gamma0 <= alpha; the lattice of a run without a
    # grid holds 0
    cfg = {"harness": {"type": "check-kernel", "assumption": "K1"},
           "kernel": {"family": "drift", "d": 1, "alpha": 1.5, "L": 0.5,
                      "V": {"preset": "abs-power-V", "gamma0": gamma0}}}
    run_scenario(_validate(cfg), tmp_path)
    assert _strict_json(tmp_path / "report.json")["verdict"] == verdict
