import json
from pathlib import Path

import pytest

from jumplab.cli import main, run_scenario, _default_config, _validate, ConfigError


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

    def test_unparsable_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run(["harnack", "--config", bad, "--out", tmp_path / "o"]) == 2


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
        assert lines[0].startswith("alpha,")
        assert len(lines) == 3

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
        assert rep["steps"] == 7
        assert rep["t_end"] == pytest.approx(0.21)

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


@pytest.mark.parametrize("kind", ["assemble", "harnack"])
def test_run_scenario_builds_the_kernel_once(kind, tmp_path, monkeypatch):
    import jumplab.cli as cli
    from jumplab.kernels import kernel_from_config

    calls = []

    def counting(cfg):
        calls.append(cfg)
        return kernel_from_config(cfg)

    monkeypatch.setattr(cli, "kernel_from_config", counting)
    cfg = _default_config(kind)
    cfg["harness"].update({"ensemble": 1, "seed": 3})
    run_scenario(_validate(cfg), tmp_path)
    assert len(calls) == 1
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["kernel_hash"] == kernel_from_config(cfg["kernel"]).spec.digest()
