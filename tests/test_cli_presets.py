"""The README command lines on their builtin presets, and their artifacts."""
import csv
import json
import os
import re
import shlex
from pathlib import Path

import pytest

from jumplab.cli import (
    _build_kernel_grid,
    _default_config,
    _problem_from_config,
    _validate,
    main,
    run_scenario,
)
from jumplab.discretize import assemble
from jumplab.solve import RESIDUAL_TOL, solve_parabolic

README = Path(__file__).resolve().parents[1] / "README.md"
ENSEMBLE_COMMANDS = {"harnack", "hoelder", "caccioppoli"}
LABEL_COLUMNS = {"lemma", "flat"}


def readme_commands():
    block = re.search(r"## CLI.*?```sh\n(.*?)```", README.read_text(), re.S).group(1)
    lines = [line.split("#")[0].strip() for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("jumplab ")]


def _with_small_ensemble(args):
    args = list(args)
    if args[0] not in ENSEMBLE_COMMANDS:
        return args
    if "--ensemble" in args:
        args[args.index("--ensemble") + 1] = "2"
        return args
    return args + ["--ensemble", "2"]


@pytest.fixture(scope="module")
def readme_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("readme")
    here = os.getcwd()
    os.chdir(root)
    try:
        codes = {args[0]: main(_with_small_ensemble(args)) for args in readme_commands()}
    finally:
        os.chdir(here)
    return root, codes


def _reject_constant(token):
    raise ValueError(f"non-finite literal {token}")


def test_all_readme_commands_exit_zero(readme_runs):
    _, codes = readme_runs
    assert len(codes) == 8
    assert codes == {name: 0 for name in codes}


def test_every_csv_data_cell_is_a_number(readme_runs):
    root, _ = readme_runs
    paths = sorted(root.rglob("*.csv"))
    assert {p.name for p in paths} >= {"snapshots.csv", "form.csv", "mosco.csv",
                                       "harnack.csv", "hoelder.csv"}
    for path in paths:
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert rows, path.name
        for row in rows:
            assert len(row) == len(header), path.name
            for name, cell in zip(header, row):
                if name in LABEL_COLUMNS:
                    continue
                if name == "gamma_fit" and row[header.index("flat")] == "True":
                    assert cell == ""
                    continue
                float(cell)


def test_json_artifacts_are_strict(readme_runs):
    root, _ = readme_runs
    for path in sorted(root.rglob("*.json")):
        json.loads(path.read_text(), parse_constant=_reject_constant)
    k1 = json.loads((root / "runs" / "k1" / "report.json").read_text(),
                    parse_constant=_reject_constant)
    assert k1["exponents"]["theta"] == "inf"


def test_ensemble_manifests_record_each_member_step_residual(readme_runs):
    root, _ = readme_runs
    for name in ("harnack", "hoelder"):
        manifest = json.loads((root / "runs" / name / "manifest.json").read_text())
        residuals = manifest["health"]["max_step_residual"]
        assert len(residuals) == 2                      # --ensemble 2
        assert all(0.0 <= r <= RESIDUAL_TOL for r in residuals)


def test_snapshot_rows_match_loop_reference(tmp_path):
    cfg = _default_config("solve")
    cfg["grid"]["h"] = 1 / 8
    cfg["problem"] = {"horizon": 0.2, "dt": 0.05}
    run_scenario(_validate(cfg), tmp_path)
    kernel, grid = _build_kernel_grid(cfg)
    sol = solve_parabolic(_problem_from_config(cfg, assemble(kernel, grid)))
    expected = [["t", "node", "value"]] + [
        [repr(float(t)), str(ni), repr(float(sol.snapshots[ti, ni]))]
        for ti, t in enumerate(sol.times) for ni in range(grid.n_nodes)]
    with open(tmp_path / "snapshots.csv", newline="") as fh:
        assert list(csv.reader(fh)) == expected
