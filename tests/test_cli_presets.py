"""The README command lines on their builtin presets, and their artifacts."""
import csv
import json
import os
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from jumplab.cli import (
    _RUNNERS,
    _build_kernel_grid,
    _sections,
    _default_config,
    _problem_from_config,
    _time_span,
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


def test_the_solve_preset_ends_on_the_horizon_it_asks_for(readme_runs):
    root, _ = readme_runs
    report = json.loads((root / "runs" / "solve" / "report.json").read_text())
    cfg = _default_config("solve")
    dt, horizon = _time_span(cfg, *_build_kernel_grid(cfg))
    assert report["t_end"] == horizon == 8 * dt and report["dt"] == dt
    assert report["steps"] == 8


def test_every_manifest_records_the_environment(readme_runs):
    root, codes = readme_runs
    harnesses = set()
    for path in sorted(root.rglob("manifest.json")):
        manifest = json.loads(path.read_text())
        harnesses.add(manifest["harness"])
        env = manifest["env"]
        assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
        assert env["python"] == ".".join(map(str, sys.version_info[:3]))
        assert set(env["blas"]) == {"name", "version"}
        assert env["threads"] == {var: os.environ.get(var) for var in
                                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        assert env["cpus"] == len(os.sched_getaffinity(0))
    assert harnesses == set(codes) == set(_RUNNERS)


def test_every_manifest_records_the_resolution(readme_runs):
    root, codes = readme_runs
    harnesses = set()
    for path in sorted(root.rglob("manifest.json")):
        manifest = json.loads(path.read_text())
        kind = manifest["harness"]
        harnesses.add(kind)
        res = manifest["resolution"]
        assert set(res) == {"h", "N", "N_I", "dt", "quad"}
        grid = _build_kernel_grid(manifest["config"])[1]
        if grid is None:            # algebra-tests
            assert res["h"] is res["N"] is res["N_I"] is None
        else:
            assert (res["h"], res["N"], res["N_I"]) == (
                grid.h, grid.n_nodes, int(grid.interior.sum()))
        if kind in ("solve", "harnack", "hoelder"):
            assert res["dt"] > 0.0
            report = json.loads((path.parent / "report.json").read_text())
            if "dt" in report:
                assert res["dt"] == report["dt"]
        else:
            assert res["dt"] is None
        if kind in ("assemble", "solve", "harnack", "hoelder", "caccioppoli"):
            assert set(res["quad"]) >= {"n_ang", "n_panels"}
        else:                       # K1 and mosco assemble no form
            assert res["quad"] is None
    assert harnesses == set(codes) == set(_RUNNERS)


def test_snapshot_rows_match_loop_reference(tmp_path):
    cfg = _default_config("solve")
    cfg["grid"]["h"] = 1 / 8
    cfg["problem"] = {"horizon": 0.2, "dt": 0.05}
    run_scenario(_validate(cfg), tmp_path)
    kernel, grid = _build_kernel_grid(cfg)
    sol = solve_parabolic(_problem_from_config(cfg, assemble(kernel, grid),
                                               *_time_span(cfg, kernel, grid)))
    expected = [["t", "node", "value"]] + [
        [repr(float(t)), str(ni), repr(float(sol.snapshots[ti, ni]))]
        for ti, t in enumerate(sol.times) for ni in range(grid.n_nodes)]
    with open(tmp_path / "snapshots.csv", newline="") as fh:
        assert list(csv.reader(fh)) == expected


def test_the_readme_example_config_validates():
    block = re.search(r"A scenario config looks like:\n\n```json\n(.*?)```", README.read_text(),
                      re.S).group(1)
    config = json.loads(block)
    assert _validate(config) is config


def _offered_flags(kind, capsys):
    """The flags besides --config and --out that ``jumplab <kind> --help`` lists."""
    with pytest.raises(SystemExit):
        main([kind, "--help"])
    return set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help", "--config",
                                                                      "--out"}


def test_the_readme_lists_the_keys_and_flags_of_each_command(capsys):
    section = re.search(r"## CLI\n(.*?)\n## ", README.read_text(), re.S).group(1)
    listed = {}     # the opening paragraph: `--flag` (command, command, ...)
    for flag, kinds in re.findall(r"`(--[a-z-]+)` \(([a-z,\s-]+)\)", section.split("```")[0]):
        for kind in re.split(r",\s*", kinds):
            listed.setdefault(kind, set()).add(flag)
    table = {}      # | command | harness keys | problem keys | flags | sections |
    optional = {}   # the sections in parentheses
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| ") and cells[0] in _RUNNERS:
            table[cells[0]] = [set(re.findall(r"`([^`]+)`", cell)) for cell in cells[1:]]
            optional[cells[0]] = set(re.findall(r"\(`([^`]+)`\)", cells[-1]))
    assert set(table) == set(_RUNNERS)
    for kind, command in _RUNNERS.items():
        flags = _offered_flags(kind, capsys)
        assert {flag[2:].replace("-", "_") for flag in flags} <= command.harness
        assert flags == listed.get(kind, set())
        assert table[kind] == [command.harness, command.problem, flags, _sections(command)]
        assert optional[kind] == _sections(command) - {"harness", *command.sections}
